package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/fault"
	"accdb/internal/interference"
	"accdb/internal/server/wire"
	"accdb/internal/spi"
	"accdb/internal/tpcc"
	"accdb/internal/trace"
	"accdb/internal/wal"
	"accdb/pkg/accclient"
)

// moveArgs is the argument record of the test transaction.
type moveArgs struct {
	ID      int64
	Account int64
}

// moveCodec is moveArgs's codec (16 bytes, big-endian ID then Account),
// registered for "move" only: move_legacy is the same transaction without
// one, which the wire cannot run.
var moveCodec = &wire.ArgCodec{
	Name:  "move",
	New:   func() any { return &moveArgs{} },
	Reset: func(v any) { *v.(*moveArgs) = moveArgs{} },
	Encode: func(dst []byte, v any) []byte {
		a := v.(*moveArgs)
		dst = binary.BigEndian.AppendUint64(dst, uint64(a.ID))
		return binary.BigEndian.AppendUint64(dst, uint64(a.Account))
	},
	Decode: func(data []byte, v any) error {
		if len(data) != 16 {
			return fmt.Errorf("move: want 16 bytes, got %d", len(data))
		}
		a := v.(*moveArgs)
		a.ID = int64(binary.BigEndian.Uint64(data[:8]))
		a.Account = int64(binary.BigEndian.Uint64(data[8:]))
		return nil
	},
}

func init() { wire.RegisterArgCodec(moveCodec) }

// moveSys is a two-step "move" system behind a server: step 1 journals,
// step 2 bumps an account balance; compensation removes the journal entry.
type moveSys struct {
	eng *core.Engine
	db  *core.DB
	srv *Server
	ln  net.Listener

	serveDone chan error
}

func newMoveSys(t *testing.T, cfg func(*Config), engOpts ...core.Option) *moveSys {
	t.Helper()
	db := core.NewDB()
	accounts := db.MustCreateTable(spi.MustSchema("accounts", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "balance", Kind: spi.KindInt},
	}, "id"))
	db.MustCreateTable(spi.MustSchema("journal", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "account", Kind: spi.KindInt},
	}, "id"))
	// Enough account rows that concurrency tests can give every worker a
	// disjoint row (shared rows would serialize on the account lock).
	for i := 1; i <= 64; i++ {
		if err := accounts.Insert(spi.Row{spi.Int(i), spi.I64(100)}); err != nil {
			t.Fatal(err)
		}
	}

	b := interference.NewBuilder()
	txnMove := b.TxnType("move", 2)
	txnLegacy := b.TxnType("move_legacy", 2)
	stJournal := b.StepType("journal")
	stUpdate := b.StepType("update")
	stComp := b.StepType("comp")

	opts := append([]core.Option{
		core.WithMode(core.ModeACC),
		core.WithWaitTimeout(10 * time.Second),
	}, engOpts...)
	eng := core.New(db, b.Build(), opts...)
	mkMove := func(name string, id interference.TxnTypeID) *core.TxnType {
		return &core.TxnType{
			Name: name,
			ID:   id,
			Steps: []core.Step{
				{
					Name: "journal", Type: stJournal,
					Body: func(tc *core.Ctx) error {
						a := tc.Args().(*moveArgs)
						return tc.Insert("journal", spi.Row{
							spi.I64(a.ID), spi.I64(a.Account),
						})
					},
				},
				{
					Name: "update", Type: stUpdate,
					Body: func(tc *core.Ctx) error {
						a := tc.Args().(*moveArgs)
						return tc.Update("accounts", []spi.Value{spi.I64(a.Account)},
							func(row spi.Row) error {
								row[1] = spi.I64(row[1].Int64() + 1)
								return nil
							})
					},
				},
			},
			Comp: &core.Compensation{
				Type: stComp,
				Body: func(tc *core.Ctx, completed int) error {
					a := tc.Args().(*moveArgs)
					if completed >= 1 {
						return tc.Delete("journal", spi.I64(a.ID))
					}
					return nil
				},
			},
		}
	}
	eng.MustRegister(mkMove("move", txnMove))
	eng.MustRegister(mkMove("move_legacy", txnLegacy))

	c := Config{Engine: eng}
	if cfg != nil {
		cfg(&c)
	}
	srv := New(c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &moveSys{eng: eng, db: db, srv: srv, ln: ln, serveDone: make(chan error, 1)}
	go func() { s.serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return s
}

// rawConn is a minimal synchronous client for tests that need precise
// control over the connection (abrupt closes, pipelining).
type rawConn struct {
	t *testing.T
	c net.Conn
}

func dialRaw(t *testing.T, addr net.Addr) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, c: c}
}

func (rc *rawConn) send(id uint64, name string, args *moveArgs) {
	rc.t.Helper()
	if err := wire.WriteRequest(rc.c, mustReq(id, name, args)); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) recv() *wire.Response {
	rc.t.Helper()
	resp, err := wire.ReadResponse(rc.c)
	if err != nil {
		rc.t.Fatal(err)
	}
	return resp
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRunOverWire covers the basic request/response cycle including the
// work-area echo, and the error statuses for unknown types and a truncated
// argument record.
func TestRunOverWire(t *testing.T) {
	s := newMoveSys(t, nil)
	rc := dialRaw(t, s.ln.Addr())
	defer rc.c.Close()

	rc.send(1, "move", &moveArgs{ID: 10, Account: 2})
	resp := rc.recv()
	if resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("unexpected response: %+v", resp)
	}
	var out moveArgs
	if err := moveCodec.Decode(resp.Result, &out); err != nil {
		t.Fatal(err)
	}
	if resp.Fmt != wire.FmtBinary || out.ID != 10 || out.Account != 2 {
		t.Fatalf("work area mangled: %+v in %+v", out, resp)
	}

	rc.send(2, "no-such", &moveArgs{})
	if resp := rc.recv(); resp.Status != wire.StatusUnknownType {
		t.Fatalf("want unknown-type, got %+v", resp)
	}

	short := mustReq(3, "move", &moveArgs{ID: 11, Account: 2})
	short.Args = short.Args[:7]
	if err := wire.WriteRequest(rc.c, short); err != nil {
		t.Fatal(err)
	}
	if resp := rc.recv(); resp.ID != 3 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("truncated argument record accepted: %+v", resp)
	}
	if n := s.eng.Snapshot().Commits; n != 1 {
		t.Fatalf("commits = %d: a refused request executed", n)
	}

	if err := wire.WriteRequest(rc.c, &wire.Request{ID: 4, Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	if resp := rc.recv(); resp.ID != 4 || resp.Status != wire.StatusOK {
		t.Fatalf("ping failed: %+v", resp)
	}
}

// TestDisconnectCompensates is the tentpole integrity property: a client
// that vanishes mid-transaction — blocked in a lock wait with one step
// already durable — must have its wait aborted, its completed prefix
// compensated, and every lock (conventional and the paper's A/D/C marks)
// released.
func TestDisconnectCompensates(t *testing.T) {
	s := newMoveSys(t, nil)

	// An in-process blocker camps on account 1's X spi.
	held := make(chan struct{})
	release := make(chan struct{})
	blockerDone := make(chan error, 1)
	go func() {
		blockerDone <- s.eng.RunLegacy("blocker", func(tc *core.Ctx) error {
			err := tc.Update("accounts", []spi.Value{spi.I64(1)},
				func(spi.Row) error { return nil })
			if err != nil {
				return err
			}
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	// The remote move completes step 1 (journal insert, exposure +
	// reservation marks attached) and parks in step 2's lock wait.
	rc := dialRaw(t, s.ln.Addr())
	rc.send(1, "move", &moveArgs{ID: 77, Account: 1})
	waitFor(t, "the move to block in the lock wait", func() bool {
		return len(s.eng.Locks().Snapshot().Edges) > 0
	})

	// Client vanishes. The session context cancels, the wait aborts, and
	// compensation (running under a background context) undoes step 1.
	rc.c.Close()
	waitFor(t, "compensation after disconnect", func() bool {
		return s.eng.Snapshot().Compensations == 1
	})

	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}

	// Every lock is gone: conventional grants, assertional locks, exposure
	// marks, and compensation reservations.
	waitFor(t, "an empty lock table", func() bool {
		snap := s.eng.Locks().Snapshot()
		for _, sh := range snap.Shards {
			for _, item := range sh.Items {
				if len(item.Grants) > 0 || len(item.Queue) > 0 {
					return false
				}
			}
		}
		return true
	})
	waitFor(t, "the session to be reaped", func() bool {
		return s.srv.Stats().Conns == 0
	})

	// The journal entry is compensated away; the account row is untouched
	// and immediately lockable.
	if err := s.eng.Run("move", &moveArgs{ID: 78, Account: 1}); err != nil {
		t.Fatalf("post-disconnect move: %v", err)
	}
	count := 0
	err := s.eng.RunLegacy("count", func(tc *core.Ctx) error {
		count = 0
		return tc.Scan("journal", func(spi.Row) error {
			count++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("journal rows = %d, want 1 (the disconnected move's entry compensated away)", count)
	}
}

// TestAdmissionControl verifies the bounded in-flight budget: with
// MaxInFlight=1 and the single slot parked in a lock wait, a second request
// fails fast with queue-full rather than queueing.
func TestAdmissionControl(t *testing.T) {
	s := newMoveSys(t, func(c *Config) { c.MaxInFlight = 1 })

	held := make(chan struct{})
	release := make(chan struct{})
	blockerDone := make(chan error, 1)
	go func() {
		blockerDone <- s.eng.RunLegacy("blocker", func(tc *core.Ctx) error {
			err := tc.Update("accounts", []spi.Value{spi.I64(1)},
				func(spi.Row) error { return nil })
			if err != nil {
				return err
			}
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	rc := dialRaw(t, s.ln.Addr())
	defer rc.c.Close()
	rc.send(1, "move", &moveArgs{ID: 50, Account: 1}) // occupies the only slot
	waitFor(t, "the slot to fill", func() bool { return s.srv.Stats().InFlight == 1 })

	rc.send(2, "move", &moveArgs{ID: 51, Account: 2})
	resp := rc.recv()
	if resp.ID != 2 || resp.Status != wire.StatusQueueFull {
		t.Fatalf("want queue-full for request 2, got %+v", resp)
	}
	if got := s.srv.Stats().RejectedFull; got != 1 {
		t.Fatalf("RejectedFull = %d, want 1", got)
	}

	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
	if resp := rc.recv(); resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("request 1 should commit after the blocker releases: %+v", resp)
	}
}

// TestPipelining issues many concurrent requests on one connection and
// checks every response arrives, correlated by id.
func TestPipelining(t *testing.T) {
	s := newMoveSys(t, nil)
	rc := dialRaw(t, s.ln.Addr())
	defer rc.c.Close()

	const n = 32
	for i := 1; i <= n; i++ {
		rc.send(uint64(i), "move", &moveArgs{ID: int64(100 + i), Account: int64(i%4 + 1)})
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		resp := rc.recv()
		if resp.Status != wire.StatusOK {
			t.Fatalf("request %d: %+v", resp.ID, resp)
		}
		if seen[resp.ID] {
			t.Fatalf("duplicate response id %d", resp.ID)
		}
		seen[resp.ID] = true
	}
	if st := s.eng.Snapshot(); st.Commits != n {
		t.Fatalf("commits = %d, want %d", st.Commits, n)
	}
}

// TestDrainUnderTPCCLoad is the graceful-shutdown property at the scale the
// design demands: 64 concurrent TPC-C client connections in full flight,
// Shutdown mid-load, every in-flight transaction finishes (commit or
// compensation), and the twelve-component consistency constraint holds over
// the final database — with compensated order-number holes observed
// server-side through the OnOutcome hook.
func TestDrainUnderTPCCLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-C load")
	}
	scale := tpcc.DefaultScale()
	db := core.NewDB()
	if err := tpcc.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := tpcc.Load(db, scale, 1); err != nil {
		t.Fatal(err)
	}
	types := tpcc.BuildTypes()
	eng := core.New(db, types.Tables,
		core.WithMode(core.ModeACC),
		core.WithWaitTimeout(20*time.Second),
	)
	if _, err := tpcc.Register(eng, types, scale); err != nil {
		t.Fatal(err)
	}
	holes := tpcc.NewHoleTracker()
	srv := New(Config{
		Engine:      eng,
		MaxInFlight: 256,
		OnOutcome:   holes.Observe,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// 64 terminals, each with its own TCP connection, hammering the mix.
	const terminals = 64
	w := tpcc.NewRemoteWorkload(nil, tpcc.DefaultWorkloadConfig(scale))
	var completed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for term := 0; term < terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := rand.New(rand.NewSource(int64(1000 + term)))
			var id uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				id++
				name, args := w.DrawArgs(r, term)
				payload := wire.CodecFor(name).Encode(nil, args)
				if err := wire.WriteRequest(conn, &wire.Request{ID: id, Op: wire.OpRun, Fmt: wire.FmtBinary, Name: []byte(name), Args: payload}); err != nil {
					return // server closed the session post-drain
				}
				resp, err := wire.ReadResponse(conn)
				if err != nil {
					return
				}
				switch resp.Status {
				case wire.StatusOK, wire.StatusCompensated, wire.StatusAborted:
					completed.Add(1)
				case wire.StatusDraining:
					return
				case wire.StatusQueueFull:
					// over-admission pressure: back off implicitly via loop
				default:
					t.Errorf("terminal %d: unexpected status %s: %s", term, resp.Status, resp.Msg)
					return
				}
			}
		}(term)
	}

	// Let the load build, then drain mid-flight.
	waitFor(t, "sustained load", func() bool { return completed.Load() > 500 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	st := srv.Stats()
	es := eng.Snapshot()
	t.Logf("drained: admitted=%d rejected_full=%d rejected_draining=%d commits=%d compensations=%d",
		st.Admitted, st.RejectedFull, st.RejectedDraining, es.Commits, es.Compensations)
	if st.InFlight != 0 {
		t.Fatalf("in-flight after drain = %d", st.InFlight)
	}
	if !eng.Closed() {
		t.Fatal("engine not closed after drain")
	}
	if es.Commits == 0 {
		t.Fatal("no commits before drain — load never ran")
	}
	if errs := tpcc.CheckConsistency(db, scale, holes.Holes()); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("%d consistency violations after drain", len(errs))
	}
}

// TestDrainRefusesNewWork checks the drain fast-path: once Shutdown begins,
// new requests on existing sessions get StatusDraining.
func TestDrainRefusesNewWork(t *testing.T) {
	s := newMoveSys(t, nil)
	rc := dialRaw(t, s.ln.Addr())
	defer rc.c.Close()

	// One committed request proves the session works.
	rc.send(1, "move", &moveArgs{ID: 60, Account: 3})
	if resp := rc.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("pre-drain move: %+v", resp)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.srv.Shutdown(ctx) }()
	waitFor(t, "drain to begin", func() bool { return s.srv.Stats().Draining })

	// The session may already be torn down (drain had nothing in flight);
	// either a draining refusal or a closed connection is acceptable.
	err := wire.WriteRequest(rc.c, mustReq(2, "move", &moveArgs{ID: 61, Account: 3}))
	if err == nil {
		if resp, rerr := wire.ReadResponse(rc.c); rerr == nil && resp.Status != wire.StatusDraining {
			t.Fatalf("want draining refusal, got %+v", resp)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !s.eng.Closed() {
		t.Fatal("drain must close the engine (forcing the WAL)")
	}
	if err := s.eng.Run("move", &moveArgs{ID: 62, Account: 3}); !errors.Is(err, core.ErrEngineClosed) {
		t.Fatalf("engine should refuse post-drain work, got %v", err)
	}
}

// mustReq frames a request for name carrying a move record — the bytes a
// client holding moveCodec would send, whatever the server makes of name.
func mustReq(id uint64, name string, args *moveArgs) *wire.Request {
	return &wire.Request{ID: id, Op: wire.OpRun, Fmt: wire.FmtBinary, Name: []byte(name), Args: moveCodec.Encode(nil, args)}
}

// TestBinaryRequestRoundTrip covers the pooled codec end to end at the
// server: a request decodes through the registered codec, runs, and answers
// with a FmtBinary result; a format byte other than FmtBinary, truncated
// bytes, and a type with no codec are each rejected before anything
// executes.
func TestBinaryRequestRoundTrip(t *testing.T) {
	s := newMoveSys(t, nil)
	rc := dialRaw(t, s.ln.Addr())
	defer rc.c.Close()

	codec := wire.CodecFor("move")
	if codec == nil {
		t.Fatal("move codec not registered")
	}
	argBytes := codec.Encode(nil, &moveArgs{ID: 70, Account: 1})
	if err := wire.WriteRequest(rc.c, &wire.Request{ID: 1, Op: wire.OpRun, Fmt: wire.FmtBinary, Name: []byte("move"), Args: argBytes}); err != nil {
		t.Fatal(err)
	}
	resp := rc.recv()
	if resp.ID != 1 || resp.Status != wire.StatusOK || resp.Fmt != wire.FmtBinary {
		t.Fatalf("binary round trip: %+v", resp)
	}
	var out moveArgs
	if err := codec.Decode(resp.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 70 || out.Account != 1 {
		t.Fatalf("work area mangled: %+v", out)
	}

	if err := wire.WriteRequest(rc.c, &wire.Request{ID: 2, Op: wire.OpRun, Name: []byte("move"), Args: argBytes}); err != nil {
		t.Fatal(err)
	}
	if resp := rc.recv(); resp.ID != 2 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("format byte 0 accepted: %+v", resp)
	}

	if err := wire.WriteRequest(rc.c, &wire.Request{ID: 3, Op: wire.OpRun, Fmt: wire.FmtBinary, Name: []byte("move"), Args: argBytes[:7]}); err != nil {
		t.Fatal(err)
	}
	if resp := rc.recv(); resp.ID != 3 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("truncated binary args accepted: %+v", resp)
	}

	if err := wire.WriteRequest(rc.c, &wire.Request{ID: 4, Op: wire.OpRun, Fmt: wire.FmtBinary, Name: []byte("move_legacy"), Args: argBytes}); err != nil {
		t.Fatal(err)
	}
	if resp := rc.recv(); resp.ID != 4 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("binary request without codec should be bad-request, got %+v", resp)
	}
	if n := s.eng.Snapshot().Commits; n != 1 {
		t.Fatalf("commits = %d: a refused request executed", n)
	}
}

// TestUnknownTierRefused: a request whose read-tier byte names no tier is
// answered StatusBadRequest before it reaches Exec — no snapshot is opened
// and nothing commits — and the connection stays usable.
func TestUnknownTierRefused(t *testing.T) {
	s := newMoveSys(t, nil)
	rc := dialRaw(t, s.ln.Addr())
	defer rc.c.Close()

	for i, tier := range []uint8{2, 3, 255} {
		req := mustReq(uint64(i+1), "move", &moveArgs{ID: int64(80 + i), Account: 1})
		req.Tier = tier
		if err := wire.WriteRequest(rc.c, req); err != nil {
			t.Fatal(err)
		}
		resp := rc.recv()
		if resp.Status != wire.StatusBadRequest || !strings.Contains(string(resp.Msg), "unknown read tier") {
			t.Errorf("tier %d: got status %v %q, want an unknown-tier refusal", tier, resp.Status, resp.Msg)
		}
	}
	if vm := s.eng.Versions(); vm.SnapshotsOpened != 0 {
		t.Fatalf("a refused tier reached Exec: %d snapshots opened", vm.SnapshotsOpened)
	}
	if n := s.eng.Snapshot().Commits; n != 0 {
		t.Fatalf("commits = %d: a refused request executed", n)
	}
	rc.send(9, "move", &moveArgs{ID: 90, Account: 1})
	if resp := rc.recv(); resp.ID != 9 || resp.Status != wire.StatusOK {
		t.Fatalf("locked request after the refusals: %+v", resp)
	}
}

// TestGroupCommitAcrossSessions is the cross-session group-commit
// acceptance check: many concurrent client sessions commit against a
// WAL-backed engine with a group window, and one leader's force must cover
// whole windows of them — WAL syncs per commit well under 0.25, versus up to
// one sync per commit ungrouped.
func TestGroupCommitAcrossSessions(t *testing.T) {
	l := wal.New(0)
	l.SetGroupWindow(2 * time.Millisecond)
	s := newMoveSys(t, func(c *Config) { c.MaxInFlight = 256 }, core.WithWAL(l))

	cli, err := accclient.Dial(s.ln.Addr().String(), accclient.WithPoolSize(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const workers = 32
	const perWorker = 20
	var nextID atomic.Int64
	nextID.Store(10_000)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				args := &moveArgs{ID: nextID.Add(1), Account: int64(i + 1)}
				if err := cli.Run(context.Background(), "move", args); err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	commits := s.eng.Snapshot().Commits
	forces := l.Snapshot().Forces
	if commits != workers*perWorker {
		t.Fatalf("commits = %d, want %d", commits, workers*perWorker)
	}
	ratio := float64(forces) / float64(commits)
	t.Logf("forces=%d commits=%d syncs/commit=%.3f", forces, commits, ratio)
	if ratio >= 0.25 {
		t.Fatalf("group commit ineffective: %d forces for %d commits (%.2f syncs/commit)", forces, commits, ratio)
	}
}

// BenchmarkServerThroughput measures end-to-end wire throughput of the
// default TPC-C mix under the production client: 64 pipelined terminals
// multiplexed over a pooled connection, binary argument codec, batched
// frame writes. This is the configuration EXPERIMENTS.md cites.
func BenchmarkServerThroughput(b *testing.B) {
	benchServerThroughput(b, nil)
}

// BenchmarkServerThroughputSpans is the same load with the latency-anatomy
// layer recording a span per request — the pair quantifies the observability
// tax EXPERIMENTS.md tracks (budget: <3% over the spans-off number).
func BenchmarkServerThroughputSpans(b *testing.B) {
	benchServerThroughput(b, trace.NewAnatomy(trace.AnatomyConfig{}))
}

func benchServerThroughput(b *testing.B, anatomy *trace.Anatomy) {
	scale := tpcc.DefaultScale()
	db := core.NewDB()
	if err := tpcc.CreateSchema(db); err != nil {
		b.Fatal(err)
	}
	if err := tpcc.Load(db, scale, 1); err != nil {
		b.Fatal(err)
	}
	types := tpcc.BuildTypes()
	eng := core.New(db, types.Tables,
		core.WithMode(core.ModeACC),
		core.WithWaitTimeout(20*time.Second),
	)
	if _, err := tpcc.Register(eng, types, scale); err != nil {
		b.Fatal(err)
	}
	srv := New(Config{
		Engine:      eng,
		MaxInFlight: 512,
		Anatomy:     anatomy,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	cli, err := accclient.Dial(ln.Addr().String(), accclient.WithPoolSize(8))
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	w := tpcc.NewRemoteWorkload(nil, tpcc.DefaultWorkloadConfig(scale))
	const terminals = 64
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	ctx := context.Background()
	var wg sync.WaitGroup
	b.ResetTimer()
	for term := 0; term < terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(term + 1)))
			for remaining.Add(-1) >= 0 {
				name, args := w.DrawArgs(r, term)
				if err := cli.Run(ctx, name, args); err != nil && !benignBenchErr(err) {
					b.Error(err)
					return
				}
			}
		}(term)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txn/s")
}

// benignBenchErr filters transaction outcomes the TPC-C mix produces by
// design (rollbacks, deadlock victims, admission pushback) from real
// benchmark failures.
func benignBenchErr(err error) bool {
	return core.IsCompensated(err) ||
		errors.Is(err, core.ErrAborted) ||
		errors.Is(err, core.ErrDeadlockVictim) ||
		errors.Is(err, core.ErrLockTimeout) ||
		errors.Is(err, accclient.ErrQueueFull)
}

// serveStack serves a small TPC-C partition set until the test ends.
func serveStack(t *testing.T, partitions int, walDir string, cfg Config) (*tpcc.Stack, *Server, net.Addr) {
	t.Helper()
	st, err := tpcc.NewStack(tpcc.StackConfig{
		Partitions: partitions,
		Scale:      tpcc.Scale{Warehouses: partitions, Districts: 2, CustomersPerDistrict: 10, Items: 20, InitialOrdersPerDistrict: 5, NewOrderBacklog: 2},
		Seed:       1,
		WALDir:     walDir,
		Engine:     []core.Option{core.WithWaitTimeout(10 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = st.Set
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		st.Close()
	})
	return st, srv, ln.Addr()
}

// TestLogFailureOverWire: a commit whose force failed is answered with an
// internal error — never OK — through a served partition set; the client
// does not retry it, the outcome hook sees ErrLogFailed (accd's cue to stop),
// and the failed partition keeps refusing while it stays up.
func TestLogFailureOverWire(t *testing.T) {
	var sawLogFailed atomic.Int64
	st, _, addr := serveStack(t, 2, t.TempDir(), Config{
		OnOutcome: func(_ string, _ any, err error) {
			if errors.Is(err, core.ErrLogFailed) {
				sawLogFailed.Add(1)
			}
		},
	})
	cli, err := accclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	w := tpcc.NewRemoteWorkload(nil, tpcc.DefaultWorkloadConfig(st.Scale))
	r := rand.New(rand.NewSource(1))
	pay := func(wid int64) error {
		a := w.PaymentArgs(r)
		a.WID, a.CWID = wid, wid
		return cli.Run(context.Background(), "payment", a)
	}
	if err := pay(1); err != nil {
		t.Fatal(err)
	}

	c := fault.NewController(1)
	c.Arm("wal.sync.error", fault.Spec{Effect: fault.Error, Nth: 1})
	c.Activate()
	before := cli.Stats()
	err = pay(1)
	fault.Deactivate()
	if err == nil || !strings.Contains(err.Error(), wire.StatusInternal.String()) ||
		!strings.Contains(err.Error(), "write-ahead log failed") || !strings.Contains(err.Error(), "partition 0") {
		t.Fatalf("commit over a failed fsync answered %v, want an internal error naming the log and the partition", err)
	}
	if after := cli.Stats(); after.Attempts != before.Attempts+1 {
		t.Fatalf("client retried a log failure: attempts %d -> %d", before.Attempts, after.Attempts)
	}
	if sawLogFailed.Load() != 1 {
		t.Fatalf("outcome hook saw ErrLogFailed %d times, want 1", sawLogFailed.Load())
	}
	if err := pay(1); err == nil {
		t.Fatal("the failed partition accepted another write")
	}
	if err := pay(2); err != nil {
		t.Fatalf("the healthy partition stopped serving: %v", err)
	}
}

// TestShortWorkAreaRefused: a client sizes the work-area vectors of the
// record it sends, and the step bodies index them by line and by district —
// so a well-formed frame with short vectors must be answered bad-request
// with nothing executed, not reach a step (where it would index out of range
// and, with nothing between the session goroutine and the body recovering,
// take the server down). The server keeps serving afterwards.
func TestShortWorkAreaRefused(t *testing.T) {
	st, srv, addr := serveStack(t, 1, "", Config{})
	rc := dialRaw(t, addr)
	defer rc.c.Close()
	run := func(id uint64, name string, args any) *wire.Response {
		t.Helper()
		req := &wire.Request{ID: id, Op: wire.OpRun, Fmt: wire.FmtBinary, Name: []byte(name), Args: wire.CodecFor(name).Encode(nil, args)}
		if err := wire.WriteRequest(rc.c, req); err != nil {
			t.Fatal(err)
		}
		return rc.recv()
	}

	lines := []tpcc.OrderLineReq{{ItemID: 1, SupplyW: 1, Quantity: 1}, {ItemID: 2, SupplyW: 1, Quantity: 1}}
	for i, c := range []struct {
		what string
		name string
		args any
	}{
		{"delivery with no district slots", "delivery", &tpcc.DeliveryArgs{WID: 1, Carrier: 1}},
		{"delivery sized for another scale", "delivery", &tpcc.DeliveryArgs{WID: 1, Claimed: make([]int64, 3), Amounts: make([]int64, 3), Customers: make([]int64, 3)}},
		{"delivery with short Amounts", "delivery", &tpcc.DeliveryArgs{WID: 1, Claimed: make([]int64, 2), Amounts: make([]int64, 1), Customers: make([]int64, 2)}},
		{"new_order with no Filled/Amounts", "new_order", &tpcc.NewOrderArgs{WID: 1, DID: 1, CID: 1, Lines: lines}},
		{"new_order with short Amounts", "new_order", &tpcc.NewOrderArgs{WID: 1, DID: 1, CID: 1, Lines: lines, Filled: make([]int64, 2), Amounts: make([]int64, 1)}},
	} {
		if resp := run(uint64(i+1), c.name, c.args); resp.Status != wire.StatusBadRequest {
			t.Errorf("%s: answered %s (%s), want bad-request", c.what, resp.Status, resp.Msg)
		}
	}
	if got := srv.Stats().BadRequests; got != 5 {
		t.Errorf("BadRequests = %d, want 5", got)
	}
	if es := st.Set.Engine(0).Snapshot(); es.Commits != 0 || es.Compensations != 0 {
		t.Errorf("a refused request executed: %+v", es)
	}
	ok := &tpcc.DeliveryArgs{WID: 1, Carrier: 1, Claimed: make([]int64, 2), Amounts: make([]int64, 2), Customers: make([]int64, 2)}
	if resp := run(9, "delivery", ok); resp.Status != wire.StatusOK {
		t.Fatalf("the server stopped serving: %s (%s)", resp.Status, resp.Msg)
	}
}
