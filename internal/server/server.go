// Package server is accd's network front end: it exposes an engine's
// registered transaction types over a TCP wire protocol (internal/server/wire)
// with per-connection sessions, bounded admission, and graceful drain.
//
// Each connection is a session: a reader goroutine decodes frames, admitted
// requests execute concurrently (the protocol is pipelined — responses are
// correlated by request id, not order), and responses are written under a
// per-connection mutex. Every request runs under the connection's context:
// when the client disconnects mid-transaction the context is cancelled, the
// engine aborts any in-progress lock wait, and completed steps are
// compensated (§3.4) — a vanished client never strands exposure marks or
// reservations in the lock table.
//
// Admission is a fixed budget of in-flight requests. When the budget is
// exhausted new requests fail fast with StatusQueueFull instead of queueing
// unboundedly; the client decides whether to back off and retry. Shutdown
// drains: the listener closes, new requests get StatusDraining, in-flight
// requests run to completion (commit or compensation), the WAL is forced,
// and only then do the sessions close.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/metrics"
	"accdb/internal/server/wire"
	"accdb/internal/trace"
)

// DefaultMaxInFlight bounds concurrently executing requests when Config
// leaves MaxInFlight zero.
const DefaultMaxInFlight = 128

// Runner is the execution surface the server drives. accd always serves a
// *partition.Set (of one partition by default); the seam exists so this
// package need not import the router and its tests can serve a bare
// *core.Engine, which satisfies it too.
type Runner interface {
	// TypeBytes resolves a transaction type by its wire-frame name without
	// allocating a string (the hot-path contract the session loop relies on).
	TypeBytes(name []byte) *core.TxnType
	// Exec executes one transaction: tier 0 is the full locked protocol,
	// the snapshot tier takes the lock-free read path.
	Exec(ctx context.Context, req core.Request) error
	// Close drains and forces durable state; Closed reports it happened.
	Close() error
	Closed() bool
}

// Config configures a Server.
type Config struct {
	// Engine executes the transactions. Required.
	Engine Runner
	// MaxInFlight bounds concurrently executing requests across all
	// connections; beyond it requests fail fast with StatusQueueFull.
	// Zero means DefaultMaxInFlight.
	MaxInFlight int
	// Anatomy, when non-nil, records a latency-anatomy span per admitted
	// request (DESIGN.md §13): queue, decode, engine stages, encode and
	// batch-flush, keyed by the client-assigned trace id. Nil disables the
	// whole layer at zero cost.
	Anatomy *trace.Anatomy
	// OnOutcome, when non-nil, observes every executed request after its
	// response is determined: the decoded (post-execution) argument record
	// and the engine's error. Serialized per request goroutine, so the
	// hook must be safe for concurrent calls. accd uses it to track
	// compensated order numbers for the TPC-C consistency check.
	OnOutcome func(txnType string, args any, err error)
}

// Stats is a snapshot of the server's admission and session counters.
type Stats struct {
	// Admitted counts requests that passed admission control.
	Admitted uint64
	// RejectedFull counts requests refused with StatusQueueFull.
	RejectedFull uint64
	// RejectedDraining counts requests refused with StatusDraining.
	RejectedDraining uint64
	// BadRequests counts requests answered StatusBadRequest or
	// StatusUnknownType: undecodable, unknown, or refused by their type.
	BadRequests uint64
	// InFlight is the number of requests executing right now.
	InFlight int64
	// Conns is the number of open sessions right now.
	Conns int64
	// Draining reports whether Shutdown has begun.
	Draining bool
}

// Server serves an engine's transaction types over the wire protocol.
type Server struct {
	cfg     Config
	eng     Runner
	sem     chan struct{}
	rec     *metrics.Recorder
	anatomy *trace.Anatomy

	admitted         atomic.Uint64
	rejectedFull     atomic.Uint64
	rejectedDraining atomic.Uint64
	badRequests      atomic.Uint64
	connsN           atomic.Int64

	// gate decides admission and drain on one word, so no request can be
	// admitted after Shutdown saw the server idle: twice the number of
	// admitted requests (until their response is enqueued), plus gateDraining
	// once Shutdown has begun. admit adds 2 by CAS and only while the bit is
	// clear; the leave that takes the word to exactly gateDraining — or
	// Shutdown itself, setting the bit on an idle server — closes drained.
	gate     atomic.Uint64
	drained  chan struct{}
	sessions sync.WaitGroup // session goroutines

	mu    sync.Mutex
	ln    net.Listener
	conns map[*session]struct{}
}

// New creates a server for cfg. Serve or ListenAndServe starts it.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	max := cfg.MaxInFlight
	if max <= 0 {
		max = DefaultMaxInFlight
	}
	return &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		sem:     make(chan struct{}, max),
		rec:     metrics.NewRecorder(),
		anatomy: cfg.Anatomy,
		conns:   make(map[*session]struct{}),
		drained: make(chan struct{}),
	}
}

const gateDraining = 1

// admit counts one more request in flight unless the server is draining.
func (s *Server) admit() bool {
	for {
		g := s.gate.Load()
		if g&gateDraining != 0 {
			return false
		}
		if s.gate.CompareAndSwap(g, g+2) {
			return true
		}
	}
}

// leave ends what admit began; the last one out of a draining server
// releases Shutdown.
func (s *Server) leave() {
	if s.gate.Add(^uint64(1)) == gateDraining {
		close(s.drained)
	}
}

func (s *Server) isDraining() bool { return s.gate.Load()&gateDraining != 0 }

// Metrics returns the per-transaction-type RPC latency recorder.
func (s *Server) Metrics() *metrics.Recorder { return s.rec }

// Stats snapshots the admission counters.
func (s *Server) Stats() Stats {
	return Stats{
		Admitted:         s.admitted.Load(),
		RejectedFull:     s.rejectedFull.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
		BadRequests:      s.badRequests.Load(),
		InFlight:         int64(s.gate.Load() >> 1),
		Conns:            s.connsN.Load(),
		Draining:         s.isDraining(),
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts sessions on ln until Shutdown closes it. It returns nil
// after a clean drain-initiated close and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		sess := s.newSession(c)
		s.sessions.Add(1)
		go sess.loop()
	}
}

// Addr returns the listener address (for tests binding port 0), or nil
// before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: stop accepting, refuse new requests with
// StatusDraining, let in-flight requests finish (commit or compensate),
// force the WAL by closing the engine, then close the sessions. If ctx
// expires first the remaining sessions are torn down immediately — their
// contexts cancel and in-progress transactions compensate — and ctx's error
// is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	for g := s.gate.Load(); g&gateDraining == 0; g = s.gate.Load() {
		if s.gate.CompareAndSwap(g, g|gateDraining) && g == 0 {
			close(s.drained) // idle, and admit refuses from here on
		}
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	var err error
	select {
	case <-s.drained:
		s.eng.Close() // forces the write-ahead log
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeSessions()
	s.sessions.Wait()
	if err == nil && !s.eng.Closed() {
		s.eng.Close()
	}
	return err
}

func (s *Server) closeSessions() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sess := range s.conns {
		sess.close()
	}
}

// drainFlushTimeout bounds how long a closing session waits for its final
// response frames to reach a slow peer before the socket is torn down.
const drainFlushTimeout = 2 * time.Second

// session is one client connection.
type session struct {
	srv  *Server
	conn net.Conn
	bw   *wire.BatchWriter

	ctx    context.Context
	cancel context.CancelFunc

	reqs sync.WaitGroup // requests spawned by this session

	closeOnce sync.Once
}

// reqState carries one request through the session: the frame buffer it was
// read into (Name and Args alias it) plus the decoded header. Pooled, so a
// pipelined session allocates nothing per request.
type reqState struct {
	req wire.Request
	buf []byte
	// readAt is when the request's frame finished reading, stamped only
	// when anatomy is enabled: it anchors the span's queue stage.
	readAt time.Time
}

var reqPool = sync.Pool{New: func() any { return new(reqState) }}

// Static reject messages, so admission refusals — which are the steady
// state at saturation — do not allocate.
var (
	msgDraining  = []byte("server draining")
	msgQueueFull = []byte("admission queue full")
)

func (s *Server) newSession(c net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	sess := &session{srv: s, conn: c, bw: wire.NewBatchWriter(c), ctx: ctx, cancel: cancel}
	s.mu.Lock()
	s.conns[sess] = struct{}{}
	s.mu.Unlock()
	s.connsN.Add(1)
	return sess
}

// close tears the session down: already-enqueued responses are flushed (a
// clean drain must deliver every final response; the write deadline bounds
// a peer that stopped reading), the connection close unblocks the reader,
// and the context aborts any lock wait a request of this session is parked
// in.
func (sess *session) close() {
	sess.closeOnce.Do(func() {
		sess.cancel()
		sess.conn.SetWriteDeadline(time.Now().Add(drainFlushTimeout))
		sess.bw.Close()
		sess.conn.Close()
	})
}

// loop is the session's reader: it decodes frames and dispatches requests
// until the connection closes, then waits for this session's in-flight
// requests (cancelled by close, or finishing normally) before returning.
func (sess *session) loop() {
	s := sess.srv
	defer s.sessions.Done()
	defer func() {
		sess.close()
		sess.reqs.Wait()
		s.mu.Lock()
		delete(s.conns, sess)
		s.mu.Unlock()
		s.connsN.Add(-1)
	}()
	for {
		st := reqPool.Get().(*reqState)
		payload, err := wire.ReadFrame(sess.conn, &st.buf)
		if err == nil {
			err = wire.DecodeRequest(payload, &st.req)
		}
		if err != nil {
			reqPool.Put(st)
			return // disconnect or protocol corruption: drop the session
		}
		if s.anatomy != nil {
			st.readAt = time.Now()
		}
		switch st.req.Op {
		case wire.OpPing:
			sess.respond(&wire.Response{ID: st.req.ID, Status: wire.StatusOK})
			reqPool.Put(st)
		case wire.OpRun:
			sess.dispatch(st) // dispatch owns st from here
		default:
			s.badRequests.Add(1)
			sess.respond(&wire.Response{
				ID: st.req.ID, Status: wire.StatusBadRequest,
				Msg: fmt.Appendf(nil, "unknown op %d", st.req.Op),
			})
			reqPool.Put(st)
		}
	}
}

// dispatch applies admission control and, if admitted, runs the request in
// its own goroutine so the session can keep reading pipelined requests.
func (sess *session) dispatch(st *reqState) {
	s := sess.srv
	if !s.admit() {
		s.rejectedDraining.Add(1)
		sess.respond(&wire.Response{ID: st.req.ID, Status: wire.StatusDraining, Msg: msgDraining})
		reqPool.Put(st)
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.leave()
		s.rejectedFull.Add(1)
		sess.respond(&wire.Response{ID: st.req.ID, Status: wire.StatusQueueFull, Msg: msgQueueFull})
		reqPool.Put(st)
		return
	}
	s.admitted.Add(1)
	sess.reqs.Add(1)
	go sess.run(st)
}

// run executes one admitted request and enqueues its response. Arguments
// and result are the type's argument record in its codec's layout
// (wire.ArgCodec): a type clients may run is a type with a registered codec.
func (sess *session) run(st *reqState) {
	s := sess.srv
	// The span's queue stage covers admission and goroutine hand-off: frame
	// read completion (readAt) to here. The span outlives this function —
	// the batch writer finishes it when the response frame hits the socket —
	// so everything it needs is copied in before respond hands it off.
	sp := s.anatomy.Start(st.req.Trace, st.readAt)
	sp.Next(trace.StageQueue)
	defer func() {
		reqPool.Put(st)
		<-s.sem
		s.leave()
		sess.reqs.Done()
	}()
	// tt.Name is the engine's interned copy of the type name: everything
	// downstream (metrics, spans, hooks) uses it so the request's
	// byte-slice name never becomes a per-request string allocation.
	tt := s.eng.TypeBytes(st.req.Name)
	start := time.Now()

	var resp wire.Response
	resp.ID = st.req.ID
	var codec *wire.ArgCodec
	var args any
	switch {
	case tt == nil:
		resp.Status = wire.StatusUnknownType
		resp.Msg = fmt.Appendf(nil, "unknown transaction type %q", st.req.Name)
	case !core.ValidTier(st.req.Tier):
		resp.Status = wire.StatusBadRequest
		resp.Msg = fmt.Appendf(nil, "unknown read tier %d", st.req.Tier)
	case st.req.Fmt != wire.FmtBinary:
		resp.Status = wire.StatusBadRequest
		resp.Msg = fmt.Appendf(nil, "unknown argument format %s", st.req.Fmt)
	default:
		if codec = wire.CodecForBytes(st.req.Name); codec == nil {
			resp.Status = wire.StatusBadRequest
			resp.Msg = fmt.Appendf(nil, "no argument codec registered for %q", tt.Name)
		} else {
			args = codec.GetArgs()
			if err := codec.Decode(st.req.Args, args); err != nil {
				codec.PutArgs(args)
				args = nil
				resp.Status = wire.StatusBadRequest
				resp.Msg = fmt.Appendf(nil, "malformed arguments for %q: %v", tt.Name, err)
			}
		}
	}

	sp.Next(trace.StageDecode)
	var scratch *[]byte
	if args != nil {
		sp.EnterEngine()
		// Tier 0 is the full locked protocol; the snapshot tier takes the
		// lock-free read path (which refuses writes).
		err := s.eng.Exec(sess.ctx, core.Request{Type: tt, Args: args, Tier: core.ReadTier(st.req.Tier), Span: sp})
		sp.ExitEngine()
		var msg string
		resp.Status, msg = statusOf(err)
		if msg != "" {
			resp.Msg = []byte(msg)
		}
		// The argument record is the transaction's work area: re-encode it
		// so the client observes assigned identifiers — also after a
		// compensated rollback, whose consumed identifiers the client's
		// bookkeeping may need (TPC-C order-number holes).
		scratch = wire.GetBuffer()
		*scratch = codec.Encode((*scratch)[:0], args)
		resp.Fmt = wire.FmtBinary
		resp.Result = *scratch
		s.rec.Record(tt.Name, time.Since(start), outcomeOf(err))
		if s.cfg.OnOutcome != nil {
			s.cfg.OnOutcome(tt.Name, args, err)
		}
	}
	if resp.Status == wire.StatusBadRequest || resp.Status == wire.StatusUnknownType {
		// Refused above, or by the type itself (core.ErrBadArgs, ErrReadOnly).
		s.badRequests.Add(1)
	}
	sp.SetStatus(resp.Status.String())
	sess.respondSpan(&resp, sp)
	if args != nil {
		codec.PutArgs(args)
		wire.PutBuffer(scratch)
	}
}

// respond encodes one response into a pooled frame and hands it to the
// session's batch writer, which coalesces concurrent responses into
// vectored writes. Write errors are ignored: the reader loop notices the
// dead connection and tears the session down.
func (sess *session) respond(resp *wire.Response) {
	sess.respondSpan(resp, nil)
}

// respondSpan is respond carrying the request's latency-anatomy span: the
// encode stage closes once the frame is built, and the span rides the frame
// as a completion hook so the flush stage ends when the bytes reach the
// socket. The batch writer finishes the span exactly once on every path.
func (sess *session) respondSpan(resp *wire.Response, sp *trace.Span) {
	buf := wire.GetBuffer()
	b, err := wire.AppendResponse((*buf)[:0], resp)
	if err != nil {
		// The result outgrew the frame limit: report that instead of
		// silently dropping the response.
		resp.Result = nil
		resp.Status = wire.StatusInternal
		resp.Msg = []byte("response exceeds frame limit")
		if b, err = wire.AppendResponse((*buf)[:0], resp); err != nil {
			wire.PutBuffer(buf)
			sp.Finish()
			return
		}
	}
	*buf = b
	sp.Next(trace.StageEncode)
	if sp != nil {
		_ = sess.bw.EnqueueHook(buf, sp)
		return
	}
	_ = sess.bw.Enqueue(buf)
}

// statusOf maps the engine's error taxonomy onto wire status codes.
// Compensated rollbacks are classified first: a CompensatedError matches
// ErrAborted (and may wrap a deadlock or cancellation cause), but the wire
// must report that compensation ran — the client's bookkeeping depends on
// the distinction.
func statusOf(err error) (wire.Status, string) {
	switch {
	case err == nil:
		return wire.StatusOK, ""
	case errors.Is(err, core.ErrLogFailed):
		// First, whatever it is wrapped in: nothing about the outcome is
		// durable, and no retry against this server can change that.
		return wire.StatusInternal, err.Error()
	case core.IsCompensated(err):
		return wire.StatusCompensated, err.Error()
	case errors.Is(err, core.ErrUnknownTxnType):
		return wire.StatusUnknownType, err.Error()
	case errors.Is(err, core.ErrEngineClosed):
		return wire.StatusDraining, err.Error()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return wire.StatusCanceled, err.Error()
	case errors.Is(err, core.ErrDeadlockVictim):
		return wire.StatusDeadlock, err.Error()
	case errors.Is(err, core.ErrLockTimeout):
		return wire.StatusLockTimeout, err.Error()
	case errors.Is(err, core.ErrReadOnly), errors.Is(err, core.ErrBadArgs):
		return wire.StatusBadRequest, err.Error()
	case errors.Is(err, core.ErrAborted):
		return wire.StatusAborted, err.Error()
	default:
		return wire.StatusInternal, err.Error()
	}
}

// outcomeOf maps the engine's error taxonomy onto metrics outcomes, the
// same classification the in-process benchmark driver uses.
func outcomeOf(err error) metrics.Outcome {
	switch {
	case err == nil:
		return metrics.Committed
	case core.IsCompensated(err), errors.Is(err, core.ErrUserAbort):
		return metrics.RolledBack
	case errors.Is(err, core.ErrDeadlockVictim):
		return metrics.Deadlocked
	case errors.Is(err, core.ErrLockTimeout):
		return metrics.TimedOut
	default:
		return metrics.Failed
	}
}
