package server

import (
	"context"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/server/wire"
)

// drainRunner is an engine that only watches the order of events: a request
// entering Exec after Close, or Close arriving while one is inside Exec, is
// exactly what a drain must rule out.
type drainRunner struct {
	tt      core.TxnType
	closed  atomic.Bool
	running atomic.Int64
	late    atomic.Int64
}

func (r *drainRunner) TypeBytes([]byte) *core.TxnType { return &r.tt }
func (r *drainRunner) Closed() bool                   { return r.closed.Load() }

func (r *drainRunner) Exec(context.Context, core.Request) error {
	r.running.Add(1)
	defer r.running.Add(-1)
	if r.closed.Load() {
		r.late.Add(1)
	}
	runtime.Gosched() // stay inside long enough for a racing Close to land
	return nil
}

func (r *drainRunner) Close() error {
	r.closed.Store(true)
	if r.running.Load() != 0 {
		r.late.Add(1)
	}
	return nil
}

// TestDispatchRacesShutdown hammers dispatch from several sessions while
// Shutdown runs: admission and drain are decided on one word, so every
// request is either admitted before the drain saw the server idle — and then
// finishes before the engine closes — or refused. CI soaks it under -race.
func TestDispatchRacesShutdown(t *testing.T) {
	var admitted, refused uint64
	for round := 0; round < 40; round++ {
		eng := &drainRunner{tt: core.TxnType{Name: "move"}}
		srv := New(Config{Engine: eng})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			client, server := net.Pipe()
			go io.Copy(io.Discard, client)
			sess := srv.newSession(server)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer client.Close()
				// Few enough that the refusals past the drain do not swamp the
				// session's writer, enough to straddle Shutdown.
				for id := uint64(1); id <= 400; id++ {
					st := reqPool.Get().(*reqState)
					st.req = wire.Request{ID: id, Op: wire.OpRun, Fmt: wire.FmtBinary,
						Name: []byte("move"), Args: make([]byte, 16)}
					sess.dispatch(st)
					runtime.Gosched()
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("round %d: Shutdown: %v", round, err)
		}
		cancel()
		wg.Wait()
		st := srv.Stats()
		if n := eng.late.Load(); n != 0 {
			t.Fatalf("round %d: %d request(s) overlapped or followed the engine's Close (stats %+v)", round, n, st)
		}
		if !st.Draining || st.InFlight != 0 {
			t.Fatalf("round %d: after Shutdown: %+v", round, st)
		}
		admitted += st.Admitted
		refused += st.RejectedDraining
	}
	if admitted == 0 || refused == 0 {
		t.Fatalf("the hammer never straddled Shutdown: %d admitted, %d refused draining", admitted, refused)
	}
}
