package accclient

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/server/wire"
)

// fakeServer speaks the wire protocol with a scripted per-request handler,
// so client behavior (retry policy, status mapping, result decoding) is
// testable without an engine.
type fakeServer struct {
	ln   net.Listener
	runs atomic.Int64 // OpRun frames seen
}

func newFakeServer(t *testing.T, handle func(n int64, req *wire.Request) *wire.Response) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var wmu sync.Mutex
				for {
					req, err := wire.ReadRequest(c)
					if err != nil {
						return
					}
					// Answer out of line so a stalled handler doesn't block
					// later pipelined requests on the same connection.
					go func() {
						var resp *wire.Response
						if req.Op == wire.OpPing {
							resp = &wire.Response{ID: req.ID, Status: wire.StatusOK}
						} else {
							resp = handle(fs.runs.Add(1), req)
							resp.ID = req.ID
						}
						wmu.Lock()
						defer wmu.Unlock()
						wire.WriteResponse(c, resp) //nolint:errcheck
					}()
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return fs
}

type echoArgs struct {
	In  int64
	Out int64
}

// echoBytes is an echoArgs record as its codec lays it out.
func echoBytes(in, out int64) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(in))
	return binary.BigEndian.AppendUint64(b, uint64(out))
}

// Every type name a test runs gets the echoArgs codec: the client refuses a
// record it has no codec for before sending anything.
func init() {
	for _, name := range []string{"echo", "aborted", "compensated", "stall", "nope"} {
		wire.RegisterArgCodec(&wire.ArgCodec{
			Name:   name,
			New:    func() any { return &echoArgs{} },
			Reset:  func(v any) { *v.(*echoArgs) = echoArgs{} },
			Encode: func(dst []byte, v any) []byte { return append(dst, echoBytes(v.(*echoArgs).In, v.(*echoArgs).Out)...) },
			Decode: func(data []byte, v any) error {
				if len(data) != 16 {
					return errors.New("bad length")
				}
				a := v.(*echoArgs)
				a.In = int64(binary.BigEndian.Uint64(data))
				a.Out = int64(binary.BigEndian.Uint64(data[8:]))
				return nil
			},
		})
	}
}

// TestRetriesDeadlockVictimExactlyOnce pins the default policy: a deadlock
// outcome is retried exactly once (the paper's recurrence rule applied at
// the client), and the second attempt's success is the caller's result.
func TestRetriesDeadlockVictimExactlyOnce(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if n == 1 {
			return &wire.Response{Status: wire.StatusDeadlock, Msg: []byte("victim")}
		}
		return &wire.Response{Status: wire.StatusOK, Fmt: wire.FmtBinary, Result: echoBytes(1, 99)}
	})
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	args := &echoArgs{In: 1}
	if err := cli.Run(context.Background(), "echo", args); err != nil {
		t.Fatalf("run after retry: %v", err)
	}
	if args.Out != 99 {
		t.Fatalf("result not decoded: %+v", args)
	}
	if got := fs.runs.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2 (one retry)", got)
	}
	if st := cli.Stats(); st.Retries != 1 {
		t.Fatalf("client retries = %d, want exactly 1", st.Retries)
	}
}

// TestRetryBudgetExhausted: with the default policy (one retry), a deadlock
// that recurs surfaces as ErrDeadlockVictim after exactly two attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	fs := newFakeServer(t, func(int64, *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusDeadlock, Msg: []byte("victim again")}
	})
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	err = cli.Run(context.Background(), "echo", &echoArgs{})
	if !errors.Is(err, core.ErrDeadlockVictim) {
		t.Fatalf("want ErrDeadlockVictim across the wire, got %v", err)
	}
	if !core.Retryable(err) {
		t.Fatal("a surfaced deadlock must still classify retryable for the caller")
	}
	if got := fs.runs.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

// TestNoRetryOnFinalOutcomes: aborted and compensated outcomes are final —
// one attempt, error taxonomy reconstructed, compensated result decoded.
func TestNoRetryOnFinalOutcomes(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		switch string(req.Name) {
		case "aborted":
			return &wire.Response{Status: wire.StatusAborted, Msg: []byte("user said no")}
		default:
			return &wire.Response{
				Status: wire.StatusCompensated, Msg: []byte("rolled back"),
				Fmt: wire.FmtBinary, Result: echoBytes(7, 41),
			}
		}
	})
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	err = cli.Run(context.Background(), "aborted", &echoArgs{})
	if !errors.Is(err, core.ErrAborted) || core.IsCompensated(err) {
		t.Fatalf("want plain abort, got %v", err)
	}

	args := &echoArgs{In: 7}
	err = cli.Run(context.Background(), "compensated", args)
	if !core.IsCompensated(err) {
		t.Fatalf("want compensated outcome, got %v", err)
	}
	if args.Out != 41 {
		t.Fatalf("compensated work area must still decode (consumed identifiers): %+v", args)
	}
	if got := fs.runs.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2 (no retries of final outcomes)", got)
	}
}

// TestQueueFullRetries: admission refusals executed nothing, so the client
// retries them under the same policy.
func TestQueueFullRetries(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if n == 1 {
			return &wire.Response{Status: wire.StatusQueueFull}
		}
		return &wire.Response{Status: wire.StatusOK}
	})
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Run(context.Background(), "echo", &echoArgs{}); err != nil {
		t.Fatalf("queue-full then ok should succeed: %v", err)
	}
	if got := fs.runs.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

// TestCustomRetryPolicy: Max=3 means up to four attempts.
func TestCustomRetryPolicy(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if n < 4 {
			return &wire.Response{Status: wire.StatusLockTimeout}
		}
		return &wire.Response{Status: wire.StatusOK}
	})
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1),
		WithRetry(RetryPolicy{Max: 3, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Run(context.Background(), "echo", &echoArgs{}); err != nil {
		t.Fatalf("third retry should succeed: %v", err)
	}
	if st := cli.Stats(); st.Retries != 3 {
		t.Fatalf("retries = %d, want 3", st.Retries)
	}
}

// TestContextCancelsResponseWait: a cancelled context abandons the wait
// without killing the connection for other requests.
func TestContextCancelsResponseWait(t *testing.T) {
	never := make(chan struct{})
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if string(req.Name) == "stall" {
			<-never
		}
		return &wire.Response{Status: wire.StatusOK}
	})
	defer close(never)
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := cli.Run(ctx, "stall", &echoArgs{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	// The connection survives for later requests.
	if err := cli.Run(context.Background(), "echo", &echoArgs{}); err != nil {
		t.Fatalf("connection should survive an abandoned wait: %v", err)
	}
}

// TestUnknownTypeMapped: the taxonomy crosses the wire.
func TestUnknownTypeMapped(t *testing.T) {
	fs := newFakeServer(t, func(int64, *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusUnknownType, Msg: []byte(`unknown transaction type "nope"`)}
	})
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Run(context.Background(), "nope", &echoArgs{}); !errors.Is(err, core.ErrUnknownTxnType) {
		t.Fatalf("want ErrUnknownTxnType, got %v", err)
	}
	if got := fs.runs.Load(); got != 1 {
		t.Fatalf("unknown type must not be retried: %d attempts", got)
	}
}

// TestNoCodecIsAnErrorBeforeSending: a record no registered codec handles —
// an unregistered type name, or a registered one given another record type —
// fails in Run, naming the type, without a frame leaving the client.
func TestNoCodecIsAnErrorBeforeSending(t *testing.T) {
	fs := newFakeServer(t, func(int64, *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK}
	})
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, c := range []struct {
		name string
		args any
	}{
		{"unregistered", &echoArgs{}},
		{"echo", &struct{ X int }{}},
		{"echo", nil},
	} {
		err := cli.Run(context.Background(), c.name, c.args)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.name)) {
			t.Errorf("Run(%q, %T) = %v, want an error naming the type", c.name, c.args, err)
		}
	}
	if got := fs.runs.Load(); got != 0 {
		t.Fatalf("server saw %d requests, want none", got)
	}
}

// TestTransportErrorNotRetried: a broken connection surfaces immediately —
// the attempt's fate is unknown, so a blind client-side retry could
// double-execute a non-idempotent transaction.
func TestTransportErrorNotRetried(t *testing.T) {
	fs := newFakeServer(t, func(int64, *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK}
	})
	cli, err := Dial(fs.ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	fs.ln.Close()
	// Kill the live connection by provoking a read error: close the
	// server-side listener is not enough (the accepted conn lives), so
	// write to a deliberately broken connection state instead — shut the
	// pool's conn down directly.
	cli.slots[0].mu.Lock()
	cn := cli.slots[0].c
	cli.slots[0].mu.Unlock()
	cn.nc.Close()

	err = cli.Run(context.Background(), "echo", &echoArgs{})
	if err == nil {
		t.Fatal("want a transport error after the pool's conn died with the listener gone")
	}
	if st := cli.Stats(); st.Retries != 0 {
		t.Fatalf("transport failures must not be retried, saw %d retries", st.Retries)
	}
}
