package server

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"accdb/internal/server/wire"
	"accdb/internal/trace"
	"accdb/pkg/accclient"
)

// syncBuf makes a bytes.Buffer safe to read while the anatomy layer is still
// appending slow-transaction records from server goroutines.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}

// TestBinaryPathTraceSpans pins the observability contract on the zero-copy
// path: a FmtBinary request through the batch writer must still leave one
// flight-recorder span keyed by the wire trace ID, carrying the engine
// transaction ID, the txn.* and step.* history, and stages that cover the
// request.
func TestBinaryPathTraceSpans(t *testing.T) {
	anatomy := trace.NewAnatomy(trace.AnatomyConfig{})
	s := newMoveSys(t, func(c *Config) { c.Anatomy = anatomy })

	rc := dialRaw(t, s.ln.Addr())
	defer rc.c.Close()

	const traceID = 0xfeed
	codec := wire.CodecFor("move")
	argBytes := codec.Encode(nil, &moveArgs{ID: 500, Account: 3})
	if err := wire.WriteRequest(rc.c, &wire.Request{
		ID: 1, Trace: traceID, Op: wire.OpRun, Fmt: wire.FmtBinary,
		Name: []byte("move"), Args: argBytes,
	}); err != nil {
		t.Fatal(err)
	}
	if resp := rc.recv(); resp.Status != wire.StatusOK || resp.Fmt != wire.FmtBinary {
		t.Fatalf("binary run failed: %+v", resp)
	}

	// The span finishes on the batch writer after the response bytes are out,
	// so the client can observe the reply before the span closes.
	waitFor(t, "span to finish", func() bool { return anatomy.Finished() == 1 })

	recent := anatomy.Recent()
	if len(recent) != 1 {
		t.Fatalf("flight recorder holds %d records, want 1", len(recent))
	}
	rec := recent[0]
	if rec.Trace != traceID || rec.Txn == 0 || rec.Type != "move" || rec.Status != "ok" {
		t.Fatalf("recorded span identity: %+v", rec)
	}
	kinds := map[trace.Kind]bool{}
	for _, ev := range rec.Events {
		kinds[ev.Kind] = true
	}
	for _, want := range []trace.Kind{trace.KindTxnBegin, trace.KindStepBegin, trace.KindStepEnd, trace.KindTxnCommit} {
		if !kinds[want] {
			t.Errorf("no %v in the span's history: %+v", want, rec.Events)
		}
	}
	if rec.Stages[trace.StageExec] <= 0 {
		t.Errorf("no exec stage recorded: %v", rec.Stages)
	}
	if rec.Stages[trace.StageFlush] <= 0 {
		t.Errorf("no flush stage recorded (batch-writer hook lost): %v", rec.Stages)
	}
}

// TestLoopbackAnatomyEndToEnd is the acceptance check for the latency-anatomy
// layer over a real loopback connection with the production client: every
// client-assigned trace ID must reappear in the server's flight recorder and
// in the slow-transaction JSONL dump, and each span's per-stage durations
// must sum to its end-to-end latency — exactly: the stages are contiguous, and
// the engine's inner stages are carved out of its segment, so no instant
// belongs to no stage. Only a span whose inner stages outgrew the engine
// segment (exec clamped to zero) may sum to more.
func TestLoopbackAnatomyEndToEnd(t *testing.T) {
	var slow syncBuf
	anatomy := trace.NewAnatomy(trace.AnatomyConfig{
		SlowThreshold: time.Nanosecond, // every transaction is "slow"
		SlowWriter:    &slow,
	})
	s := newMoveSys(t, func(c *Config) { c.Anatomy = anatomy })

	var traceIDs []uint64
	cli, err := accclient.Dial(s.ln.Addr().String(),
		accclient.WithPoolSize(2),
		accclient.WithTraceObserver(func(id uint64) { traceIDs = append(traceIDs, id) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const runs = 20
	for i := 0; i < runs; i++ {
		args := &moveArgs{ID: int64(9000 + i), Account: int64(i%8 + 1)}
		if err := cli.Run(context.Background(), "move", args); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all spans to finish", func() bool { return anatomy.Finished() == runs })

	if len(traceIDs) != runs {
		t.Fatalf("observer saw %d trace IDs, want %d", len(traceIDs), runs)
	}
	want := make(map[uint64]bool, runs)
	for _, id := range traceIDs {
		if id == 0 {
			t.Fatal("client assigned a zero trace ID")
		}
		if want[id] {
			t.Fatalf("client reused trace ID %d", id)
		}
		want[id] = true
	}

	recent := anatomy.Recent()
	if len(recent) != runs {
		t.Fatalf("flight recorder holds %d records, want %d", len(recent), runs)
	}
	for _, rec := range recent {
		if !want[rec.Trace] {
			t.Errorf("server span trace ID %d never assigned by the client", rec.Trace)
		}
		var sum int64
		for _, d := range rec.Stages {
			sum += d
		}
		if clamped := rec.Stages[trace.StageExec] == 0; sum != rec.Total && !(clamped && sum > rec.Total) {
			t.Errorf("trace %d: stage sum %d vs total %d (exec clamped: %v)", rec.Trace, sum, rec.Total, clamped)
		}
	}

	lines := bytes.Split(bytes.TrimSpace(slow.Bytes()), []byte("\n"))
	if len(lines) != runs {
		t.Fatalf("slow log has %d lines, want %d", len(lines), runs)
	}
	for _, line := range lines {
		var rec struct {
			Trace  uint64           `json:"trace"`
			Total  int64            `json:"total"`
			Stages map[string]int64 `json:"stages"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid slow-log JSONL %q: %v", line, err)
		}
		if !want[rec.Trace] {
			t.Errorf("slow-log trace ID %d never assigned by the client", rec.Trace)
		}
		var sum int64
		for _, d := range rec.Stages {
			sum += d
		}
		if clamped := rec.Stages["exec"] == 0; sum != rec.Total && !(clamped && sum > rec.Total) {
			t.Errorf("slow-log trace %d: stage sum %d vs total %d (exec clamped: %v)", rec.Trace, sum, rec.Total, clamped)
		}
	}
}
