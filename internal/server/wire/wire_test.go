package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Request{ID: 42, Trace: 7001, Op: OpRun, Fmt: FmtBinary, Name: []byte("new_order"), Args: []byte{2, 4, 6}}
	if err := WriteRequest(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Trace != in.Trace || out.Op != in.Op || out.Fmt != in.Fmt ||
		!bytes.Equal(out.Name, in.Name) || !bytes.Equal(out.Args, in.Args) {
		t.Fatalf("round trip mangled request: %+v -> %+v", in, out)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Response{ID: 7, Status: StatusCompensated, Fmt: FmtBinary, Msg: []byte("rolled back"), Result: []byte{1, 2, 3}}
	if err := WriteResponse(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Status != in.Status || out.Fmt != in.Fmt ||
		!bytes.Equal(out.Msg, in.Msg) || !bytes.Equal(out.Result, in.Result) {
		t.Fatalf("round trip mangled response: %+v -> %+v", in, out)
	}
}

func TestEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Name) != 0 || len(out.Args) != 0 {
		t.Fatalf("ping grew fields: %+v", out)
	}
}

func TestVersionMismatch(t *testing.T) {
	// A v1-style frame (no version byte; first payload byte is the id's
	// high byte, 0) must be rejected with ErrVersion, not misparsed.
	payload := []byte{
		0, 0, 0, 13, // frame length
		0, 0, 0, 0, 0, 0, 0, 0, 1, // v1: id
		1,    // v1: op
		0, 0, // v1: name length
		0, // filler
	}
	if _, err := ReadRequest(bytes.NewReader(payload)); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion for v1 frame, got %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	big := &Request{ID: 1, Op: OpRun, Name: []byte("x"), Args: make([]byte, MaxFrame)}
	if err := WriteRequest(io.Discard, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge writing, got %v", err)
	}
	// A hostile length prefix must be rejected before allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadRequest(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge reading, got %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{ID: 3, Op: OpRun, Name: []byte("payment")}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadRequest(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF on mid-frame close, got %v", err)
	}
	// Clean close between frames is io.EOF.
	if _, err := ReadRequest(strings.NewReader("")); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF between frames, got %v", err)
	}
}

func TestOverrunLengths(t *testing.T) {
	// name length claims more bytes than the frame holds
	payload := []byte{
		0, 0, 0, 23, // frame length
		Version,
		0, 0, 0, 0, 0, 0, 0, 1, // id
		0, 0, 0, 0, 0, 0, 0, 0, // trace id
		1,       // op
		0,       // fmt
		0xFF, 1, // name length 0xFF01 overruns
		0, 0, // filler
	}
	if _, err := ReadRequest(bytes.NewReader(payload)); err == nil {
		t.Fatal("want error for overrunning name length")
	}
}

func TestStatusStringsAndRetryability(t *testing.T) {
	for st, want := range map[Status]bool{
		StatusOK: false, StatusCompensated: false, StatusAborted: false,
		StatusDeadlock: true, StatusLockTimeout: true, StatusQueueFull: true,
		StatusCanceled: false, StatusUnknownType: false, StatusDraining: false,
		StatusBadRequest: false, StatusInternal: false,
	} {
		if st.Retryable() != want {
			t.Errorf("%s.Retryable() = %v, want %v", st, st.Retryable(), want)
		}
		if strings.HasPrefix(st.String(), "status(") {
			t.Errorf("status %d has no name", uint8(st))
		}
	}
}

// TestBatchWriterCoalesces checks the writer delivers every enqueued frame
// in order and survives a flood from concurrent senders.
func TestBatchWriterCoalesces(t *testing.T) {
	var out bytes.Buffer
	var mu sync.Mutex
	lw := lockedWriter{w: &out, mu: &mu}
	bw := NewBatchWriter(&lw)

	const senders, frames = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				buf := GetBuffer()
				b, err := AppendResponse((*buf)[:0], &Response{ID: uint64(s*frames + i), Status: StatusOK})
				if err != nil {
					t.Error(err)
					return
				}
				*buf = b
				if err := bw.Enqueue(buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	r := bytes.NewReader(out.Bytes())
	for i := 0; i < senders*frames; i++ {
		resp, err := ReadResponse(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seen[resp.ID] {
			t.Fatalf("duplicate frame id %d", resp.ID)
		}
		seen[resp.ID] = true
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after all frames", r.Len())
	}
}

// lockedWriter serializes writes; net.Buffers may issue several Write calls
// per flush on a non-net.Conn sink.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestBatchWriterClose checks Close flushes pending frames before stopping,
// and that Enqueue after Close refuses with the frame recycled.
func TestBatchWriterClose(t *testing.T) {
	var out bytes.Buffer
	var mu sync.Mutex
	lw := lockedWriter{w: &out, mu: &mu}
	bw := NewBatchWriter(&lw)
	for i := 0; i < 10; i++ {
		buf := GetBuffer()
		b, _ := AppendResponse((*buf)[:0], &Response{ID: uint64(i)})
		*buf = b
		if err := bw.Enqueue(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(out.Bytes())
	for i := 0; i < 10; i++ {
		if _, err := ReadResponse(r); err != nil {
			t.Fatalf("frame %d lost at close: %v", i, err)
		}
	}
	buf := GetBuffer()
	b, _ := AppendResponse((*buf)[:0], &Response{ID: 99})
	*buf = b
	if err := bw.Enqueue(buf); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("want ErrWriterClosed after Close, got %v", err)
	}
}

// TestBatchWriterError checks a write failure breaks the writer and
// surfaces through Enqueue.
func TestBatchWriterError(t *testing.T) {
	bw := NewBatchWriter(failWriter{})
	buf := GetBuffer()
	b, _ := AppendResponse((*buf)[:0], &Response{ID: 1})
	*buf = b
	if err := bw.Enqueue(buf); err != nil {
		t.Fatal(err)
	}
	// The failure lands asynchronously; Close synchronizes with the loop.
	if err := bw.Close(); err == nil {
		t.Fatal("want write error from Close")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

// countConn counts bytes written; AllocsPerRun guards write against it so
// the flush path runs for real without a socket.
type countConn struct {
	n atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return len(p), nil
}

// TestEncodeDecodeAllocFree asserts the steady-state frame encode and
// decode paths perform zero heap allocations per request once buffers are
// pooled — the property the server's zero-allocation hot path is built on.
func TestEncodeDecodeAllocFree(t *testing.T) {
	name := []byte("new_order")
	args := bytes.Repeat([]byte{7}, 128)
	frame := GetBuffer()
	defer PutBuffer(frame)
	read := GetBuffer()
	defer PutBuffer(read)
	var req Request
	var resp Response
	var r bytes.Reader

	// Warm the pools and buffer capacities outside the measured runs.
	run := func() {
		b, err := AppendRequest((*frame)[:0], &Request{ID: 9, Op: OpRun, Fmt: FmtBinary, Name: name, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		*frame = b
		r.Reset(b)
		payload, err := ReadFrame(&r, read)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRequest(payload, &req); err != nil {
			t.Fatal(err)
		}
		b, err = AppendResponse((*frame)[:0], &Response{ID: req.ID, Status: StatusOK, Fmt: FmtBinary, Result: req.Args})
		if err != nil {
			t.Fatal(err)
		}
		*frame = b
		r.Reset(b)
		payload, err = ReadFrame(&r, read)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("frame encode/decode allocates %.1f objects per request, want 0", allocs)
	}
}

// TestBatchWriteAllocFree asserts the session write path — encode a
// response into a pooled frame, enqueue, vectored write — settles to zero
// allocations per response.
func TestBatchWriteAllocFree(t *testing.T) {
	var sink countConn
	bw := NewBatchWriter(&sink)
	defer bw.Close()
	result := bytes.Repeat([]byte{3}, 256)
	run := func() {
		buf := GetBuffer()
		b, err := AppendResponse((*buf)[:0], &Response{ID: 5, Status: StatusOK, Fmt: FmtBinary, Result: result})
		if err != nil {
			t.Fatal(err)
		}
		*buf = b
		if err := bw.Enqueue(buf); err != nil {
			t.Fatal(err)
		}
		// Flush waits until the frame is written AND recycled, so each
		// run's GetBuffer deterministically hits the pool.
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		run() // warm pools, batch slices, and the writer's scratch space
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Fatalf("session write path allocates %.1f objects per response, want 0", allocs)
	}
}

// TestBatchWriterOverTCP round-trips frames through a real TCP socket so
// the net.Buffers writev path is exercised (bytes.Buffer sinks take the
// generic fallback).
func TestBatchWriterOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	var got []Response
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for i := 0; i < 50; i++ {
			resp, err := ReadResponse(c)
			if err != nil {
				done <- err
				return
			}
			got = append(got, Response{ID: resp.ID, Status: resp.Status})
		}
		done <- nil
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bw := NewBatchWriter(c)
	for i := 0; i < 50; i++ {
		buf := GetBuffer()
		b, _ := AppendResponse((*buf)[:0], &Response{ID: uint64(i), Status: StatusOK})
		*buf = b
		if err := bw.Enqueue(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.ID != uint64(i) {
			t.Fatalf("frame %d arrived out of order: id %d", i, r.ID)
		}
	}
}

// FuzzDecodeFrames feeds hostile payloads to both decoders: they must
// reject or accept without panicking or over-reading.
func FuzzDecodeFrames(f *testing.F) {
	seed, _ := AppendRequest(nil, &Request{ID: 1, Op: OpRun, Fmt: FmtBinary, Name: []byte("payment"), Args: []byte{1, 2}})
	f.Add(seed[4:])
	seed2, _ := AppendResponse(nil, &Response{ID: 2, Status: StatusOK, Msg: []byte("x")})
	f.Add(seed2[4:])
	f.Add([]byte{Version})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		if err := DecodeRequest(payload, &req); err == nil {
			if len(req.Name)+len(req.Args) > len(payload) {
				t.Fatal("decoded request over-reads payload")
			}
		}
		var resp Response
		if err := DecodeResponse(payload, &resp); err == nil {
			if len(resp.Msg)+len(resp.Result) > len(payload) {
				t.Fatal("decoded response over-reads payload")
			}
		}
	})
}
