// Package wire defines accd's length-prefixed binary framing. Both ends of
// the connection — internal/server and pkg/accclient — encode and decode
// through this package, so the frame layout is written down exactly once.
//
// Every frame is a 4-byte big-endian length (of the remainder) followed by
// the payload. Payloads open with a protocol version byte (Version); a
// request payload is
//
//	uint8   version     (Version)
//	uint64  request id  (client-chosen; echoed verbatim in the response)
//	uint64  trace id    (client-chosen; keys the request's latency-anatomy
//	                     span and its flight-recorder record)
//	uint8   op          (OpRun, OpPing)
//	uint8   args format (FmtBinary; zero on a frame without args)
//	uint8   read tier   (0 locked, 1 snapshot)
//	uint16  name length
//	bytes   transaction type name (OpRun; empty for OpPing)
//	bytes   encoded transaction arguments (the rest of the frame)
//
// and a response payload is
//
//	uint8   version
//	uint64  request id
//	uint8   status code   (see Status)
//	uint8   result format (FmtBinary; zero on a frame without a result)
//	uint16  message length
//	bytes   human-readable error message (empty on success)
//	bytes   encoded result (the rest of the frame)
//
// The result is the transaction's argument record re-encoded after
// execution: ACC transactions use their arguments as the §4.1 work area, so
// output fields (an assigned order number, a fetched balance) travel back in
// the same record the client sent. Responses are correlated by request id,
// never by order — the server answers out of order when pipelined requests
// finish out of order.
//
// An argument record travels in one format: the layout of the ArgCodec
// registered for its transaction type, the same bytes the engine saves in
// its end-of-step log records. A type without a registered codec cannot be
// run over the wire. The format byte names that format; a request carrying
// any other value is answered with StatusBadRequest.
//
// The package is built for an allocation-free steady state: frames encode
// into pooled buffers (GetBuffer/PutBuffer), ReadFrame decodes into a
// caller-reused buffer with Request/Response fields aliasing it, and
// BatchWriter coalesces queued frames into single vectored writes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version stamped on every payload. There is no
// cross-version interoperability: a peer that sends another version is
// refused (ErrVersion), and both ends of a deployment upgrade together.
const Version = 6

// Op selects what a request asks the server to do.
type Op uint8

const (
	// OpRun executes a registered transaction type.
	OpRun Op = 1
	// OpPing is a no-op round trip (health checks, pool liveness probes).
	OpPing Op = 2
)

// Format says how an args or result field is encoded.
type Format uint8

// FmtBinary is the work-area encoding of the type's registered ArgCodec: the
// one format an args or result field is ever in.
const FmtBinary Format = 1

// String names the format for logs and error messages.
func (f Format) String() string {
	if f == FmtBinary {
		return "binary"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// Status classifies the outcome of a request. The codes mirror the engine's
// error taxonomy (internal/core) so a client can reconstruct an errors.Is
// compatible error without parsing message text.
type Status uint8

const (
	// StatusOK means the transaction committed; the result field holds the
	// re-encoded work area.
	StatusOK Status = iota
	// StatusCompensated means the transaction rolled back by compensation
	// (§3.4): its steps' effects were semantically reversed. Final — the
	// work area may still carry assigned identifiers the client must
	// observe (e.g. a consumed order number).
	StatusCompensated
	// StatusAborted means the transaction aborted before exposing anything
	// (user abort). Final.
	StatusAborted
	// StatusDeadlock means the transaction was abandoned as a deadlock
	// victim after the server-side retry budget. Retryable.
	StatusDeadlock
	// StatusLockTimeout means a lock wait exceeded the engine's budget.
	// Retryable.
	StatusLockTimeout
	// StatusCanceled means the request's context ended (client disconnect
	// or server-side cancellation) before the transaction completed.
	StatusCanceled
	// StatusUnknownType means the named transaction type is not registered.
	StatusUnknownType
	// StatusQueueFull means admission control refused the request because
	// the in-flight limit was reached. Nothing executed; retry later.
	StatusQueueFull
	// StatusDraining means the server is shutting down and accepts no new
	// work. Nothing executed; retry against another server.
	StatusDraining
	// StatusBadRequest means the frame was structurally valid but the
	// request could not be run as sent: a bad op, tier or format byte, a
	// type with no registered codec, an argument record that does not
	// decode or that the type refuses. Nothing executed.
	StatusBadRequest
	// StatusInternal is any other server-side failure.
	StatusInternal
)

// String names the status for logs and metrics labels.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCompensated:
		return "compensated"
	case StatusAborted:
		return "aborted"
	case StatusDeadlock:
		return "deadlock"
	case StatusLockTimeout:
		return "lock-timeout"
	case StatusCanceled:
		return "canceled"
	case StatusUnknownType:
		return "unknown-type"
	case StatusQueueFull:
		return "queue-full"
	case StatusDraining:
		return "draining"
	case StatusBadRequest:
		return "bad-request"
	case StatusInternal:
		return "internal"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Retryable reports whether the status describes a transient outcome where
// retrying the identical request may succeed: scheduling aborts and
// admission refusals. Final outcomes (ok, compensated, aborted) and caller
// mistakes (unknown type, bad request) are not retryable.
func (s Status) Retryable() bool {
	switch s {
	case StatusDeadlock, StatusLockTimeout, StatusQueueFull:
		return true
	default:
		return false
	}
}

// Request is one decoded request frame. After DecodeRequest, Name and Args
// alias the payload buffer: they are valid until the caller recycles it.
type Request struct {
	// ID correlates the response; the server echoes it verbatim.
	ID uint64
	// Trace is the client-assigned trace ID for end-to-end latency
	// attribution. Unlike ID it is stable across retries of one logical
	// request, and it is never echoed — the client already knows it.
	Trace uint64
	// Op is the requested operation.
	Op Op
	// Fmt says how Args is encoded.
	Fmt Format
	// Tier selects the read path: 0 runs the full locked protocol (the only
	// tier that permits writes); 1 is the snapshot read-only tier
	// (core.ReadTier's values). An unknown tier is answered with
	// StatusBadRequest.
	Tier uint8
	// Name is the transaction type to run (OpRun).
	Name []byte
	// Args is the encoded argument record.
	Args []byte
}

// Response is one decoded response frame. After DecodeResponse, Msg and
// Result alias the payload buffer: they are valid until the caller recycles
// it.
type Response struct {
	// ID echoes the request id.
	ID uint64
	// Status classifies the outcome.
	Status Status
	// Fmt says how Result is encoded.
	Fmt Format
	// Msg is a human-readable elaboration (empty on success).
	Msg []byte
	// Result is the re-encoding of the transaction's work area.
	Result []byte
}

// MaxFrame bounds a single frame's payload. Requests are argument records
// and responses are work areas — a megabyte is far beyond any sane
// transaction, so larger lengths are treated as protocol corruption rather
// than honored with an allocation.
const MaxFrame = 1 << 20

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// ErrVersion reports a payload whose leading version byte is not Version —
// an incompatible peer, or garbage on the wire.
var ErrVersion = errors.New("wire: protocol version mismatch")

var byteOrder = binary.BigEndian

// reqHeader is the fixed part of a request payload: version, id, trace id,
// op, format, read tier, name length.
const reqHeader = 1 + 8 + 8 + 1 + 1 + 1 + 2

// respHeader is the fixed part of a response payload: version, id, status,
// format, message length.
const respHeader = 1 + 8 + 1 + 1 + 2

// AppendRequest appends req as one complete frame (length prefix included)
// and returns the extended buffer. The only errors are size violations.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	if len(req.Name) > 0xFFFF {
		return dst, fmt.Errorf("wire: transaction type name %d bytes long", len(req.Name))
	}
	n := reqHeader + len(req.Name) + len(req.Args)
	if n > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = byteOrder.AppendUint32(dst, uint32(n))
	dst = append(dst, Version)
	dst = byteOrder.AppendUint64(dst, req.ID)
	dst = byteOrder.AppendUint64(dst, req.Trace)
	dst = append(dst, byte(req.Op), byte(req.Fmt), req.Tier)
	dst = byteOrder.AppendUint16(dst, uint16(len(req.Name)))
	dst = append(dst, req.Name...)
	dst = append(dst, req.Args...)
	return dst, nil
}

// AppendResponse appends resp as one complete frame (length prefix
// included) and returns the extended buffer. An over-long message is
// truncated rather than failed: it only elaborates the status.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	msg := resp.Msg
	if len(msg) > 0xFFFF {
		msg = msg[:0xFFFF]
	}
	n := respHeader + len(msg) + len(resp.Result)
	if n > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = byteOrder.AppendUint32(dst, uint32(n))
	dst = append(dst, Version)
	dst = byteOrder.AppendUint64(dst, resp.ID)
	dst = append(dst, byte(resp.Status), byte(resp.Fmt))
	dst = byteOrder.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	dst = append(dst, resp.Result...)
	return dst, nil
}

// DecodeRequest decodes one request payload into req. Name and Args alias
// payload.
func DecodeRequest(payload []byte, req *Request) error {
	// Version first: an old-protocol frame is usually also shorter than the
	// current header, and the version mismatch is the useful diagnosis.
	if len(payload) >= 1 && payload[0] != Version {
		return fmt.Errorf("%w: got %d, want %d", ErrVersion, payload[0], Version)
	}
	if len(payload) < reqHeader {
		return fmt.Errorf("wire: short request frame (%d bytes)", len(payload))
	}
	req.ID = byteOrder.Uint64(payload[1:])
	req.Trace = byteOrder.Uint64(payload[9:])
	req.Op = Op(payload[17])
	req.Fmt = Format(payload[18])
	req.Tier = payload[19]
	nameLen := int(byteOrder.Uint16(payload[20:]))
	if reqHeader+nameLen > len(payload) {
		return fmt.Errorf("wire: request name length %d overruns frame", nameLen)
	}
	req.Name = payload[reqHeader : reqHeader+nameLen]
	req.Args = payload[reqHeader+nameLen:]
	return nil
}

// DecodeResponse decodes one response payload into resp. Msg and Result
// alias payload.
func DecodeResponse(payload []byte, resp *Response) error {
	if len(payload) < respHeader {
		return fmt.Errorf("wire: short response frame (%d bytes)", len(payload))
	}
	if payload[0] != Version {
		return fmt.Errorf("%w: got %d, want %d", ErrVersion, payload[0], Version)
	}
	resp.ID = byteOrder.Uint64(payload[1:])
	resp.Status = Status(payload[9])
	resp.Fmt = Format(payload[10])
	msgLen := int(byteOrder.Uint16(payload[11:]))
	if respHeader+msgLen > len(payload) {
		return fmt.Errorf("wire: response message length %d overruns frame", msgLen)
	}
	resp.Msg = payload[respHeader : respHeader+msgLen]
	resp.Result = payload[respHeader+msgLen:]
	return nil
}

// ReadFrame reads one length-prefixed payload into *buf, growing it only
// when the frame exceeds its capacity, and returns the payload slice. The
// caller owns *buf across calls — a session reuses one buffer for its whole
// lifetime, so steady-state reads allocate nothing.
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	// The length prefix is read into the caller's buffer, not a local
	// array: a local would escape through the io.ReadFull interface call
	// and cost one heap allocation per frame.
	if cap(*buf) < 4 {
		*buf = make([]byte, 0, 4096)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err // io.EOF between frames is a clean close
	}
	n := int(byteOrder.Uint32(hdr))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // mid-frame close is not clean
		}
		return nil, err
	}
	return payload, nil
}

// WriteRequest encodes req as one frame through a pooled buffer. It issues
// a single Write, so concurrent callers serialized by a mutex cannot
// interleave frames. Batched senders use AppendRequest with a BatchWriter
// instead.
func WriteRequest(w io.Writer, req *Request) error {
	buf := GetBuffer()
	defer PutBuffer(buf)
	b, err := AppendRequest((*buf)[:0], req)
	if err != nil {
		return err
	}
	*buf = b
	_, err = w.Write(b)
	return err
}

// WriteResponse encodes resp as one frame in a single Write through a
// pooled buffer.
func WriteResponse(w io.Writer, resp *Response) error {
	buf := GetBuffer()
	defer PutBuffer(buf)
	b, err := AppendResponse((*buf)[:0], resp)
	if err != nil {
		return err
	}
	*buf = b
	_, err = w.Write(b)
	return err
}

// ReadRequest reads and decodes one request frame into fresh storage (the
// convenience path for tests and simple tools; the server reads through
// ReadFrame + DecodeRequest with pooled buffers).
func ReadRequest(r io.Reader) (*Request, error) {
	var buf []byte
	payload, err := ReadFrame(r, &buf)
	if err != nil {
		return nil, err
	}
	req := &Request{}
	if err := DecodeRequest(payload, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse reads and decodes one response frame into fresh storage.
func ReadResponse(r io.Reader) (*Response, error) {
	var buf []byte
	payload, err := ReadFrame(r, &buf)
	if err != nil {
		return nil, err
	}
	resp := &Response{}
	if err := DecodeResponse(payload, resp); err != nil {
		return nil, err
	}
	return resp, nil
}
