// Package accclient is the client for accd's wire protocol. A Client owns a
// small pool of TCP connections; requests are pipelined — many in flight per
// connection, correlated by request id — and outcomes that the engine's
// taxonomy marks retryable (deadlock victim, lock timeout) plus admission
// refusals (queue full) are retried automatically under the configured
// policy.
//
// Errors returned by Run reconstruct the server-side taxonomy: errors.Is
// against acc.ErrAborted / acc.ErrDeadlockVictim / acc.ErrLockTimeout /
// acc.ErrUnknownTxnType works across the wire, and acc.IsCompensated
// identifies compensated rollbacks — whose result payload the client still
// decodes, because a compensated transaction may have consumed identifiers
// (a TPC-C order number) the application's bookkeeping needs.
package accclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/server/wire"
)

// Package sentinels for admission and protocol failures. Engine outcomes
// (aborts, deadlocks, timeouts, compensation) map onto the acc taxonomy
// instead.
var (
	// ErrQueueFull reports a request refused by the server's admission
	// control. Nothing executed; the request is safely retryable.
	ErrQueueFull = errors.New("accclient: server queue full")
	// ErrDraining reports a request refused because the server is shutting
	// down. Nothing executed; retry against another server.
	ErrDraining = errors.New("accclient: server draining")
	// ErrBadRequest reports a request the server could not decode.
	ErrBadRequest = errors.New("accclient: bad request")
	// ErrClosed reports a Run on a closed client.
	ErrClosed = errors.New("accclient: client closed")
)

// RetryPolicy bounds automatic retries of retryable outcomes.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt.
	Max int
	// Backoff is the sleep before the first retry; it doubles per retry.
	Backoff time.Duration
}

// Options configures a Client.
type Options struct {
	// PoolSize is the number of TCP connections; requests round-robin over
	// them. Zero means 4.
	PoolSize int
	// Retry bounds automatic retries. The zero policy retries once after
	// 2ms, the paper's deadlock-recurrence rule applied at the client.
	Retry RetryPolicy
	// DialTimeout bounds each connection attempt. Zero means 5s.
	DialTimeout time.Duration
	// TraceObserver, when non-nil, receives the trace id assigned to each
	// Run before its first attempt is sent. The id is stable across retries
	// of one logical request and is what the server's latency-anatomy layer
	// keys its spans by, so an application (or test) can correlate its own
	// records with server-side breakdowns.
	TraceObserver func(traceID uint64)
}

// Option mutates Options.
type Option func(*Options)

// WithPoolSize sets the connection pool size.
func WithPoolSize(n int) Option { return func(o *Options) { o.PoolSize = n } }

// WithRetry sets the retry policy.
func WithRetry(p RetryPolicy) Option { return func(o *Options) { o.Retry = p } }

// WithDialTimeout bounds each connection attempt.
func WithDialTimeout(d time.Duration) Option { return func(o *Options) { o.DialTimeout = d } }

// WithTraceObserver registers a hook receiving each Run's trace id.
func WithTraceObserver(fn func(traceID uint64)) Option {
	return func(o *Options) { o.TraceObserver = fn }
}

// Stats counts client-side request activity.
type Stats struct {
	// Requests is the number of Run calls.
	Requests uint64
	// Attempts is the number of wire round trips (≥ Requests).
	Attempts uint64
	// Retries counts attempts beyond each request's first.
	Retries uint64
	// TransportErrors counts broken-connection failures.
	TransportErrors uint64
}

// Client is a pooled, pipelined connection to one accd server.
type Client struct {
	addr string
	opts Options

	ids  atomic.Uint64
	next atomic.Uint64

	// traceBase seeds this client's trace ids: dial-time nanoseconds in the
	// high bits, a per-Run counter in the low traceSeqBits. Two clients of
	// one server draw from disjoint ranges without coordination.
	traceBase uint64
	traces    atomic.Uint64

	requests        atomic.Uint64
	attempts        atomic.Uint64
	retries         atomic.Uint64
	transportErrors atomic.Uint64

	closed atomic.Bool
	slots  []*slot
}

// slot is one pool entry; the connection is dialed lazily and redialed
// after transport failures.
type slot struct {
	mu sync.Mutex
	c  *conn
}

// Dial creates a client for addr and verifies connectivity with one ping.
func Dial(addr string, opts ...Option) (*Client, error) {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.Retry.Max == 0 && o.Retry.Backoff == 0 {
		o.Retry = RetryPolicy{Max: 1, Backoff: 2 * time.Millisecond}
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	c := &Client{addr: addr, opts: o, slots: make([]*slot, o.PoolSize)}
	c.traceBase = uint64(time.Now().UnixNano()) << traceSeqBits
	if c.traceBase == 0 {
		c.traceBase = 1 << traceSeqBits
	}
	for i := range c.slots {
		c.slots[i] = &slot{}
	}
	if err := c.Ping(context.Background()); err != nil {
		c.Close()
		return nil, fmt.Errorf("accclient: dial %s: %w", addr, err)
	}
	return c, nil
}

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:        c.requests.Load(),
		Attempts:        c.attempts.Load(),
		Retries:         c.retries.Load(),
		TransportErrors: c.transportErrors.Load(),
	}
}

// Close tears down the pool. In-flight requests fail with transport errors.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, s := range c.slots {
		s.mu.Lock()
		if s.c != nil {
			s.c.shutdown(ErrClosed)
			s.c = nil
		}
		s.mu.Unlock()
	}
	return nil
}

// runState carries one Run's request across attempts: the request header
// plus the buffer its Args field aliases. Pooled, so a Run allocates nothing
// on the request path.
type runState struct {
	req    wire.Request
	argBuf []byte
}

var runPool = sync.Pool{New: func() any { return new(runState) }}

// Ping round-trips a no-op request.
func (c *Client) Ping(ctx context.Context) error {
	st := runPool.Get().(*runState)
	defer runPool.Put(st)
	st.req = wire.Request{Op: wire.OpPing}
	rf, err := c.roundTrip(ctx, &st.req)
	if rf != nil {
		respPool.Put(rf)
	}
	return err
}

// Run executes the named transaction type on the server with the given
// argument record, which travels through pooled buffers in the layout of the
// wire.ArgCodec registered for the type; a record no registered codec
// handles is an error before anything is sent. On a final outcome the
// response's work area is decoded back into args, so output fields (assigned
// order numbers, fetched balances) appear in place, exactly as with the
// in-process acc.Engine. Retryable outcomes are retried per the policy with
// exponential backoff; ctx cancels the wait for a response (the server
// finishes or compensates the in-flight attempt on its own).
func (c *Client) Run(ctx context.Context, name string, args any) error {
	return c.RunTier(ctx, name, args, core.TierLocked)
}

// RunTier is Run at an explicit consistency tier. TierLocked (the Run
// default) executes the full locked protocol and is the only tier that
// permits writes; acc.TierSnapshot takes the server's lock-free read path,
// and a write inside the transaction fails the request with a bad-request
// status wrapping acc.ErrReadOnly's message.
func (c *Client) RunTier(ctx context.Context, name string, args any, tier core.ReadTier) error {
	c.requests.Add(1)
	codec := wire.CodecFor(name)
	if codec == nil || !codec.Handles(args) {
		return fmt.Errorf("accclient: no registered codec for %q handles a %T", name, args)
	}
	st := runPool.Get().(*runState)
	defer runPool.Put(st)
	st.argBuf = codec.Encode(st.argBuf[:0], args)
	st.req = wire.Request{
		Op: wire.OpRun, Trace: c.nextTrace(), Tier: uint8(tier),
		Fmt: wire.FmtBinary, Name: codec.NameBytes(), Args: st.argBuf,
	}
	if c.opts.TraceObserver != nil {
		c.opts.TraceObserver(st.req.Trace)
	}
	backoff := c.opts.Retry.Backoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if backoff > 0 {
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					return ctx.Err()
				}
				backoff *= 2
			}
		}
		rf, err := c.roundTrip(ctx, &st.req)
		if err != nil {
			// Transport failure: the attempt's fate is unknown, so blind
			// retry could double-execute a non-idempotent transaction.
			// Surface it; the application decides.
			return err
		}
		err = statusError(name, &rf.resp)
		if retryable(err) && attempt < c.opts.Retry.Max && ctx.Err() == nil {
			respPool.Put(rf)
			continue
		}
		if len(rf.resp.Result) > 0 {
			var uerr error
			if rf.resp.Fmt == wire.FmtBinary {
				uerr = codec.Decode(rf.resp.Result, args)
			} else {
				uerr = fmt.Errorf("unknown result format %s", rf.resp.Fmt)
			}
			if uerr != nil && err == nil {
				err = fmt.Errorf("accclient: decode %s result: %w", name, uerr)
			}
		}
		respPool.Put(rf)
		return err
	}
}

// traceSeqBits is the width of the per-client trace sequence number; about
// a million Runs per client before the window wraps within the base.
const traceSeqBits = 20

// nextTrace returns the next trace id: one per logical Run, stable across
// its retries, never zero.
func (c *Client) nextTrace() uint64 {
	return c.traceBase | (c.traces.Add(1) & (1<<traceSeqBits - 1))
}

// retryable extends the engine's predicate with client-side admission
// refusals: a queue-full rejection executed nothing, so retrying is safe.
func retryable(err error) bool {
	return core.Retryable(err) || errors.Is(err, ErrQueueFull)
}

// statusError reconstructs an errors.Is-compatible error from a response.
func statusError(name string, resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusCompensated:
		return &core.CompensatedError{Txn: name, Cause: errors.New(string(resp.Msg))}
	case wire.StatusAborted:
		return fmt.Errorf("%w: %s", core.ErrAborted, resp.Msg)
	case wire.StatusDeadlock:
		return fmt.Errorf("%w: %s", core.ErrDeadlockVictim, resp.Msg)
	case wire.StatusLockTimeout:
		return fmt.Errorf("%w: %s", core.ErrLockTimeout, resp.Msg)
	case wire.StatusCanceled:
		return fmt.Errorf("%w: server reported %s", context.Canceled, resp.Msg)
	case wire.StatusUnknownType:
		return fmt.Errorf("%w: %s", core.ErrUnknownTxnType, resp.Msg)
	case wire.StatusQueueFull:
		return ErrQueueFull
	case wire.StatusDraining:
		return fmt.Errorf("%w: %s", ErrDraining, resp.Msg)
	case wire.StatusBadRequest:
		return fmt.Errorf("%w: %s", ErrBadRequest, resp.Msg)
	default:
		return fmt.Errorf("accclient: %s failed: %s (%s)", name, resp.Msg, resp.Status)
	}
}

// respFrame is one received response: the decoded header plus the frame
// buffer its Msg and Result fields alias. Pooled; the consumer returns it
// with respPool.Put once done with the aliased fields.
type respFrame struct {
	resp wire.Response
	buf  []byte
}

var respPool = sync.Pool{New: func() any { return new(respFrame) }}

// chanPool recycles response rendezvous channels. A channel is re-pooled
// only after its response was received — a channel abandoned on ctx
// cancellation or closed by a connection shutdown may still be touched by
// the read loop and must go to the garbage collector instead.
var chanPool = sync.Pool{New: func() any { return make(chan *respFrame, 1) }}

// roundTrip sends one request over a pooled connection and waits for its
// response or ctx. The caller owns the returned respFrame and recycles it
// with respPool.Put.
func (c *Client) roundTrip(ctx context.Context, req *wire.Request) (*respFrame, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.attempts.Add(1)
	s := c.slots[c.next.Add(1)%uint64(len(c.slots))]
	cn, err := s.get(c)
	if err != nil {
		c.transportErrors.Add(1)
		return nil, err
	}
	req.ID = c.ids.Add(1)
	ch := chanPool.Get().(chan *respFrame)
	if err := cn.send(req, ch); err != nil {
		c.transportErrors.Add(1)
		s.retire(cn)
		return nil, err
	}
	select {
	case rf, ok := <-ch:
		if !ok {
			c.transportErrors.Add(1)
			s.retire(cn)
			return nil, cn.failure()
		}
		chanPool.Put(ch)
		return rf, nil
	case <-ctx.Done():
		cn.forget(req.ID)
		return nil, ctx.Err()
	}
}

// get returns the slot's live connection, dialing if needed.
func (s *slot) get(c *Client) (*conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil && !s.c.broken() {
		return s.c, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("accclient: %w", err)
	}
	s.c = newConn(nc)
	return s.c, nil
}

// retire drops cn from the slot so the next request redials.
func (s *slot) retire(cn *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c == cn {
		s.c = nil
	}
	cn.shutdown(nil)
}

// conn is one pooled connection with a demultiplexing reader: responses
// arrive in completion order and are routed to waiters by request id.
// Outgoing frames go through a BatchWriter, so pipelined senders coalesce
// into vectored writes.
type conn struct {
	nc net.Conn
	bw *wire.BatchWriter

	mu      sync.Mutex
	pending map[uint64]chan *respFrame
	err     error
}

func newConn(nc net.Conn) *conn {
	cn := &conn{nc: nc, bw: wire.NewBatchWriter(nc), pending: make(map[uint64]chan *respFrame)}
	go cn.readLoop()
	return cn
}

func (cn *conn) readLoop() {
	for {
		rf := respPool.Get().(*respFrame)
		payload, err := wire.ReadFrame(cn.nc, &rf.buf)
		if err == nil {
			err = wire.DecodeResponse(payload, &rf.resp)
		}
		if err != nil {
			respPool.Put(rf)
			cn.shutdown(fmt.Errorf("accclient: connection lost: %w", err))
			return
		}
		cn.mu.Lock()
		ch := cn.pending[rf.resp.ID]
		delete(cn.pending, rf.resp.ID)
		cn.mu.Unlock()
		if ch != nil {
			ch <- rf
		} else {
			respPool.Put(rf) // waiter gave up (ctx); drop the late response
		}
	}
}

// send registers the request id and enqueues the encoded frame. A write
// failure surfaces asynchronously: the read loop notices the broken
// connection and fails every pending waiter.
func (cn *conn) send(req *wire.Request, ch chan *respFrame) error {
	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		return err
	}
	cn.pending[req.ID] = ch
	cn.mu.Unlock()

	buf := wire.GetBuffer()
	b, err := wire.AppendRequest((*buf)[:0], req)
	if err != nil {
		wire.PutBuffer(buf)
		cn.forget(req.ID)
		return fmt.Errorf("accclient: encode: %w", err)
	}
	*buf = b
	if err := cn.bw.Enqueue(buf); err != nil {
		cn.forget(req.ID)
		return fmt.Errorf("accclient: write: %w", err)
	}
	return nil
}

// forget abandons a pending request (ctx cancellation): a late response is
// dropped by the read loop.
func (cn *conn) forget(id uint64) {
	cn.mu.Lock()
	delete(cn.pending, id)
	cn.mu.Unlock()
}

// shutdown breaks the connection and fails every pending waiter by closing
// its channel. The socket closes before the batch writer so a writer stuck
// in a blocked write errors out instead of stalling the teardown.
func (cn *conn) shutdown(cause error) {
	cn.mu.Lock()
	if cn.err == nil {
		if cause == nil {
			cause = errors.New("accclient: connection retired")
		}
		cn.err = cause
	}
	pending := cn.pending
	cn.pending = make(map[uint64]chan *respFrame)
	cn.mu.Unlock()
	cn.nc.Close()
	cn.bw.Close()
	for _, ch := range pending {
		close(ch)
	}
}

func (cn *conn) broken() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err != nil
}

func (cn *conn) failure() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return cn.err
	}
	return errors.New("accclient: connection lost")
}
