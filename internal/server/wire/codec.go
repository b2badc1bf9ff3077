// Work-area codec registry and the frame buffer pool. A transaction type's
// argument record has one serialisation, its ArgCodec, encoded into and
// decoded out of pooled storage so the steady-state request path performs
// zero heap allocations per request. The same codec value writes the record
// into the log and the coordinator's shot plan (core.TxnType.AppendArgs /
// DecodeArgs are bound to its Encode / DecodeNew), so the bytes in a frame
// are the bytes in an end-of-step record.

package wire

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// ArgCodec is the encoding of one transaction type's argument record,
// declared once by the workload package. Registering it (typically from the
// package's init) is what lets clients run the type; the server and the
// client find it by the type's name.
type ArgCodec struct {
	// Name is the transaction type this codec encodes.
	Name string
	// New returns a fresh argument record (the pool's constructor).
	New func() any
	// Reset clears a record for reuse, keeping slice capacity.
	Reset func(v any)
	// Encode appends the record's binary layout to dst and returns the
	// extended buffer. It must accept any record New produces.
	Encode func(dst []byte, v any) []byte
	// Decode overwrites v from data. It must bounds-check hostile input and
	// reuse v's slice capacity; it never panics on truncated or oversized
	// payloads.
	Decode func(data []byte, v any) error

	nameBytes []byte
	argType   reflect.Type
	pool      sync.Pool
}

// NameBytes returns the codec's type name as a reusable byte slice (for
// request frames; callers must not mutate it).
func (c *ArgCodec) NameBytes() []byte { return c.nameBytes }

// Handles reports whether v is the concrete record type this codec
// encodes; Encode and Decode type-assert, so a caller holding an arbitrary
// args value asks first.
func (c *ArgCodec) Handles(v any) bool { return reflect.TypeOf(v) == c.argType }

// DecodeNew decodes data into a fresh record. It is the form recovery and
// the coordinator's plan decoder take (core.TxnType.DecodeArgs): they keep
// the record, so nothing there is pooled.
func (c *ArgCodec) DecodeNew(data []byte) (any, error) {
	v := c.New()
	if err := c.Decode(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// GetArgs returns a pooled, reset argument record.
func (c *ArgCodec) GetArgs() any {
	v := c.pool.Get()
	if v == nil {
		return c.New()
	}
	c.Reset(v)
	return v
}

// PutArgs returns a record to the pool. The caller must not retain it.
func (c *ArgCodec) PutArgs(v any) {
	if v != nil {
		c.pool.Put(v)
	}
}

// registry is a copy-on-write map: registration happens at package init
// time, lookups on every request, so reads must be lock-free.
var registry atomic.Pointer[map[string]*ArgCodec]

var registerMu sync.Mutex

// RegisterArgCodec installs a codec for its transaction type, replacing any
// previous registration. Call from init or before serving; lookups are
// lock-free.
func RegisterArgCodec(c *ArgCodec) {
	if c.Name == "" || c.New == nil || c.Reset == nil || c.Encode == nil || c.Decode == nil {
		panic("wire: ArgCodec requires Name, New, Reset, Encode, and Decode")
	}
	c.nameBytes = []byte(c.Name)
	c.argType = reflect.TypeOf(c.New())
	registerMu.Lock()
	defer registerMu.Unlock()
	next := make(map[string]*ArgCodec)
	if cur := registry.Load(); cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[c.Name] = c
	registry.Store(&next)
}

// CodecFor returns the codec registered for the transaction type, or nil.
func CodecFor(name string) *ArgCodec {
	m := registry.Load()
	if m == nil {
		return nil
	}
	return (*m)[name]
}

// CodecForBytes is CodecFor keyed by a byte-slice name (a decoded request's
// Name field) without allocating.
func CodecForBytes(name []byte) *ArgCodec {
	m := registry.Load()
	if m == nil {
		return nil
	}
	return (*m)[string(name)]
}

// bufferPool recycles frame and work-area buffers. 4 KiB initial capacity
// covers every TPC-C frame; oversized buffers return to the pool too — the
// MaxFrame bound keeps the worst case at 1 MiB.
var bufferPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer returns a pooled byte buffer (length unspecified; reslice
// before use). Pair with PutBuffer.
func GetBuffer() *[]byte {
	return bufferPool.Get().(*[]byte)
}

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must not
// use it afterwards.
func PutBuffer(b *[]byte) {
	if b != nil {
		bufferPool.Put(b)
	}
}
