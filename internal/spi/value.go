package spi

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the column types supported by the engine.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer column.
	KindInt Kind = iota + 1
	// KindFloat is a 64-bit IEEE-754 column.
	KindFloat
	// KindString is a variable-length string column.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single column value. It is a tagged union rather than an
// interface so that rows are contiguous and cheap to copy; a Value is
// immutable by convention.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// I64 constructs an integer value.
func I64(v int64) Value { return Value{K: KindInt, I: v} }

// Int constructs an integer value from an int.
func Int(v int) Value { return Value{K: KindInt, I: int64(v)} }

// F64 constructs a float value.
func F64(v float64) Value { return Value{K: KindFloat, F: v} }

// Str constructs a string value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// Int64 returns the integer payload; it panics if the value is not an int.
func (v Value) Int64() int64 {
	if v.K != KindInt {
		panic("spi: Int64 on " + v.K.String())
	}
	return v.I
}

// Float64 returns the float payload; it panics if the value is not a float.
func (v Value) Float64() float64 {
	if v.K != KindFloat {
		panic("spi: Float64 on " + v.K.String())
	}
	return v.F
}

// Text returns the string payload; it panics if the value is not a string.
func (v Value) Text() string {
	if v.K != KindString {
		panic("spi: Text on " + v.K.String())
	}
	return v.S
}

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.K != o.K {
		return false
	}
	switch v.K {
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindString:
		return v.S == o.S
	}
	return false
}

// Compare orders two values of the same kind: -1, 0, or +1. Comparing
// values of different kinds panics; schemas make that a design-time error.
func (v Value) Compare(o Value) int {
	if v.K != o.K {
		panic(fmt.Sprintf("spi: comparing %s with %s", v.K, o.K))
	}
	switch v.K {
	case KindInt:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		}
		return 0
	case KindString:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	}
	return 0
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.K {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	default:
		return "<nil>"
	}
}

// Key is an order-preserving binary encoding of a composite key. Two keys
// compare bytewise in the same order as the value tuples they encode, which
// lets ordered indexes and the lock table use plain byte comparison.
type Key string

// EncodeKey builds an order-preserving key from the given values.
//
// Integers are encoded big-endian with the sign bit flipped so unsigned
// byte order matches signed integer order. Floats use the standard
// monotone IEEE-754 transform. Strings are escaped (0x00 -> 0x00 0xFF) and
// terminated with 0x00 0x00 so that prefixes order correctly. Each value is
// preceded by a one-byte kind tag so malformed mixes fail loudly on decode.
func EncodeKey(vals ...Value) Key {
	var b strings.Builder
	n := 0
	for _, v := range vals {
		n += KeyLen(v)
	}
	b.Grow(n)
	for _, v := range vals {
		AppendKeyVal(&b, v)
	}
	return Key(b.String())
}

// KeyLen returns the exact encoded size of one value inside a key, so key
// builders (KeyOf, backends building composite index entries) can Grow once
// and encode with no further allocation.
func KeyLen(v Value) int {
	switch v.K {
	case KindInt, KindFloat:
		return 9
	case KindString:
		n := 3 + len(v.S) // kind tag + payload + 0x00 0x00 terminator
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == 0x00 {
				n++ // escaped to 0x00 0xFF
			}
		}
		return n
	default:
		panic("spi: EncodeKey on zero Value")
	}
}

// AppendKeyVal encodes one value onto a pre-grown builder; the format is
// documented on EncodeKey. Paired with KeyLen it is the single-allocation
// building block for composite keys.
func AppendKeyVal(b *strings.Builder, v Value) {
	b.WriteByte(byte(v.K))
	switch v.K {
	case KindInt:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.I)^(1<<63))
		b.Write(buf[:])
	case KindFloat:
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		b.Write(buf[:])
	case KindString:
		for i := 0; i < len(v.S); i++ {
			c := v.S[i]
			b.WriteByte(c)
			if c == 0x00 {
				b.WriteByte(0xFF)
			}
		}
		b.WriteByte(0x00)
		b.WriteByte(0x00)
	default:
		panic("spi: EncodeKey on zero Value")
	}
}

// KeyPrefix returns the encoding of k's first n values — the bytes EncodeKey
// gives those values — sliced from k with no allocation: every value's
// encoding delimits itself. A k of fewer than n values is returned whole.
func KeyPrefix(k Key, n int) Key {
	i := 0
	for ; n > 0 && i < len(k); n-- {
		if Kind(k[i]) != KindString {
			i += 9
		} else if end := strings.Index(string(k[i+1:]), "\x00\x00"); end >= 0 {
			i += end + 3 // a payload NUL is 0x00 0xFF: the first 0x00 0x00 ends it
		} else {
			return k
		}
	}
	return k[:min(i, len(k))]
}

// DecodeKey reverses EncodeKey. It returns an error on malformed input so
// that log-recovery paths can surface corruption instead of panicking.
func DecodeKey(k Key) ([]Value, error) {
	var out []Value
	b := []byte(k)
	for len(b) > 0 {
		kind := Kind(b[0])
		b = b[1:]
		switch kind {
		case KindInt:
			if len(b) < 8 {
				return nil, fmt.Errorf("spi: truncated int key")
			}
			u := binary.BigEndian.Uint64(b[:8]) ^ (1 << 63)
			out = append(out, I64(int64(u)))
			b = b[8:]
		case KindFloat:
			if len(b) < 8 {
				return nil, fmt.Errorf("spi: truncated float key")
			}
			bits := binary.BigEndian.Uint64(b[:8])
			if bits&(1<<63) != 0 {
				bits &^= 1 << 63
			} else {
				bits = ^bits
			}
			out = append(out, F64(math.Float64frombits(bits)))
			b = b[8:]
		case KindString:
			var s []byte
			i := 0
			for {
				if i >= len(b) {
					return nil, fmt.Errorf("spi: unterminated string key")
				}
				c := b[i]
				if c == 0x00 {
					if i+1 >= len(b) {
						return nil, fmt.Errorf("spi: truncated string escape")
					}
					if b[i+1] == 0x00 { // terminator
						i += 2
						break
					}
					if b[i+1] == 0xFF { // escaped NUL
						s = append(s, 0x00)
						i += 2
						continue
					}
					return nil, fmt.Errorf("spi: bad string escape 0x%02x", b[i+1])
				}
				s = append(s, c)
				i++
			}
			out = append(out, Str(string(s)))
			b = b[i:]
		default:
			return nil, fmt.Errorf("spi: bad kind tag 0x%02x in key", byte(kind))
		}
	}
	return out, nil
}
