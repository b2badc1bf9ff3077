package tpcc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"accdb/internal/core"
	"accdb/internal/server/wire"
	"accdb/internal/wal"
)

// argCodecs is every record type's codec: the five a client may name, which
// the wire registry must hand back as the same value, and the shot record's,
// which it must not know.
var argCodecs = map[string]*wire.ArgCodec{
	"new_order": newOrderCodec, "payment": paymentCodec, "delivery": deliveryCodec,
	"order_status": orderStatusCodec, "stock_level": stockLevelCodec, "no_stock": noStockCodec,
}

// randArgs builds one randomized valid instance per record type, including
// degenerate shapes (empty slices, empty strings, negative and extreme
// values) the layout must carry exactly.
func randArgs(rng *rand.Rand) map[string]any {
	i64 := func() int64 { return rng.Int63() - rng.Int63() }
	str := func() string {
		n := rng.Intn(17)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(' ' + rng.Intn(95))
		}
		return string(b)
	}
	vec := func(n int) []int64 {
		if n == 0 && rng.Intn(2) == 0 {
			return nil
		}
		v := make([]int64, n)
		for i := range v {
			v[i] = i64()
		}
		return v
	}
	lines := func() []OrderLineReq {
		var ls []OrderLineReq
		for i, n := 0, rng.Intn(5); i < n; i++ {
			ls = append(ls, OrderLineReq{ItemID: i64(), SupplyW: i64(), Quantity: i64()})
		}
		return ls
	}
	no := &NewOrderArgs{
		WID: i64(), DID: i64(), CID: i64(), Lines: lines(),
		InvalidItem: rng.Intn(2) == 1, FailFinal: rng.Intn(2) == 1,
		ONum: i64(), WTax: i64(), DTax: i64(), CDiscount: i64(), Total: i64(),
	}
	no.Filled, no.Amounts = vec(len(no.Lines)), vec(len(no.Lines))
	ns := &NoStockArgs{WID: i64(), Lines: lines()}
	ns.Filled = vec(len(ns.Lines))
	districts := rng.Intn(6)
	return map[string]any{
		"new_order": no,
		"no_stock":  ns,
		"payment": &PaymentArgs{
			WID: i64(), DID: i64(), CWID: i64(), CDID: i64(), CID: i64(),
			CLast: str(), Amount: i64(), HID: i64(), Date: i64(), ResolvedCID: i64(),
		},
		"delivery": &DeliveryArgs{
			WID: i64(), Carrier: i64(), Date: i64(),
			Claimed: vec(districts), Amounts: vec(districts), Customers: vec(districts),
		},
		"order_status": &OrderStatusArgs{WID: i64(), DID: i64(), CID: i64(), CLast: str()},
		"stock_level":  &StockLevelArgs{WID: i64(), DID: i64(), Threshold: i64(), Orders: i64()},
	}
}

// canonical renders an args record with nil and empty slices identified:
// the layout does not distinguish them. Unexported fields — caches outside
// the layout — are left out, as the JSON rendering leaves them.
func canonical(t *testing.T, v any) string {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	cp := reflect.New(rv.Type())
	cp.Elem().Set(rv)
	for i := 0; i < cp.Elem().NumField(); i++ {
		f := cp.Elem().Field(i)
		if f.CanSet() && f.Kind() == reflect.Slice && f.IsNil() {
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		}
	}
	b, err := json.Marshal(cp.Interface())
	if err != nil {
		t.Fatalf("canonical marshal: %v", err)
	}
	return string(b)
}

// TestBinaryCodecRoundTrip checks decode(encode(x)) == x for randomized
// records of all six types.
func TestBinaryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 200; iter++ {
		for name, orig := range randArgs(rng) {
			c := argCodecs[name]
			enc := c.Encode(nil, orig)
			dec := c.GetArgs()
			if err := c.Decode(enc, dec); err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if got, want := canonical(t, dec), canonical(t, orig); got != want {
				t.Fatalf("%s: round trip diverged\n got %s\nwant %s", name, got, want)
			}
			c.PutArgs(dec)
		}
	}
}

// TestOneLayout pins that a record has one serialisation: for each of the six
// record types the wire registry and the transaction type's log codec go
// through the same codec value and produce the same bytes for the same
// record; TestOneLayoutInTheLogs reads the bytes back out of real logs.
func TestOneLayout(t *testing.T) {
	types := BuildTypes()
	eng := core.New(core.NewDB(), types.Tables)
	defer eng.Close()
	if _, err := RegisterPartitioned(eng, types, DefaultScale(), 2); err != nil {
		t.Fatal(err)
	}
	for name, rec := range randArgs(rand.New(rand.NewSource(3))) {
		c := argCodecs[name]
		want := c.Encode(nil, rec)
		if len(want) == 0 {
			t.Fatalf("%s: empty encoding", name)
		}

		// The wire: clients may name the five TPC-C types and only those.
		if reg := wire.CodecFor(name); name == "no_stock" {
			if reg != nil {
				t.Errorf("no_stock is in the wire registry: a client could run a bare shot")
			}
		} else if reg != c {
			t.Errorf("%s: the wire registry holds a different codec value", name)
		} else if !reg.Handles(rec) {
			t.Errorf("%s: codec does not handle its own record type %T", name, rec)
		}

		// The log: a type that writes saves its area through AppendArgs and
		// recovery reads it back through DecodeArgs.
		logged := []string{name}
		if name == "no_stock" {
			logged = append(logged, "no_stock_undo")
		}
		if name == "order_status" || name == "stock_level" {
			logged = nil // read-only: nothing is ever saved
		}
		for _, typ := range logged {
			tt := eng.Type(typ)
			if got := tt.AppendArgs(nil, rec); !bytes.Equal(got, want) {
				t.Errorf("%s: TxnType.AppendArgs wrote %x, the codec %x", typ, got, want)
			}
			back, err := tt.DecodeArgs(want)
			if err != nil {
				t.Fatalf("%s: TxnType.DecodeArgs: %v", typ, err)
			}
			if got, want := canonical(t, back), canonical(t, rec); got != want {
				t.Errorf("%s: TxnType.DecodeArgs diverged\n got %s\nwant %s", typ, got, want)
			}
		}
	}
}

// TestOneLayoutInTheLogs runs one cross-partition new-order and finds the
// codec's bytes where the engine and the coordinator put them: the shot's
// planned record in the home log's decision record (encodePlan), its final
// work area in the remote log's commit record, and the home transaction's in
// its last end-of-step record (appendBoundary).
func TestOneLayoutInTheLogs(t *testing.T) {
	st, err := NewStack(StackConfig{
		Partitions: 2,
		Scale:      Scale{Warehouses: 2, Districts: 2, CustomersPerDistrict: 10, Items: 20, InitialOrdersPerDistrict: 5, NewOrderBacklog: 2},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	remote := OrderLineReq{ItemID: 2, SupplyW: 2, Quantity: 3}
	no := &NewOrderArgs{
		WID: 1, DID: 1, CID: 1, Lines: []OrderLineReq{{ItemID: 1, SupplyW: 1, Quantity: 1}, remote},
		Filled: make([]int64, 2), Amounts: make([]int64, 2),
	}
	if err := st.Set.Run("new_order", no); err != nil {
		t.Fatal(err)
	}
	analyze := func(p int) *wal.Analysis {
		a, err := wal.Analyze(st.Set.Engine(p).Log().Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	home, away := analyze(PartitionOf(1, 2)), analyze(PartitionOf(2, 2))

	planned := noStockCodec.Encode(nil, &NoStockArgs{WID: 1, Lines: []OrderLineReq{remote}, Filled: []int64{0}})
	if len(home.Coords) != 1 {
		t.Fatalf("home log holds %d decision records, want 1", len(home.Coords))
	}
	for _, c := range home.Coords {
		if want := append(binary.AppendUvarint(nil, uint64(len(planned))), planned...); !bytes.HasSuffix(c.Plan, want) {
			t.Errorf("shot plan %x does not carry the codec's bytes %x", c.Plan, planned)
		}
	}
	for _, a := range []*wal.Analysis{home, away} {
		for _, ts := range a.Txns {
			switch ts.Type {
			case "no_stock":
				var got NoStockArgs
				if err := noStockCodec.Decode(ts.WorkArea, &got); err != nil || !reflect.DeepEqual(got.Lines, []OrderLineReq{remote}) || got.Filled[0] == 0 {
					t.Errorf("shot's commit record holds %x: %+v, %v", ts.WorkArea, got, err)
				}
			case "new_order":
				var got NewOrderArgs
				if err := newOrderCodec.Decode(ts.WorkArea, &got); err != nil || got.ONum != no.ONum || !reflect.DeepEqual(got.Lines, no.Lines) {
					t.Errorf("home transaction's end-of-step record holds %x: %+v, %v", ts.WorkArea, got, err)
				}
			}
		}
	}
}

// TestBinaryCodecInPlaceReuse decodes records of shrinking and growing
// sizes into the same pooled instance: leftover state from a previous
// decode must never leak through.
func TestBinaryCodecInPlaceReuse(t *testing.T) {
	c := wire.CodecFor("new_order")
	big := &NewOrderArgs{
		WID: 1, Lines: []OrderLineReq{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		Filled: []int64{10, 20, 30}, Amounts: []int64{1, 2, 3}, Total: 99,
	}
	small := &NewOrderArgs{WID: 2, Lines: []OrderLineReq{{9, 9, 9}}, Filled: []int64{5}, Amounts: []int64{6}}
	dst := c.GetArgs()
	for i := 0; i < 4; i++ {
		src := big
		if i%2 == 1 {
			src = small
		}
		c.Reset(dst)
		if err := c.Decode(c.Encode(nil, src), dst); err != nil {
			t.Fatal(err)
		}
		if got, want := canonical(t, dst), canonical(t, src); got != want {
			t.Fatalf("reuse iteration %d:\n got %s\nwant %s", i, got, want)
		}
	}
	c.PutArgs(dst)
}

// TestBinaryCodecEncodeAllocFree asserts encoding into a pooled buffer and
// decoding into a pooled record allocate nothing once warm — the property
// the server and client hot paths rely on.
func TestBinaryCodecEncodeAllocFree(t *testing.T) {
	c := wire.CodecFor("new_order")
	src := &NewOrderArgs{
		WID: 3, DID: 4, CID: 5,
		Lines:  []OrderLineReq{{1, 1, 5}, {2, 1, 3}},
		Filled: []int64{5, 3}, Amounts: []int64{50, 30}, Total: 80,
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	dst := c.GetArgs().(*NewOrderArgs)
	defer c.PutArgs(dst)
	run := func() {
		*buf = c.Encode((*buf)[:0], src)
		c.Reset(dst)
		if err := c.Decode(*buf, dst); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("binary codec allocates %.1f objects per round trip, want 0", allocs)
	}
}

// shortRecords are well-formed encodings of records that break their own
// invariants — work-area vectors that do not match the lines or districts the
// steps would index them by. Decode must refuse each.
func shortRecords() map[string][]any {
	lines := []OrderLineReq{{1, 1, 1}, {2, 1, 1}}
	return map[string][]any{
		"new_order": {
			&NewOrderArgs{Lines: lines},
			&NewOrderArgs{Lines: lines, Filled: []int64{0, 0}, Amounts: []int64{0}},
			&NewOrderArgs{Lines: lines, Filled: []int64{0, 0, 0}, Amounts: []int64{0, 0}},
		},
		"delivery": {
			&DeliveryArgs{Claimed: []int64{0, 0}},
			&DeliveryArgs{Claimed: []int64{0, 0}, Amounts: []int64{0, 0}, Customers: []int64{0}},
			&DeliveryArgs{Amounts: []int64{0}},
		},
		"no_stock": {
			&NoStockArgs{Lines: lines},
			&NoStockArgs{Lines: lines, Filled: []int64{0}},
		},
	}
}

// checkInvariants fails if a decoded record would let a step body index out
// of range.
func checkInvariants(t *testing.T, v any) {
	t.Helper()
	switch a := v.(type) {
	case *NewOrderArgs:
		if len(a.Filled) != len(a.Lines) || len(a.Amounts) != len(a.Lines) {
			t.Fatalf("new_order decoded with %d lines, %d filled, %d amounts", len(a.Lines), len(a.Filled), len(a.Amounts))
		}
	case *DeliveryArgs:
		if len(a.Amounts) != len(a.Claimed) || len(a.Customers) != len(a.Claimed) {
			t.Fatalf("delivery decoded with %d claimed, %d amounts, %d customers", len(a.Claimed), len(a.Amounts), len(a.Customers))
		}
	case *NoStockArgs:
		if len(a.Filled) != len(a.Lines) {
			t.Fatalf("no_stock decoded with %d lines, %d filled", len(a.Lines), len(a.Filled))
		}
	}
}

// TestDecodeRefusesShortWorkAreas: the decode-level half of the server's
// TestShortWorkAreaRefused, plus truncation at every byte of a valid record.
func TestDecodeRefusesShortWorkAreas(t *testing.T) {
	for name, recs := range shortRecords() {
		c := argCodecs[name]
		for i, rec := range recs {
			if err := c.Decode(c.Encode(nil, rec), c.New()); err == nil {
				t.Errorf("%s case %d: decode accepted a record that breaks its invariant", name, i)
			}
		}
	}
	for name, rec := range randArgs(rand.New(rand.NewSource(5))) {
		c := argCodecs[name]
		enc := c.Encode(nil, rec)
		for n := 0; n < len(enc); n++ {
			if err := c.Decode(enc[:n], c.New()); err == nil {
				t.Errorf("%s: decode accepted a record truncated to %d of %d bytes", name, n, len(enc))
			}
		}
		if err := c.Decode(append(enc, 0), c.New()); err == nil {
			t.Errorf("%s: decode accepted a trailing byte", name)
		}
	}
}

// FuzzBinaryArgsDecode feeds hostile payloads to every codec, seeded with
// every prefix of a valid record of each type and with the short-work-area
// records: decode must reject or accept without panicking, and anything
// accepted must satisfy the record's invariants and re-encode to a record
// that decodes again.
func FuzzBinaryArgsDecode(f *testing.F) {
	for name, v := range randArgs(rand.New(rand.NewSource(7))) {
		enc := argCodecs[name].Encode(nil, v)
		for n := 0; n <= len(enc); n++ {
			f.Add(name, enc[:n])
		}
	}
	for name, recs := range shortRecords() {
		for _, rec := range recs {
			f.Add(name, argCodecs[name].Encode(nil, rec))
		}
	}
	f.Add("delivery", []byte{0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		c := argCodecs[name]
		if c == nil {
			return
		}
		v := c.GetArgs()
		defer c.PutArgs(v)
		if err := c.Decode(data, v); err != nil {
			return
		}
		checkInvariants(t, v)
		w := c.GetArgs()
		defer c.PutArgs(w)
		if err := c.Decode(c.Encode(nil, v), w); err != nil {
			t.Fatalf("%s: re-decode of accepted record failed: %v", name, err)
		}
	})
}
