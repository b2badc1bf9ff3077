package spitest

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"

	"accdb/internal/spi"
)

// FrozenStore is a checking spi.Store: it passes every call to the store it
// wraps and remembers a checksum of every row that crosses the seam — taken
// in by Insert, Update, Apply or PublishVersion, returned by Get, GetAsOf,
// Update or Delete, or handed to a scan visitor. Rows are immutable under the
// spi.Table contract, so none may ever read differently again; Verify names
// those that do. It guards against a step body (or the engine) writing to a
// row it shares with the store, and under -race the checksum reads make the
// race detector report the write as well.
type FrozenStore struct {
	spi.Store

	mu     sync.Mutex
	tables map[string]*frozenTable
	// seen is keyed by the row's first element: every row seen is kept alive,
	// so an address names one backing array for good.
	seen map[*spi.Value]frozenRow
}

type frozenRow struct {
	schema *spi.Schema
	row    spi.Row
	sum    uint64
}

// Frozen wraps inner in a FrozenStore.
func Frozen(inner spi.Store) *FrozenStore {
	return &FrozenStore{Store: inner, tables: make(map[string]*frozenTable), seen: make(map[*spi.Value]frozenRow)}
}

// Create adds a table for schema and returns its checking wrapper.
func (f *FrozenStore) Create(schema *spi.Schema) (spi.Table, error) {
	if _, err := f.Store.Create(schema); err != nil {
		return nil, err
	}
	return f.Table(schema.Name), nil
}

// Table returns the named table's checking wrapper, or nil.
func (f *FrozenStore) Table(name string) spi.Table {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t := f.tables[name]; t != nil {
		return t
	}
	inner := f.Store.Table(name)
	if inner == nil {
		return nil
	}
	t := &frozenTable{Table: inner, f: f}
	f.tables[name] = t
	return t
}

// Verify returns an error naming table and primary key of every row whose
// checksum no longer matches, nil if there is none.
func (f *FrozenStore) Verify() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var changed []string
	for _, r := range f.seen {
		if checksum(r.row) != r.sum {
			changed = append(changed, fmt.Sprintf("%s %v", r.schema.Name, r.schema.PKOf(r.row)))
		}
	}
	if changed == nil {
		return nil
	}
	return fmt.Errorf("spitest: %d shared row(s) changed after crossing the store seam: %s",
		len(changed), strings.Join(changed, ", "))
}

var checksumSeed = maphash.MakeSeed()

func checksum(row spi.Row) uint64 {
	var h maphash.Hash
	h.SetSeed(checksumSeed)
	for _, v := range row {
		var b [17]byte
		b[0] = byte(v.K)
		binary.LittleEndian.PutUint64(b[1:], uint64(v.I))
		binary.LittleEndian.PutUint64(b[9:], math.Float64bits(v.F))
		h.Write(b[:])
		h.WriteString(v.S)
	}
	return h.Sum64()
}

// frozenTable is the inner table with every row-carrying method noting the
// rows it carries; the rest pass through the embedded interface.
type frozenTable struct {
	spi.Table
	f *FrozenStore
}

// note remembers each non-nil row at its first crossing.
func (t *frozenTable) note(rows ...spi.Row) {
	for _, row := range rows {
		if len(row) == 0 {
			continue
		}
		t.f.mu.Lock()
		if _, ok := t.f.seen[&row[0]]; !ok {
			t.f.seen[&row[0]] = frozenRow{t.Schema(), row, checksum(row)}
		}
		t.f.mu.Unlock()
	}
}

func (t *frozenTable) noting(visit func(spi.Key, spi.Row) bool) func(spi.Key, spi.Row) bool {
	return func(pk spi.Key, row spi.Row) bool {
		t.note(row)
		return visit(pk, row)
	}
}

// out notes a returned row; a row taken in is noted once the call succeeded.
func (t *frozenTable) out(row spi.Row, err error) (spi.Row, error) {
	t.note(row)
	return row, err
}

func (t *frozenTable) Get(pk spi.Key) (spi.Row, error)    { return t.out(t.Table.Get(pk)) }
func (t *frozenTable) Delete(pk spi.Key) (spi.Row, error) { return t.out(t.Table.Delete(pk)) }
func (t *frozenTable) GetAsOf(pk spi.Key, asOf spi.CSN) (spi.Row, error) {
	return t.out(t.Table.GetAsOf(pk, asOf))
}

func (t *frozenTable) Insert(row spi.Row) error {
	err := t.Table.Insert(row)
	if err == nil {
		t.note(row)
	}
	return err
}

func (t *frozenTable) Update(pk spi.Key, row spi.Row) (spi.Row, error) {
	old, err := t.Table.Update(pk, row)
	if err == nil {
		t.note(row)
	}
	return t.out(old, err)
}

func (t *frozenTable) Apply(pk spi.Key, row spi.Row) {
	t.Table.Apply(pk, row)
	t.note(row)
}

func (t *frozenTable) PublishVersion(pk spi.Key, prior, row spi.Row, csn spi.CSN) {
	t.Table.PublishVersion(pk, prior, row, csn)
	t.note(prior, row)
}

func (t *frozenTable) Scan(visit func(spi.Key, spi.Row) bool) { t.Table.Scan(t.noting(visit)) }
func (t *frozenTable) ScanAsOf(asOf spi.CSN, visit func(spi.Key, spi.Row) bool) {
	t.Table.ScanAsOf(asOf, t.noting(visit))
}
func (t *frozenTable) IndexScan(index string, eq []spi.Value, visit func(spi.Key, spi.Row) bool) error {
	return t.Table.IndexScan(index, eq, t.noting(visit))
}
func (t *frozenTable) IndexRange(index string, lo, hi []spi.Value, visit func(spi.Key, spi.Row) bool) error {
	return t.Table.IndexRange(index, lo, hi, t.noting(visit))
}
func (t *frozenTable) IndexScanAsOf(index string, eq []spi.Value, asOf spi.CSN, visit func(spi.Key, spi.Row) bool) error {
	return t.Table.IndexScanAsOf(index, eq, asOf, t.noting(visit))
}

// FrozenBackend registers the backend "frozen-<inner>" — the registered
// backend inner's stores, each wrapped by Frozen — for a test that runs a
// system which opens its stores by name (a TPC-C stack, the crash harness):
// select it with t.Setenv(spi.EnvBackend, name). verify checks, and then
// forgets, every store opened through it so far. Once per test binary.
func FrozenBackend(inner string) (name string, verify func() error) {
	var mu sync.Mutex
	var opened []*FrozenStore
	name = "frozen-" + inner
	spi.Register(name, func() spi.Store {
		s, err := spi.OpenStore(inner)
		if err != nil {
			panic(err)
		}
		mu.Lock()
		defer mu.Unlock()
		opened = append(opened, Frozen(s))
		return opened[len(opened)-1]
	})
	return name, func() error {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range opened {
			if err := f.Verify(); err != nil {
				return err
			}
		}
		opened = nil
		return nil
	}
}
