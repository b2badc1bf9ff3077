package spi

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
	// Fixed declares that no write changes the column once the row is
	// loaded. It is a checked constraint, not a hint: a Table's Update
	// refuses a change to it, and a table with any fixed column has a fixed
	// row set, so the engine refuses its inserts and deletes (ErrFixed). In
	// return a read of fixed columns alone takes no lock (core's GetCols): a
	// value no transaction writes can take part in no conflict.
	Fixed bool
}

// Schema describes a relation: its name, columns, and which column indexes
// form the primary key. Schemas are immutable after construction.
type Schema struct {
	Name    string
	Columns []Column
	// PK holds the ordinal positions of the primary-key columns, in key order.
	PK []int
	// FixedCols holds the ordinal positions of the columns declared Fixed.
	FixedCols []int

	byName map[string]int
}

// NewSchema builds a schema, validating that primary-key columns exist and
// column names are unique.
func NewSchema(name string, cols []Column, pkCols ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("spi: schema needs a name")
	}
	if len(pkCols) == 0 {
		return nil, fmt.Errorf("spi: schema %s needs a primary key", name)
	}
	s := &Schema{Name: name, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" || c.Kind == 0 {
			return nil, fmt.Errorf("spi: schema %s: column %d incomplete", name, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("spi: schema %s: duplicate column %q", name, c.Name)
		}
		s.byName[c.Name] = i
		if c.Fixed {
			s.FixedCols = append(s.FixedCols, i)
		}
	}
	for _, pk := range pkCols {
		i, ok := s.byName[pk]
		if !ok {
			return nil, fmt.Errorf("spi: schema %s: pk column %q not found", name, pk)
		}
		s.PK = append(s.PK, i)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// known schemas (TPC-C, examples) where a bad schema is a programming bug.
func MustSchema(name string, cols []Column, pkCols ...string) *Schema {
	s, err := NewSchema(name, cols, pkCols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Col returns the ordinal of a named column, or -1 if absent.
func (s *Schema) Col(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustCol is Col but panics on a missing column; use for static column names.
func (s *Schema) MustCol(name string) int {
	i := s.Col(name)
	if i < 0 {
		panic(fmt.Sprintf("spi: schema %s has no column %q", s.Name, name))
	}
	return i
}

// FixedRows reports whether the table's row set is fixed: it declares a
// fixed column, so no transaction inserts or deletes its rows.
func (s *Schema) FixedRows() bool { return len(s.FixedCols) > 0 }

// AllFixed reports whether every one of the column ordinals cols is declared
// Fixed; an ordinal outside the schema is not.
func (s *Schema) AllFixed(cols []int) bool {
	for _, c := range cols {
		if c < 0 || c >= len(s.Columns) || !s.Columns[c].Fixed {
			return false
		}
	}
	return true
}

// PKOf extracts the primary-key values from a row in key order.
func (s *Schema) PKOf(row Row) []Value {
	out := make([]Value, len(s.PK))
	for i, c := range s.PK {
		out[i] = row[c]
	}
	return out
}

// KeyOf computes the encoded primary key of a row. It encodes the key
// columns in place rather than through PKOf, so the per-write hot path
// (every Insert/Update/Delete keys the row) costs one allocation.
func (s *Schema) KeyOf(row Row) Key {
	var b strings.Builder
	n := 0
	for _, c := range s.PK {
		n += KeyLen(row[c])
	}
	b.Grow(n)
	for _, c := range s.PK {
		AppendKeyVal(&b, row[c])
	}
	return Key(b.String())
}

// CheckRow verifies that a row matches the schema's arity and column kinds.
func (s *Schema) CheckRow(row Row) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("spi: %s: row has %d values, want %d", s.Name, len(row), len(s.Columns))
	}
	for i, v := range row {
		if v.K != s.Columns[i].Kind {
			return fmt.Errorf("spi: %s.%s: value kind %s, want %s",
				s.Name, s.Columns[i].Name, v.K, s.Columns[i].Kind)
		}
	}
	return nil
}

// Row is a tuple: one Value per schema column, in schema order.
type Row []Value

// Clone returns a deep-enough copy (Values are immutable, so a shallow copy
// of the slice suffices).
func (r Row) Clone() Row {
	if r == nil {
		return nil
	}
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows are value-wise identical.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// IndexDef names a secondary index and the columns it covers, in order.
// Index entries are the encoded secondary columns followed by the primary
// key, so range scans see rows in (secondary, pk) order.
type IndexDef struct {
	Name    string
	Columns []string
}
