package tpcc

// The TPC-C battery — including the full consistency checks — runs over the
// registry's default store.
import (
	_ "accdb/internal/backends"
)
