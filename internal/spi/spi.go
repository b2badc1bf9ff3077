// Package spi defines the service-provider interface between the assertional
// concurrency control scheduler (package core) and its backends: the row
// store that holds tuples and version chains, and the lock service that
// grants the conventional and A/D/C lock flavours of the paper. The
// scheduler depends only on this package; internal/storage (the B+-tree
// heap) and internal/lock (the sharded lock manager) are the adapters.
//
// The package also owns the pure data model both sides speak — Value, Row,
// Key, Schema, CSN — and two factory slots, one for the store and one for
// the lock service, through which composition roots open both without the
// scheduler importing either. Importing accdb/internal/backends (blank)
// fills them. A program with its own store passes it to core.WithStore
// instead.
//
// The contract an adapter must honour is specified method-by-method on the
// Store, Table and LockService interfaces and is executable: the
// conformance suite in spi/spitest runs the full contract — CRUD,
// pre-images, scans, version-chain exposure semantics, GC re-seed —
// against any Store. DESIGN.md §15 is the prose companion.
package spi

import "sync"

var (
	regMu   sync.RWMutex
	storeFn func() Store
	lockSvc func(Oracle) LockService
)

// RegisterStore installs the store factory and returns the one it replaced
// (nil the first time). The B+-tree heap of internal/storage installs itself
// from init(); a test that checks every store a whole system opens wraps the
// installed factory and restores it afterwards (spitest.FrozenStores).
func RegisterStore(open func() Store) (prev func() Store) {
	regMu.Lock()
	defer regMu.Unlock()
	prev, storeFn = storeFn, open
	return prev
}

// NewStore opens a store from the registered factory. It panics when none is
// registered — the engine cannot run without a store, so this is a wiring
// bug, fixed by blank-importing accdb/internal/backends.
func NewStore() Store {
	regMu.RLock()
	open := storeFn
	regMu.RUnlock()
	if open == nil {
		panic("spi: no store registered (blank-import accdb/internal/backends)")
	}
	return open()
}

// RegisterLockService installs the lock-service factory. The in-tree
// sharded lock manager registers itself from init(); registering twice
// panics.
func RegisterLockService(open func(Oracle) LockService) {
	regMu.Lock()
	defer regMu.Unlock()
	if lockSvc != nil {
		panic("spi: lock service registered twice")
	}
	lockSvc = open
}

// NewLockService instantiates the registered lock service over the given
// interference oracle. It panics when none is registered — the engine
// cannot run lockless, so this is a wiring bug, fixed by blank-importing
// accdb/internal/backends.
func NewLockService(o Oracle) LockService {
	regMu.RLock()
	open := lockSvc
	regMu.RUnlock()
	if open == nil {
		panic("spi: no lock service registered (blank-import accdb/internal/backends)")
	}
	return open(o)
}
