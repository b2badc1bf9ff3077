// Package spi defines the service-provider interface between the assertional
// concurrency control scheduler (package core) and its backends: the row
// store that holds tuples and version chains, and the lock service that
// grants the conventional and A/D/C lock flavours of the paper. The
// scheduler depends only on this package; internal/storage (the B+-tree
// heap) and internal/lock (the sharded lock manager) are the adapters.
//
// The package also owns the pure data model both sides speak — Value, Row,
// Key, Schema, CSN — and a registry through which composition roots open the
// store and lock service without the scheduler importing either. Importing
// accdb/internal/backends (blank) registers them. A program with its own
// store passes it to core.WithStore instead.
//
// The contract an adapter must honour is specified method-by-method on the
// Store, Table and LockService interfaces and is executable: the
// conformance suite in spi/spitest runs the full contract — CRUD,
// pre-images, scans, version-chain exposure semantics, GC re-seed —
// against any Store. DESIGN.md §15 is the prose companion.
package spi

import (
	"fmt"
	"os"
	"sort"
	"sync"
)

// EnvBackend is the environment variable consulted by DefaultBackend. It is
// a test hook: a test registers a wrapping backend (spitest.FrozenBackend)
// and selects it here, so every store a whole system opens by name is the
// wrapped one.
const EnvBackend = "ACCDB_BACKEND"

// DefaultBackendName is the backend DefaultBackend falls back to when
// EnvBackend is unset: the B+-tree heap of internal/storage.
const DefaultBackendName = "btree"

var (
	regMu    sync.RWMutex
	backends = map[string]func() Store{}
	lockSvc  func(Oracle) LockService
)

// Register installs a named Store factory. Backends call it from init();
// registering a duplicate name panics, as that is always a wiring bug.
func Register(name string, open func() Store) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("spi: backend %q registered twice", name))
	}
	backends[name] = open
}

// OpenStore instantiates the named backend, or errors with the registered
// alternatives (an empty list means the caller forgot the blank import of
// accdb/internal/backends).
func OpenStore(name string) (Store, error) {
	regMu.RLock()
	open := backends[name]
	regMu.RUnlock()
	if open == nil {
		return nil, fmt.Errorf("spi: no backend %q registered (have %v; blank-import accdb/internal/backends for the defaults)",
			name, Backends())
	}
	return open(), nil
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultBackend returns the backend name selected by the EnvBackend
// environment variable, or DefaultBackendName when unset.
func DefaultBackend() string {
	if name := os.Getenv(EnvBackend); name != "" {
		return name
	}
	return DefaultBackendName
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
