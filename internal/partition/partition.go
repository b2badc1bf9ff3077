// Package partition scales the engine out: n independent engine instances
// (each with its own storage backend, lock shards, and WAL directory, built
// over the SPI seam of DESIGN.md §15) behind a deterministic key→partition
// router, plus a multi-shot commit coordinator for the transactions that
// span partitions (DESIGN.md §16).
//
// Single-partition transactions — the overwhelming majority under a
// warehouse-partitioned TPC-C — route straight to their home engine: the
// only added cost is one map lookup and one Home() call, so the per-engine
// hot path is untouched. Cross-partition transactions run as a sequence of
// per-partition *shots* in the style of multi-shot transaction commit
// (Chockler & Gotsman): each shot is an ordinary local transaction that
// commits in its partition's log, the coordinator persists a decision
// record in the home partition's WAL, and a failure after some shots
// committed rolls the global transaction back by running compensating undo
// shots — the §3.4 saga machinery, lifted one level up. There is no global
// two-phase-commit lock window: a shot's locks release at its local commit.
//
// Because the home transaction holds its exposure (D) and reservation (C)
// marks while its remote shots run, two cross-partition transactions can
// block each other through locks in different partitions. The Set runs no
// detector of its own: every local transaction of a global carries the
// global's spi.Group, and the lock manager's on-block cycle search follows
// it from one partition's lock table into the next (DESIGN.md §8). What the
// Set supplies is the doom lever — cancelling the victim global's context so
// the engines' retry loops stop — and the "undoing" mark that keeps a
// compensating undo shot from being chosen while forward work can be.
package partition

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"accdb/internal/core"
	"accdb/internal/trace"
)

// BuildFunc constructs partition p's engine: its own DB (over its own
// backend instance), its own WAL, its transaction types registered. The Set
// owns the returned engines and closes them with Close.
type BuildFunc func(p int) (*core.Engine, error)

// Shot is one per-partition unit of a cross-partition transaction: a local
// transaction of the named type to run on the target partition.
type Shot struct {
	Partition int
	Type      string
	Args      any
}

// Route declares how instances of one transaction type map onto partitions.
type Route struct {
	// Home returns the instance's home partition — where single-partition
	// instances run entirely, and where a cross-partition instance's home
	// transaction and decision record live.
	Home func(args any) int
	// Split, when non-nil, returns the remote shots of an instance. An
	// empty result means the instance is single-partition after all and
	// takes the direct path. Nil means the type never crosses partitions.
	Split func(args any) []Shot
}

// UndoSpec declares the compensating undo of a shot type: the transaction
// type that semantically reverses a committed shot, and how to derive its
// arguments from the shot's (completed) work area. A nil Args passes the
// shot's own arguments through.
type UndoSpec struct {
	Type string
	Args func(shotArgs any) any
}

// Stats aggregates the Set's coordinator counters.
type Stats struct {
	SingleRouted   uint64 // transactions routed whole to one partition
	CrossStarted   uint64 // cross-partition transactions begun
	CrossCommitted uint64 // ... that completed every shot
	CrossAborted   uint64 // ... rolled back with shots compensated
	ShotsRun       uint64 // remote shots committed
	ShotUndos      uint64 // compensating undo shots run
	CrossDeadlocks uint64 // globals doomed as victims of a cross-partition cycle
}

// Set is a partitioned engine: n ≥ 1 engines behind a router and a
// multi-shot commit coordinator. It is what everything above internal/core
// builds, serves, crashes and audits; a single engine is a Set of one, whose
// every transaction takes the direct path.
type Set struct {
	engines []*core.Engine

	mu     sync.RWMutex
	routes map[string]*Route
	undos  map[string]UndoSpec

	nextGlobal atomic.Uint64

	tracer *trace.Tracer

	singleRouted   atomic.Uint64
	crossStarted   atomic.Uint64
	crossCommitted atomic.Uint64
	crossAborted   atomic.Uint64
	shotsRun       atomic.Uint64
	shotUndos      atomic.Uint64
	crossDeadlocks atomic.Uint64

	closed atomic.Bool
}

// Option configures a Set.
type Option func(*Set)

// WithTracer attaches a trace bus to the coordinator's own events
// (coord.*/shot.* kinds); the per-partition engines carry their own tracers.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Set) { s.tracer = t }
}

// New builds a Set of n partitions, constructing each engine with build.
// On a build error the already-built engines are closed.
func New(n int, build BuildFunc, opts ...Option) (*Set, error) {
	if n < 1 {
		return nil, fmt.Errorf("partition: need at least one partition, got %d", n)
	}
	s := &Set{
		routes: make(map[string]*Route),
		undos:  make(map[string]UndoSpec),
	}
	for _, apply := range opts {
		apply(s)
	}
	for p := 0; p < n; p++ {
		eng, err := build(p)
		if err != nil {
			for _, e := range s.engines {
				e.Close()
			}
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
		s.engines = append(s.engines, eng)
	}
	return s, nil
}

// Partitions returns the partition count.
func (s *Set) Partitions() int { return len(s.engines) }

// Engine returns partition p's engine.
func (s *Set) Engine(p int) *core.Engine { return s.engines[p] }

// Engines returns the engines in partition order.
func (s *Set) Engines() []*core.Engine { return s.engines }

// SetRoute installs the routing declaration for one transaction type.
// Types without a route run whole on partition 0.
func (s *Set) SetRoute(name string, r Route) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc := r
	s.routes[name] = &rc
}

// SetUndo declares the compensating undo of a shot type.
func (s *Set) SetUndo(shotType string, spec UndoSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.undos[shotType] = spec
}

func (s *Set) route(name string) *Route {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.routes[name]
}

func (s *Set) undoSpec(shotType string) (UndoSpec, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	spec, ok := s.undos[shotType]
	return spec, ok
}

// Run is Exec of the named type under context.Background().
func (s *Set) Run(name string, args any) error {
	return s.Exec(context.Background(), core.Request{Name: name, Args: args})
}

// TypeBytes resolves a transaction type by byte-slice name (the network
// server's zero-allocation lookup). Types are registered identically on
// every partition, so partition 0's registry answers for the Set.
func (s *Set) TypeBytes(name []byte) *core.TxnType {
	return s.engines[0].TypeBytes(name)
}

// Exec is the Set's single execution entry point, with core.Engine.Exec's
// contract. At TierLocked it routes the transaction (direct to its home
// partition, or through the multi-shot coordinator when the instance
// splits); at the versioned read tiers it runs read-only on the home
// partition.
func (s *Set) Exec(ctx context.Context, req core.Request) error {
	if req.Type == nil {
		if req.Type = s.engines[0].Type(req.Name); req.Type == nil {
			return fmt.Errorf("%w: %q", core.ErrUnknownTxnType, req.Name)
		}
	}
	tt := req.Type
	r := s.route(tt.Name)
	home := 0
	if r != nil && r.Home != nil {
		home = r.Home(req.Args)
	}
	if home < 0 || home >= len(s.engines) {
		return fmt.Errorf("partition: %s routed to partition %d of %d", tt.Name, home, len(s.engines))
	}
	var shots []Shot
	if req.Tier == core.TierLocked && r != nil && r.Split != nil {
		shots = r.Split(req.Args)
	}
	if len(shots) == 0 {
		// The hot path: the whole instance lives in one partition. No
		// global id, no decision record, no coordinator state — exactly the
		// engine's own cost plus the routing lookup above. A set of one
		// never leaves this path.
		if req.Tier == core.TierLocked {
			s.singleRouted.Add(1)
		}
		return s.engines[home].Exec(ctx, req)
	}
	return s.runCross(ctx, tt, req.Args, home, shots, req.Span)
}

// Snapshot returns the coordinator counters.
func (s *Set) Snapshot() Stats {
	return Stats{
		SingleRouted:   s.singleRouted.Load(),
		CrossStarted:   s.crossStarted.Load(),
		CrossCommitted: s.crossCommitted.Load(),
		CrossAborted:   s.crossAborted.Load(),
		ShotsRun:       s.shotsRun.Load(),
		ShotUndos:      s.shotUndos.Load(),
		CrossDeadlocks: s.crossDeadlocks.Load(),
	}
}

// Close closes every engine.
func (s *Set) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var first error
	for _, e := range s.engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Closed reports whether Close was called.
func (s *Set) Closed() bool { return s.closed.Load() }

// emit sends one coordinator-layer trace event, if a bus is attached.
func (s *Set) emit(kind trace.Kind, g uint64, step int32, item string, dur int64, extra string) {
	if s.tracer == nil {
		return
	}
	ev := trace.Ev(kind, g)
	ev.Step = int16(step)
	ev.Item, ev.Dur, ev.Extra = item, dur, extra
	s.tracer.Emit(ev)
}
