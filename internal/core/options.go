package core

import (
	"time"

	"accdb/internal/trace"
	"accdb/internal/wal"
)

// Option configures an Engine at construction. New applies options in order
// over the zero Options value, so later options win.
type Option func(*Options)

// WithMode selects the scheduler (ModeACC or ModeBaseline).
func WithMode(m Mode) Option {
	return func(o *Options) { o.Mode = m }
}

// WithWaitTimeout bounds individual lock waits (safety net; 0 = forever).
func WithWaitTimeout(d time.Duration) Option {
	return func(o *Options) { o.WaitTimeout = d }
}

// WithForceLatency sets the simulated log-force I/O time of the memory log
// New builds when WithWAL supplies none; a supplied log carries its own (a
// tpcc stack sets it in StackConfig.WAL). Neither scheduler forces at a step
// boundary; a writing transaction pays it at most once, before its reply.
func WithForceLatency(d time.Duration) Option {
	return func(o *Options) { o.ForceLatency = d }
}

// WithMaxStepRetries sets how many times a deadlock-victim step restarts
// before the transaction is rolled back by compensation (the paper's
// recurrence rule is 1, the default).
func WithMaxStepRetries(n int) Option {
	return func(o *Options) { o.MaxStepRetries = n }
}

// WithMaxTxnRetries bounds whole-transaction restarts.
func WithMaxTxnRetries(n int) Option {
	return func(o *Options) { o.MaxTxnRetries = n }
}

// WithEnv injects execution costs (the simulation testbed's server pool);
// nil executes inline.
func WithEnv(env ExecEnv) Option {
	return func(o *Options) { o.Env = env }
}

// WithRecordHistory captures a conflict-checkable access history (tests).
func WithRecordHistory(record bool) Option {
	return func(o *Options) { o.RecordHistory = record }
}

// WithTracer attaches the structured event bus to every layer; nil disables
// tracing at zero cost.
func WithTracer(t *trace.Tracer) Option {
	return func(o *Options) { o.Tracer = t }
}

// WithAnatomy attaches the latency-anatomy recorder (DESIGN.md §13): every
// span-less Run acquires an engine-owned span, so per-stage histograms and
// the slow-transaction flight recorder work for in-process callers too. Nil
// disables anatomy at zero cost.
func WithAnatomy(a *trace.Anatomy) Option {
	return func(o *Options) { o.Anatomy = a }
}

// WithWAL backs the engine with an existing write-ahead log — typically a
// disk-backed log from wal.Open. Nil keeps the default memory-only log.
func WithWAL(l *wal.Log) Option {
	return func(o *Options) { o.Log = l }
}

// WithEngineLabel names the engine in the errors it reports (ErrLogFailed).
// Single-engine processes can leave it empty; a partitioned cluster labels
// each engine ("partition 3") so a failure says which of the n engines it
// concerns.
func WithEngineLabel(label string) Option {
	return func(o *Options) { o.Label = label }
}

// WithVersionGCInterval sets the cadence of the background version-chain
// reaper (DESIGN.md §14). Zero keeps the 100ms default; negative disables
// the reaper so tests can drive ReapVersions deterministically.
func WithVersionGCInterval(d time.Duration) Option {
	return func(o *Options) { o.VersionGCInterval = d }
}
