// Package fault provides named, deterministic fault-injection points for
// crash-recovery testing. Layers that touch durable state declare points
// (fault.Declare) and consult them on their hot paths (fault.Point); a test
// arms a Controller with the effect it wants — a simulated crash, a torn
// (partial) write, an I/O error, or a delay — on the Nth hit of a point.
//
// Two properties drive the design:
//
//   - Disabled injection must cost nothing. When no Controller is active,
//     Point is a single atomic pointer load and a predicted nil-check —
//     the nil-guard discipline a nil *trace.Span follows. Production code
//     never pays for the crash matrix.
//   - Armed injection must be deterministic. The controller's decisions
//     (which hit fires, what fraction of a torn write survives, how long a
//     delay lasts) derive from its seed and its hit counters alone, so a
//     failing crash-matrix case replays exactly from its (point, seed, n)
//     triple.
//
// A "crash" here is simulated, not a process kill: the point's owner reacts
// to the Crash outcome by freezing its durable state (see wal.Log.Crash),
// after which nothing later persists — the same prefix-of-the-log world a
// kill -9 leaves behind, but deterministic and runnable under -race inside
// one test process.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Effect is what an armed point does when it fires.
type Effect int

const (
	// None is the zero effect: the point is not armed.
	None Effect = iota
	// Crash simulates a process kill at the point: the owner must freeze
	// its durable state. The controller's Crashed channel closes.
	Crash
	// Torn simulates a partial (torn) write: the owner persists only
	// Outcome.KeepFrac of the in-flight bytes, then freezes as for Crash.
	Torn
	// Error makes the operation at the point fail with Outcome.Err.
	Error
	// Delay stalls the point for Outcome.Delay, widening race windows.
	Delay
)

// String names the effect.
func (e Effect) String() string {
	switch e {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Torn:
		return "torn"
	case Error:
		return "error"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Effect(%d)", int(e))
	}
}

// Outcome is what a fired point must do. The zero Outcome (Effect None)
// means "proceed normally" and is what every un-armed or inactive point
// returns.
type Outcome struct {
	Effect Effect
	// KeepFrac, for Torn, is the fraction of the in-flight write to
	// persist before freezing (0 ≤ KeepFrac < 1), drawn from the
	// controller's seeded generator.
	KeepFrac float64
	// Delay, for Delay, is how long to stall.
	Delay time.Duration
	// Err, for Error, is the injected failure.
	Err error
}

// Spec arms one point on a Controller.
type Spec struct {
	// Effect is what happens when the point fires.
	Effect Effect
	// Nth fires the effect on the nth hit of the point (1-based). 0 means
	// every hit — only sensible for Delay.
	Nth uint64
	// Delay is the stall duration for Effect Delay (default 200µs).
	Delay time.Duration
}

// Info describes a declared injection point.
type Info struct {
	// Name identifies the point ("wal.sync.crash"). By convention the last
	// segment names the natural effect: crash, partial (torn), error, delay.
	Name string
	// Effect is the point's natural effect — what the crash matrix arms it
	// with.
	Effect Effect
	// Desc says what real-world failure the point simulates.
	Desc string
}

// registry holds every declared point; populated by package inits of the
// layers that own the points, read by the crash matrix.
var (
	regMu    sync.Mutex
	registry = make(map[string]Info)
)

// Declare registers an injection point so the crash matrix can enumerate
// it. Redeclaring a name replaces the entry (harmless; declarations are
// static). Call from package init.
func Declare(name string, effect Effect, desc string) {
	regMu.Lock()
	registry[name] = Info{Name: name, Effect: effect, Desc: desc}
	regMu.Unlock()
}

// Points returns every declared point, sorted by name for deterministic
// iteration.
func Points() []Info {
	regMu.Lock()
	out := make([]Info, 0, len(registry))
	for _, p := range registry {
		out = append(out, p)
	}
	regMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// active is the currently installed controller; nil disables every point.
var active atomic.Pointer[Controller]

// Point is the hot-path injection check. With no active controller it is a
// single atomic load returning the zero Outcome; with one, it counts the
// hit and returns the armed effect if this hit triggers it.
func Point(name string) Outcome {
	c := active.Load()
	if c == nil {
		return Outcome{}
	}
	return c.hit(name)
}

// Enabled reports whether a controller is active (used to gate test-only
// diagnostics, never correctness).
func Enabled() bool { return active.Load() != nil }

// Controller arms points and decides, deterministically from its seed and
// hit counters, when and how they fire. One controller is active at a time
// (Activate/Deactivate); the crash matrix runs points sequentially.
type Controller struct {
	mu    sync.Mutex
	rng   *rand.Rand
	armed map[string]*armedPoint
	hits  map[string]uint64

	crashed   chan struct{}
	crashOnce sync.Once
	// firedName records which point tripped the crash, for diagnostics.
	firedName atomic.Value
}

type armedPoint struct {
	spec  Spec
	fired bool
	// decided outcomes are pre-drawn at Arm time so firing order across
	// goroutines cannot perturb the random stream.
	keepFrac float64
	delay    time.Duration
}

// NewController creates a controller whose random choices derive only from
// seed.
func NewController(seed int64) *Controller {
	return &Controller{
		rng:     rand.New(rand.NewSource(seed)),
		armed:   make(map[string]*armedPoint),
		hits:    make(map[string]uint64),
		crashed: make(chan struct{}),
	}
}

// Arm installs spec on the named point. Random parameters (torn-write
// fraction, delay jitter) are drawn immediately from the controller's seed
// so concurrent firing order cannot change them.
func (c *Controller) Arm(name string, spec Spec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ap := &armedPoint{spec: spec}
	ap.keepFrac = c.rng.Float64() * 0.95 // never keep everything: the write must tear
	d := spec.Delay
	if d == 0 {
		d = 200 * time.Microsecond
	}
	ap.delay = d + time.Duration(c.rng.Int63n(int64(d)+1))
	c.armed[name] = ap
}

// Activate installs the controller globally; every Point call consults it
// until Deactivate. Activating while another controller is active replaces
// it (the crash matrix is sequential; concurrent controllers are a test
// bug).
func (c *Controller) Activate() { active.Store(c) }

// Deactivate removes any active controller, restoring the zero-cost path.
func Deactivate() { active.Store(nil) }

// Crashed returns a channel closed when any armed Crash/Torn/Error effect
// fires — the harness's signal to stop the workload and begin recovery.
func (c *Controller) Crashed() <-chan struct{} { return c.crashed }

// FiredPoint returns the name of the point whose one-shot effect fired, or
// "" if none has.
func (c *Controller) FiredPoint() string {
	if v := c.firedName.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Hits returns how many times the named point has been hit.
func (c *Controller) Hits(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[name]
}

// InjectedError is the error type carried by Outcome.Err, so owners and
// tests can recognize injected failures.
type InjectedError struct{ Pointname string }

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected I/O error at %s", e.Pointname)
}

func (c *Controller) hit(name string) Outcome {
	c.mu.Lock()
	c.hits[name]++
	n := c.hits[name]
	ap := c.armed[name]
	if ap == nil || ap.fired || (ap.spec.Nth != 0 && n != ap.spec.Nth) {
		c.mu.Unlock()
		return Outcome{}
	}
	if ap.spec.Nth != 0 {
		ap.fired = true // one-shot
	}
	out := Outcome{Effect: ap.spec.Effect}
	switch ap.spec.Effect {
	case Torn:
		out.KeepFrac = ap.keepFrac
	case Delay:
		out.Delay = ap.delay
	case Error:
		out.Err = &InjectedError{Pointname: name}
	}
	c.mu.Unlock()
	// One-shot destructive effects announce the simulated crash exactly
	// once, outside the mutex.
	switch ap.spec.Effect {
	case Crash, Torn, Error:
		c.crashOnce.Do(func() {
			c.firedName.Store(name)
			close(c.crashed)
		})
	}
	return out
}
