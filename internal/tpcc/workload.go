package tpcc

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"

	"accdb/internal/core"
	"accdb/internal/metrics"
	"accdb/internal/spi"
)

// Mix is the transaction mix in percent; it must sum to 100. The default is
// the benchmark's minimum-compliant mix.
type Mix struct {
	NewOrder    int
	Payment     int
	OrderStatus int
	Delivery    int
	StockLevel  int
}

// DefaultMix is the TPC-C §5.2.3 mix.
func DefaultMix() Mix {
	return Mix{NewOrder: 45, Payment: 43, OrderStatus: 4, Delivery: 4, StockLevel: 4}
}

// ReadHeavyMix inverts the benchmark toward its read-only probes: mostly
// order-status and stock-level with a thin writer stream keeping the
// version chains churning. This is the mix the read-tier experiments run —
// it is where routing reads off the lock manager should show.
func ReadHeavyMix() Mix {
	return Mix{NewOrder: 10, Payment: 8, OrderStatus: 41, Delivery: 0, StockLevel: 41}
}

// WorkloadConfig parameterizes input generation.
type WorkloadConfig struct {
	Scale Scale
	Mix   Mix
	// DistrictSkew is the extra probability mass on district 1 for
	// new-order and payment (0 = the uniform "Standard" curve of Figure 2;
	// 0.5 reproduces the "Skewed" curve's hot district).
	DistrictSkew float64
	// RollbackPercent is the share of new-orders that must abort via an
	// unused item number (the benchmark requires 1).
	RollbackPercent int
	// StockLevelOrders is how many recent orders stock-level inspects
	// (spec: 20; scaled down with the database).
	StockLevelOrders int
	// ReadTier, when core.TierSnapshot, routes the read-only transaction
	// types (order-status, stock-level) through the engine's lock-free
	// versioned read path; writers are unaffected.
	ReadTier core.ReadTier
	// RemotePercent is the share of new-orders that include one line
	// supplied by a different warehouse (the spec's §2.4.1.5 remote-supply
	// rule, dialed up by the partitioned experiments — in a partitioned
	// deployment a remote warehouse in another partition turns the order
	// into a cross-partition transaction). Ignored with one warehouse.
	RemotePercent int
}

// DefaultWorkloadConfig returns the standard configuration for a scale.
func DefaultWorkloadConfig(s Scale) WorkloadConfig {
	return WorkloadConfig{
		Scale:            s,
		Mix:              DefaultMix(),
		RollbackPercent:  1,
		StockLevelOrders: 10,
	}
}

// RunFunc executes one transaction by type name: the in-process engine's
// Run, or a network client's. The argument record doubles as the work area,
// so the executor must leave output fields (an assigned order number)
// visible in it — the accclient pool does, by decoding the response's
// re-encoded work area back into args.
type RunFunc func(name string, args any) error

// ReadRunFunc executes one read-only transaction at a consistency tier: Exec
// with Request.Tier set, or a network client's RunTier.
type ReadRunFunc func(name string, args any, tier core.ReadTier) error

// Workload generates TPC-C transactions against a RunFunc. It also tracks
// the order-number holes left by compensated new-orders, which the
// consistency checker needs to verify the numbering conditions.
type Workload struct {
	run     RunFunc
	runRead ReadRunFunc // nil: read-only types use run regardless of tier
	cfg     WorkloadConfig

	hID atomic.Int64

	mu    sync.Mutex
	holes map[DistrictKey]map[int64]bool
}

// DistrictKey identifies a district.
type DistrictKey struct {
	W, D int64
}

// Executor is what an in-process Workload drives: a *partition.Set (a
// Stack's), or a bare *core.Engine in the engine's own tests.
type Executor interface {
	Exec(ctx context.Context, req core.Request) error
}

// NewWorkload binds a generator to an executor whose database was loaded at
// cfg.Scale and whose transaction types are registered.
func NewWorkload(x Executor, cfg WorkloadConfig) *Workload {
	w := NewRemoteWorkload(func(name string, args any) error {
		return x.Exec(context.Background(), core.Request{Name: name, Args: args})
	}, cfg)
	w.runRead = func(name string, args any, tier core.ReadTier) error {
		return x.Exec(context.Background(), core.Request{Name: name, Args: args, Tier: tier})
	}
	return w
}

// NewRemoteWorkload binds a generator to an arbitrary executor — the TPC-C
// driver's -net mode passes an accclient pool's Run here and the terminals
// become network clients of accd.
func NewRemoteWorkload(run RunFunc, cfg WorkloadConfig) *Workload {
	w := &Workload{run: run, cfg: cfg, holes: make(map[DistrictKey]map[int64]bool)}
	w.hID.Store(int64(cfg.Scale.Warehouses*cfg.Scale.Districts*cfg.Scale.CustomersPerDistrict) + 1)
	return w
}

// SetReadRunner installs the tiered executor a remote workload routes its
// read-only types through when cfg.ReadTier is not TierLocked (the -net
// driver passes the accclient pool's RunTier).
func (w *Workload) SetReadRunner(run ReadRunFunc) { w.runRead = run }

// readOnlyType reports whether the named transaction type never writes —
// the types eligible for the versioned read tiers.
func readOnlyType(name string) bool {
	return name == "order_status" || name == "stock_level"
}

// Holes returns the compensated order numbers per district.
func (w *Workload) Holes() map[DistrictKey]map[int64]bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[DistrictKey]map[int64]bool, len(w.holes))
	for k, v := range w.holes {
		m := make(map[int64]bool, len(v))
		for o := range v {
			m[o] = true
		}
		out[k] = m
	}
	return out
}

func (w *Workload) addHole(wid, did, o int64) {
	if o == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	k := DistrictKey{wid, did}
	m, ok := w.holes[k]
	if !ok {
		m = make(map[int64]bool)
		w.holes[k] = m
	}
	m[o] = true
}

// warehouse draws a home warehouse id uniformly.
func (w *Workload) warehouse(r *rand.Rand) int64 {
	if w.cfg.Scale.Warehouses <= 1 {
		return 1
	}
	return randRange(r, 1, int64(w.cfg.Scale.Warehouses))
}

// remoteWarehouse draws a warehouse different from home.
func (w *Workload) remoteWarehouse(r *rand.Rand, home int64) int64 {
	n := int64(w.cfg.Scale.Warehouses)
	v := randRange(r, 1, n-1)
	if v >= home {
		v++
	}
	return v
}

// district draws a district id, honouring the skew knob.
func (w *Workload) district(r *rand.Rand) int64 {
	if w.cfg.DistrictSkew > 0 && r.Float64() < w.cfg.DistrictSkew {
		return 1
	}
	return randRange(r, 1, int64(w.cfg.Scale.Districts))
}

func (w *Workload) customer(r *rand.Rand) int64 {
	return nuRand(r, 1023, cID, 1, int64(w.cfg.Scale.CustomersPerDistrict))
}

func (w *Workload) item(r *rand.Rand) int64 {
	return nuRand(r, 8191, cItem, 1, int64(w.cfg.Scale.Items))
}

// NewOrderArgs draws the inputs of one new-order (§2.4.1).
func (w *Workload) NewOrderArgs(r *rand.Rand) *NewOrderArgs {
	a := &NewOrderArgs{
		WID: w.warehouse(r), DID: w.district(r), CID: w.customer(r),
	}
	n := randRange(r, 5, maxOrderLines)
	a.Lines = make([]OrderLineReq, n)
	for i := range a.Lines {
		a.Lines[i] = OrderLineReq{
			ItemID:   w.item(r),
			SupplyW:  a.WID, // home-supplied unless the remote roll below hits
			Quantity: randRange(r, 1, 10),
		}
	}
	remote := w.cfg.Scale.Warehouses > 1 && w.cfg.RemotePercent > 0 &&
		r.Intn(100) < w.cfg.RemotePercent
	if remote {
		a.Lines[int(randRange(r, 1, int64(n)))-1].SupplyW = w.remoteWarehouse(r, a.WID)
	}
	if w.cfg.RollbackPercent > 0 && r.Intn(100) < w.cfg.RollbackPercent {
		if remote {
			// A remote order rolls back in the finish step, after its lines
			// (and, partitioned, its remote-stock shots) committed — the
			// spec's end-of-transaction rollback, and the path that forces
			// cross-partition compensation.
			a.FailFinal = true
		} else {
			a.InvalidItem = true
			a.Lines[n-1].ItemID = int64(w.cfg.Scale.Items) + 1 // unused item number
		}
	}
	a.Filled = make([]int64, n)
	a.Amounts = make([]int64, n)
	return a
}

// PaymentArgs draws the inputs of one payment (§2.5.1).
func (w *Workload) PaymentArgs(r *rand.Rand) *PaymentArgs {
	a := &PaymentArgs{
		WID: w.warehouse(r), DID: w.district(r),
		Amount: randRange(r, 100, 500000),
		HID:    w.hID.Add(1),
	}
	// 85% home district customer; 15% a different district. The customer
	// always shares the warehouse (and thus the partition): the partitioned
	// deployment crosses partitions through new-order supply lines only.
	a.CWID = a.WID
	if r.Intn(100) < 85 {
		a.CDID = a.DID
	} else {
		a.CDID = randRange(r, 1, int64(w.cfg.Scale.Districts))
	}
	a.CID = w.customer(r)
	if r.Intn(100) < 60 {
		a.CLast = randLastName(r)
	}
	return a
}

// OrderStatusArgs draws the inputs of one order-status (§2.6.1).
func (w *Workload) OrderStatusArgs(r *rand.Rand) *OrderStatusArgs {
	a := &OrderStatusArgs{WID: w.warehouse(r), DID: w.district(r), CID: w.customer(r)}
	if r.Intn(100) < 60 {
		a.CLast = randLastName(r)
	}
	return a
}

// DeliveryArgs draws the inputs of one delivery (§2.7.1).
func (w *Workload) DeliveryArgs(r *rand.Rand) *DeliveryArgs {
	d := w.cfg.Scale.Districts
	return &DeliveryArgs{
		WID: w.warehouse(r), Carrier: randRange(r, 1, 10), Date: 1,
		Claimed:   make([]int64, d),
		Amounts:   make([]int64, d),
		Customers: make([]int64, d),
	}
}

// StockLevelArgs draws the inputs of one stock-level (§2.8.1). Each terminal
// is associated with one district, per the spec.
func (w *Workload) StockLevelArgs(r *rand.Rand, terminal int) *StockLevelArgs {
	return &StockLevelArgs{
		WID:       w.warehouse(r),
		DID:       int64(terminal%w.cfg.Scale.Districts) + 1,
		Threshold: randRange(r, 10, 20),
		Orders:    int64(w.cfg.StockLevelOrders),
	}
}

// DrawArgs draws the next transaction from the mix and returns its type
// name and a fresh argument record without executing it — for drivers that
// carry the request themselves (the wire-protocol tests and benchmark
// harness encode the record and ship it to accd).
func (w *Workload) DrawArgs(r *rand.Rand, terminal int) (string, any) {
	m := w.cfg.Mix
	roll := r.Intn(100)
	switch {
	case roll < m.NewOrder:
		return "new_order", w.NewOrderArgs(r)
	case roll < m.NewOrder+m.Payment:
		return "payment", w.PaymentArgs(r)
	case roll < m.NewOrder+m.Payment+m.OrderStatus:
		return "order_status", w.OrderStatusArgs(r)
	case roll < m.NewOrder+m.Payment+m.OrderStatus+m.Delivery:
		return "delivery", w.DeliveryArgs(r)
	default:
		return "stock_level", w.StockLevelArgs(r, terminal)
	}
}

// Run executes one drawn transaction and classifies its outcome; the argument
// record stays the caller's (the crash harness remembers what was
// acknowledged).
func (w *Workload) Run(name string, args any) (metrics.Outcome, error) {
	if a, ok := args.(*NewOrderArgs); ok {
		err := w.run(name, a)
		if core.IsCompensated(err) {
			// Compensation leaves the order number as a hole (§4); a
			// plain abort restored the counter, so no hole.
			w.addHole(a.WID, a.DID, a.ONum)
		}
		return outcome(err)
	}
	if w.cfg.ReadTier != core.TierLocked && w.runRead != nil && readOnlyType(name) {
		return outcome(w.runRead(name, args, w.cfg.ReadTier))
	}
	return outcome(w.run(name, args))
}

func outcome(err error) (metrics.Outcome, error) {
	switch {
	case err == nil:
		return metrics.Committed, nil
	case core.IsCompensated(err) || errors.Is(err, core.ErrUserAbort):
		return metrics.RolledBack, nil
	case errors.Is(err, spi.ErrDeadlock):
		// Abandoned as a deadlock victim after the retry budget.
		return metrics.Deadlocked, err
	case errors.Is(err, spi.ErrTimeout):
		return metrics.TimedOut, err
	default:
		return metrics.Failed, err
	}
}
