package core

import (
	"errors"
	"fmt"
	"slices"

	"accdb/internal/interference"
	"accdb/internal/spi"
)

// Assertion declares an interstep assertion type (§3.1): one conjunct of a
// step's precondition that must stay true across step boundaries. The ACC
// never evaluates assertions at run time; it locks the items in their
// footprint and consults the interference tables. Eval exists only so tests
// can validate semantic correctness.
type Assertion struct {
	// ID is the assertion's entry in the interference tables.
	ID interference.AssertionID
	// Name is for diagnostics.
	Name string
	// Covers reports whether a lockable item belongs to this assertion's
	// footprint for the given transaction-instance arguments. It drives the
	// dynamic assertional-lock acquisition of the implemented one-level ACC:
	// whenever the owning transaction conventionally locks a covered item,
	// an A lock is attached to it.
	Covers func(args any, item spi.Item) bool
	// Eval checks the assertion against a quiescent database; optional,
	// used by correctness tests, never by the scheduler.
	Eval func(db *DB, args any) bool
}

// Step is one forward step of a decomposed transaction.
type Step struct {
	// Name is for diagnostics.
	Name string
	// Type is the step's entry in the interference tables.
	Type interference.StepTypeID
	// Pre lists the assertion conjuncts of this step's precondition beyond
	// the database consistency constraint. Following the simplified
	// algorithm's windows, pre(S_j) is assertionally locked from the start
	// of step j-1 (j > 0; for j = 0 from transaction start) and released
	// when step j completes.
	Pre []*Assertion
	// Body performs the step's work through the step context. Returning
	// ErrUserAbort (possibly wrapped) triggers rollback: compensation if any
	// earlier step completed, plain abort otherwise.
	Body func(tc *Ctx) error
}

// Compensation declares the compensating step of a transaction type. Per
// §3.4 the triple {I} S_1;...;S_j; CS_j {I ∧ Q_i} must be a theorem: Body,
// given the number of completed forward steps, semantically undoes them.
type Compensation struct {
	// Type is the compensating step's entry in the interference tables.
	// Forward steps attach reservations carrying this type to every item
	// they modify, so the compensation never waits on an assertional lock.
	Type interference.StepTypeID
	// Body compensates for the first `completed` forward steps.
	Body func(tc *Ctx, completed int) error
}

// TxnType is a design-time transaction declaration: the decomposition into
// steps, the compensation, and the codec of its argument record.
type TxnType struct {
	Name string
	// ID is the transaction type's entry in the interference tables.
	ID    interference.TxnTypeID
	Steps []Step
	// MakeSteps, when set, derives the instance's step list from its
	// arguments (new-order has one order-line step per requested line). The
	// step *types* must still come from the fixed design-time registration;
	// only the sequence is instance-specific.
	MakeSteps func(args any) []Step
	// Comp is the compensating step; nil only for single-step transactions,
	// which never need compensation.
	Comp *Compensation
	// AppendArgs serializes the instance's work area (its argument value,
	// including any state forward steps recorded into it, such as assigned
	// identifiers) onto dst and returns the extended slice. The engine saves
	// the bytes in every end-of-step record so a crash can be compensated,
	// and the partition coordinator saves a shot's in its decision record.
	// Optional: without it the transaction cannot be compensated after a
	// crash (it still compensates normally online) nor run as a shot.
	AppendArgs func(dst []byte, args any) []byte
	// DecodeArgs reverses AppendArgs into a fresh record, for the engine's
	// crash recovery and the coordinator's. A type served over the wire binds
	// the pair to its wire.ArgCodec (Encode, DecodeNew), so the record has
	// one layout.
	DecodeArgs func(data []byte) (any, error)
	// InterStatementCompute opts this type into the environment's
	// inter-statement compute time (§5.2 added it to the transactions whose
	// duration the experiment stretches: new-order and delivery).
	InterStatementCompute bool

	// twin is the undecomposed type the baseline scheduler runs in tt's
	// place (undecomposed); Register sets it.
	twin *TxnType
}

// validate checks the declaration at registration time.
func (tt *TxnType) validate() error {
	if tt.Name == "" {
		return errors.New("core: transaction type needs a name")
	}
	if len(tt.Steps) == 0 && tt.MakeSteps == nil {
		return fmt.Errorf("core: %s: no steps", tt.Name)
	}
	if tt.ID == 0 && tt.ID != interference.LegacyTxn {
		return fmt.Errorf("core: %s: missing interference table registration", tt.Name)
	}
	for i, s := range tt.Steps {
		if s.Body == nil {
			return fmt.Errorf("core: %s step %d: nil body", tt.Name, i)
		}
		if s.Type == interference.NoStep && tt.ID != interference.LegacyTxn {
			return fmt.Errorf("core: %s step %d: missing step type", tt.Name, i)
		}
	}
	if (len(tt.Steps) > 1 || tt.MakeSteps != nil) && tt.Comp == nil {
		return fmt.Errorf("core: %s: multi-step transaction needs a compensation", tt.Name)
	}
	if tt.Comp != nil && tt.Comp.Body == nil {
		return fmt.Errorf("core: %s: compensation with nil body", tt.Name)
	}
	return nil
}

// lockTxn builds the lock-side descriptor of an instance: its marks reserve
// the items they cover for tt's compensating step.
func (tt *TxnType) lockTxn(id spi.TxnID) *spi.Txn {
	t := spi.NewTxn(id, tt.ID)
	if tt.Comp != nil {
		t.Comp = tt.Comp.Type
	}
	return t
}

// undecomposed returns the type the baseline scheduler runs for tt: the
// unmodified system of §5, where the whole transaction is one strict-2PL
// unit. It is one LegacyStep step under LegacyTxn that runs every step body
// of the instance in order on one Ctx, with Step() naming the body's step. A
// one-step legacy type, what RunLegacy builds, is its own twin.
func (tt *TxnType) undecomposed() *TxnType {
	if tt.twin != nil {
		return tt.twin
	}
	if tt.ID == interference.LegacyTxn && len(tt.Steps) == 1 && tt.MakeSteps == nil {
		return tt
	}
	return &TxnType{
		Name: tt.Name,
		ID:   interference.LegacyTxn,
		Steps: []Step{{Name: tt.Name, Type: interference.LegacyStep, Body: func(tc *Ctx) error {
			steps := tt.stepsFor(tc.txn.args)
			for j := range steps {
				tc.stepIdx = j
				if err := steps[j].Body(tc); err != nil {
					return err
				}
			}
			return nil
		}}},
		AppendArgs:            tt.AppendArgs,
		DecodeArgs:            tt.DecodeArgs,
		InterStatementCompute: tt.InterStatementCompute,
	}
}

// stepsFor resolves the instance's step sequence.
func (tt *TxnType) stepsFor(args any) []Step {
	if tt.MakeSteps != nil {
		return tt.MakeSteps(args)
	}
	return tt.Steps
}

// activeAssertions returns the assertions that must be assertionally locked
// while step j of the given sequence runs: the current step's precondition
// and the next step's. Where the next step's are among the current step's,
// as along new-order's order-line steps, that is the current list itself.
func activeAssertions(steps []Step, j int) []*Assertion {
	cur := steps[j].Pre
	if j+1 >= len(steps) {
		return cur
	}
	next := steps[j+1].Pre
	if len(cur) == 0 {
		return next
	}
	out := cur
	for _, a := range next {
		if !slices.ContainsFunc(cur, func(c *Assertion) bool { return c.ID == a.ID }) {
			if len(out) == len(cur) {
				out = append(make([]*Assertion, 0, len(cur)+len(next)), cur...)
			}
			out = append(out, a)
		}
	}
	return out
}

// Run's error taxonomy (ErrUserAbort, CompensatedError, Retryable, ...)
// lives in errors.go.
