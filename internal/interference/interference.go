// Package interference holds the design-time artifacts of the assertional
// concurrency control: the interference tables described in §3.2 of the
// paper. The tables answer, in O(1) at run time,
//
//  1. whether a step type interferes with an interstep assertion
//     (used for X-vs-A lock conflicts),
//  2. whether the executed prefix of a transaction type interferes with an
//     assertion (used when a transaction assertionally locks an item another
//     transaction has exposed an intermediate value of), and
//  3. which step types may interleave at each breakpoint of each transaction
//     type (the paper's "non-transitive, table driven" interleaving
//     specification; used for S/X-vs-exposure conflicts and legacy
//     isolation).
//
// The tables are constructed at design time either by hand (Builder) or by
// the automatic analyzer in analyzer.go, mirroring the paper's split between
// the design-time analysis and the run-time table lookup.
package interference

import (
	"fmt"
	"sort"
	"strings"

	"accdb/internal/spi"
)

// TxnTypeID identifies a registered transaction type. The identifier types
// are defined in the SPI (spi/ids.go) and aliased here, so the lock-service
// contract can name them without depending on this package.
type TxnTypeID = spi.TxnTypeID

// StepTypeID identifies a registered step type (forward or compensating).
type StepTypeID = spi.StepTypeID

// AssertionID identifies an interstep assertion type.
type AssertionID = spi.AssertionID

// Zero sentinels and legacy tags, re-exported from the SPI.
const (
	// NoStep is the zero step sentinel.
	NoStep = spi.NoStep
	// NoAssertion is the zero assertion sentinel.
	NoAssertion = spi.NoAssertion
	// LegacyStep tags an access by an undecomposed (legacy or ad-hoc)
	// transaction. It is conservatively assumed to interfere with every
	// assertion and to be interleavable nowhere, which is what isolates
	// legacy transactions from intermediate states (§3.3 end).
	LegacyStep = spi.LegacyStep
	// LegacyTxn is the transaction type of undecomposed transactions.
	LegacyTxn = spi.LegacyTxn
)

type stepAssert struct {
	step StepTypeID
	a    AssertionID
}

type prefixKey struct {
	txn   TxnTypeID
	steps int32 // number of completed steps
	a     AssertionID
}

type breakKey struct {
	txn        TxnTypeID
	breakpoint int32 // after this many completed steps
	step       StepTypeID
}

// Tables is the immutable run-time lookup structure. All misses fall back to
// the conservative answer (interferes / may not interleave), so an
// unregistered — legacy — step or transaction is fully isolated.
type Tables struct {
	txnNames    map[TxnTypeID]string
	stepNames   map[StepTypeID]string
	assertNames map[AssertionID]string
	txnSteps    map[TxnTypeID]int // number of forward steps

	noInterfere   map[stepAssert]bool // true => does NOT interfere
	prefixSafe    map[prefixKey]bool  // true => prefix does NOT interfere
	interleaveOK  map[breakKey]bool   // true => step may interleave here
	alwaysInterOK map[StepTypeID]map[TxnTypeID]bool
}

// Interferes reports whether executing a step of type step can invalidate an
// assertion of type a (formula (2) of the paper cannot be proven). Unknown
// pairs interfere.
func (t *Tables) Interferes(step StepTypeID, a AssertionID) bool {
	if step == LegacyStep {
		return true
	}
	return !t.noInterfere[stepAssert{step, a}]
}

// PrefixInterferes reports whether the sequence of the first `completed`
// steps of txn type txn, taken as a whole, can leave assertion a false.
// Unknown combinations interfere.
func (t *Tables) PrefixInterferes(txn TxnTypeID, completed int, a AssertionID) bool {
	if txn == LegacyTxn {
		return true
	}
	return !t.prefixSafe[prefixKey{txn, int32(completed), a}]
}

// MayInterleave reports whether a step of type step may execute at the
// breakpoint of txn type holder after `completed` steps, i.e. whether step
// may observe holder's intermediate state there. Unknown combinations may
// not interleave — this is what isolates legacy transactions.
func (t *Tables) MayInterleave(step StepTypeID, holder TxnTypeID, completed int) bool {
	if step == LegacyStep || holder == LegacyTxn {
		return false
	}
	if m, ok := t.alwaysInterOK[step]; ok && m[holder] {
		return true
	}
	return t.interleaveOK[breakKey{holder, int32(completed), step}]
}

// TxnName returns the registered name of a transaction type.
func (t *Tables) TxnName(id TxnTypeID) string {
	if id == LegacyTxn {
		return "<legacy>"
	}
	if n, ok := t.txnNames[id]; ok {
		return n
	}
	return fmt.Sprintf("txn#%d", id)
}

// StepName returns the registered name of a step type.
func (t *Tables) StepName(id StepTypeID) string {
	if id == LegacyStep {
		return "<legacy>"
	}
	if n, ok := t.stepNames[id]; ok {
		return n
	}
	return fmt.Sprintf("step#%d", id)
}

// AssertionName returns the registered name of an assertion type.
func (t *Tables) AssertionName(id AssertionID) string {
	if n, ok := t.assertNames[id]; ok {
		return n
	}
	return fmt.Sprintf("assert#%d", id)
}

// Steps returns the number of forward steps of a transaction type.
func (t *Tables) Steps(txn TxnTypeID) int { return t.txnSteps[txn] }

// String dumps the tables for documentation and debugging.
func (t *Tables) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interference tables: %d txn types, %d step types, %d assertions\n",
		len(t.txnNames), len(t.stepNames), len(t.assertNames))
	var lines []string
	for k := range t.noInterfere {
		lines = append(lines, fmt.Sprintf("  no-interfere: %s ~ %s", t.StepName(k.step), t.AssertionName(k.a)))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// Builder accumulates design-time declarations and produces Tables.
//
// The default stance is conservative: every (step, assertion) pair
// interferes and no step may interleave at any breakpoint, until declared
// otherwise. The analysis — manual (§4) or automatic (analyzer.go) — opens
// up exactly the pairs it can prove safe.
type Builder struct {
	nextTxn    TxnTypeID
	nextStep   StepTypeID
	nextAssert AssertionID

	t *Tables
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		t: &Tables{
			txnNames:      make(map[TxnTypeID]string),
			stepNames:     make(map[StepTypeID]string),
			assertNames:   make(map[AssertionID]string),
			txnSteps:      make(map[TxnTypeID]int),
			noInterfere:   make(map[stepAssert]bool),
			prefixSafe:    make(map[prefixKey]bool),
			interleaveOK:  make(map[breakKey]bool),
			alwaysInterOK: make(map[StepTypeID]map[TxnTypeID]bool),
		},
	}
}

// TxnType registers a transaction type with the given number of forward steps.
func (b *Builder) TxnType(name string, steps int) TxnTypeID {
	b.nextTxn++
	id := b.nextTxn
	b.t.txnNames[id] = name
	b.t.txnSteps[id] = steps
	return id
}

// StepType registers a step type (forward or compensating).
func (b *Builder) StepType(name string) StepTypeID {
	b.nextStep++
	id := b.nextStep
	b.t.stepNames[id] = name
	return id
}

// Assertion registers an interstep assertion type.
func (b *Builder) Assertion(name string) AssertionID {
	b.nextAssert++
	id := b.nextAssert
	b.t.assertNames[id] = name
	return id
}

// NoInterference declares that step provably does not interfere with a
// (formula (2) holds).
func (b *Builder) NoInterference(step StepTypeID, a AssertionID) {
	b.t.noInterfere[stepAssert{step, a}] = true
}

// PrefixSafe declares that the first `completed` steps of txn, as a whole,
// leave assertion a true (any conjunct temporarily falsified has been
// restored).
func (b *Builder) PrefixSafe(txn TxnTypeID, completed int, a AssertionID) {
	b.t.prefixSafe[prefixKey{txn, int32(completed), a}] = true
}

// AllowInterleave declares that the given step types may execute at the
// breakpoint of txn after `completed` steps and observe its intermediate
// state there.
func (b *Builder) AllowInterleave(txn TxnTypeID, completed int, steps ...StepTypeID) {
	for _, s := range steps {
		b.t.interleaveOK[breakKey{txn, int32(completed), s}] = true
	}
}

// AllowInterleaveEverywhere declares that step may interleave at every
// breakpoint of txn. This is the common case for mutually commuting
// transaction types (e.g. concurrent new_order instances).
func (b *Builder) AllowInterleaveEverywhere(step StepTypeID, txn TxnTypeID) {
	m, ok := b.t.alwaysInterOK[step]
	if !ok {
		m = make(map[TxnTypeID]bool)
		b.t.alwaysInterOK[step] = m
	}
	m[txn] = true
}

// Build finalizes and returns the tables. The Builder must not be used
// afterwards.
func (b *Builder) Build() *Tables {
	t := b.t
	b.t = nil
	return t
}
