package core

import (
	"sync/atomic"
	"time"
)

// Env is the cost model of the paper's testbed (§5.2). A statement's CPU
// phase holds one of a pool of database server tokens for the service time;
// lock waits and log I/O hold none, as in a server whose blocked sessions
// yield. A type that opts in (TxnType.InterStatementCompute) is charged
// compute time between successive statements while its locks stay held:
// Figure 3's knob. The engine brackets each statement's data operation with
// BeginStatement and EndStatement on one goroutine, lock waits outside the
// bracket. A nil *Env costs and counts nothing: every method is a nil test.
type Env struct {
	tokens  chan struct{}
	service time.Duration
	compute time.Duration

	statements atomic.Uint64
}

// NewEnv creates an environment with servers database server processes (0:
// unbounded), the given CPU service time per statement, and the given
// inter-statement compute time.
func NewEnv(servers int, service, compute time.Duration) *Env {
	e := &Env{service: service, compute: compute}
	if servers > 0 {
		e.tokens = make(chan struct{}, servers)
		for i := 0; i < servers; i++ {
			e.tokens <- struct{}{}
		}
	}
	return e
}

// BeginStatement opens one statement's CPU phase: it counts the statement,
// takes a server token and sleeps the service time. Sleeping, not spinning,
// keeps the model honest on hosts with fewer cores than servers.
func (e *Env) BeginStatement() {
	if e == nil {
		return
	}
	e.statements.Add(1)
	if e.tokens != nil {
		<-e.tokens
	}
	if e.service > 0 {
		time.Sleep(e.service)
	}
}

// EndStatement returns the server token BeginStatement took.
func (e *Env) EndStatement() {
	if e != nil && e.tokens != nil {
		e.tokens <- struct{}{}
	}
}

// Compute charges the application's inter-statement compute time. It holds
// no server token (the computation happens in the application), but the
// caller's locks remain held — that is the point of the experiment.
func (e *Env) Compute() {
	if e != nil && e.compute > 0 {
		time.Sleep(e.compute)
	}
}

// Statements returns the number of statements begun; 0 for a nil *Env.
func (e *Env) Statements() uint64 {
	if e == nil {
		return 0
	}
	return e.statements.Load()
}
