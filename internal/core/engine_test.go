package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
)

// testSys is a two-table bank: accounts(id, balance) and journal(id, delta),
// with a two-step transfer transaction (debit; credit) and its compensation.
type testSys struct {
	db  *DB
	eng *Engine

	txnTransfer interference.TxnTypeID
	stepDebit   interference.StepTypeID
	stepCredit  interference.StepTypeID
	stepComp    interference.StepTypeID
	aInFlight   interference.AssertionID

	assertion *Assertion
	balCol    int
}

type transferArgs struct {
	From, To, Amount int64
	// hooks let tests interleave precisely: AfterDebit runs inside the debit
	// step body (before its end-of-step record); BeforeCredit runs at the
	// start of the credit step, i.e. after the debit step is durable.
	AfterDebit   func()
	BeforeCredit func()
	FailCredit   error
}

func newTestSys(t testing.TB, mode Mode, opts ...Option) *testSys {
	t.Helper()
	s := &testSys{db: NewDB()}
	acc := s.db.MustCreateTable(spi.MustSchema("accounts", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "balance", Kind: spi.KindInt},
	}, "id"))
	s.db.MustCreateTable(spi.MustSchema("journal", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "delta", Kind: spi.KindInt},
	}, "id"))
	for i := 1; i <= 6; i++ {
		if err := acc.Insert(spi.Row{spi.Int(i), spi.I64(100)}); err != nil {
			t.Fatal(err)
		}
	}
	s.balCol = acc.Schema().MustCol("balance")

	b := interference.NewBuilder()
	s.txnTransfer = b.TxnType("transfer", 2)
	s.stepDebit = b.StepType("debit")
	s.stepCredit = b.StepType("credit")
	s.stepComp = b.StepType("comp")
	s.aInFlight = b.Assertion("in-flight")
	for _, st := range []interference.StepTypeID{s.stepDebit, s.stepCredit, s.stepComp} {
		b.NoInterference(st, s.aInFlight)
		b.AllowInterleaveEverywhere(st, s.txnTransfer)
	}
	// Any transfer prefix leaves another transfer's in-flight assertion
	// true (each moves only its own money), so the assertion may be locked
	// over an exposed intermediate value.
	b.PrefixSafe(s.txnTransfer, 1, s.aInFlight)
	b.PrefixSafe(s.txnTransfer, 2, s.aInFlight)
	tables := b.Build()

	base := []Option{WithMode(mode), WithWaitTimeout(10 * time.Second), WithRecordHistory(true)}
	s.eng = New(s.db, tables, append(base, opts...)...)

	s.assertion = &Assertion{
		ID:   s.aInFlight,
		Name: "in-flight",
		Covers: func(args any, item spi.Item) bool {
			a := args.(*transferArgs)
			return item.Table == "accounts" && item.Level == spi.LevelRow &&
				item.Key == spi.EncodeKey(spi.I64(a.From))
		},
	}

	s.eng.MustRegister(&TxnType{
		Name: "transfer",
		ID:   s.txnTransfer,
		Steps: []Step{
			{
				Name: "debit", Type: s.stepDebit,
				Body: func(tc *Ctx) error {
					a := tc.Args().(*transferArgs)
					err := s.add(tc, a.From, -a.Amount)
					if err == nil && a.AfterDebit != nil {
						defer a.AfterDebit()
					}
					return err
				},
			},
			{
				Name: "credit", Type: s.stepCredit,
				Pre: []*Assertion{s.assertion},
				Body: func(tc *Ctx) error {
					a := tc.Args().(*transferArgs)
					if a.BeforeCredit != nil {
						a.BeforeCredit()
					}
					if a.FailCredit != nil {
						return a.FailCredit
					}
					return s.add(tc, a.To, a.Amount)
				},
			},
		},
		Comp: &Compensation{
			Type: s.stepComp,
			Body: func(tc *Ctx, completed int) error {
				a := tc.Args().(*transferArgs)
				if completed >= 1 {
					return s.add(tc, a.From, a.Amount)
				}
				return nil
			},
		},
		AppendArgs: func(dst []byte, args any) []byte {
			a := args.(*transferArgs)
			return spi.MarshalRow(dst, spi.Row{
				spi.I64(a.From), spi.I64(a.To), spi.I64(a.Amount),
			})
		},
		DecodeArgs: func(data []byte) (any, error) {
			row, _, err := spi.UnmarshalRow(data)
			if err != nil {
				return nil, err
			}
			return &transferArgs{From: row[0].Int64(), To: row[1].Int64(), Amount: row[2].Int64()}, nil
		},
	})
	return s
}

func (s *testSys) add(tc *Ctx, id, delta int64) error {
	return tc.Update("accounts", []spi.Value{spi.I64(id)}, func(row spi.Row) error {
		row[s.balCol] = spi.I64(row[s.balCol].Int64() + delta)
		return nil
	})
}

func (s *testSys) balance(t *testing.T, id int64) int64 {
	t.Helper()
	row, err := s.db.Table("accounts").Get(spi.EncodeKey(spi.I64(id)))
	if err != nil {
		t.Fatal(err)
	}
	return row[s.balCol].Int64()
}

func (s *testSys) total(t *testing.T) int64 {
	t.Helper()
	var sum int64
	s.db.Table("accounts").Scan(func(_ spi.Key, row spi.Row) bool {
		sum += row[s.balCol].Int64()
		return true
	})
	return sum
}

func TestCommitBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeACC, ModeBaseline} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newTestSys(t, mode)
			if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 30}); err != nil {
				t.Fatal(err)
			}
			if s.balance(t, 1) != 70 || s.balance(t, 2) != 130 {
				t.Fatalf("balances %d/%d", s.balance(t, 1), s.balance(t, 2))
			}
			if s.eng.Snapshot().Commits != 1 {
				t.Fatal("commit not counted")
			}
		})
	}
}

// TestExec drives the one entry point through its preamble and every tier:
// what used to be spread over a Run* method per combination of context, tier,
// resolved type and span is one table over Request.
func TestExec(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	tiers := []ReadTier{TierLocked, TierSnapshot}
	type execCase struct {
		name   string
		ctx    context.Context
		req    func(s *testSys) Request
		closed bool
		want   error // matched with errors.Is; nil means commit
	}
	var cases []execCase
	for _, tier := range tiers {
		tier := tier
		cases = append(cases,
			execCase{name: "unknown name/" + tier.String(), ctx: context.Background(), want: ErrUnknownTxnType,
				req: func(*testSys) Request { return Request{Name: "nope", Tier: tier} }},
			execCase{name: "closed engine/" + tier.String(), ctx: context.Background(), closed: true, want: ErrEngineClosed,
				req: func(*testSys) Request { return Request{Name: "audit", Args: &auditArgs{}, Tier: tier} }},
			execCase{name: "cancelled ctx/" + tier.String(), ctx: canceled, want: context.Canceled,
				req: func(*testSys) Request { return Request{Name: "audit", Args: &auditArgs{}, Tier: tier} }},
			execCase{name: "read by name/" + tier.String(), ctx: context.Background(),
				req: func(*testSys) Request { return Request{Name: "audit", Args: &auditArgs{}, Tier: tier} }},
			execCase{name: "read by resolved type/" + tier.String(), ctx: context.Background(),
				req: func(s *testSys) Request { return Request{Type: s.eng.Type("audit"), Args: &auditArgs{}, Tier: tier} }},
		)
		want := ErrReadOnly
		if tier == TierLocked {
			want = nil // the only tier that permits writes
		}
		cases = append(cases, execCase{name: "write/" + tier.String(), ctx: context.Background(), want: want,
			req: func(*testSys) Request { return Request{Name: "poke", Tier: tier} }})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s := newTestSys(t, ModeACC)
			registerAudit(t, s)
			registerPoke(t, s)
			if c.closed {
				s.eng.Close()
			} else {
				defer s.eng.Close()
			}
			req := c.req(s)
			err := s.eng.Exec(c.ctx, req)
			if c.want == nil && err != nil || c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("Exec = %v, want %v", err, c.want)
			}
			if a, ok := req.Args.(*auditArgs); ok && err == nil && a.Total != 600 {
				t.Fatalf("audit at %s saw total %d, want 600", req.Tier, a.Total)
			}
		})
	}
}

func TestRegistrationValidation(t *testing.T) {
	s := newTestSys(t, ModeACC)
	cases := []*TxnType{
		{Name: "", ID: 1, Steps: []Step{{Type: 1, Body: func(*Ctx) error { return nil }}}},
		{Name: "x", ID: 1},
		{Name: "x", ID: 1, Steps: []Step{{Type: 1}}}, // nil body
		{Name: "x", ID: 1, Steps: []Step{ // multi-step without compensation
			{Type: 1, Body: func(*Ctx) error { return nil }},
			{Type: 2, Body: func(*Ctx) error { return nil }},
		}},
		{Name: "transfer", ID: 1, Steps: []Step{{Type: 1, Body: func(*Ctx) error { return nil }}}}, // dup name
	}
	for i, tt := range cases {
		if err := s.eng.Register(tt); err == nil {
			t.Errorf("case %d: invalid type accepted", i)
		}
	}
}

func TestUserAbortBeforeAnyStepCompletes(t *testing.T) {
	s := newTestSys(t, ModeACC)
	// The debit step itself fails: plain abort, full undo, no compensation.
	tt := s.eng.Type("transfer")
	orig := tt.Steps[0].Body
	tt.Steps[0].Body = func(tc *Ctx) error {
		if err := orig(tc); err != nil {
			return err
		}
		return tc.Abort("changed my mind")
	}
	err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 30})
	if !errors.Is(err, ErrUserAbort) {
		t.Fatalf("got %v", err)
	}
	if s.balance(t, 1) != 100 {
		t.Fatal("abort did not undo the step")
	}
	st := s.eng.Snapshot()
	if st.UserAborts != 1 || st.Compensations != 0 {
		t.Fatalf("stats %+v", st)
	}
	tt.Steps[0].Body = orig
}

func TestCompensationAfterCompletedStep(t *testing.T) {
	s := newTestSys(t, ModeACC)
	err := s.eng.Run("transfer", &transferArgs{
		From: 1, To: 2, Amount: 30,
		FailCredit: fmt.Errorf("boom: %w", ErrUserAbort),
	})
	if !IsCompensated(err) {
		t.Fatalf("got %v, want CompensatedError", err)
	}
	if s.balance(t, 1) != 100 || s.balance(t, 2) != 100 {
		t.Fatal("compensation did not restore the money")
	}
	if s.eng.Snapshot().Compensations != 1 {
		t.Fatal("compensation not counted")
	}
}

func TestStepLocksReleasedAtBoundary(t *testing.T) {
	s := newTestSys(t, ModeACC)
	released := make(chan struct{})
	proceed := make(chan struct{})
	go func() {
		s.eng.Run("transfer", &transferArgs{
			From: 1, To: 2, Amount: 10,
			BeforeCredit: func() {
				close(released)
				<-proceed
			},
		})
	}()
	<-released
	// While the first transfer sits between steps, a second transfer from
	// the same account must proceed (its steps interleave by declaration).
	done := make(chan error, 1)
	go func() {
		done <- s.eng.Run("transfer", &transferArgs{From: 1, To: 3, Amount: 10})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second transfer blocked across a step boundary")
	}
	close(proceed)
}

func TestLegacyIsolationFromIntermediateState(t *testing.T) {
	s := newTestSys(t, ModeACC)
	midway := make(chan struct{})
	proceed := make(chan struct{})
	go func() {
		s.eng.Run("transfer", &transferArgs{
			From: 1, To: 2, Amount: 50,
			BeforeCredit: func() {
				close(midway)
				<-proceed
			},
		})
	}()
	<-midway
	// A legacy audit must NOT see account 1 at 50 with account 2 at 100: it
	// blocks until the transfer commits.
	totals := make(chan int64, 1)
	go func() {
		var sum int64
		s.eng.RunLegacy("audit", func(tc *Ctx) error {
			sum = 0
			for id := int64(1); id <= 2; id++ {
				row, err := tc.Get("accounts", spi.I64(id))
				if err != nil {
					return err
				}
				sum += row[s.balCol].Int64()
			}
			return nil
		})
		totals <- sum
	}()
	select {
	case got := <-totals:
		t.Fatalf("legacy audit read intermediate state: total=%d", got)
	case <-time.After(100 * time.Millisecond):
	}
	close(proceed)
	if got := <-totals; got != 200 {
		t.Fatalf("audit total = %d, want 200", got)
	}
}

func TestDeclaredStepSeesIntermediateState(t *testing.T) {
	// The counterpart: a declared, interleavable step reads right through
	// the exposure — that is the concurrency the ACC sells.
	s := newTestSys(t, ModeACC)
	midway := make(chan struct{})
	proceed := make(chan struct{})
	defer close(proceed)
	go func() {
		s.eng.Run("transfer", &transferArgs{
			From: 1, To: 2, Amount: 50,
			BeforeCredit: func() { close(midway); <-proceed },
		})
	}()
	<-midway
	done := make(chan error, 1)
	go func() {
		done <- s.eng.Run("transfer", &transferArgs{From: 2, To: 1, Amount: 5})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("declared step blocked on exposed intermediate state")
	}
}

func TestBaselineIsConflictSerializable(t *testing.T) {
	s := newTestSys(t, ModeBaseline)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				from := int64(g%3 + 1)
				to := int64((g+1)%3 + 1)
				s.eng.Run("transfer", &transferArgs{From: from, To: to, Amount: 1})
			}
		}(g)
	}
	wg.Wait()
	if h := s.eng.History(); !h.ConflictSerializable() {
		t.Fatal("baseline produced a non-serializable history")
	}
	if s.total(t) != 600 {
		t.Fatalf("total = %d", s.total(t))
	}
}

func TestACCMassConcurrencyPreservesInvariant(t *testing.T) {
	s := newTestSys(t, ModeACC)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				from := int64(g%6 + 1)
				to := int64((g+i)%6 + 1)
				if from == to {
					to = from%6 + 1
				}
				args := &transferArgs{From: from, To: to, Amount: 3}
				if i%10 == 9 {
					args.FailCredit = fmt.Errorf("x: %w", ErrUserAbort)
				}
				err := s.eng.Run("transfer", args)
				if err != nil && !IsCompensated(err) && !errors.Is(err, ErrUserAbort) {
					t.Errorf("unexpected: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.total(t) != 600 {
		t.Fatalf("invariant violated: total = %d", s.total(t))
	}
}

func TestCrashRecoveryCommitsAndCompensates(t *testing.T) {
	s := newTestSys(t, ModeACC)
	// One committed transfer.
	if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 25}); err != nil {
		t.Fatal(err)
	}
	// One transfer "crashes" between debit and credit: simulate by running
	// the debit step body through a transfer whose credit step blocks, then
	// cutting the log at that point.
	crashed := make(chan struct{})
	hang := make(chan struct{})
	go func() {
		s.eng.Run("transfer", &transferArgs{
			From: 3, To: 4, Amount: 40,
			BeforeCredit: func() { close(crashed); <-hang },
		})
	}()
	<-crashed
	// The debit's end-of-step record is appended, not forced: the crash comes
	// after some other session's group commit made it durable.
	s.eng.Log().Force()
	logImage := s.eng.Log().DurableBytes()

	// Recovery into a fresh system over the freshly loaded base state.
	s2 := newTestSys(t, ModeACC)
	res, err := s2.eng.Recover(logImage)
	if err != nil {
		t.Fatal(err)
	}
	close(hang)
	if res.Committed != 1 {
		t.Fatalf("recovered %d commits, want 1", res.Committed)
	}
	if len(res.Compensated) != 1 || res.Compensated[0] != "transfer" {
		t.Fatalf("compensated = %v", res.Compensated)
	}
	// Committed transfer applied; crashed transfer compensated.
	if s2.balance(t, 1) != 75 || s2.balance(t, 2) != 125 {
		t.Fatalf("committed transfer lost: %d/%d", s2.balance(t, 1), s2.balance(t, 2))
	}
	if s2.balance(t, 3) != 100 || s2.balance(t, 4) != 100 {
		t.Fatalf("crashed transfer not compensated: %d/%d", s2.balance(t, 3), s2.balance(t, 4))
	}
	if s2.total(t) != 600 {
		t.Fatalf("total = %d", s2.total(t))
	}
}

func TestRecoveryRejectsUnknownType(t *testing.T) {
	s := newTestSys(t, ModeACC)
	crashed := make(chan struct{})
	hang := make(chan struct{})
	defer close(hang)
	go func() {
		s.eng.Run("transfer", &transferArgs{
			From: 1, To: 2, Amount: 1,
			BeforeCredit: func() { close(crashed); <-hang },
		})
	}()
	<-crashed
	s.eng.Log().Force()
	img := s.eng.Log().DurableBytes()
	// An engine without the type registered cannot recover it.
	empty := New(NewDB(), interference.NewBuilder().Build())
	if _, err := empty.Recover(img); err == nil {
		t.Fatal("recovery with unknown type accepted")
	}
}

// crossedPairs runs two transfers that lock accounts 5 and 6 in opposite
// orders within one unit, meeting after their first update on their first
// attempt only, so at least one deadlock happens and a restart must not wait
// again. Both must commit with the balances intact.
func crossedPairs(t *testing.T, mode Mode) *testSys {
	t.Helper()
	s := newTestSys(t, mode)
	b2 := &TxnType{
		Name: "pairupdate",
		ID:   s.txnTransfer,
		Steps: []Step{{
			Name: "both", Type: s.stepDebit,
			Body: func(tc *Ctx) error {
				a := tc.Args().(*transferArgs)
				if err := s.add(tc, a.From, -1); err != nil {
					return err
				}
				if a.AfterDebit != nil {
					a.AfterDebit()
				}
				return s.add(tc, a.To, 1)
			},
		}},
		Comp: &Compensation{Type: s.stepComp, Body: func(*Ctx, int) error { return nil }},
	}
	s.eng.MustRegister(b2)
	var arrived sync.WaitGroup
	arrived.Add(2)
	var once1, once2 sync.Once
	onces := []*sync.Once{&once1, &once2}
	var next int
	var mu sync.Mutex
	rendezvous := func() {
		mu.Lock()
		idx := next % 2
		next++
		mu.Unlock()
		onces[idx].Do(func() {
			arrived.Done()
			arrived.Wait()
		})
	}
	var wg sync.WaitGroup
	var errs [2]error
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = s.eng.Run("pairupdate", &transferArgs{From: 5, To: 6, AfterDebit: rendezvous})
	}()
	go func() {
		defer wg.Done()
		errs[1] = s.eng.Run("pairupdate", &transferArgs{From: 6, To: 5, AfterDebit: rendezvous})
	}()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("deadlock not resolved transparently: %v / %v", errs[0], errs[1])
	}
	if s.balance(t, 5) != 100 || s.balance(t, 6) != 100 {
		t.Fatal("balances corrupted by retry")
	}
	if s.eng.Locks().Stats().Deadlocks == 0 {
		t.Fatal("expected at least one deadlock")
	}
	return s
}

// TestDeadlockStepRetryTransparent: under the ACC the victim's step retries
// and both transfers commit.
func TestDeadlockStepRetryTransparent(t *testing.T) {
	s := crossedPairs(t, ModeACC)
	if s.eng.Snapshot().StepRetries == 0 {
		t.Fatal("the ACC resolved the deadlock without a step retry")
	}
}

// TestBaselineRestartsWholeTransaction: the baseline retries no step; its
// deadlock victim restarts whole.
func TestBaselineRestartsWholeTransaction(t *testing.T) {
	st := crossedPairs(t, ModeBaseline).eng.Snapshot()
	if st.StepRetries != 0 || st.TxnRetries == 0 {
		t.Fatalf("baseline: %d step retries, %d transaction retries; want 0 and > 0", st.StepRetries, st.TxnRetries)
	}
}

// TestRetriesExhaustedWrapsCause: a transaction that can never get its lock
// restarts maxTxnRetries times and then ends with an error that names both
// the exhaustion and the scheduling cause, under either scheduler.
func TestRetriesExhaustedWrapsCause(t *testing.T) {
	for _, mode := range []Mode{ModeACC, ModeBaseline} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newTestSys(t, mode, WithWaitTimeout(time.Millisecond))
			locked, hold := make(chan struct{}), make(chan struct{})
			held := make(chan error, 1)
			go func() {
				held <- s.eng.RunLegacy("holder", func(tc *Ctx) error {
					if err := s.add(tc, 1, 0); err != nil {
						return err
					}
					close(locked)
					<-hold
					return nil
				})
			}()
			<-locked
			err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 5})
			close(hold)
			if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, spi.ErrTimeout) {
				t.Fatalf("got %v, want ErrRetriesExhausted wrapping spi.ErrTimeout", err)
			}
			if n := s.eng.Snapshot().TxnRetries; n != maxTxnRetries {
				t.Fatalf("%d transaction retries, want %d", n, maxTxnRetries)
			}
			if err := <-held; err != nil {
				t.Fatalf("holder: %v", err)
			}
		})
	}
}

func TestHistoryDisabledByDefault(t *testing.T) {
	db := NewDB()
	eng := New(db, interference.NewBuilder().Build())
	if eng.History() != nil {
		t.Fatal("history should be nil when disabled")
	}
}

func TestConflictSerializableChecker(t *testing.T) {
	// Hand-built histories.
	ser := &History{Accesses: []Access{
		{Txn: 1, Seq: 0, Table: "t", PK: "a", Write: true},
		{Txn: 1, Seq: 1, Table: "t", PK: "b", Write: true},
		{Txn: 2, Seq: 2, Table: "t", PK: "a", Write: true},
		{Txn: 2, Seq: 3, Table: "t", PK: "b", Write: true},
	}}
	if !ser.ConflictSerializable() {
		t.Fatal("serial history rejected")
	}
	cyc := &History{Accesses: []Access{
		{Txn: 1, Seq: 0, Table: "t", PK: "a", Write: true},
		{Txn: 2, Seq: 1, Table: "t", PK: "a", Write: true},
		{Txn: 2, Seq: 2, Table: "t", PK: "b", Write: true},
		{Txn: 1, Seq: 3, Table: "t", PK: "b", Write: true},
	}}
	if cyc.ConflictSerializable() {
		t.Fatal("cyclic history accepted")
	}
	readsOnly := &History{Accesses: []Access{
		{Txn: 1, Seq: 0, Table: "t", PK: "a"},
		{Txn: 2, Seq: 1, Table: "t", PK: "a"},
		{Txn: 1, Seq: 2, Table: "t", PK: "a"},
	}}
	if !readsOnly.ConflictSerializable() {
		t.Fatal("read-only history rejected")
	}
}
