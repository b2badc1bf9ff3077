package wal

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"accdb/internal/spi"
)

func sampleRecords() []Record {
	return []Record{
		{Type: TBegin, Txn: 1, TxnType: "new_order"},
		{Type: TStepBegin, Txn: 1, Step: 0},
		{Type: TWrite, Txn: 1, Table: "t", PK: spi.EncodeKey(spi.I64(5)),
			Before: nil, After: spi.Row{spi.I64(5), spi.Str("x")}},
		{Type: TWrite, Txn: 1, Table: "t", PK: spi.EncodeKey(spi.I64(5)),
			Before: spi.Row{spi.I64(5), spi.Str("x")},
			After:  spi.Row{spi.I64(5), spi.Str("y")}},
		{Type: TEndOfStep, Txn: 1, Step: 0, WorkArea: []byte{1, 2, 3}},
		{Type: TStepBegin, Txn: 1, Step: 1},
		{Type: TWrite, Txn: 1, Table: "t", PK: spi.EncodeKey(spi.I64(6)),
			Before: spi.Row{spi.I64(6), spi.Str("z")}, After: nil},
		{Type: TEndOfStep, Txn: 1, Step: 1},
		{Type: TCommit, Txn: 1},
		{Type: TBegin, Txn: 2, TxnType: "payment"},
		{Type: TAbort, Txn: 2},
		{Type: TCompBegin, Txn: 3, Step: 2},
		{Type: TCompDone, Txn: 3},
		{Type: TCommit, Txn: 4, WorkArea: []byte("a shot's work area")},
	}
}

func TestRecordRoundtrip(t *testing.T) {
	l := New(0)
	for _, rec := range sampleRecords() {
		l.Append(rec)
	}
	var got []Record
	if err := Replay(l.Bytes(), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Type != w.Type || g.Txn != w.Txn || g.TxnType != w.TxnType ||
			g.Step != w.Step || g.Table != w.Table || g.PK != w.PK {
			t.Errorf("record %d: got %+v, want %+v", i, g, w)
		}
		if (g.Before == nil) != (w.Before == nil) || (g.Before != nil && !g.Before.Equal(w.Before)) {
			t.Errorf("record %d before image mismatch", i)
		}
		if (g.After == nil) != (w.After == nil) || (g.After != nil && !g.After.Equal(w.After)) {
			t.Errorf("record %d after image mismatch", i)
		}
		if string(g.WorkArea) != string(w.WorkArea) {
			t.Errorf("record %d work area mismatch", i)
		}
	}
}

func TestRecordRoundtripQuick(t *testing.T) {
	f := func(txn uint64, step int32, table string, area []byte, v int64) bool {
		l := New(0)
		l.Append(Record{Type: TEndOfStep, Txn: txn, Step: step, WorkArea: area})
		l.Append(Record{Type: TWrite, Txn: txn, Table: table,
			PK: spi.EncodeKey(spi.I64(v)), After: spi.Row{spi.I64(v)}})
		n := 0
		ok := true
		err := Replay(l.Bytes(), func(r Record) error {
			switch n {
			case 0:
				ok = ok && r.Txn == txn && r.Step == step && string(r.WorkArea) == string(area)
			case 1:
				ok = ok && r.Table == table && r.After[0].Int64() == v
			}
			n++
			return nil
		})
		return err == nil && n == 2 && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReplayReportsTruncatedTail(t *testing.T) {
	l := New(0)
	for _, rec := range sampleRecords() {
		l.Append(rec)
	}
	full := l.Bytes()
	whole := 0
	if err := Replay(full, func(Record) error { whole++; return nil }); err != nil {
		t.Fatal(err)
	}
	// Any truncation must replay the valid prefix and then surface a typed
	// ErrTornTail naming the damage offset — never a silent discard.
	for cut := 0; cut < len(full); cut++ {
		n := 0
		err := Replay(full[:cut], func(Record) error { n++; return nil })
		if n > whole {
			t.Fatalf("cut %d replayed %d > %d records", cut, n, whole)
		}
		valid, _ := scanValid(full[:cut])
		if valid == cut {
			if err != nil {
				t.Fatalf("cut %d on record boundary: unexpected error %v", cut, err)
			}
			continue
		}
		var torn *ErrTornTail
		if !errors.As(err, &torn) {
			t.Fatalf("cut %d: want *ErrTornTail, got %v", cut, err)
		}
		if torn.Offset != int64(valid) || torn.DiscardedBytes != int64(cut-valid) {
			t.Fatalf("cut %d: torn = %+v, valid prefix = %d", cut, torn, valid)
		}
		if !torn.Clean() {
			t.Fatalf("cut %d: pure truncation reported as corruption: %+v", cut, torn)
		}
	}
}

func TestReplayDetectsMidLogCorruption(t *testing.T) {
	l := New(0)
	for _, rec := range sampleRecords() {
		l.Append(rec)
	}
	full := append([]byte(nil), l.Bytes()...)
	// Damage a payload byte inside the third record, leaving framing intact.
	_, e1, _, _ := frame(full, 0)
	_, e2, _, _ := frame(full, e1+4)
	ps3, _, _, _ := frame(full, e2+4)
	full[ps3] ^= 0xFF
	n := 0
	err := Replay(full, func(Record) error { n++; return nil })
	var torn *ErrTornTail
	if !errors.As(err, &torn) {
		t.Fatalf("want *ErrTornTail, got %v", err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records before the corruption, want 2", n)
	}
	if !torn.Corrupt {
		t.Fatal("complete frame with bad CRC not flagged Corrupt")
	}
	if torn.Clean() {
		t.Fatal("mid-log corruption reported as a clean crash tail")
	}
	if torn.DiscardedRecords != len(sampleRecords())-3 {
		t.Fatalf("DiscardedRecords = %d, want %d", torn.DiscardedRecords, len(sampleRecords())-3)
	}
	if torn.Offset != int64(e2+4) {
		t.Fatalf("Offset = %d, want %d", torn.Offset, e2+4)
	}
}

func TestForceSemantics(t *testing.T) {
	l := New(0)
	lsn := l.Append(Record{Type: TBegin, Txn: 1})
	if len(l.DurableBytes()) != 0 {
		t.Fatal("unforced record already durable")
	}
	if l.Durable() != 0 {
		t.Fatalf("durable watermark = %d before any force", l.Durable())
	}
	l.ForceTo(lsn)
	if len(l.DurableBytes()) != int(lsn) || l.Durable() != lsn {
		t.Fatal("force did not advance durable prefix")
	}
	st := l.Snapshot()
	if st.Forces != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Forcing an already-durable LSN is free.
	l.ForceTo(lsn)
	if l.Snapshot().Forces != 1 {
		t.Fatal("idempotent force counted twice")
	}
}

func TestForceLatencyCharged(t *testing.T) {
	l := New(20 * time.Millisecond)
	start := time.Now()
	l.AppendForce(Record{Type: TCommit, Txn: 1})
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("force latency not charged")
	}
}

func TestAnalyzeOutcomes(t *testing.T) {
	l := New(0)
	// Txn 1 commits after two steps — the commit record closes the second;
	// txn 2 aborts clean; txn 3 has one completed step and then crashes in
	// its final step (needs compensation from step 1, never from 2); txn 4
	// finished compensating; txn 5 crashed mid-first-step (nothing to do);
	// txn 6 is a committed shot whose commit record saved its work area.
	recs := []Record{
		{Type: TBegin, Txn: 1, TxnType: "a"},
		{Type: TStepBegin, Txn: 1, Step: 0},
		{Type: TEndOfStep, Txn: 1, Step: 0},
		{Type: TStepBegin, Txn: 1, Step: 1},
		{Type: TWrite, Txn: 1, Table: "t", PK: "k", After: spi.Row{spi.I64(1)}},
		{Type: TCommit, Txn: 1},
		{Type: TBegin, Txn: 2, TxnType: "b"},
		{Type: TAbort, Txn: 2},
		{Type: TBegin, Txn: 3, TxnType: "c"},
		{Type: TStepBegin, Txn: 3, Step: 0},
		{Type: TEndOfStep, Txn: 3, Step: 0, WorkArea: []byte("wa")},
		{Type: TStepBegin, Txn: 3, Step: 1},
		{Type: TBegin, Txn: 4, TxnType: "d"},
		{Type: TStepBegin, Txn: 4, Step: 0},
		{Type: TEndOfStep, Txn: 4, Step: 0},
		{Type: TCompBegin, Txn: 4, Step: 1},
		{Type: TCompDone, Txn: 4},
		{Type: TBegin, Txn: 5, TxnType: "e"},
		{Type: TStepBegin, Txn: 5, Step: 0},
		{Type: TBegin, Txn: 6, TxnType: "f", Global: 9, Shot: 1},
		{Type: TStepBegin, Txn: 6, Step: 0},
		{Type: TCommit, Txn: 6, WorkArea: []byte("shot")},
	}
	for _, r := range recs {
		l.Append(r)
	}
	a, err := Analyze(l.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Txns[1].Committed || a.Txns[1].CompletedSteps != 2 || len(a.Txns[1].Written) != 1 {
		t.Errorf("txn1 = %+v", a.Txns[1])
	}
	if a.Txns[3].CompletedSteps != 1 {
		t.Errorf("txn3 completed %d steps, want 1: its final step never closed", a.Txns[3].CompletedSteps)
	}
	if st := a.ShotTxn(9, 1); st == nil || !st.Committed || st.CompletedSteps != 1 || string(st.WorkArea) != "shot" {
		t.Errorf("shot txn6 = %+v", st)
	}
	if !a.Txns[2].Aborted {
		t.Errorf("txn2 = %+v", a.Txns[2])
	}
	if !a.Txns[3].NeedsCompensation() || string(a.Txns[3].WorkArea) != "wa" {
		t.Errorf("txn3 = %+v", a.Txns[3])
	}
	if !a.Txns[4].Compensated || a.Txns[4].NeedsCompensation() {
		t.Errorf("txn4 = %+v", a.Txns[4])
	}
	if a.Txns[5].NeedsCompensation() {
		t.Errorf("txn5 should not need compensation: %+v", a.Txns[5])
	}
	pending := a.Pending()
	if len(pending) != 1 || pending[0].ID != 3 {
		t.Fatalf("pending = %+v", pending)
	}
}

func TestApplyReplaysOnlyCompletedUnits(t *testing.T) {
	l := New(0)
	pk := func(i int64) spi.Key { return spi.EncodeKey(spi.I64(i)) }
	row := func(i int64) spi.Row { return spi.Row{spi.I64(i)} }
	recs := []Record{
		{Type: TBegin, Txn: 1, TxnType: "a"},
		// Attempt 1 of step 0 writes pk 1, then the step aborts (deadlock);
		// attempt 2 writes pk 2 and completes.
		{Type: TStepBegin, Txn: 1, Step: 0},
		{Type: TWrite, Txn: 1, Table: "t", PK: pk(1), After: row(1)},
		{Type: TStepBegin, Txn: 1, Step: 0},
		{Type: TWrite, Txn: 1, Table: "t", PK: pk(2), After: row(2)},
		{Type: TEndOfStep, Txn: 1, Step: 0},
		// Step 1 writes pk 3 but never completes (crash).
		{Type: TStepBegin, Txn: 1, Step: 1},
		{Type: TWrite, Txn: 1, Table: "t", PK: pk(3), After: row(3)},
		// Txn 2's compensation deletes pk 2... rather, writes pk 4, done.
		{Type: TBegin, Txn: 2, TxnType: "b"},
		{Type: TCompBegin, Txn: 2, Step: 1},
		{Type: TWrite, Txn: 2, Table: "t", PK: pk(4), After: row(4)},
		{Type: TCompDone, Txn: 2},
	}
	for _, r := range recs {
		l.Append(r)
	}
	data := l.Bytes()
	a, err := Analyze(data)
	if err != nil {
		t.Fatal(err)
	}
	applied := map[string]bool{}
	err = a.Apply(data, func(table string, k spi.Key, after spi.Row) {
		applied[string(k)] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied[string(pk(1))] {
		t.Error("aborted attempt's write replayed")
	}
	if !applied[string(pk(2))] {
		t.Error("completed attempt's write missing")
	}
	if applied[string(pk(3))] {
		t.Error("incomplete step's write replayed")
	}
	if !applied[string(pk(4))] {
		t.Error("completed compensation's write missing")
	}
}

func TestApplyRejectsOrphanWrite(t *testing.T) {
	l := New(0)
	l.Append(Record{Type: TWrite, Txn: 9, Table: "t", PK: "k"})
	a, _ := Analyze(l.Bytes())
	if err := a.Apply(l.Bytes(), func(string, spi.Key, spi.Row) {}); err == nil {
		t.Fatal("write outside any step accepted")
	}
}

func TestDurableBytesLoseUnforcedTail(t *testing.T) {
	l := New(0)
	l.AppendForce(Record{Type: TBegin, Txn: 1})
	l.Append(Record{Type: TCommit, Txn: 1}) // never forced: lost in a crash
	a, err := Analyze(l.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Txns[1].Committed {
		t.Fatal("unforced commit survived the crash")
	}
}
