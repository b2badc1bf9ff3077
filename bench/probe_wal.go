package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"accdb/internal/spi"
	"accdb/internal/wal"
)

// stepRecord is a representative end-of-step record — the record the ACC
// forces at every step boundary: transaction, step and a small work area.
func stepRecord(txn uint64) wal.Record {
	return wal.Record{Type: wal.TEndOfStep, Txn: txn, Step: 1, WorkArea: []byte("work-area-0123456789abcdef")}
}

// probeWAL prices the log: an append to the in-memory image, a serial
// write+fsync per force on a file-backed log (the floor group commit
// amortizes), how far eight concurrent committers amortize it under the 1ms
// window net_tpcc_4p_durable runs with, and replay speed. *wal.Log is a
// concrete type the engine holds directly, so like the lock service it
// cannot be wrapped from outside; live numbers come from accd's counters and
// anatomy stages. This file is the only one that calls into internal/wal.
func (p *prober) probeWAL() error {
	mem := wal.New(0)
	p.ns("wal", "wal.append_ns", 100, func(i int) { mem.Append(stepRecord(uint64(i))) })

	dir, err := os.MkdirTemp(filepath.Join(p.root, outDir), "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	serial, err := wal.Open(filepath.Join(dir, "serial"), wal.Options{SegmentSize: 64 << 20})
	if err != nil {
		return err
	}
	p.us("wal", "wal.file_force_us", 1, func(i int) { serial.AppendForce(stepRecord(uint64(i))) })
	st, ioErr := serial.Snapshot(), serial.Err()
	serial.Close()
	if ioErr != nil {
		return failf("wal: file-backed log froze: %w", ioErr)
	}
	if st.Forces == 0 {
		return failf("wal: serial AppendForce issued no force")
	}

	const committers = 8
	group, err := wal.Open(filepath.Join(dir, "group"), wal.Options{SegmentSize: 64 << 20, GroupWindow: time.Millisecond})
	if err != nil {
		return err
	}
	id := p.tr.begin(p.parent, "wal", "wal.group_forces_per_op")
	perCommitter := max(p.maxIter/100, 4)
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				group.AppendForce(stepRecord(uint64(c*perCommitter + i)))
			}
		}(c)
	}
	wg.Wait()
	ops := committers * perCommitter
	p.tr.end(id, ops)
	st, ioErr = group.Snapshot(), group.Err()
	group.Close()
	if ioErr != nil {
		return failf("wal: file-backed log froze: %w", ioErr)
	}
	p.out["wal.group_forces_per_op"] = float64(st.Forces) / float64(ops)

	// Replay: committed two-step transactions, the shape recovery reads.
	img := wal.New(0)
	txns := p.maxIter
	for i := 0; i < txns; i++ {
		txn := uint64(i + 1)
		img.Append(wal.Record{Type: wal.TBegin, Txn: txn, TxnType: "payment"})
		for step := int32(0); step < 2; step++ {
			img.Append(wal.Record{Type: wal.TStepBegin, Txn: txn, Step: step})
			img.Append(wal.Record{Type: wal.TWrite, Txn: txn, Table: "stock",
				PK:    spi.EncodeKey(spi.I64(1), spi.I64(int64(i))),
				After: spi.Row{spi.I64(1), spi.I64(int64(i)), spi.Str("row-image-0123456789")}})
			img.Append(stepRecord(txn))
		}
		img.Append(wal.Record{Type: wal.TCommit, Txn: txn})
	}
	data := img.Bytes()
	records := 0
	perReplay := p.time("wal", "wal.replay_mb_per_s", 1, func(int) {
		records = 0
		err = wal.Replay(data, func(wal.Record) error { records++; return nil })
	})
	if err != nil {
		return failf("wal: replay: %w", err)
	}
	if want := txns * 8; records != want {
		return failf("wal: replay saw %d records, %d were appended", records, want)
	}
	p.out["wal.replay_mb_per_s"] = float64(len(data)) / 1e6 / (perReplay / 1e9)
	return nil
}
