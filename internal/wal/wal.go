// Package wal implements the write-ahead log the ACC engine uses for step
// atomicity, commitment, and compensation-aware crash recovery.
//
// The log is the stand-in for Open Ingres's log file. Its distinctive ACC
// feature (§5 of the paper) is the **end-of-step record**, which also
// carries the transaction's saved work area so a compensating step can run
// after a crash. The paper forces it at every step boundary; this engine
// only appends it and makes durability a property of the reply (DESIGN.md
// §10): one sequential log means a record can never become durable before
// the records ahead of it, so a request waits once, for the last record its
// outcome depends on. The Log simulates a configurable force latency that
// the benchmarks charge to that one wait.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/fault"
	"accdb/internal/spi"
)

// Type enumerates log record types.
type Type uint8

const (
	// TBegin marks the start of a transaction.
	TBegin Type = iota + 1
	// TStepBegin marks the start of a forward step.
	TStepBegin
	// TWrite records one tuple mutation (insert, update, or delete) with
	// before and after images.
	TWrite
	// TEndOfStep marks successful completion of a non-final step and
	// carries the saved work area used to compensate after a crash.
	TEndOfStep
	// TCommit marks transaction commit and is the final step's end-of-step
	// record: the step it closes completed, and no separate TEndOfStep is
	// written for it. It carries the work area only for a transaction that
	// can still be compensated after it committed (a remote shot).
	TCommit
	// TAbort marks an abort that required no compensation (no completed steps).
	TAbort
	// TCompBegin marks the start of a compensating step.
	TCompBegin
	// TCompDone marks successful completion of compensation.
	TCompDone
	// TCoordBegin is a multi-shot coordinator's decision record, written to
	// the originating partition's log before any shot runs: Txn carries the
	// global transaction id, TxnType the home transaction type, and WorkArea
	// the encoded shot plan. Forced — recovery drives the global transaction
	// to an outcome from this record alone.
	TCoordBegin
	// TCoordShot marks one shot of a global transaction committing in its
	// partition; Step is the shot index. Advisory — the shot's own partition
	// log is the ground truth recovery consults.
	TCoordShot
	// TCoordCommit marks a global transaction complete: the home transaction
	// and every planned shot committed.
	TCoordCommit
	// TCoordAbort marks a global transaction rolled back: completed shots
	// were compensated (§3.4) and the home transaction did not survive.
	TCoordAbort
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TBegin:
		return "BEGIN"
	case TStepBegin:
		return "STEP"
	case TWrite:
		return "WRITE"
	case TEndOfStep:
		return "EOS"
	case TCommit:
		return "COMMIT"
	case TAbort:
		return "ABORT"
	case TCompBegin:
		return "COMP"
	case TCompDone:
		return "COMPDONE"
	case TCoordBegin:
		return "COORD"
	case TCoordShot:
		return "COORDSHOT"
	case TCoordCommit:
		return "COORDCOMMIT"
	case TCoordAbort:
		return "COORDABORT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Record is one log record. Fields beyond Type and Txn are type-specific.
type Record struct {
	Type Type
	Txn  uint64

	TxnType  string // TBegin, TCoordBegin: registered transaction type name
	Step     int32  // TStepBegin/TEndOfStep: step index; TCoordShot: shot index
	Table    string // TWrite
	PK       spi.Key
	Before   spi.Row // nil for insert
	After    spi.Row // nil for delete
	WorkArea []byte  // TEndOfStep, TCommit: work area; TCoordBegin: encoded shot plan

	// Global and Shot stamp a TBegin whose transaction executes one shot of
	// a multi-shot global transaction: Global is the coordinator's global id
	// (0 = not a shot) and Shot the shot index — 0 for the home transaction,
	// 1..k for remote shots, -(1..k) for the compensating undo of a shot.
	// Recovery resolves each shot's fate by this stamp in the shot's own
	// partition log.
	Global uint64
	Shot   int32
}

// LSN is a log sequence number: the byte offset just past the record.
type LSN uint64

// Stats counts log activity.
type Stats struct {
	Records uint64
	Forces  uint64
	Bytes   uint64
}

// Log is the append-only, binary-encoded write-ahead log. It exists in two
// configurations behind the same API:
//
//   - memory-only (New): records live in a buffer and "durability" is the
//     durable watermark plus a simulated force latency — the test double
//     the experiments and most unit tests use;
//   - disk-backed (Open): forces additionally write the buffered tail to
//     CRC-framed segment files and fsync, with group commit — concurrent
//     ForceTo callers coalesce behind one leader's sync.
//
// Crash simulation (fault package, Log.Crash) freezes durability in either
// configuration: later appends and forces change nothing a recovery would
// see, exactly as after a kill -9.
type Log struct {
	// ForceLatency is slept on every Force call, simulating the group-commit
	// I/O the paper's system paid on each forced record. It is charged
	// outside the buffer mutex so concurrent forces overlap, as they do on a
	// real controller. Disk-backed logs pay the real fsync instead and
	// usually leave this zero.
	ForceLatency time.Duration

	// The appended image lives in fixed-size chunks rather than one
	// growing []byte: a hot log reaches hundreds of megabytes, and slice
	// doubling would re-copy the whole image every generation (growslice
	// memmove was ~15% of server CPU before chunking). Chunks are sealed
	// full and never moved; records never span a chunk boundary.
	mu        sync.Mutex
	prefix    []byte   // recovered durable image (disk-backed logs only)
	chunks    [][]byte // sealed chunks appended since New/Open, in order
	chunkBase []LSN    // absolute start offset of each sealed chunk
	tail      []byte   // current chunk being filled
	size      LSN      // absolute end of the log (prefix + chunks + tail)
	payload   []byte   // retained encode scratch (guarded by mu)
	stats     Stats

	// durable is the global durable watermark (≥ len(prefix)) and crashed the
	// simulated-crash / I/O-failure freeze. Both are written under mu and
	// read without it: the per-request durability check (Durable, covered)
	// is one load, not a trip through the append mutex.
	durable atomic.Uint64
	crashed atomic.Bool

	// fs is the segment-file backend; nil for memory-only logs.
	fs *fileStorage
	// flushMu serializes disk flushes; the holder is the group-commit
	// leader and syncs everything appended so far.
	flushMu   sync.Mutex
	flushBuf  []byte // retained flush scratch (guarded by flushMu)
	fsWritten LSN    // global offset already handed to fs (under flushMu)
	ioErr     error
	// tornTail, for disk-backed logs, records the tail damage Open found
	// and truncated, if any.
	tornTail *ErrTornTail

	// Group-commit scheduler (SetGroupWindow). gmu guards the window, the
	// leader flag, and gcond; followers wait on gcond for the leader's
	// force to cover them. Separate from mu/flushMu so a sleeping leader
	// never blocks appends.
	gmu         sync.Mutex
	gcond       *sync.Cond
	groupWindow time.Duration
	gLeader     bool
}

// New creates a log with the given simulated force latency.
func New(forceLatency time.Duration) *Log {
	return &Log{ForceLatency: forceLatency}
}

// chunkSize is the sealed-chunk capacity of the in-memory image. Large
// enough that chunk bookkeeping is negligible, small enough that a mostly
// idle log stays cheap.
const chunkSize = 256 << 10

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendRecordLocked frames the scratch payload (uvarint length, payload,
// CRC) into the tail chunk, sealing it first if the frame does not fit.
// Requires l.mu.
func (l *Log) appendRecordLocked() {
	need := uvarintLen(uint64(len(l.payload))) + len(l.payload) + 4
	if cap(l.tail)-len(l.tail) < need {
		if len(l.tail) > 0 {
			l.chunks = append(l.chunks, l.tail)
			l.chunkBase = append(l.chunkBase, l.size-LSN(len(l.tail)))
		}
		c := chunkSize
		if need > c {
			c = need
		}
		l.tail = make([]byte, 0, c)
	}
	l.tail = binary.AppendUvarint(l.tail, uint64(len(l.payload)))
	l.tail = append(l.tail, l.payload...)
	l.tail = binary.LittleEndian.AppendUint32(l.tail, crc32.ChecksumIEEE(l.payload))
	l.size += LSN(need)
}

// copyRangeLocked appends the log bytes in [from, to) — absolute offsets at
// or past the recovered prefix — to dst. Requires l.mu.
func (l *Log) copyRangeLocked(dst []byte, from, to LSN) []byte {
	for i, c := range l.chunks {
		base, end := l.chunkBase[i], l.chunkBase[i]+LSN(len(c))
		if end <= from {
			continue
		}
		if base >= to {
			return dst
		}
		s, e := LSN(0), LSN(len(c))
		if from > base {
			s = from - base
		}
		if to < end {
			e = to - base
		}
		dst = append(dst, c[s:e]...)
	}
	tailBase := l.size - LSN(len(l.tail))
	if to > tailBase && from < l.size {
		s, e := LSN(0), l.size-tailBase
		if from > tailBase {
			s = from - tailBase
		}
		if to < l.size {
			e = to - tailBase
		}
		dst = append(dst, l.tail[s:e]...)
	}
	return dst
}

// Append encodes and appends rec, returning its end LSN. The record is not
// durable until a Force covers its LSN.
func (l *Log) Append(rec Record) LSN {
	if o := fault.Point("wal.append.crash"); o.Effect == fault.Crash {
		l.Crash()
	}
	l.mu.Lock()
	l.payload = encodePayload(l.payload[:0], rec)
	l.appendRecordLocked()
	l.stats.Records++
	lsn := l.size
	l.stats.Bytes = uint64(lsn)
	l.mu.Unlock()
	return lsn
}

// AppendForce appends rec and forces the log through it.
func (l *Log) AppendForce(rec Record) LSN {
	lsn := l.Append(rec)
	l.ForceTo(lsn)
	return lsn
}

// SetGroupWindow enables cross-caller group commit: when d > 0, a ForceTo
// whose LSN is not yet durable elects a leader that waits up to d for more
// appends to arrive, then issues one force covering the whole tail.
// Concurrent callers that land in the window ride the leader's force and
// never touch the disk (or pay the simulated latency) themselves. d bounds
// the extra commit latency a lone caller pays; 0 restores force-per-caller.
// Safe to call concurrently with forces.
func (l *Log) SetGroupWindow(d time.Duration) {
	l.gmu.Lock()
	l.groupWindow = d
	l.gmu.Unlock()
}

// GroupWindow returns the current group-commit window.
func (l *Log) GroupWindow() time.Duration {
	l.gmu.Lock()
	defer l.gmu.Unlock()
	return l.groupWindow
}

// Durable returns the durable watermark: every record ending at or below it
// survives a crash. One atomic load.
func (l *Log) Durable() LSN { return LSN(l.durable.Load()) }

// covered reports whether lsn is already durable — or never will be,
// because the log crashed or froze.
func (l *Log) covered(lsn LSN) bool {
	return l.Durable() >= lsn || l.crashed.Load()
}

// ForceTo makes the log durable through lsn. Memory-only logs advance the
// durable watermark and pay the simulated latency; disk-backed logs write
// and fsync under group commit — the caller that wins the flush mutex
// syncs everything appended so far, and concurrent callers whose LSN that
// sync covered return without touching the disk. With a group window set
// (SetGroupWindow), callers additionally batch behind a leader that waits
// out the window before forcing, so one sync covers every session that
// committed inside it.
func (l *Log) ForceTo(lsn LSN) {
	l.gmu.Lock()
	window := l.groupWindow
	if window <= 0 {
		l.gmu.Unlock()
		l.forceDirect(lsn)
		return
	}
	if l.gcond == nil {
		l.gcond = sync.NewCond(&l.gmu)
	}
	for {
		if l.covered(lsn) {
			l.gmu.Unlock()
			return
		}
		if l.gLeader {
			// A leader is collecting the current group; it will broadcast
			// after its force. Re-check coverage then — if its tail capture
			// raced our append, the next iteration elects us leader.
			l.gcond.Wait()
			continue
		}
		l.gLeader = true
		l.gmu.Unlock()

		// The collection window: appends (and followers) pile in while we
		// sleep. The crash point models dying here — followers queued, force
		// never issued — so recovery must compensate the whole group.
		time.Sleep(window)
		if o := fault.Point("wal.group.force.crash"); o.Effect == fault.Crash {
			l.Crash()
		}
		l.forceDirect(l.tailLSN())

		l.gmu.Lock()
		l.gLeader = false
		l.gcond.Broadcast()
	}
}

// forceDirect is the ungrouped force path: it makes the log durable through
// lsn immediately, coalescing only with forces already in flight.
func (l *Log) forceDirect(lsn LSN) {
	if l.covered(lsn) {
		return
	}
	if l.fs == nil {
		l.mu.Lock()
		if l.covered(lsn) {
			l.mu.Unlock()
			return
		}
		l.durable.Store(uint64(lsn))
		l.stats.Forces++
		l.mu.Unlock()
		l.payForceLatency()
		return
	}

	l.flushMu.Lock()
	l.mu.Lock()
	if l.covered(lsn) {
		// A concurrent leader's group commit covered us while we waited.
		l.mu.Unlock()
		l.flushMu.Unlock()
		return
	}
	// Group commit: take the whole appended tail, not just our record.
	tail := l.size
	l.flushBuf = l.copyRangeLocked(l.flushBuf[:0], l.fsWritten, tail)
	l.mu.Unlock()

	err := l.fs.write(l.flushBuf)
	if err == nil {
		err = l.fs.sync()
	}
	l.mu.Lock()
	if err != nil {
		// A write or sync failure (injected or real) means durability from
		// here on is gone; freeze the log exactly like a crash so recovery
		// sees only what made it to disk.
		l.ioErr = err
		l.crashed.Store(true)
		l.mu.Unlock()
		l.flushMu.Unlock()
		return
	}
	l.fsWritten = tail
	l.durable.Store(uint64(tail))
	l.stats.Forces++
	l.mu.Unlock()
	l.flushMu.Unlock()
	l.payForceLatency()
}

// payForceLatency charges the simulated force I/O time.
func (l *Log) payForceLatency() {
	if l.ForceLatency > 0 {
		time.Sleep(l.ForceLatency)
	}
}

// Force forces the whole log.
func (l *Log) Force() { l.ForceTo(l.tailLSN()) }

func (l *Log) tailLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Crash simulates a process kill: durability freezes at its current
// watermark. Later appends and forces still mutate the in-memory buffer
// (the doomed process keeps running until the harness stops it) but change
// nothing a recovery — DurableBytes, or reopening the directory — would
// see. Disk-backed logs also truncate the segment files to the synced
// prefix, discarding written-but-unsynced bytes the way a real crash
// discards the page cache.
func (l *Log) Crash() {
	l.mu.Lock()
	if l.crashed.Load() {
		l.mu.Unlock()
		return
	}
	l.crashed.Store(true)
	fs := l.fs
	l.mu.Unlock()
	if fs != nil {
		fs.freezeToSynced()
	}
}

// Crashed reports whether the log has taken a simulated crash (or frozen
// itself after an I/O error).
func (l *Log) Crashed() bool { return l.crashed.Load() }

// Err returns the first write/sync error the log absorbed, if any. The log
// freezes (as after Crash) rather than failing appends; the engine finds out
// at its durability wait (core.ErrLogFailed) and reports this error.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ioErr
}

// TornTail reports the tail damage Open found and truncated, or nil. Always
// nil for memory-only logs.
func (l *Log) TornTail() *ErrTornTail { return l.tornTail }

// Recovered returns the durable image Open read back from disk — the input
// to recovery analysis. Nil for memory-only logs (use DurableBytes after a
// simulated crash instead).
func (l *Log) Recovered() []byte { return l.prefix }

// Close flushes nothing (durability is the caller's responsibility via
// Force) and closes the segment files of a disk-backed log.
func (l *Log) Close() error {
	l.mu.Lock()
	fs := l.fs
	l.mu.Unlock()
	if fs == nil {
		return nil
	}
	return fs.close()
}

// Bytes returns a copy of the encoded log including any recovered prefix (a
// crash "snapshot" for recovery tests). Callers wanting only what survives
// a crash use DurableBytes.
func (l *Log) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]byte, 0, l.size)
	out = append(out, l.prefix...)
	return l.copyRangeLocked(out, LSN(len(l.prefix)), l.size)
}

// DurableBytes returns only the forced prefix of the log — what survives a
// crash.
func (l *Log) DurableBytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	durable := l.Durable()
	out := make([]byte, 0, durable)
	out = append(out, l.prefix...)
	if durable > LSN(len(l.prefix)) {
		out = l.copyRangeLocked(out, LSN(len(l.prefix)), durable)
	}
	return out
}

// Snapshot returns the counters.
func (l *Log) Snapshot() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// encodeRecord frames one record into dst — the allocating convenience
// used by tests; the Append hot path frames via the log's retained
// scratch instead.
func encodeRecord(dst []byte, r Record) []byte {
	payload := encodePayload(nil, r)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// encodePayload appends the record's frame payload to dst and returns it.
// Layout: uvarint payload length, payload, CRC32-IEEE of the payload
// (4 bytes little-endian) — the length and CRC are added by the framer.
// Payload: type byte, uvarint txn, type-specific fields. The per-record
// CRC is what makes a torn tail decidable: a complete frame whose checksum
// fails is corruption, not a mid-append crash.
func encodePayload(dst []byte, r Record) []byte {
	payload := dst
	payload = append(payload, byte(r.Type))
	payload = binary.AppendUvarint(payload, r.Txn)
	putString := func(s string) {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	putRow := func(row spi.Row) {
		if row == nil {
			payload = append(payload, 0)
			return
		}
		payload = append(payload, 1)
		payload = spi.MarshalRow(payload, row)
	}
	switch r.Type {
	case TBegin:
		putString(r.TxnType)
		if r.Global != 0 {
			// Shot stamp: appended only when present, so unstamped begin
			// records keep the pre-partition layout byte for byte.
			payload = binary.AppendUvarint(payload, r.Global)
			payload = binary.AppendVarint(payload, int64(r.Shot))
		}
	case TCoordBegin:
		putString(r.TxnType)
		payload = binary.AppendUvarint(payload, uint64(len(r.WorkArea)))
		payload = append(payload, r.WorkArea...)
	case TStepBegin, TCompBegin, TCoordShot:
		payload = binary.AppendVarint(payload, int64(r.Step))
	case TWrite:
		putString(r.Table)
		putString(string(r.PK))
		putRow(r.Before)
		putRow(r.After)
	case TEndOfStep:
		payload = binary.AppendVarint(payload, int64(r.Step))
		payload = binary.AppendUvarint(payload, uint64(len(r.WorkArea)))
		payload = append(payload, r.WorkArea...)
	case TCommit:
		if len(r.WorkArea) > 0 {
			// Appended only when present, so a plain commit record keeps its
			// two-byte layout.
			payload = binary.AppendUvarint(payload, uint64(len(r.WorkArea)))
			payload = append(payload, r.WorkArea...)
		}
	case TAbort, TCompDone, TCoordCommit, TCoordAbort:
	default:
		panic(fmt.Sprintf("wal: encoding unknown record type %d", r.Type))
	}
	return payload
}

// ErrTornTail reports that the log image ends in bytes that do not form
// complete, checksum-valid records. Replay delivers every record before
// Offset and stops cleanly there; the error tells the caller exactly what
// was dropped and whether it looks like a mid-append crash or mid-log
// corruption.
type ErrTornTail struct {
	// Offset is the byte offset of the first frame that could not be
	// delivered.
	Offset int64
	// DiscardedBytes is how many bytes from Offset to the end of the image
	// were dropped.
	DiscardedBytes int64
	// DiscardedRecords counts complete, CRC-valid records found after the
	// bad frame by continuing the length walk. Zero for a clean crash
	// tail; nonzero means a corrupt record mid-log cut off later records
	// that had themselves survived.
	DiscardedRecords int
	// Corrupt is true when the frame at Offset is structurally complete
	// but fails its CRC (or decodes to garbage) — damage, not a crash.
	// False means the image simply ends mid-frame.
	Corrupt bool
}

// Error implements error.
func (e *ErrTornTail) Error() string {
	kind := "torn tail"
	if e.Corrupt {
		kind = "corrupt record"
	}
	return fmt.Sprintf("wal: %s at offset %d (%d bytes, %d later records discarded)",
		kind, e.Offset, e.DiscardedBytes, e.DiscardedRecords)
}

// Clean reports whether the damage is consistent with a crash mid-append —
// a single incomplete frame at the very end — as opposed to corruption
// that destroyed records known to have been durable.
func (e *ErrTornTail) Clean() bool { return !e.Corrupt && e.DiscardedRecords == 0 }

// frame extracts the frame starting at off: payload bounds and whether the
// frame is structurally complete and CRC-valid. ok=false with
// complete=false means the frame runs past the end of data (torn);
// complete=true with ok=false means CRC failure (corrupt).
func frame(data []byte, off int) (payloadStart, payloadEnd int, complete, ok bool) {
	l, n := binary.Uvarint(data[off:])
	if n <= 0 || l > uint64(len(data)) {
		return 0, 0, false, false
	}
	payloadStart = off + n
	end := payloadStart + int(l) + 4 // payload + CRC
	if end > len(data) || end < off {
		return 0, 0, false, false
	}
	payloadEnd = payloadStart + int(l)
	sum := binary.LittleEndian.Uint32(data[payloadEnd : payloadEnd+4])
	return payloadStart, payloadEnd, true, crc32.ChecksumIEEE(data[payloadStart:payloadEnd]) == sum
}

// scanValid walks the frame structure of data and returns the length of
// the valid prefix, plus a torn-tail report if the image does not end on a
// clean record boundary.
func scanValid(data []byte) (int, *ErrTornTail) {
	off := 0
	for off < len(data) {
		_, end, complete, ok := frame(data, off)
		if complete && ok {
			off = end + 4
			continue
		}
		torn := &ErrTornTail{
			Offset:         int64(off),
			DiscardedBytes: int64(len(data) - off),
			Corrupt:        complete, // complete frame, bad CRC
		}
		if complete {
			// Count CRC-valid records after the corrupt one: the walk's
			// framing is still intact, so we know what the corruption cut
			// off.
			for next := end + 4; next < len(data); {
				_, nend, ncomplete, nok := frame(data, next)
				if !ncomplete || !nok {
					break
				}
				torn.DiscardedRecords++
				next = nend + 4
			}
		}
		return off, torn
	}
	return off, nil
}

// Replay decodes records from data in order, invoking fn for each. When the
// image does not end on a clean record boundary — a crash mid-append, a
// torn write, or corruption — Replay delivers every record before the
// damage and then returns *ErrTornTail describing what was dropped; the
// caller decides whether a non-Clean tear is acceptable. Errors from fn
// abort the replay and are returned as-is.
func Replay(data []byte, fn func(Record) error) error {
	valid, torn := scanValid(data)
	off := 0
	for off < valid {
		ps, pe, _, _ := frame(data, off)
		rec, err := decodeRecord(data[ps:pe])
		if err != nil {
			// A CRC-valid frame that does not decode is an encoder/decoder
			// mismatch, not disk damage; surface it loudly.
			return fmt.Errorf("wal: record at offset %d: %w", off, err)
		}
		off = pe + 4
		if err := fn(rec); err != nil {
			return err
		}
	}
	if torn != nil {
		return torn
	}
	return nil
}

func decodeRecord(p []byte) (Record, error) {
	var r Record
	if len(p) < 1 {
		return r, fmt.Errorf("empty payload")
	}
	r.Type = Type(p[0])
	p = p[1:]
	txn, n := binary.Uvarint(p)
	if n <= 0 {
		return r, fmt.Errorf("bad txn id")
	}
	r.Txn = txn
	p = p[n:]
	getString := func() (string, error) {
		l, n := binary.Uvarint(p)
		if n <= 0 || l > uint64(len(p)) || n+int(l) > len(p) {
			return "", fmt.Errorf("bad string")
		}
		s := string(p[n : n+int(l)])
		p = p[n+int(l):]
		return s, nil
	}
	getRow := func() (spi.Row, error) {
		if len(p) < 1 {
			return nil, fmt.Errorf("bad row flag")
		}
		present := p[0] == 1
		p = p[1:]
		if !present {
			return nil, nil
		}
		row, n, err := spi.UnmarshalRow(p)
		if err != nil {
			return nil, err
		}
		p = p[n:]
		return row, nil
	}
	var err error
	switch r.Type {
	case TBegin:
		if r.TxnType, err = getString(); err != nil {
			return r, err
		}
		if len(p) > 0 {
			// Optional shot stamp (multi-shot coordinator, DESIGN.md §16).
			g, n := binary.Uvarint(p)
			if n <= 0 {
				return r, fmt.Errorf("bad shot global id")
			}
			p = p[n:]
			v, n2 := binary.Varint(p)
			if n2 <= 0 {
				return r, fmt.Errorf("bad shot index")
			}
			r.Global, r.Shot = g, int32(v)
		}
	case TCoordBegin:
		if r.TxnType, err = getString(); err != nil {
			return r, err
		}
		l, n := binary.Uvarint(p)
		if n <= 0 || l > uint64(len(p)) || n+int(l) > len(p) {
			return r, fmt.Errorf("bad shot plan")
		}
		r.WorkArea = append([]byte(nil), p[n:n+int(l)]...)
	case TStepBegin, TCompBegin, TCoordShot:
		v, n := binary.Varint(p)
		if n <= 0 {
			return r, fmt.Errorf("bad step index")
		}
		r.Step = int32(v)
	case TWrite:
		if r.Table, err = getString(); err != nil {
			return r, err
		}
		var pk string
		if pk, err = getString(); err != nil {
			return r, err
		}
		r.PK = spi.Key(pk)
		if r.Before, err = getRow(); err != nil {
			return r, err
		}
		r.After, err = getRow()
	case TEndOfStep:
		v, n := binary.Varint(p)
		if n <= 0 {
			return r, fmt.Errorf("bad step index")
		}
		r.Step = int32(v)
		p = p[n:]
		l, n2 := binary.Uvarint(p)
		if n2 <= 0 || l > uint64(len(p)) || n2+int(l) > len(p) {
			return r, fmt.Errorf("bad work area")
		}
		r.WorkArea = append([]byte(nil), p[n2:n2+int(l)]...)
	case TCommit:
		if len(p) > 0 {
			l, n := binary.Uvarint(p)
			if n <= 0 || l > uint64(len(p)) || n+int(l) > len(p) {
				return r, fmt.Errorf("bad work area")
			}
			r.WorkArea = append([]byte(nil), p[n:n+int(l)]...)
		}
	case TAbort, TCompDone, TCoordCommit, TCoordAbort:
	default:
		return r, fmt.Errorf("unknown record type %d", uint8(r.Type))
	}
	return r, err
}
