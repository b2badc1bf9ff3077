package wal

// Disk backend: the log as a sequence of append-only segment files
// (wal-000001.seg, wal-000002.seg, ...) whose concatenation is the byte
// stream Replay walks. Segments rotate at a size threshold; rotation fsyncs
// the finished segment, so only the last segment can hold unsynced bytes.
// Open reads every segment back, truncates a torn tail at the first
// damaged frame (the §3.4 crash rule: everything after the damage never
// happened), and reports what it discarded.
//
// Every durability transition carries a fault injection point, declared in
// init below; the crash matrix arms each in turn.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"accdb/internal/fault"
)

func init() {
	fault.Declare("wal.append.crash", fault.Crash,
		"process dies between log appends: the buffered (unforced) tail is lost")
	fault.Declare("wal.write.partial", fault.Torn,
		"torn write: only a prefix of the flush makes it into the segment file before the crash")
	fault.Declare("wal.write.error", fault.Error,
		"write(2) to the segment file fails; the log freezes durability")
	fault.Declare("wal.segment.rotate.crash", fault.Crash,
		"process dies at a segment rotation, after the old segment's final sync")
	fault.Declare("wal.sync.crash", fault.Crash,
		"process dies before fsync: written-but-unsynced bytes vanish with the page cache")
	fault.Declare("wal.sync.error", fault.Error,
		"fsync fails (fsyncgate): the log must not trust anything written since the last sync")
	fault.Declare("wal.sync.delay", fault.Delay,
		"slow fsync stalls group commit, widening the window other terminals pile into")
	fault.Declare("wal.group.force.crash", fault.Crash,
		"process dies inside the group-commit window: followers queued behind the leader, but the group's force never happened")
}

// segment file naming.
const segPrefix, segSuffix = "wal-", ".seg"

func segName(seq int) string { return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix) }

// fileStorage is the segment-file backend of a disk-backed Log. All methods
// are safe for concurrent use; the Log's flush mutex already serializes
// write/sync pairs, so the internal mutex mostly guards freeze.
type fileStorage struct {
	dir      string
	segLimit int64

	mu     sync.Mutex
	f      *os.File // current segment
	seq    int
	segOff int64 // bytes written to current segment
	synced int64 // bytes of current segment known durable
	frozen bool
}

// errCrashed is returned by frozen storage so the Log stops advancing its
// durable watermark; it never reaches users.
var errCrashed = fmt.Errorf("wal: storage frozen by simulated crash")

// openDir opens (or creates) the segment directory and returns the backend
// plus the concatenated byte image of every segment, untruncated — the
// caller scans it for a torn tail and calls truncateTo.
func openDir(dir string, segLimit int64) (*fileStorage, []byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	names, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	var image []byte
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		image = append(image, b...)
	}
	fs := &fileStorage{dir: dir, segLimit: segLimit}
	if len(names) == 0 {
		if err := fs.openSegment(1); err != nil {
			return nil, nil, err
		}
		return fs, nil, nil
	}
	last := names[len(names)-1]
	fmt.Sscanf(last, segPrefix+"%d"+segSuffix, &fs.seq)
	f, err := os.OpenFile(filepath.Join(dir, last), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	fs.f, fs.segOff, fs.synced = f, st.Size(), st.Size()
	return fs, image, nil
}

func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && len(n) > len(segPrefix)+len(segSuffix) &&
			n[:len(segPrefix)] == segPrefix && filepath.Ext(n) == segSuffix {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// truncateTo cuts the on-disk image down to validLen bytes (a global offset
// into the segment concatenation): the segment containing validLen is
// physically truncated and every later segment is removed. Called by Open
// after the torn-tail scan, before any new append.
func (fs *fileStorage) truncateTo(names []string, sizes []int64, validLen int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var start int64
	cut := -1
	for i, name := range names {
		end := start + sizes[i]
		path := filepath.Join(fs.dir, name)
		switch {
		case cut >= 0:
			if err := os.Remove(path); err != nil {
				return err
			}
		case validLen <= end:
			cut = i
			if err := os.Truncate(path, validLen-start); err != nil {
				return err
			}
		}
		start = end
	}
	if cut < 0 {
		return nil
	}
	// Reopen the now-last segment for append.
	if fs.f != nil {
		fs.f.Close()
	}
	fmt.Sscanf(names[cut], segPrefix+"%d"+segSuffix, &fs.seq)
	f, err := os.OpenFile(filepath.Join(fs.dir, names[cut]), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	fs.f, fs.segOff, fs.synced = f, st.Size(), st.Size()
	return nil
}

func (fs *fileStorage) openSegment(seq int) error {
	f, err := os.OpenFile(filepath.Join(fs.dir, segName(seq)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	fs.f, fs.seq, fs.segOff, fs.synced = f, seq, 0, 0
	return nil
}

// write appends p to the segment stream, rotating when the current segment
// is full. Fault points: wal.write.partial (torn write then freeze),
// wal.write.error, wal.segment.rotate.crash.
func (fs *fileStorage) write(p []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return errCrashed
	}
	if fs.segOff >= fs.segLimit {
		// Rotation: the finished segment is made fully durable first, so
		// only the last segment ever holds unsynced bytes.
		if err := fs.f.Sync(); err != nil {
			fs.freezeLocked(fs.synced)
			return err
		}
		fs.synced = fs.segOff
		if o := fault.Point("wal.segment.rotate.crash"); o.Effect == fault.Crash {
			fs.freezeLocked(fs.segOff)
			return errCrashed
		}
		if err := fs.f.Close(); err != nil {
			return err
		}
		if err := fs.openSegment(fs.seq + 1); err != nil {
			return err
		}
	}
	switch o := fault.Point("wal.write.partial"); o.Effect {
	case fault.Torn:
		keep := int(float64(len(p)) * o.KeepFrac)
		fs.f.Write(p[:keep])
		fs.f.Sync() // the fragment is the artifact under test: make it survive
		fs.freezeLocked(fs.segOff + int64(keep))
		return errCrashed
	case fault.Crash:
		fs.freezeLocked(fs.synced)
		return errCrashed
	}
	if o := fault.Point("wal.write.error"); o.Effect == fault.Error {
		fs.freezeLocked(fs.synced)
		return o.Err
	}
	n, err := fs.f.Write(p)
	fs.segOff += int64(n)
	if err != nil {
		fs.freezeLocked(fs.synced)
		return err
	}
	return nil
}

// sync makes everything written durable. Fault points: wal.sync.delay,
// wal.sync.crash (die before the fsync: unsynced bytes vanish),
// wal.sync.error.
func (fs *fileStorage) sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return errCrashed
	}
	if o := fault.Point("wal.sync.delay"); o.Effect == fault.Delay {
		time.Sleep(o.Delay)
	}
	if o := fault.Point("wal.sync.crash"); o.Effect == fault.Crash {
		fs.freezeLocked(fs.synced)
		return errCrashed
	}
	if o := fault.Point("wal.sync.error"); o.Effect == fault.Error {
		fs.freezeLocked(fs.synced)
		return o.Err
	}
	if err := fs.f.Sync(); err != nil {
		fs.freezeLocked(fs.synced)
		return err
	}
	fs.synced = fs.segOff
	return nil
}

// freezeToSynced simulates the crash outcome from outside (Log.Crash): the
// current segment is truncated back to its synced length, discarding bytes
// that only the doomed process's page cache ever saw.
func (fs *fileStorage) freezeToSynced() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.frozen {
		fs.freezeLocked(fs.synced)
	}
}

// freezeLocked marks the storage dead and truncates the current segment to
// keep bytes, which becomes the exact on-disk image recovery will read.
// Requires fs.mu.
func (fs *fileStorage) freezeLocked(keep int64) {
	fs.frozen = true
	if fs.f != nil {
		fs.f.Truncate(keep)
		fs.f.Sync()
	}
}

func (fs *fileStorage) close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return nil
	}
	err := fs.f.Close()
	fs.f = nil
	return err
}

// Options configure Open.
type Options struct {
	// SegmentSize is the rotation threshold in bytes (default 1 MiB).
	SegmentSize int64
	// ForceLatency adds simulated latency on top of the real fsync
	// (default 0 for disk-backed logs).
	ForceLatency time.Duration
	// GroupWindow enables cross-caller group commit: a force leader waits
	// up to this long for concurrent commits before issuing one shared
	// sync (see Log.SetGroupWindow). 0 disables batching.
	GroupWindow time.Duration
}

// Open opens (creating if needed) a disk-backed log in dir. It reads every
// segment back, truncates the on-disk image at the first damaged frame —
// the torn-tail rule: a crash mid-append leaves a partial record that never
// happened — and returns a log whose Recovered() image feeds recovery and
// whose TornTail() reports what, if anything, was cut. New appends continue
// the LSN space after the recovered image.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = 1 << 20
	}
	names, err := listSegments(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	fs, image, err := openDir(dir, opt.SegmentSize)
	if err != nil {
		return nil, err
	}
	valid, torn := scanValid(image)
	if torn != nil {
		sizes := make([]int64, len(names))
		for i, name := range names {
			st, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				fs.close()
				return nil, err
			}
			sizes[i] = st.Size()
		}
		if err := fs.truncateTo(names, sizes, int64(valid)); err != nil {
			fs.close()
			return nil, err
		}
		image = image[:valid]
	}
	l := &Log{
		ForceLatency: opt.ForceLatency,
		groupWindow:  opt.GroupWindow,
		prefix:       image,
		size:         LSN(valid),
		fsWritten:    LSN(valid),
		fs:           fs,
		tornTail:     torn,
	}
	l.durable.Store(uint64(valid))
	return l, nil
}
