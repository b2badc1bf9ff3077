package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir is where the benchmark leaves everything it writes: the accd
// binary, per-child scratch directories (ready file, WAL segments) and the
// trace files. It sits under bench/ so the checkout stays self-contained.
const outDir = "bench/out"

// repoRoot walks up from the working directory to the module root: the
// driver runs from the checkout root, `go test` from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module accdb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the accdb module (no go.mod found)")
		}
		dir = parent
	}
}

// buildAccd compiles cmd/accd from the checkout's own source into outDir and
// returns the binary's path. The go tool's cache makes every build after the
// first a staleness check.
func buildAccd(root string) (string, error) {
	bin := filepath.Join(root, outDir, "accd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/accd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/accd: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every live accd so a signal or a fatal error can take them
// all down: each runs in its own process group and is killed by group.
var children = struct {
	sync.Mutex
	live map[*accd]struct{}
}{live: map[*accd]struct{}{}}

// killChildren SIGKILLs every live accd's process group and removes its
// scratch directory. It is the last resort of the error and signal paths;
// the normal path is accd.stop.
func killChildren() {
	children.Lock()
	live := make([]*accd, 0, len(children.live))
	for a := range children.live {
		live = append(live, a)
	}
	children.Unlock()
	for _, a := range live {
		a.kill()
		a.reap(nil)
	}
}

// accd is one accd child process.
type accd struct {
	cmd     *exec.Cmd
	addr    string // wire address, read back from -ready-fd
	metrics string // /metrics address; empty when the child runs untraced
	dir     string // scratch directory, removed when the child is reaped
	stderr  bytes.Buffer
	exited  chan struct{} // closed once Wait returned
	waitErr error
	dog     *time.Timer
}

// accdLifetime bounds one child: set-up, warm-up, the longest measured
// interval the contract allows and the drain all fit with room to spare, so
// the watchdog only ever fires on a hang.
const accdLifetime = 120 * time.Second

// freeAddr returns a loopback address whose port was free a moment ago.
// accd's -metrics-addr needs a concrete port (it does not report the one it
// bound), so the port is probed here and handed over.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startAccd spawns bin with args plus the harness flags, waits for the
// -ready-fd handshake and returns the running child. traced adds
// -metrics-addr, which is also what turns accd's latency anatomy on; durable
// adds a -wal-dir inside the child's scratch directory.
func startAccd(root, bin string, seed int64, traced, durable bool, args ...string) (*accd, error) {
	if err := os.MkdirAll(filepath.Join(root, outDir), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, outDir), "accd-")
	if err != nil {
		return nil, err
	}
	a := &accd{dir: dir, exited: make(chan struct{})}
	ready := filepath.Join(dir, "ready")
	argv := append([]string{
		"-addr", "127.0.0.1:0", "-ready-fd", ready, "-seed", strconv.FormatInt(seed, 10),
	}, args...)
	if traced {
		if a.metrics, err = freeAddr(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		argv = append(argv, "-metrics-addr", a.metrics)
	}
	if durable {
		argv = append(argv, "-wal-dir", filepath.Join(dir, "wal"))
	}
	a.cmd = exec.Command(bin, argv...)
	a.cmd.Dir = dir
	a.cmd.Stderr = &a.stderr
	a.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := a.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("bench: start accd: %w", err)
	}
	children.Lock()
	children.live[a] = struct{}{}
	children.Unlock()
	go func() {
		a.waitErr = a.cmd.Wait()
		close(a.exited)
	}()
	a.dog = time.AfterFunc(accdLifetime, func() { syscall.Kill(-a.cmd.Process.Pid, syscall.SIGKILL) })

	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-a.exited:
			return nil, a.reap(fmt.Errorf("bench: accd exited before it was ready: %v", a.waitErr))
		case <-deadline:
			a.kill()
			return nil, a.reap(errors.New("bench: accd not ready after 20s"))
		case <-tick.C:
		}
		data, err := os.ReadFile(ready)
		if err != nil || !bytes.HasSuffix(data, []byte("\n")) {
			continue
		}
		if a.addr = strings.TrimSpace(string(data)); a.addr == "" {
			a.kill()
			return nil, a.reap(errors.New("bench: accd reported an empty ready address"))
		}
		return a, nil
	}
}

// kill SIGKILLs the child's process group and waits for it to be gone.
func (a *accd) kill() {
	syscall.Kill(-a.cmd.Process.Pid, syscall.SIGKILL)
	<-a.exited
}

// reap releases what the exited child held and returns cause with the
// child's stderr attached, so a failure is never reported without it.
func (a *accd) reap(cause error) error {
	a.dog.Stop()
	children.Lock()
	delete(children.live, a)
	children.Unlock()
	os.RemoveAll(a.dir)
	if cause == nil {
		return nil
	}
	return fmt.Errorf("%w\n--- accd stderr ---\n%s", cause, a.stderr.String())
}

// stop drains the child with SIGTERM and checks the two things that make a
// run's outputs correct on the server side: exit status 0 and the drain's
// twelve-condition TPC-C audit reporting "consistency check passed".
func (a *accd) stop() error {
	if err := a.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		a.kill()
		return a.reap(fmt.Errorf("bench: signal accd: %w", err))
	}
	select {
	case <-a.exited:
	case <-time.After(40 * time.Second): // accd's own drain bound is 30s
		a.kill()
		return a.reap(errors.New("bench: accd did not exit within 40s of SIGTERM"))
	}
	switch {
	case a.waitErr != nil:
		return a.reap(fmt.Errorf("bench: accd exit: %v", a.waitErr))
	case !strings.Contains(a.stderr.String(), "consistency check passed"):
		return a.reap(errors.New("bench: accd exited 0 without reporting a passed consistency check"))
	}
	return a.reap(nil)
}

// rssMB reads the child's peak resident set (VmHWM) in MiB.
func (a *accd) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", a.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}
