package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"accdb/internal/tpcc"
	"accdb/pkg/accclient"
)

// buildAccd compiles this package into the test's temp directory.
func buildAccd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "accd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// refused runs accd to completion and requires the refusal of a bad
// configuration: exit status 1, no panic, and stderr mentioning every want.
// It returns stderr.
func refused(t *testing.T, bin string, env []string, args []string, want ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("accd %v %v: want exit status 1, got %v; stderr:\n%s", env, args, err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("accd %v %v kept running instead of refusing; stderr:\n%s", env, args, stderr.String())
	}
	out := stderr.String()
	if strings.Contains(out, "panic:") {
		t.Errorf("accd %v %v panicked instead of refusing:\n%s", env, args, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("accd %v %v: stderr lacks %q:\n%s", env, args, w, out)
		}
	}
	return out
}

// TestRefusesBadPartitionCounts: neither the environment variable nor the
// flag is coerced to a one-partition deployment.
func TestRefusesBadPartitionCounts(t *testing.T) {
	bin := buildAccd(t)
	for _, c := range []struct {
		env, flag, want string
	}{
		{env: "ACCDB_PARTITIONS=abc", want: "ACCDB_PARTITIONS"},
		{env: "ACCDB_PARTITIONS=0", want: "ACCDB_PARTITIONS"},
		{env: "ACCDB_PARTITIONS=abc", flag: "2", want: "ACCDB_PARTITIONS"},
		{flag: "0", want: "at least one partition"},
		{flag: "-1", want: "at least one partition"},
	} {
		args := []string{"-addr", "127.0.0.1:0"}
		if c.flag != "" {
			args = append(args, "-partitions", c.flag)
		}
		env := "ACCDB_PARTITIONS=" // unset, whatever the test's own environment says
		if c.env != "" {
			env = c.env
		}
		refused(t, bin, []string{env}, args, c.want)
	}
}

// TestRefusesUnknownBackend: a store name the binary does not link — a typo,
// or a backend that no longer exists — is a one-line configuration error,
// the way a bad partition count is, not a panic.
func TestRefusesUnknownBackend(t *testing.T) {
	bin := buildAccd(t)
	for _, backend := range []string{"btre", "memstore"} {
		for _, parts := range []string{"1", "4"} {
			env := []string{"ACCDB_BACKEND=" + backend, "ACCDB_PARTITIONS="}
			out := refused(t, bin, env, []string{"-addr", "127.0.0.1:0", "-partitions", parts}, `"`+backend+`"`)
			if n := strings.Count(strings.TrimSpace(out), "\n") + 1; n != 1 {
				t.Errorf("%v -partitions %s: want a one-line error, got %d lines:\n%s", env, parts, n, out)
			}
		}
	}
}

// TestRefusesUnknownMode: -mode serves the paper's two schedulers, acc and
// baseline. The two-level dispatcher of the paper's earlier design is not one
// of them, and a name that never was, such as 2pl, is refused the same way.
func TestRefusesUnknownMode(t *testing.T) {
	bin := buildAccd(t)
	for _, mode := range []string{"two-level", "2pl"} {
		t.Run(mode, func(t *testing.T) {
			refused(t, bin, []string{"ACCDB_PARTITIONS="}, []string{"-addr", "127.0.0.1:0", "-mode", mode}, "unknown -mode", `"`+mode+`"`)
		})
	}
}

// serve starts accd with args (which name ready as the -ready-fd file) and
// returns once it listens: the process, its address and its stderr so far.
// The process is killed when the test ends, if it has not exited by then.
func serve(t *testing.T, bin, ready string, args []string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "ACCDB_PARTITIONS=")
	stderr := &bytes.Buffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if data, err := os.ReadFile(ready); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			return cmd, strings.TrimSpace(string(data)), stderr
		} else if time.Now().After(deadline) {
			t.Fatalf("accd not ready; stderr:\n%s", stderr.String())
		}
	}
}

// TestDebugLocksCoverEveryPartition: /debug/locks and /debug/waitsfor render
// the lock table of every partition, not only partition 0's.
func TestDebugLocksCoverEveryPartition(t *testing.T) {
	bin := buildAccd(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metrics := ln.Addr().String()
	ln.Close()
	ready := filepath.Join(t.TempDir(), "ready")
	serve(t, bin, ready, []string{"-addr", "127.0.0.1:0", "-partitions", "4", "-metrics-addr", metrics, "-ready-fd", ready})

	get := func(path string) string {
		resp, err := http.Get("http://" + metrics + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	locks := get("/debug/locks")
	for p := 0; p < 4; p++ {
		if want := fmt.Sprintf("partition %d lock table:", p); !strings.Contains(locks, want) {
			t.Errorf("/debug/locks lacks %q:\n%s", want, locks)
		}
	}
	if dot := get("/debug/waitsfor"); !strings.Contains(dot, "digraph waitsfor") {
		t.Errorf("/debug/waitsfor is no digraph:\n%s", dot)
	}
}

// TestRefusesUsedWALDir: accd serves a fresh -wal-dir, drains clean, and then
// refuses to start on the records it left — it would append a second history
// with transaction ids restarting at 1 — pointing at the directory and at
// examples/recovery.
func TestRefusesUsedWALDir(t *testing.T) {
	bin := buildAccd(t)
	dir := t.TempDir()
	walDir, ready := filepath.Join(dir, "wal"), filepath.Join(dir, "ready")
	args := []string{"-addr", "127.0.0.1:0", "-wal-dir", walDir, "-ready-fd", ready}

	cmd, addr, stderr := serve(t, bin, ready, args)
	cli, err := accclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	err = cli.Run(context.Background(), "payment", &tpcc.PaymentArgs{
		WID: 1, DID: 1, CWID: 1, CDID: 1, CID: 1, Amount: 500, HID: 1 << 30,
	})
	cli.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil || !strings.Contains(stderr.String(), "consistency check passed") {
		t.Fatalf("first run: exit %v; stderr:\n%s", err, stderr.String())
	}
	// One layout for every partition count: the single partition logs under p0.
	if segs, _ := filepath.Glob(filepath.Join(walDir, "p0", "*")); len(segs) == 0 {
		t.Fatalf("no segment files under %s/p0", walDir)
	}

	refused(t, bin, []string{"ACCDB_PARTITIONS="}, args, walDir, "examples/recovery")
}

// TestShortDeliveryFrame: a delivery whose work area is sized for no district
// is a well-formed frame; it is answered bad-request and the process keeps
// serving. With ACCD_SMOKE_ADDR set (the CI network smoke, which then reads
// accd_rpc_bad_requests_total) the frame goes to that running server instead
// of one started here.
func TestShortDeliveryFrame(t *testing.T) {
	addr := os.Getenv("ACCD_SMOKE_ADDR")
	if addr == "" {
		ready := filepath.Join(t.TempDir(), "ready")
		_, addr, _ = serve(t, buildAccd(t), ready, []string{"-addr", "127.0.0.1:0", "-ready-fd", ready})
	}
	cli, err := accclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Run(context.Background(), "delivery", &tpcc.DeliveryArgs{WID: 1}); !errors.Is(err, accclient.ErrBadRequest) {
		t.Fatalf("short delivery answered %v, want a bad request", err)
	}
	if err := cli.Run(context.Background(), "order_status", &tpcc.OrderStatusArgs{WID: 1, DID: 1, CID: 1}); err != nil {
		t.Fatalf("accd stopped serving: %v", err)
	}
}
