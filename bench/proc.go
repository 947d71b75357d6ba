package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"proteus/internal/server"
)

// buildDirName is where everything the benchmark leaves behind lives,
// under the checkout root: the built server, Go's caches when run
// through run.sh, and one scratch directory per run.
const buildDirName = ".bench_build"

// findRoot walks up from the working directory to the checkout root —
// the directory holding the main module and cmd/proteus. The benchmark
// runs from the root (run.sh) or from bench/ (go -C bench run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "proteus", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (go.mod + cmd/proteus) at or above the working directory")
		}
		dir = parent
	}
}

// harness owns the built server binary and the run's scratch directory.
type harness struct {
	root   string
	bin    string
	runDir string
	// cur is the scratch directory of the end-to-end pass in progress
	// (WAL directories, the children's output); each pass gets a fresh one.
	cur  string
	pass int
	// children is every server this run started, so nothing outlives it;
	// mu guards it against abort, which runs on the signal goroutine.
	mu       sync.Mutex
	children []*child
}

// newPass gives the next end-to-end pass an empty scratch directory and
// returns the function that removes it.
func (h *harness) newPass() (func(), error) {
	h.pass++
	h.cur = filepath.Join(h.runDir, "pass"+strconv.Itoa(h.pass))
	if err := os.MkdirAll(h.cur, 0o755); err != nil {
		return nil, err
	}
	dir := h.cur
	return func() { _ = os.RemoveAll(dir) }, nil
}

// newHarness builds cmd/proteus once (a no-op when Go's cache is warm)
// and makes the scratch directory.
func newHarness(ctx context.Context) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, bin: filepath.Join(root, buildDirName, "bin", "proteus")}
	build := exec.CommandContext(ctx, "go", "build", "-o", h.bin, "./cmd/proteus")
	build.Dir = root
	build.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/proteus: %w\n%s", err, out)
	}
	h.runDir = filepath.Join(root, buildDirName, "run", strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(h.runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(h.runDir, 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

// close kills whatever is still running, waits for it, and removes the
// scratch directory.
func (h *harness) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.children {
		if !c.exited {
			_, _ = c.stop(syscall.SIGKILL)
		}
	}
	_ = os.RemoveAll(h.runDir)
}

// abort is close for an interrupted run: the main goroutine may be
// inside Wait on a child, so this only kills, and leaves the reaping to
// whoever inherits the orphans.
func (h *harness) abort() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.children {
		_ = c.cmd.Process.Kill()
	}
	_ = os.RemoveAll(h.runDir)
}

// fsName names the filesystem a path sits on, for the wal_fs line: the
// WAL's fsyncs are real, so which disk serves them is part of the result.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on a benchmark box is
// racing for ephemeral loopback ports in that window.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// child is one server process.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	execAt  time.Time
	outPath string
	errPath string
	exited  bool
}

// exitInfo is what the kernel reports about a finished child.
type exitInfo struct {
	wall   time.Duration // signal → exit
	cpu    time.Duration // user+sys over the child's whole life
	rssMiB float64       // ru_maxrss
}

// start execs the server on a free port with production defaults plus
// the flags the workload fixes. stdout and stderr go straight to files
// in the scratch directory: no goroutine of ours sits between the child
// and its output while a phase is being timed.
func (h *harness) start(w workload, tag, walDir string, speedup float64) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-serve", "-addr", addr,
		"-seed", strconv.Itoa(marketSeed), "-days", strconv.Itoa(marketDays),
		"-wal-dir", walDir,
		"-max-concurrent", strconv.Itoa(w.maxConcurrent),
		"-policy", w.policy,
		"-speedup", strconv.FormatFloat(speedup, 'g', -1, 64)}
	if w.forecast {
		args = append(args, "-forecast")
	}
	c := &child{
		cmd:     exec.Command(h.bin, args...),
		base:    "http://" + addr,
		outPath: filepath.Join(h.cur, tag+".out"),
		errPath: filepath.Join(h.cur, tag+".err"),
	}
	stdout, err := os.Create(c.outPath)
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.Create(c.errPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	c.cmd.Stdout, c.cmd.Stderr = stdout, stderr
	c.cmd.Dir = h.cur
	c.execAt = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", h.bin, err)
	}
	h.mu.Lock()
	h.children = append(h.children, c)
	h.mu.Unlock()
	return c, nil
}

// stop sends sig and waits for the process to end. SIGINT is the
// graceful drain and must exit 0; SIGKILL must die of exactly that.
func (c *child) stop(sig syscall.Signal) (exitInfo, error) {
	t0 := time.Now()
	if err := c.cmd.Process.Signal(sig); err != nil {
		return exitInfo{}, fmt.Errorf("signal %v: %w", sig, err)
	}
	err := c.cmd.Wait()
	info := exitInfo{wall: time.Since(t0)}
	c.exited = true
	ps := c.cmd.ProcessState
	if ps == nil {
		return info, fmt.Errorf("wait: %w", err)
	}
	info.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		info.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	ws, _ := ps.Sys().(syscall.WaitStatus)
	switch {
	case sig == syscall.SIGKILL && ws.Signaled() && ws.Signal() == syscall.SIGKILL:
	case sig != syscall.SIGKILL && ps.ExitCode() == 0:
	default:
		tail, _ := os.ReadFile(c.errPath)
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return info, fmt.Errorf("server ended with %v after %v; stderr tail:\n%s", ps, sig, tail)
	}
	return info, nil
}

// procStat returns the fields of /proc/<pid>/stat that follow the
// parenthesised command name: state first, utime and stime 12th and 13th.
func (c *child) procStat() []string {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return nil
	}
	return strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
}

// alive reports whether the child is still running. A child that exited
// but has not been waited for is a zombie, which kill(pid, 0) cannot tell
// from a live process; its stat line can.
func (c *child) alive() bool {
	f := c.procStat()
	return len(f) > 0 && f[0] != "Z" && f[0] != "X"
}

// cpuSoFar reads the live child's user+sys time from /proc (10 ms
// granularity), so a phase's CPU can be told apart from its wall time.
func (c *child) cpuSoFar() time.Duration {
	f := c.procStat()
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const hz = 100 // USER_HZ on every Linux the Go runtime supports
	return time.Duration(ut+st) * time.Second / hz
}

// conn is one client connection: an http.Client whose transport keeps a
// single keep-alive connection to the child.
type conn struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func (c *child) dial() *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{base: c.base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (k *conn) close() { k.tr.CloseIdleConnections() }

// do issues one request and reads the whole reply.
func (k *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, k.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := k.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// stats fetches /v1/stats.
func (k *conn) stats() (server.Stats, error) {
	var st server.Stats
	code, raw, err := k.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %d %s", code, raw)
	}
	return st, json.Unmarshal(raw, &st)
}

// waitStats polls /v1/stats until ok accepts a reply, and returns that
// reply with the time since the child's exec. Connection refusals while
// the child is still starting are retried; a child that died is not.
func (c *child) waitStats(k *conn, timeout time.Duration, ok func(server.Stats) bool) (server.Stats, time.Duration, error) {
	deadline := c.execAt.Add(timeout)
	for {
		st, err := k.stats()
		if err == nil && ok(st) {
			return st, time.Since(c.execAt), nil
		}
		if time.Now().After(deadline) {
			return st, 0, fmt.Errorf("server at %s not ready within %v (last error: %v)", c.base, timeout, err)
		}
		if !c.alive() {
			tail, _ := os.ReadFile(c.errPath)
			return st, 0, fmt.Errorf("server exited before becoming ready; stderr:\n%s", tail)
		}
		pause := 500 * time.Microsecond
		if err == nil {
			pause = 5 * time.Millisecond // up, just not there yet: poll gently
		}
		time.Sleep(pause)
	}
}
