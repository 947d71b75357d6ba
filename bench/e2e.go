package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"proteus/internal/server"
)

// Shape of one end-to-end run. Every wall-clock phase is measured
// several times inside the run and the median reported: inside one run
// three repetitions of a 3–5 s phase differ by 3–28 % on the box this was
// written on. (What no repetition inside a run removes is in canary.go.)
const (
	// lifeAReps is how many times the deterministic life (post, drain,
	// recover) is repeated on fresh WAL directories.
	lifeAReps = 3
	// probesPerLife is how many extra servers are started only to time
	// start-up before each deterministic life, on top of the life's own
	// start: 21 samples spread over the whole run. (The median of 9 samples
	// spread 17–20 % between runs, that of 19 spread 12–16 %.)
	probesPerLife = 6
	// idleSubmits is how many single POSTs the first probe sends to an
	// otherwise idle server (a diagnostic, not an end-to-end metric).
	idleSubmits = 200
	// readyTimeout bounds every wait for a server to answer or catch up.
	readyTimeout = 90 * time.Second
	// walSegmentBytes is the server's default -wal-segment-mb, which the
	// benchmark does not override.
	walSegmentBytes = 4 << 20
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// tally counts one phase's operations.
type tally struct {
	name      string
	attempted int
	failed    int
}

// report collects what a run measured and what it found wrong.
type report struct {
	metrics  []metric
	tallies  []*tally
	problems []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) tally(name string) *tally {
	for _, t := range r.tallies {
		if t.name == name {
			return t
		}
	}
	t := &tally{name: name}
	r.tallies = append(r.tallies, t)
	return t
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) get(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// e2eSamples is the raw material of the end-to-end metrics: one value
// per repetition, reduced by median (or max) at the end.
type e2eSamples struct {
	setup                []float64
	drain, recover       []timedPhase
	drainCPU, recoverCPU []float64
	rssFirst, rssRecov   []float64
	walBytes, walRecords []float64
	snapshots, syncs     []float64
	bills                []*accounting
	// Life B, once, in the runs that have one.
	submitMS, readMS []float64
	busyElapsed      time.Duration
	busyVirtualH     float64
	rssBusy          float64
}

// runE2E drives the real server binary, with tracing off, through reps
// deterministic lives and fills the report with every end-to-end metric
// plus the diagnostics that only a real process can give (CPU, RSS).
// With busy > 0 it adds one busy life with a closed-loop window that
// long, for the latencies under load and the crash check; the bounded
// metrics need neither, and the 70 acceptance runs have 57 minutes.
func runE2E(h *harness, w workload, seed int64, reps int, busy time.Duration, rep *report) error {
	entries := w.generate(seed)
	bodies, err := postBodies(entries)
	if err != nil {
		return err
	}
	var s e2eSamples
	cleanup, err := h.newPass()
	if err != nil {
		return err
	}
	defer cleanup()

	for i := 0; i < reps; i++ {
		for j := 0; j < probesPerLife; j++ {
			if err := h.setupProbe(w, i*probesPerLife+j, &s, rep); err != nil {
				return fmt.Errorf("setup probe %d: %w", i*probesPerLife+j, err)
			}
		}
		if err := h.lifeA(w, i, bodies, &s, rep); err != nil {
			return fmt.Errorf("life A, repetition %d: %w", i, err)
		}
	}
	if busy > 0 {
		busyBodies, err := postBodies(repeatMix(entries, lifeBCopies))
		if err != nil {
			return err
		}
		if err := h.lifeB(w, busyBodies, busy, &s, rep); err != nil {
			return fmt.Errorf("life B: %w", err)
		}
	}

	// The bill is a function of the seed: every repetition must print the
	// same one.
	for i := 1; i < len(s.bills); i++ {
		if d := diffAccounting(s.bills[0], s.bills[i]); d != "" {
			rep.problem("final accounting differs between repetition 0 and %d:\n%s", i, d)
		}
	}

	jobs := float64(len(entries))
	rep.add("setup_s", median(s.setup), "s")
	rep.add("drain_s", median(atReference(s.drain)), refSeconds)
	rep.add("recover_s", median(atReference(s.recover)), refSeconds)
	rep.add("wal_bytes_per_job", median(s.walBytes)/jobs, "B/job")
	rep.add("peak_rss_mb", math.Max(maxOf(s.rssFirst), maxOf(s.rssRecov)), "MiB")
	if len(s.bills) > 0 {
		rep.add("cost_usd_per_kcoreh", s.bills[0].totalUSD/(coreHours(entries)/1000), "USD/kcoreh")
		rep.add("sched.makespan_vh", s.bills[0].makespanH, "h")
		rep.add("sched.rebalances", float64(s.bills[0].rebalances), "count")
	}
	if busy > 0 {
		rep.add("busy_submit_p50_ms", quantile(s.submitMS, 0.50), "ms")
		rep.add("busy_submit_p95_ms", quantile(s.submitMS, 0.95), "ms")
		rep.add("busy_read_p95_ms", quantile(s.readMS, 0.95), "ms")
		rep.add("server.busy_submit_p99_ms", quantile(s.submitMS, 0.99), "ms")
		rep.add("server.busy_read_p50_ms", quantile(s.readMS, 0.50), "ms")
		rep.add("server.busy_read_p99_ms", quantile(s.readMS, 0.99), "ms")
		rep.add("server.busy_ops_per_s", float64(len(s.submitMS)+len(s.readMS))/s.busyElapsed.Seconds(), "1/s")
		rep.add("server.busy_submit_samples", float64(len(s.submitMS)), "count")
		rep.add("server.busy_read_samples", float64(len(s.readMS)), "count")
		rep.add("server.busy_virtual_h", s.busyVirtualH, "h")
		rep.add("proc.rss_busy_mb", s.rssBusy, "MiB")
	}
	rep.add("proc.drain_wall_s", median(walls(s.drain)), "s")
	rep.add("proc.recover_wall_s", median(walls(s.recover)), "s")
	rep.add("proc.drain_cpu_s", median(s.drainCPU), "s")
	rep.add("proc.recover_cpu_s", median(s.recoverCPU), "s")
	rep.add("proc.rss_first_mb", median(s.rssFirst), "MiB")
	rep.add("proc.rss_recovered_mb", median(s.rssRecov), "MiB")
	rep.add("wal.records_per_job", median(s.walRecords)/jobs, "1/job")
	rep.add("wal.snapshots", median(s.snapshots), "count")
	rep.add("wal.syncs", median(s.syncs), "count")
	rep.add("bench.canary_ms", 1000*median(chunks(s.drain, s.recover)), "ms")
	return nil
}

// setupProbe starts a server on a fresh WAL directory, times exec →
// first 200 from /v1/stats (trace synthesis, β training, WAL create,
// listener), and kills it. The first probe also measures single-POST
// latency against the idle server.
func (h *harness) setupProbe(w workload, i int, s *e2eSamples, rep *report) error {
	tag := fmt.Sprintf("probe%d", i)
	c, err := h.start(w, tag, filepath.Join(h.cur, tag, "wal"), 60)
	if err != nil {
		return err
	}
	k := c.dial()
	defer k.close()
	_, took, err := c.waitStats(k, readyTimeout, func(server.Stats) bool { return true })
	if err != nil {
		return err
	}
	s.setup = append(s.setup, seconds(took))
	if i == 0 {
		// Far-future arrivals: the paced engine has nothing to do, so this
		// is the submit path alone (decode, Submit, WAL append, fsync).
		lat := make([]float64, 0, idleSubmits)
		posts := rep.tally("posts")
		for j := 0; j < idleSubmits; j++ {
			t0 := time.Now()
			code, raw, err := k.do(http.MethodPost, "/v1/jobs", []byte(`{"hours":0.1,"arrival_minutes":600}`))
			d := time.Since(t0)
			posts.attempted++
			if err != nil || code != http.StatusAccepted {
				posts.failed++
				rep.problem("idle POST %d: code %d err %v body %s", j, code, err, raw)
				continue
			}
			lat = append(lat, millis(d))
		}
		rep.add("server.submit_idle_p50_ms", quantile(lat, 0.50), "ms")
		rep.add("server.submit_idle_p99_ms", quantile(lat, 0.99), "ms")
	}
	_, err = c.stop(syscall.SIGKILL)
	return err
}

// postAll bulk-POSTs the job set over one connection and checks every
// batch was accepted whole.
func postAll(k *conn, bodies [][]byte, rep *report) (accepted int) {
	posts := rep.tally("posts")
	for i, b := range bodies {
		code, raw, err := k.do(http.MethodPost, "/v1/jobs", b)
		posts.attempted++
		var sr server.SubmitResponse
		if err == nil {
			err = json.Unmarshal(raw, &sr)
		}
		if err != nil || code != http.StatusAccepted {
			posts.failed++
			rep.problem("bulk POST %d: code %d err %v body %.200s", i, code, err, raw)
			continue
		}
		accepted += len(sr.Accepted)
	}
	return accepted
}

var walLineRE = regexp.MustCompile(`wal: (\d+) records durable \((\d+) submissions, (\d+) syncs, (\d+) snapshots\)`)

// lifeA is the deterministic life: post everything ahead of its arrival
// time, SIGINT, time the drain, restart on the log, time the recovery,
// and compare the two bills.
func (h *harness) lifeA(w workload, i int, bodies [][]byte, s *e2eSamples, rep *report) error {
	tag := fmt.Sprintf("a%d", i)
	walDir := filepath.Join(h.cur, tag, "wal")
	c, err := h.start(w, tag, walDir, 60)
	if err != nil {
		return err
	}
	k := c.dial()
	defer k.close()
	_, took, err := c.waitStats(k, readyTimeout, func(server.Stats) bool { return true })
	if err != nil {
		return err
	}
	s.setup = append(s.setup, seconds(took))

	accepted := postAll(k, bodies, rep)
	st, err := k.stats()
	if err != nil {
		return err
	}
	if accepted != w.jobs || st.Jobs != w.jobs {
		rep.problem("life A: posted %d jobs, %d accepted, server holds %d", w.jobs, accepted, st.Jobs)
	}
	if st.Pending != st.Jobs {
		// A job already arrived: posting took longer than the virtual lead,
		// so arrivals may have been clamped and the history is not a
		// function of the seed any more.
		rep.problem("life A: %d of %d jobs had arrived before the drain began (virtual minute %.1f)",
			st.Jobs-st.Pending, st.Jobs, st.VirtualMinutes)
	}

	k.close() // idle keep-alives would only delay the server's shutdown
	before := canaryReading()
	cpu0 := c.cpuSoFar()
	info, err := c.stop(syscall.SIGINT)
	if err != nil {
		return err
	}
	between := canaryReading()
	s.drain = append(s.drain, bracket(info.wall, before, between))
	s.drainCPU = append(s.drainCPU, seconds(info.cpu-cpu0))
	s.rssFirst = append(s.rssFirst, info.rssMiB)

	first, err := h.bill(c)
	if err != nil {
		return fmt.Errorf("first life: %w", err)
	}
	terminal := rep.tally("jobs_terminal")
	terminal.attempted += len(first.rows)
	if n := first.nonTerminal(); n > 0 {
		terminal.failed += n
		rep.problem("life A: %d of %d jobs were not terminal in the final accounting", n, len(first.rows))
	}
	if len(first.rows) != w.jobs {
		rep.problem("life A: final accounting lists %d jobs, posted %d", len(first.rows), w.jobs)
	}
	if err := h.walFootprint(c, walDir, s); err != nil {
		return err
	}

	// Second life on the same log: decode + re-simulation + first request.
	c2, err := h.start(w, tag+"r", walDir, 60)
	if err != nil {
		return err
	}
	k2 := c2.dial()
	defer k2.close()
	// "Caught up" is read from the job counts, not from catching_up: that
	// flag reads false in the instant between the listener opening and
	// Serve starting, and stays true for ever when the log's last record
	// is later than the last job's completion (a drain that waited for a
	// refund), because virtual time stops once every job is terminal. The
	// end of this history is every job terminal, and that is observable.
	st2, took, err := c2.waitStats(k2, readyTimeout, func(st server.Stats) bool {
		return st.Recovered && st.Jobs > 0 && st.Done+st.Expired == st.Jobs
	})
	if err != nil {
		return err
	}
	s.recover = append(s.recover, bracket(took, between, canaryReading()))
	s.recoverCPU = append(s.recoverCPU, seconds(c2.cpuSoFar()))
	if st2.Done+st2.Expired != w.jobs || st2.RecoveredJobs != w.jobs {
		rep.problem("recovered life: %d done + %d expired of %d recovered, posted %d",
			st2.Done, st2.Expired, st2.RecoveredJobs, w.jobs)
	}
	k2.close()
	info2, err := c2.stop(syscall.SIGINT)
	if err != nil {
		return err
	}
	s.rssRecov = append(s.rssRecov, info2.rssMiB)
	second, err := h.bill(c2)
	if err != nil {
		return fmt.Errorf("recovered life: %w", err)
	}
	if d := diffAccounting(first, second); d != "" {
		rep.problem("repetition %d: the recovered life's final accounting differs from the first life's:\n%s", i, d)
	}
	s.bills = append(s.bills, first)
	return nil
}

// bill parses the final accounting a drained child printed.
func (h *harness) bill(c *child) (*accounting, error) {
	out, err := os.ReadFile(c.outPath)
	if err != nil {
		return nil, err
	}
	return parseAccounting(out)
}

// walFootprint records what the first life wrote: the record count from
// the server's own exit line, and the bytes appended — every rotation
// closed one full segment, and the segments still on disk are the rest.
func (h *harness) walFootprint(c *child, walDir string, s *e2eSamples) error {
	errOut, err := os.ReadFile(c.errPath)
	if err != nil {
		return err
	}
	m := walLineRE.FindSubmatch(errOut)
	if m == nil {
		return fmt.Errorf("no \"wal: … records durable\" line in the server's log")
	}
	records, _ := strconv.ParseFloat(string(m[1]), 64)
	syncs, _ := strconv.ParseFloat(string(m[3]), 64)
	snaps, _ := strconv.ParseFloat(string(m[4]), 64)
	des, err := os.ReadDir(walDir)
	if err != nil {
		return err
	}
	var live int64
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), "wal-") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			return err
		}
		live += fi.Size()
	}
	s.walRecords = append(s.walRecords, records)
	s.syncs = append(s.syncs, syncs)
	s.snapshots = append(s.snapshots, snaps)
	s.walBytes = append(s.walBytes, snaps*walSegmentBytes+float64(live))
	return nil
}

// loopResult is what one closed-loop client saw.
type loopResult struct {
	ms        []float64 // latency of every request that succeeded
	attempted int
	failed    int
	problems  []string // the first few failures, for the report
}

// closedLoop calls op back to back until the deadline — the next request
// leaves only when the previous reply is in — and times each call.
func closedLoop(deadline time.Time, op func(i int) error) loopResult {
	var r loopResult
	for i := 0; time.Now().Before(deadline); i++ {
		t := time.Now()
		err := op(i)
		d := time.Since(t)
		r.attempted++
		if err != nil {
			r.failed++
			if len(r.problems) < 3 {
				r.problems = append(r.problems, err.Error())
			}
			continue
		}
		r.ms = append(r.ms, millis(d))
	}
	return r
}

func (r loopResult) into(rep *report, phase string) {
	t := rep.tally(phase)
	t.attempted += r.attempted
	t.failed += r.failed
	rep.problems = append(rep.problems, r.problems...)
}

// lifeB is the busy life: the engine runs unpaced over the preloaded
// job set while one closed-loop writer and one closed-loop reader, one
// connection each, time their requests; then SIGKILL, and the restarted
// server must still know every job it acknowledged.
func (h *harness) lifeB(w workload, bodies [][]byte, window time.Duration, s *e2eSamples, rep *report) error {
	walDir := filepath.Join(h.cur, "b", "wal")
	c, err := h.start(w, "b", walDir, 0)
	if err != nil {
		return err
	}
	kw, kr := c.dial(), c.dial()
	defer kw.close()
	defer kr.close()
	_, took, err := c.waitStats(kw, readyTimeout, func(server.Stats) bool { return true })
	if err != nil {
		return err
	}
	s.setup = append(s.setup, seconds(took))
	preloaded := w.jobs * lifeBCopies
	if n := postAll(kw, bodies, rep); n != preloaded {
		rep.problem("life B: preloaded %d jobs, %d accepted", preloaded, n)
	}

	acked := make(map[int]bool, preloaded+8192)
	for id := 0; id < preloaded; id++ {
		acked[id] = true
	}
	t0 := time.Now()
	deadline := t0.Add(window)
	var writer, reader loopResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // single-entry POSTs, arrival "now"
		defer wg.Done()
		body := []byte(`{"hours":0.1}`)
		writer = closedLoop(deadline, func(int) error {
			code, raw, err := kw.do(http.MethodPost, "/v1/jobs", body)
			var sr server.SubmitResponse
			if err == nil {
				err = json.Unmarshal(raw, &sr)
			}
			if err != nil || code != http.StatusAccepted || len(sr.Accepted) != 1 {
				return fmt.Errorf("busy POST: code %d err %v body %.200s", code, err, raw)
			}
			acked[sr.Accepted[0]] = true
			return nil
		})
	}()
	go func() { // status of preloaded jobs, striding over the IDs
		defer wg.Done()
		reader = closedLoop(deadline, func(i int) error {
			id := (i * 7919) % preloaded
			code, raw, err := kr.do(http.MethodGet, "/v1/jobs/"+strconv.Itoa(id), nil)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("busy GET job %d: code %d err %v body %.200s", id, code, err, raw)
			}
			return nil
		})
	}()
	wg.Wait()
	elapsed := time.Since(t0)
	writer.into(rep, "posts")
	reader.into(rep, "reads")
	submitMS, readMS := writer.ms, reader.ms

	st, err := kw.stats()
	if err != nil {
		return err
	}
	if st.Running == 0 || st.Draining {
		rep.problem("life B: the engine was not busy at the end of the window (running %d, draining %v, done %d of %d): "+
			"the latencies were not measured under load", st.Running, st.Draining, st.Done, st.Jobs)
	}
	if len(submitMS) < 200 || len(readMS) < 200 {
		rep.problem("life B: only %d submit and %d read samples; p95 needs at least 200", len(submitMS), len(readMS))
	}
	s.submitMS, s.readMS = submitMS, readMS
	s.busyElapsed = elapsed
	s.busyVirtualH = st.VirtualMinutes / 60

	kw.close()
	kr.close()
	info, err := c.stop(syscall.SIGKILL)
	if err != nil {
		return err
	}
	s.rssBusy = info.rssMiB

	// Crash recovery: every acknowledged job must be back. The replayed
	// submissions are in the scheduler before the listener opens, so the
	// check does not wait for the catch-up.
	c2, err := h.start(w, "br", walDir, 0)
	if err != nil {
		return err
	}
	k2 := c2.dial()
	defer k2.close()
	if _, _, err := c2.waitStats(k2, readyTimeout, func(st server.Stats) bool { return st.Recovered }); err != nil {
		return err
	}
	code, raw, err := k2.do(http.MethodGet, "/v1/jobs", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs after the crash: code %d err %v", code, err)
	}
	var list []server.JobStatus
	if err := json.Unmarshal(raw, &list); err != nil {
		return fmt.Errorf("GET /v1/jobs after the crash: %w", err)
	}
	back := make(map[int]bool, len(list))
	for _, js := range list {
		back[js.ID] = true
	}
	ids := rep.tally("recovered_ids")
	lost := 0
	for id := range acked {
		ids.attempted++
		if !back[id] {
			ids.failed++
			lost++
		}
	}
	if lost > 0 {
		rep.problem("life B: %d of %d acknowledged jobs were lost across SIGKILL", lost, len(acked))
	}
	k2.close()
	_, err = c2.stop(syscall.SIGKILL)
	return err
}
