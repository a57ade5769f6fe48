package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// runEndToEnd is the untraced run: setupRepeats fresh sessions (setup_s is
// their median), the load on the last one, the post-load probe, the
// quiesced final checks, and a graceful shutdown.
func runEndToEnd(o options, dir string, logf *os.File) (*report, *e2e, error) {
	var setups []float64
	var s *session
	var w workload
	for i := 0; i < setupRepeats; i++ {
		var err error
		if w, err = newWorkload(o.workload, o.seed); err != nil {
			return nil, nil, err
		}
		sess, d, err := startSession(o.sketchd, dir, i, logf, w)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			if err := sess.stop(); err != nil {
				return nil, nil, err
			}
			continue
		}
		s = sess
	}
	e := &e2e{}
	steal0 := readCPUStat()
	cpu0, err := processCPU(s.d.pid())
	if err != nil {
		return nil, e, err
	}
	if err := w.load(s, time.Duration(o.seconds)*time.Second, e, nil, nil); err != nil {
		return nil, e, err
	}
	cpu1, err := processCPU(s.d.pid())
	if err != nil {
		return nil, e, err
	}
	steal := readCPUStat().stealShare(steal0)
	if err := w.probe(s, e); err != nil {
		return nil, e, err
	}
	rss, err := vmHWMBytes(s.d.pid())
	if err != nil {
		return nil, e, err
	}
	rep := &report{metrics: map[string]metric{}, extra: map[string]metric{}, samples: map[string]int{}}
	if err := finish(s, w, e, rep); err != nil {
		return nil, e, err
	}

	put := func(name string, v float64, n int) {
		rep.metrics[name] = metric{Value: v, Unit: unitOf(name)}
		if n > 0 {
			rep.samples[name] = n
		}
	}
	put("setup_s", median(setups), len(setups))
	reqs := loadRequests(e)
	if reqs == 0 {
		return nil, e, fmt.Errorf("no request completed during the load")
	}
	put("cpu_us_per_request", float64((cpu1-cpu0).Microseconds())/float64(reqs), reqs)
	also := func(name string, v float64) { rep.extra[name] = metric{Value: v, Unit: unitOf(name)} }
	also("items_per_s", windowedRate(e.flushAt, e.loadDur.Seconds(), e.itemsPerFlush))
	also("queries_per_s", windowedRate(e.queryAt, e.queryDur.Seconds(), 1))
	also("flush_p50_us", median(e.flushUs))
	if p99, ok := percentile(e.flushUs, 0.99); ok {
		also("flush_p99_us", p99)
	}
	if p99, ok := percentile(e.queryUs, 0.99); ok {
		also("query_p99_us", p99)
	}
	also("checkpoint_ms", median(e.ckptMs))
	put("rss_peak_mb", float64(rss)/(1<<20), 0)
	qs := summarize(e.queryUs)
	put("query_p50_us", qs.Median, qs.N)
	rep.notes = append(rep.notes, tailNote("query", qs), tailNote("flush", summarize(e.flushUs)))
	if steal >= 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("host CPU steal during the load: %.1f%% of CPU time", 100*steal))
	}
	if len(e.lateUs) > 0 {
		p50, mx := latenessSummary(e.lateUs)
		rep.notes = append(rep.notes, fmt.Sprintf("paced ingest lateness: median %.1f us, max %.1f us over %d batches", p50, mx, len(e.lateUs)))
	}
	for _, m := range endToEnd {
		if _, ok := rep.metrics[m.name]; !ok {
			return nil, e, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
	}
	return rep, e, nil
}

// finish runs the quiesced final checks and stops the session gracefully,
// recording the oracle's verdict in rep.
func finish(s *session, w workload, e *e2e, rep *report) error {
	ft, err := w.final(s, e)
	if err != nil {
		return err
	}
	a, f := verifyFinal(s.conns[0], ft, geo, w.oracle())
	e.attempted.Add(a)
	e.failed.Add(f)
	if err := s.stop(); err != nil {
		return err
	}
	wrong, msgs := w.oracle().result(geo.CMDelta)
	rep.wrong = wrong
	rep.problems = append(rep.problems, msgs...)
	return nil
}

// loadRequests counts the data requests that completed during the load:
// every flush, plus the queries when they ran during the load (in ingest
// they run after it).
func loadRequests(e *e2e) int {
	if e.queriesInLoad {
		return len(e.flushAt) + len(e.queryAt)
	}
	return len(e.flushAt)
}

// tailNote reports a latency's median and highest supported percentile.
// The tails are printed with every run but gated only as per-layer rows:
// on a shared 2-CPU box their run-to-run spread exceeds any usable bound.
func tailNote(prefix string, sm summary) string {
	if sm.TailQ == 0 {
		return fmt.Sprintf("%s latency: median %.1f us, n=%d (too few samples for a tail percentile)", prefix, sm.Median, sm.N)
	}
	return fmt.Sprintf("%s latency: median %.1f us, p%g %.1f us (highest percentile with >=%d samples beyond), n=%d",
		prefix, sm.Median, 100*sm.TailQ, sm.Tail, minBeyond, sm.N)
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("metric without a declared unit: " + name)
}

// cpuStat is the aggregate line of /proc/stat: CPU ticks by state.
type cpuStat []uint64

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var st cpuStat
	for _, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil
		}
		st = append(st, n)
	}
	return st
}

// stealShare returns the share of CPU time the hypervisor took from this
// machine between before and st (the eighth /proc/stat field), or -1 when
// unknown. It explains runs that read slow for reasons outside the code.
func (st cpuStat) stealShare(before cpuStat) float64 {
	if len(st) < 8 || len(before) < 8 {
		return -1
	}
	var total uint64
	for i := range st[:8] {
		total += st[i] - before[i]
	}
	if total == 0 {
		return -1
	}
	return float64(st[7]-before[7]) / float64(total)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
		}
	}
	return "unknown"
}

// sourceID identifies the code under test: the git commit when the
// checkout is a repository, otherwise a SHA-256 over its Go sources.
func sourceID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return "git:" + strings.TrimSpace(string(b))
			}
		} else {
			return "git:" + ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))
}
