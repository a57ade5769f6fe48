// Command perfbench is the repository's end-to-end benchmark. It builds on
// the real sketchd binary: it starts sketchd as a child process with a
// fixed sketch geometry, drives it from this one load-generator process
// over at most two client connections through the public client API,
// checks every answer against the exact truth of its seeded inputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -sketchd <binary> --workload ingest|query|tenants --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload traced and reports the per-layer ledger instead. See
// README.md in this directory for the workloads, the metrics and the layer
// map, and run.sh for the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	sketchd  string
	workdir  string
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload. The order is the print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_request", "us"},
	{"query_p50_us", "us"},
	{"rss_peak_mb", "MiB"},
}

// setupRepeats is how many times a run sets up a fresh sketchd; setup_s is
// the median, and the last session is the one measured.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line, with exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloads() []string { return []string{"ingest", "query", "tenants"} }

type workload interface {
	name() string
	oracle() *oracle
	// setup creates and configures the sketches and warms them up; it is
	// part of setup_s.
	setup(s *session) error
	// load runs the measured load for dur.
	load(s *session, dur time.Duration, e *e2e, tr *tracer, sl *slicer) error
	// probe runs after the load and measures the end-to-end metrics the
	// load itself does not produce.
	probe(s *session, e *e2e) error
	// final quiesces the sketches and returns the exact truth to check.
	final(s *session, e *e2e) (*finalTruth, error)
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "ingest":
		return newIngest(seed), nil
	case "query":
		return newQuery(seed), nil
	case "tenants":
		return newTenants(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads())
}

func main() { os.Exit(mainExit()) }

// handleSignals makes SIGINT, SIGTERM and SIGHUP kill and reap every
// sketchd child before the benchmark exits.
func handleSignals() {
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigC
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v: sketchd children reaped\n", sig)
		os.Exit(128 + int(sig.(syscall.Signal)))
	}()
}

// reaping runs fn and kills and reaps every sketchd child on the way out,
// whether fn returns or panics (the panic is re-raised).
func reaping(fn func() (*result, error)) (*result, error) {
	defer killAll()
	defer func() {
		if p := recover(); p != nil {
			killAll()
			panic(p)
		}
	}()
	return fn()
}

// mainExit runs the benchmark and returns the exit code. Every path out —
// return, error, panic, SIGINT/SIGTERM/SIGHUP — kills and reaps the sketchd
// children first; if the benchmark itself is SIGKILLed, the children's
// parent-death signal takes them down.
func mainExit() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: ingest, query or tenants")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 12, "measured load duration in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.StringVar(&o.sketchd, "sketchd", "", "path of the sketchd binary under test")
	flag.StringVar(&o.workdir, "workdir", "", "directory for logs, checkpoints, traces and result records")
	flag.Parse()
	if o.sketchd == "" || o.workdir == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -sketchd BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	if _, err := newWorkload(o.workload, o.seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	handleSignals()
	res, err := reaping(func() (*result, error) { return run(o) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// report is what a run measured, before it becomes the result line.
type report struct {
	metrics  map[string]metric
	extra    map[string]metric // printed with the run, gated only as per-layer rows
	samples  map[string]int
	notes    []string
	wrong    int64
	problems []string
}

func run(o options) (*result, error) {
	runDir := filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(runDir) // checkpoints only; the log and records live outside it
	logDir := filepath.Join(o.workdir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating log directory: %w", err)
	}
	logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("sketchd-%s-seed%d-trace%d.log", o.workload, o.seed, o.trace)))
	if err != nil {
		return nil, fmt.Errorf("creating sketchd log: %w", err)
	}
	defer logf.Close()

	st := newStamp(o)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d sketchd flags: %v\n",
		o.workload, o.seed, o.seconds, o.trace, st.SketchdFlags)
	var rep *report
	var e *e2e
	if o.trace == 1 {
		rep, e, err = runTraced(o, runDir, logf)
	} else {
		rep, e, err = runEndToEnd(o, runDir, logf)
	}
	if err != nil {
		return nil, fmt.Errorf("%s (sketchd log: %s): %w", o.workload, logf.Name(), err)
	}
	if liveCount() != 0 {
		return nil, fmt.Errorf("%d sketchd children still running after the run", liveCount())
	}
	st.Samples = rep.samples

	res := &result{
		Attempted: e.attempted.Load(),
		Failed:    e.failed.Load() + rep.wrong,
		Metrics:   rep.metrics,
	}
	res.Correct = res.Failed == 0 && len(rep.problems) == 0
	printReport(o, rep, res, e)
	if err := writeRecord(o, st, rep, res); err != nil {
		return nil, err
	}
	return res, nil
}

func printReport(o options, rep *report, res *result, e *e2e) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		if c, ok := rep.samples[n]; ok {
			fmt.Printf("metric %-40s %14.4f %-10s (n=%d)\n", n, m.Value, m.Unit, c)
		} else {
			fmt.Printf("metric %-40s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	extra := make([]string, 0, len(rep.extra))
	for n := range rep.extra {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	for _, n := range extra {
		m := rep.extra[n]
		fmt.Printf("also   %-40s %14.4f %-10s (per-layer row in traced runs)\n", n, m.Value, m.Unit)
	}
	for _, s := range rep.notes {
		fmt.Println("note:", s)
	}
	errRate := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("error_rate %.6f ratio (failed %d + wrong answers %d of %d attempted)\n",
		errRate, e.failed.Load(), rep.wrong, res.Attempted)
	if v := e.firstErr.Load(); v != nil {
		fmt.Println("first failed operation:", v)
	}
	for _, p := range rep.problems {
		fmt.Println("PROBLEM:", p)
	}
}

// stamp is the run's identity: the same numbers from another seed,
// geometry, machine or commit are visibly unlike.
type stamp struct {
	Workload     string         `json:"workload"`
	Seed         uint64         `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        int            `json:"trace"`
	CPUModel     string         `json:"cpu_model"`
	NProc        int            `json:"nproc"`
	GoVersion    string         `json:"go_version"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Commit       string         `json:"commit"`
	SketchdFlags []string       `json:"sketchd_flags"`
	Samples      map[string]int `json:"samples"`
	Started      string         `json:"started"`
}

func newStamp(o options) *stamp {
	return &stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: sourceID(),
		SketchdFlags: serverFlags("<run dir>", 0),
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

// writeRecord stores the stamped result under the work directory and
// prints the stamp.
func writeRecord(o options, st *stamp, rep *report, res *result) error {
	dir := filepath.Join(o.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating results directory: %w", err)
	}
	rec := struct {
		Stamp    *stamp   `json:"stamp"`
		Result   *result  `json:"result"`
		Notes    []string `json:"notes"`
		Problems []string `json:"problems"`
	}{st, res, rep.notes, rep.problems}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	sb, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("encoding stamp: %w", err)
	}
	fmt.Println("stamp:", string(sb))
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing record: %w", err)
	}
	return nil
}
