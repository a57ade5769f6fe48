package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"fastsketches/client"
)

// The test binary doubles as a fake sketchd and as a fake benchmark
// process, so the reaping tests need no real daemon.
func TestMain(m *testing.M) {
	switch os.Getenv("PERFBENCH_TEST_ROLE") {
	case "sketchd":
		fakeSketchd()
		return
	case "bench":
		fakeBench()
		return
	}
	os.Exit(m.Run())
}

// fakeSketchd prints sketchd's address lines and serves nothing until
// SIGTERM.
func fakeSketchd() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Exit(3)
	}
	fmt.Fprintf(os.Stderr, "sketchd: serving on %s (fake)\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "sketchd: metrics on http://%s/metrics\n", ln.Addr())
	<-sig
	os.Exit(0)
}

// fakeBench starts a fake sketchd the way the benchmark does, prints its
// pid, and waits to be signalled or killed.
func fakeBench() {
	handleSignals()
	_, _ = reaping(func() (*result, error) {
		d, err := startFake()
		if err != nil {
			fmt.Println("error", err)
			os.Exit(3)
		}
		fmt.Println("child", d.pid())
		select {}
	})
}

func startFake() (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	os.Setenv("PERFBENCH_TEST_ROLE", "sketchd")
	defer os.Unsetenv("PERFBENCH_TEST_ROLE")
	return startDaemon(self, nil, io.Discard, true)
}

// alive reports whether pid is a running (not zombie) process.
func alive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	return i < 0 || i+2 >= len(s) || s[i+2] != 'Z'
}

func waitGone(t *testing.T, pid int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for alive(pid) {
		if time.Now().After(deadline) {
			t.Fatalf("sketchd child %d still running", pid)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestChildReapedOnError(t *testing.T) {
	var pid int
	_, err := reaping(func() (*result, error) {
		d, err := startFake()
		if err != nil {
			return nil, err
		}
		pid = d.pid()
		return nil, errors.New("workload failed")
	})
	if err == nil || pid == 0 {
		t.Fatalf("want the workload error after starting a child, got %v (pid %d)", err, pid)
	}
	if n := liveCount(); n != 0 {
		t.Fatalf("%d children still tracked", n)
	}
	waitGone(t, pid)
}

func TestChildReapedOnPanic(t *testing.T) {
	var pid int
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic was swallowed, want it re-raised")
			}
		}()
		_, _ = reaping(func() (*result, error) {
			d, err := startFake()
			if err != nil {
				t.Fatal(err)
			}
			pid = d.pid()
			panic("bug in a workload")
		})
	}()
	if n := liveCount(); n != 0 {
		t.Fatalf("%d children still tracked", n)
	}
	waitGone(t, pid)
}

func TestGracefulStopReaps(t *testing.T) {
	d, err := startFake()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.stop(10 * time.Second); err != nil {
		t.Fatalf("stop: %v", err)
	}
	waitGone(t, d.pid())
}

// TestChildReapedOnSignal signals (and, separately, SIGKILLs) a benchmark
// process holding a sketchd child: either way no orphan survives to hold
// the port.
func TestChildReapedOnSignal(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT, syscall.SIGKILL} {
		t.Run(sig.String(), func(t *testing.T) {
			self, err := os.Executable()
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(self)
			cmd.Env = append(os.Environ(), "PERFBENCH_TEST_ROLE=bench")
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(out)
			if !sc.Scan() {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
				t.Fatal("fake benchmark printed nothing")
			}
			f := strings.Fields(sc.Text())
			if len(f) != 2 || f[0] != "child" {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
				t.Fatalf("fake benchmark: %q", sc.Text())
			}
			pid, _ := strconv.Atoi(f[1])
			if !alive(pid) {
				t.Fatalf("child %d not running before the signal", pid)
			}
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			_ = cmd.Wait() // exits non-zero by design
			waitGone(t, pid)
		})
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) []uint64 {
		var out []uint64
		r := newRNG(seed, 3)
		z := newZipf(queryDomain, queryZipfS)
		k := newDistinctKeys(seed, 1)
		for i := 0; i < 1000; i++ {
			out = append(out, r.next(), uint64(z.rank(r)), k.next(), rankKey(seed, i))
		}
		for _, p := range newTenants(seed).perm {
			out = append(out, uint64(p))
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew differently at %d: %d vs %d", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("seeds 7 and 8 drew %d of %d values alike", same, len(a))
	}
}

func TestDistinctKeysAreDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for s := uint8(0); s < 4; s++ {
		k := newDistinctKeys(42, s)
		for i := 0; i < 20000; i++ {
			v := k.next()
			if seen[v] {
				t.Fatalf("key %#x repeated", v)
			}
			seen[v] = true
		}
	}
}

func TestTenantPopularityIsFamilyBalanced(t *testing.T) {
	w := newTenants(99)
	used := map[int]bool{}
	for r, tn := range w.perm {
		if tn%4 != r%4 {
			t.Fatalf("popularity rank %d maps to tenant %d of another family", r, tn)
		}
		if used[tn] {
			t.Fatalf("tenant %d used twice", tn)
		}
		used[tn] = true
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Error("p99 reported from 999 samples (9 beyond)")
	}
	if v, ok := percentile(samples(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	for _, c := range []struct {
		n     int
		tailQ float64
	}{{99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := summarize(samples(c.n)); got.TailQ != c.tailQ || got.N != c.n {
			t.Errorf("n=%d: tail q %v (n %d), want %v", c.n, got.TailQ, got.N, c.tailQ)
		}
	}
	if m := median(samples(5)); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 50}, // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 70, End: 80},
		{Name: "leaf", ID: 4, Parent: 1, Start: 10, End: 20},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20, 20, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// fakeQuerier answers from the exact truth, except where a test corrupts
// one answer.
type fakeQuerier struct {
	ft      *finalTruth
	corrupt func(method, name string, v float64) float64
}

func (f *fakeQuerier) out(method, name string, v float64) float64 {
	if f.corrupt != nil {
		return f.corrupt(method, name, v)
	}
	return v
}

func (f *fakeQuerier) Count(name string, key uint64) (uint64, error) {
	for _, c := range f.ft.cm {
		for i, k := range c.keys {
			if c.name == name && k == key {
				return uint64(f.out("Count", name, float64(c.counts[i]))), nil
			}
		}
	}
	return 0, nil
}

func (f *fakeQuerier) CountMinN(name string) (uint64, error) {
	return uint64(f.out("CountMinN", name, float64(f.ft.cm[0].n))), nil
}

func (f *fakeQuerier) HLLEstimate(name string) (float64, error) {
	return f.out("HLLEstimate", name, float64(f.ft.distinct[0].distinct)), nil
}

func (f *fakeQuerier) ThetaEstimate(name string) (float64, error) {
	return f.out("ThetaEstimate", name, float64(f.ft.distinct[1].distinct)), nil
}

func (f *fakeQuerier) QuantilesN(name string) (uint64, error) {
	return uint64(f.out("QuantilesN", name, float64(f.ft.quant[0].n))), nil
}

func (f *fakeQuerier) Quantile(name string, phi float64) (float64, error) {
	q := f.ft.quant[0]
	target := uint64(math.Ceil(phi * float64(q.n)))
	var cum uint64
	for l, c := range q.hist {
		cum += c
		if cum >= target && c > 0 {
			return f.out("Quantile", name, float64(l)), nil
		}
	}
	return 0, nil
}

func testTruth() *finalTruth {
	cm := cmFinal{name: "cm", n: 100000}
	for i := 0; i < 200; i++ {
		cm.keys, cm.counts = append(cm.keys, uint64(i)), append(cm.counts, uint64(i%7))
	}
	hist := make([]uint64, 100)
	var n uint64
	for i := range hist {
		hist[i] = uint64(1 + i%5)
		n += hist[i]
	}
	return &finalTruth{
		cm: []cmFinal{cm},
		distinct: []distinctFinal{
			{client.HLL, "hll", 50000},
			{client.Theta, "theta", 70000},
		},
		quant: []quantFinal{{name: "q", n: n, hist: hist}},
	}
}

func TestOracleAcceptsTruth(t *testing.T) {
	var o oracle
	a, f := verifyFinal(&fakeQuerier{ft: testTruth()}, testTruth(), geo, &o)
	if wrong, msgs := o.result(geo.CMDelta); wrong != 0 || f != 0 || a == 0 {
		t.Fatalf("exact answers judged wrong: %d wrong, %d failed of %d: %v", wrong, f, a, msgs)
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	cases := map[string]func(method, name string, v float64) float64{
		"CountMinN off by one": func(m, _ string, v float64) float64 {
			if m == "CountMinN" {
				return v + 1
			}
			return v
		},
		"Count underestimates": func(m, _ string, v float64) float64 {
			if m == "Count" && v > 0 {
				return v - 1
			}
			return v
		},
		"Count above true+εN everywhere": func(m, _ string, v float64) float64 {
			if m == "Count" {
				return v + 2*geo.CMEps*100000
			}
			return v
		},
		"HLL 20% high": func(m, _ string, v float64) float64 {
			if m == "HLLEstimate" {
				return v * 1.2
			}
			return v
		},
		"Θ 20% low": func(m, _ string, v float64) float64 {
			if m == "ThetaEstimate" {
				return v * 0.8
			}
			return v
		},
		"QuantilesN short": func(m, _ string, v float64) float64 {
			if m == "QuantilesN" {
				return v - 1
			}
			return v
		},
		"Quantile far off": func(m, _ string, v float64) float64 {
			if m == "Quantile" {
				return 99 - v
			}
			return v
		},
		"Quantile not an element": func(m, _ string, v float64) float64 {
			if m == "Quantile" {
				return v + 0.5
			}
			return v
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			var o oracle
			verifyFinal(&fakeQuerier{ft: testTruth(), corrupt: corrupt}, testTruth(), geo, &o)
			if wrong, _ := o.result(geo.CMDelta); wrong == 0 {
				t.Fatal("wrong answer accepted")
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the code's metric
// tables in step: every declared metric is reported, with its unit, and
// nothing undeclared.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", kind, len(declared), len(code))
		}
		units := map[string]string{}
		for _, m := range code {
			units[m.name] = m.unit
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) declared, code has unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads(), ",") {
		t.Errorf("workloads %v declared, code runs %v", names, workloads())
	}
}
