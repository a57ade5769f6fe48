package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches/client"
)

// maxConns is the client connection budget of every workload: the load
// generator never holds more connections than the box has CPUs (2 on the
// reference box), so rows stay comparable across workloads.
const maxConns = 2

// clientBatchLimit is the client's auto-flush threshold, above every batch
// the benchmark builds, so each batch ships on its own timed Flush.
const clientBatchLimit = 4096

// serverFlags returns the sketchd flags of one session. Besides the fixed
// geometry every session serves /metrics, runs the ops sweeper (with a
// budget far above any workload's footprint, so it only measures), and
// checkpoints into the run's own directory on demand: the same daemon
// configuration for every workload.
func serverFlags(dir string, idx int) []string {
	return append(geo.flags(),
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-mem-budget", "1099511627776",
		"-ops-sweep-every", "1s",
		"-checkpoint", filepath.Join(dir, fmt.Sprintf("checkpoint-%d.fsnp", idx)),
		"-checkpoint-every", "1h",
	)
}

// session is one sketchd child and the benchmark's client connections to
// it.
type session struct {
	d     *daemon
	conns []*client.Client
}

func (s *session) close() {
	for _, c := range s.conns {
		_ = c.Close() // closing a client only tears down its sockets
	}
}

// startSession execs sketchd, dials the workload's connections, runs the
// workload's setup and warm-up, and answers one Ping. The returned duration
// is setup_s: exec to first ready request.
func startSession(bin, dir string, idx int, logf *os.File, w workload) (*session, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, serverFlags(dir, idx), logf, true)
	if err != nil {
		return nil, 0, err
	}
	s := &session{d: d}
	for i := 0; i < maxConns; i++ {
		c, err := client.Dial(d.addr, client.Options{Conns: 1, BatchSize: clientBatchLimit})
		if err != nil {
			s.close()
			d.kill()
			return nil, 0, fmt.Errorf("dialing sketchd: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	if err := w.setup(s); err != nil {
		s.close()
		d.kill()
		return nil, 0, fmt.Errorf("workload setup: %w", err)
	}
	if err := s.conns[0].Ping(); err != nil {
		s.close()
		d.kill()
		return nil, 0, fmt.Errorf("first ready request: %w", err)
	}
	return s, time.Since(t0), nil
}

// stop closes the connections and shuts the child down gracefully.
func (s *session) stop() error {
	s.close()
	return s.d.stop(60 * time.Second)
}

// e2e collects one run's end-to-end samples.
type e2e struct {
	mu sync.Mutex
	// Flushes: latency and completion offset (seconds since the load
	// started) of every acked batch of itemsPerFlush items.
	itemsPerFlush float64
	loadDur       time.Duration
	flushUs       []float64
	flushAt       []float64
	lateUs        []float64
	// Queries: latency and completion offset (seconds since the query
	// phase started) of every completed query.
	queryDur      time.Duration
	queriesInLoad bool // the queries ran during the load, not after it
	queryUs       []float64
	queryAt       []float64
	ckptMs        []float64
	attempted     atomic.Int64
	failed        atomic.Int64
	firstErr      atomic.Value // string
}

// op accounts one attempted operation; a non-nil err counts it as failed.
func (e *e2e) op(err error) bool {
	e.attempted.Add(1)
	if err != nil {
		e.failed.Add(1)
		e.firstErr.CompareAndSwap(nil, err.Error())
		return false
	}
	return true
}

// samples collects one goroutine's latencies (µs) and completion offsets
// (s), merged into e2e when the goroutine ends.
type samples struct {
	start  time.Time
	us, at []float64
}

func newSamples(start time.Time, capacity int) *samples {
	return &samples{start: start, us: make([]float64, 0, capacity), at: make([]float64, 0, capacity)}
}

// add records one operation timed from t0 (its send or due time) to done.
func (s *samples) add(t0, done time.Time) {
	s.us = append(s.us, float64(done.Sub(t0).Nanoseconds())/1e3)
	s.at = append(s.at, done.Sub(s.start).Seconds())
}

func (e *e2e) addFlushes(s *samples) {
	e.mu.Lock()
	e.flushUs = append(e.flushUs, s.us...)
	e.flushAt = append(e.flushAt, s.at...)
	e.mu.Unlock()
}

func (e *e2e) addQueries(s *samples) {
	e.mu.Lock()
	e.queryUs = append(e.queryUs, s.us...)
	e.queryAt = append(e.queryAt, s.at...)
	e.mu.Unlock()
}

// slicer splits a traced load into alternating one-second slices with
// span recording on and off, and counts the work completed in each: the
// rate ratio is the tracing overhead.
type slicer struct {
	tr    *tracer
	units [2]atomic.Uint64
	dur   [2]time.Duration
}

func (s *slicer) add(n uint64) {
	if s == nil {
		return
	}
	i := 0
	if s.tr.enabled() {
		i = 1
	}
	s.units[i].Add(n)
}

// run toggles recording every slice until stop is closed, then leaves it on.
func (s *slicer) run(stop <-chan struct{}, slice time.Duration) {
	t := time.NewTicker(slice)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case now := <-t.C:
			on := s.tr.on.Load()
			s.dur[b2i(on)] += now.Sub(last)
			last = now
			s.tr.on.Store(!on)
		case <-stop:
			s.dur[b2i(s.tr.on.Load())] += time.Since(last)
			s.tr.on.Store(true)
			return
		}
	}
}

// overheadPct is how much slower the traced slices ran than the untraced
// ones, in percent of the traced rate.
func (s *slicer) overheadPct() (float64, error) {
	off := float64(s.units[0].Load()) / s.dur[0].Seconds()
	on := float64(s.units[1].Load()) / s.dur[1].Seconds()
	if on <= 0 || off <= 0 || s.dur[0] <= 0 || s.dur[1] <= 0 {
		return 0, errors.New("trace overhead: a slice completed no work")
	}
	return (off/on - 1) * 100, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sketchRef names one served sketch.
type sketchRef struct {
	fam  client.Family
	name string
}

// quiesce drains every listed sketch exactly: a live resize from S to 1
// folds the old epoch's buffers and shards into the legacy plane, so
// afterwards every acked update is reflected and the final checks compare
// against exact truth.
func quiesce(c *client.Client, refs []sketchRef, e *e2e) error {
	for _, r := range refs {
		if !e.op(c.Resize(r.fam, r.name, 1)) {
			return fmt.Errorf("quiescing %s/%s: %v", r.fam, r.name, e.firstErr.Load())
		}
	}
	return nil
}
