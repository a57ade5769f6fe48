package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/countmin"
	"fastsketches/internal/hll"
	"fastsketches/internal/murmur"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

// perLayer lists the metrics every traced run reports, on every workload.
// Each row times calls into one layer's public functions from this
// package, on the benchmark's seeded inputs and the fixed geometry; see
// README.md for which end-to-end metric each should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"murmur.hash_ns", "ns"},
		{"countmin.update_ns", "ns"}, {"hll.update_ns", "ns"},
		{"theta.update_ns", "ns"}, {"quantiles.update_ns", "ns"},
		{"countmin.estimate_ns", "ns"}, {"hll.estimate_ns", "ns"},
		{"core.hll_update_ns.w1", "ns"}, {"core.hll_update_ns.wnproc", "ns"},
		{"core.theta_update_ns.w1", "ns"}, {"core.theta_update_ns.wnproc", "ns"},
		{"core.propagated_ratio", "ratio"}, {"core.backlog_max", "items"},
		{"shard.countmin_batch_ns", "ns"}, {"shard.hll_batch_ns", "ns"},
		{"shard.theta_batch_ns", "ns"}, {"shard.quantiles_batch_ns", "ns"},
		{"shard.countmin_batch64_ns", "ns"},
		{"shard.countmin_count_ns", "ns"},
		{"shard.countmin_window_count_us", "us"}, {"shard.countmin_decayed_count_us", "us"},
		{"shard.theta_queryinto_us", "us"}, {"shard.theta_view_us", "us"},
		{"shard.hll_estimate_us", "us"}, {"shard.quantile_us", "us"},
		{"registry.open_ns", "ns"},
		{"registry.checkpoint_ms", "ms"}, {"registry.checkpoint_mb", "MiB"}, {"registry.restore_ms", "ms"},
		{"wire.batch_encode_ns", "ns"}, {"wire.batch_decode_ns", "ns"}, {"wire.query_codec_ns", "ns"},
		{"ops.stats_us", "us"}, {"ops.scrape_ms", "ms"},
		{"ops.backlog", "items"}, {"ops.view_lag_ms", "ms"},
		{"ops.window_rotations", "count"}, {"ops.resident_mb", "MiB"},
		{"server.residual_us.flush", "us"}, {"server.residual_us.query", "us"},
		{"trace.overhead_pct", "%"},
		{"flush_p99_us", "us"}, {"query_p99_us", "us"}, {"checkpoint_ms", "ms"},
		{"items_per_s", "items/s"}, {"queries_per_s", "queries/s"}, {"flush_p50_us", "us"},
	}
	for _, f := range probeFams {
		defs = append(defs, metricDef{"client.flush_us." + f.fam.String(), "us"},
			metricDef{"server.residual_us.flush." + f.fam.String(), "us"})
	}
	for _, k := range queryKindNames {
		defs = append(defs, metricDef{"client.query_us." + k, "us"},
			metricDef{"server.residual_us.query." + k, "us"})
	}
	return defs
}()

// The span probe's served sketches mirror the query workload's: a
// windowed, decayed Count-Min, a Θ sketch with a view, HLL and quantiles.
var probeFams = [4]sketchRef{
	{client.CountMin, "probe.cm"},
	{client.Theta, "probe.theta"},
	{client.HLL, "probe.hll"},
	{client.Quantiles, "probe.q"},
}

const (
	probeRounds  = 48  // flushes per family
	probeQueries = 150 // queries per kind
	ledgerReps   = 5
)

// runTraced is the traced run: the workload's load with span recording
// switched on and off in alternating one-second slices (their rate ratio
// is trace.overhead_pct), the workload's post-load probe, then the span
// probe against the same sketchd,
// the ops reads, the quiesced final checks, and, with sketchd stopped,
// the in-process layer rows.
func runTraced(o options, dir string, logf *os.File) (*report, *e2e, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, nil, err
	}
	s, _, err := startSession(o.sketchd, dir, 0, logf, w)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	tr.on.Store(false)
	sl := &slicer{tr: tr}
	stop, sliced := make(chan struct{}), make(chan struct{})
	go func() { defer close(sliced); sl.run(stop, time.Second) }()
	e := &e2e{}
	err = w.load(s, time.Duration(o.seconds)*time.Second, e, tr, sl)
	close(stop)
	<-sliced
	if err != nil {
		return nil, e, err
	}
	if err := w.probe(s, e); err != nil {
		return nil, e, err
	}
	rep := &report{metrics: map[string]metric{}, samples: map[string]int{}}
	l := &ledger{tr: tr, rep: rep}
	ov, err := sl.overheadPct()
	if err != nil {
		return nil, e, err
	}
	l.put("trace.overhead_pct", ov, 0)
	for _, t := range []struct {
		name    string
		samples []float64
	}{{"flush_p99_us", e.flushUs}, {"query_p99_us", e.queryUs}} {
		p99, ok := percentile(t.samples, 0.99)
		if !ok {
			return nil, e, fmt.Errorf("%s: %d samples cannot support a p99 (need %d beyond it)", t.name, len(t.samples), minBeyond)
		}
		l.put(t.name, p99, len(t.samples))
	}
	l.put("checkpoint_ms", median(e.ckptMs), len(e.ckptMs))
	l.put("flush_p50_us", median(e.flushUs), len(e.flushUs))
	l.put("items_per_s", windowedRate(e.flushAt, e.loadDur.Seconds(), e.itemsPerFlush), len(e.flushAt))
	l.put("queries_per_s", windowedRate(e.queryAt, e.queryDur.Seconds(), 1), len(e.queryAt))

	p, err := newProbe(o.seed)
	if err != nil {
		return nil, e, err
	}
	defer p.close()
	if err := p.served(s, l, e); err != nil {
		return nil, e, err
	}
	if err := l.opsRows(s, e); err != nil {
		return nil, e, err
	}
	if err := finish(s, w, e, rep); err != nil {
		return nil, e, err
	}
	if err := l.inProcess(o.seed, p); err != nil {
		return nil, e, err
	}
	l.subtraction()
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			return nil, e, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
	}
	path := filepath.Join(o.workdir, "results", fmt.Sprintf("%s-seed%d.trace.jsonl", o.workload, o.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, e, fmt.Errorf("creating results directory: %w", err)
	}
	if err := tr.write(path); err != nil {
		return nil, e, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(tr.snapshot()), path))
	return rep, e, nil
}

// ledger turns spans into per-layer metrics.
type ledger struct {
	tr  *tracer
	rep *report
}

func (l *ledger) put(name string, v float64, n int) {
	l.rep.metrics[name] = metric{Value: v, Unit: unitOf(name)}
	if n > 0 {
		l.rep.samples[name] = n
	}
}

// row times fn, which performs n operations, ledgerReps times, one span
// each, and reports the median time per operation in unit.
func (l *ledger) row(name string, n int, unit time.Duration, fn func()) {
	per := make([]float64, ledgerReps)
	for r := range per {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		l.tr.add("ledger."+name, l.tr.newReq(), -1, t0, t1, n)
		per[r] = float64(t1.Sub(t0)) / float64(n) / float64(unit)
	}
	l.put(name, median(per), ledgerReps*n)
}

// probe holds in-process sketches with the served probe sketches'
// geometry and configuration. Every served probe request is followed by
// the same input through the in-process layers, so the two states stay
// identical and the spans can be subtracted.
type probe struct {
	reg    *fastsketches.Registry
	cm     *fastsketches.CountMinHandle
	th     *fastsketches.ThetaHandle // with the view, as served
	thLive *fastsketches.ThetaHandle // same input, no view: the live fold
	hl     *fastsketches.HLLHandle
	q      *fastsketches.QuantilesHandle
	accCM  *countmin.Sketch
	accTh  *theta.Union
	accHL  *hll.Sketch
	accQ   *quantiles.Accumulator
	r      *rng
	z      *zipf
	seed   uint64
}

func registryConfig() fastsketches.RegistryConfig {
	return fastsketches.RegistryConfig{
		Shards: geo.Shards, Writers: geo.Writers,
		ThetaLgK: geo.ThetaLgK, HLLPrecision: geo.HLLP, QuantilesK: geo.QuantilesK,
		CountMinEpsilon: geo.CMEps, CountMinDelta: geo.CMDelta,
	}
}

func newProbe(seed uint64) (*probe, error) {
	reg, err := fastsketches.NewRegistry(registryConfig())
	if err != nil {
		return nil, fmt.Errorf("in-process registry: %w", err)
	}
	p := &probe{reg: reg, r: newRNG(seed, 0x50), z: newZipf(queryDomain, queryZipfS), seed: seed}
	win := &fastsketches.WindowConfig{Interval: queryWinEvery, Slots: queryWinSlots, Decay: queryWinDecay}
	view := &fastsketches.ViewConfig{RefreshEvery: queryViewEvery, MaxAge: queryViewMaxAge}
	if p.cm, err = reg.OpenCountMin(probeFams[0].name, fastsketches.Spec{Window: win}); err != nil {
		reg.Close()
		return nil, err
	}
	if p.th, err = reg.OpenTheta(probeFams[1].name, fastsketches.Spec{View: view}); err != nil {
		reg.Close()
		return nil, err
	}
	if p.thLive, err = reg.OpenTheta("probe.theta.live", fastsketches.Spec{}); err != nil {
		reg.Close()
		return nil, err
	}
	if p.hl, err = reg.OpenHLL(probeFams[2].name, fastsketches.Spec{}); err != nil {
		reg.Close()
		return nil, err
	}
	if p.q, err = reg.OpenQuantiles(probeFams[3].name, fastsketches.Spec{}); err != nil {
		reg.Close()
		return nil, err
	}
	p.accCM, p.accTh, p.accHL, p.accQ = p.cm.NewAccumulator(), p.th.NewAccumulator(), p.hl.NewAccumulator(), p.q.NewAccumulator()
	return p, nil
}

func (p *probe) close() { p.reg.Close() }

// lanesApply applies items the way sketchd's lane set does for a batch of
// this size: contiguous chunks on min(W, ⌈n/256⌉) writer lanes, in
// parallel, waiting for all. The span around it is the shard layer's share
// of a served flush's critical path.
func lanesApply[T any](items []T, apply func(lane int, chunk []T)) {
	n := len(items)
	lanes := min(geo.Writers, (n+255)/256)
	per, rem := n/lanes, n%lanes
	var wg sync.WaitGroup
	lo := 0
	for l := 0; l < lanes; l++ {
		hi := lo + per
		if l < rem {
			hi++
		}
		wg.Add(1)
		go func(l int, chunk []T) {
			defer wg.Done()
			apply(l, chunk)
		}(l, items[lo:hi])
		lo = hi
	}
	wg.Wait()
}

// served runs the span probe: per family, probeRounds served 1024-item
// flushes, each followed by the same batch through wire encode, wire
// decode and the shard layer in process; then per query kind,
// probeQueries served queries, each followed by the query codec and the
// same query in process. Each request's spans share one request id under
// a root span.
func (p *probe) served(s *session, l *ledger, e *e2e) error {
	c := s.conns[0]
	for _, f := range probeFams {
		if !e.op(c.Create(f.fam, f.name)) {
			return fmt.Errorf("probe: creating %s: %v", f.name, e.firstErr.Load())
		}
	}
	if !e.op(c.EnableWindow(probeFams[0].name, queryWinEvery, queryWinSlots, queryWinDecay)) ||
		!e.op(c.EnableView(probeFams[1].name, queryViewEvery, queryViewMaxAge)) {
		return fmt.Errorf("probe: configuring sketches: %v", e.firstErr.Load())
	}
	tr := l.tr
	keys := make([]uint64, ingestItems)
	vals := make([]float64, ingestItems)
	var frame []byte
	var sink uint64
	batches := [4]*client.Batch{}
	for i, f := range probeFams {
		batches[i] = c.NewBatch(f.fam, f.name)
	}
	for round := 0; round < probeRounds; round++ {
		for i, f := range probeFams {
			for j := range keys {
				rk := p.z.rank(p.r)
				keys[j], vals[j] = rankKey(p.seed, rk), float64(rk)
				if f.fam == client.Quantiles {
					keys[j] = math.Float64bits(vals[j])
					_ = batches[i].AddFloat(vals[j]) // buffering only; Flush reports errors
				} else {
					_ = batches[i].Add(keys[j])
				}
			}
			req := tr.newReq()
			root := tr.open("probe.flush."+f.fam.String(), req, time.Now())
			t0 := time.Now()
			err := batches[i].Flush()
			t1 := time.Now()
			if !e.op(err) {
				batches[i].Reset()
				return fmt.Errorf("probe flush %s: %w", f.name, err)
			}
			tr.add("client.flush", req, root, t0, t1, ingestItems)
			t0 = time.Now()
			frame = wire.AppendBatch(frame[:0], uint32(req), f.fam, f.name, keys)
			t1 = time.Now()
			tr.add("wire.encode", req, root, t0, t1, ingestItems)
			t0 = time.Now()
			rq, err := wire.ParseRequest(frame[4:])
			if err != nil {
				return fmt.Errorf("probe: decoding own batch frame: %w", err)
			}
			for k := 0; k < rq.NumItems(); k++ {
				sink ^= rq.Item(k)
			}
			t1 = time.Now()
			tr.add("wire.decode", req, root, t0, t1, ingestItems)
			t0 = time.Now()
			switch f.fam {
			case client.CountMin:
				lanesApply(keys, p.cm.UpdateBatch)
			case client.Theta:
				lanesApply(keys, p.th.UpdateBatch)
			case client.HLL:
				lanesApply(keys, p.hl.UpdateBatch)
			case client.Quantiles:
				lanesApply(vals, p.q.UpdateBatch)
			}
			t1 = time.Now()
			tr.add("shard.apply", req, root, t0, t1, ingestItems)
			tr.close(root, time.Now())
			if f.fam == client.Theta {
				p.thLive.UpdateBatch(0, keys)
			}
		}
	}
	var out []byte
	for j := 0; j < probeQueries*numQueryKinds; j++ {
		kind := j % numQueryKinds
		key := rankKey(p.seed, p.z.rank(p.r))
		fam, q, name, arg := p.wireQuery(kind, key)
		req := tr.newReq()
		root := tr.open("probe.query."+queryKindNames[kind], req, time.Now())
		t0 := time.Now()
		_, err := p.servedQuery(c, kind, key)
		t1 := time.Now()
		if !e.op(err) {
			return fmt.Errorf("probe query %s: %w", queryKindNames[kind], err)
		}
		tr.add("client.query", req, root, t0, t1, 1)
		t0 = time.Now()
		frame = wire.AppendQuery(frame[:0], uint32(req), fam, q, name, arg)
		rq, err := wire.ParseRequest(frame[4:])
		if err != nil {
			return fmt.Errorf("probe: decoding own query frame: %w", err)
		}
		out = wire.AppendOKU64(out[:0], rq.ID, rq.Arg)
		_, _, body, err := wire.ParseResponse(out[4:])
		if err != nil {
			return fmt.Errorf("probe: decoding own response frame: %w", err)
		}
		sink ^= uint64(len(body))
		t1 = time.Now()
		tr.add("wire.query_codec", req, root, t0, t1, 1)
		t0 = time.Now()
		sink ^= math.Float64bits(p.query(kind, key))
		t1 = time.Now()
		tr.add("shard.query", req, root, t0, t1, 1)
		tr.close(root, time.Now())
	}
	sinkU64.Store(sink)
	return nil
}

var sinkU64 atomic.Uint64 // keeps measured results alive

func (p *probe) wireQuery(kind int, key uint64) (wire.Family, wire.Query, string, uint64) {
	switch kind {
	case qCount:
		return wire.FamilyCountMin, wire.QueryCount, probeFams[0].name, key
	case qWindowCount:
		return wire.FamilyCountMin, wire.QueryWindowCount, probeFams[0].name, key
	case qDecayedCount:
		return wire.FamilyCountMin, wire.QueryDecayedCount, probeFams[0].name, key
	case qThetaEstimate:
		return wire.FamilyTheta, wire.QueryEstimate, probeFams[1].name, 0
	case qHLLEstimate:
		return wire.FamilyHLL, wire.QueryEstimate, probeFams[2].name, 0
	}
	return wire.FamilyQuantiles, wire.QueryQuantile, probeFams[3].name, math.Float64bits(0.99)
}

func (p *probe) servedQuery(c *client.Client, kind int, key uint64) (float64, error) {
	switch kind {
	case qCount:
		v, err := c.Count(probeFams[0].name, key)
		return float64(v), err
	case qWindowCount:
		v, err := c.WindowCount(probeFams[0].name, key)
		return float64(v), err
	case qDecayedCount:
		v, err := c.DecayedCount(probeFams[0].name, key)
		return float64(v), err
	case qThetaEstimate:
		return c.ThetaEstimate(probeFams[1].name)
	case qHLLEstimate:
		return c.HLLEstimate(probeFams[2].name)
	}
	return c.Quantile(probeFams[3].name, 0.99)
}

// query answers one query kind in process the way sketchd serves it: a
// per-key read of the owning shard, or a fold into a reused accumulator.
func (p *probe) query(kind int, key uint64) float64 {
	switch kind {
	case qCount:
		return float64(p.cm.Sketch().Estimate(key))
	case qWindowCount:
		p.cm.WindowQueryInto(p.accCM)
		return float64(p.accCM.Estimate(key))
	case qDecayedCount:
		p.cm.Sketch().DecayedQueryInto(p.accCM)
		return float64(p.accCM.Estimate(key))
	case qThetaEstimate:
		p.th.QueryInto(p.accTh)
		return p.accTh.Estimate()
	case qHLLEstimate:
		p.hl.QueryInto(p.accHL)
		return p.accHL.Estimate()
	}
	p.q.QueryInto(p.accQ)
	return p.accQ.Quantile(0.99)
}

// subtraction derives the client spans and residuals from the probe's
// requests, prints each served span beside the sum of its in-process
// layer spans, and reports a residual below zero by more than the served
// span's own spread as a problem: the layers were measured on mismatched
// geometry or inputs.
func (l *ledger) subtraction() {
	spans := l.tr.snapshot()
	type parts struct {
		served float64
		layers float64
	}
	byReq := map[int32]*parts{}
	rootName := map[int32]string{}
	for _, sp := range spans {
		if sp.Parent < 0 && strings.HasPrefix(sp.Name, "probe.") {
			rootName[sp.ID] = sp.Name
			byReq[sp.ID] = &parts{}
		}
	}
	for _, sp := range spans {
		pr, ok := byReq[sp.Parent]
		if !ok {
			continue
		}
		us := float64(sp.dur().Nanoseconds()) / 1e3
		if strings.HasPrefix(sp.Name, "client.") {
			pr.served += us
		} else {
			pr.layers += us
		}
	}
	served, layers, resid := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var pooledFlush, pooledQuery []float64
	for id, pr := range byReq {
		n := rootName[id]
		served[n] = append(served[n], pr.served)
		layers[n] = append(layers[n], pr.layers)
		resid[n] = append(resid[n], pr.served-pr.layers)
		if strings.HasPrefix(n, "probe.flush.") {
			pooledFlush = append(pooledFlush, pr.served-pr.layers)
		} else {
			pooledQuery = append(pooledQuery, pr.served-pr.layers)
		}
	}
	roots := make([]string, 0, len(served))
	for n := range served {
		roots = append(roots, n)
	}
	sort.Strings(roots)
	for _, n := range roots {
		sv := served[n]
		var clientMetric, residMetric string
		if k, ok := strings.CutPrefix(n, "probe.flush."); ok {
			clientMetric, residMetric = "client.flush_us."+k, "server.residual_us.flush."+k
		} else {
			k := strings.TrimPrefix(n, "probe.query.")
			clientMetric, residMetric = "client.query_us."+k, "server.residual_us.query."+k
		}
		ms, ml, mr := median(sv), median(layers[n]), median(resid[n])
		l.put(clientMetric, ms, len(sv))
		l.put(residMetric, mr, len(sv))
		fmt.Printf("subtraction %-28s served %9.1f us = layers %9.1f us + residual %9.1f us (n=%d)\n", n, ms, ml, mr, len(sv))
		if noise := math.Max(iqr(sv), 1); mr < -noise {
			l.rep.problems = append(l.rep.problems, fmt.Sprintf(
				"%s: negative residual %.1f us beyond the served span's spread %.1f us: layer rows do not match the served geometry or input",
				n, mr, noise))
		}
	}
	l.put("server.residual_us.flush", median(pooledFlush), len(pooledFlush))
	l.put("server.residual_us.query", median(pooledQuery), len(pooledQuery))

	// Self time per span name: for a probe root it is the benchmark's own
	// work between the calls it times; for a layer span, its own duration.
	self := map[string][]float64{}
	for i, st := range selfTimes(spans) {
		self[spans[i].Name] = append(self[spans[i].Name], float64(st.Nanoseconds())/1e3/float64(max(spans[i].N, 1)))
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("self %-34s median %12.4f us per operation (n=%d spans)\n", n, median(self[n]), len(self[n]))
	}
}

// opsRows times the served ops plane after the load: OpsStats on the
// control connection and /metrics scrapes over HTTP, whose values give the
// ops gauges.
func (l *ledger) opsRows(s *session, e *e2e) error {
	var stats []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		_, err := s.conns[1].OpsStats()
		t1 := time.Now()
		if !e.op(err) {
			return fmt.Errorf("OpsStats: %v", e.firstErr.Load())
		}
		l.tr.add("ops.stats", l.tr.newReq(), -1, t0, t1, 1)
		stats = append(stats, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	l.put("ops.stats_us", median(stats), len(stats))
	var scrapes []float64
	var body []byte
	hc := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		b, err := scrape(hc, s.d.metricsAddr)
		t1 := time.Now()
		if !e.op(err) {
			return fmt.Errorf("scraping /metrics: %w", err)
		}
		l.tr.add("ops.scrape", l.tr.newReq(), -1, t0, t1, 1)
		scrapes = append(scrapes, float64(t1.Sub(t0).Nanoseconds())/1e6)
		body = b
	}
	hc.CloseIdleConnections()
	l.put("ops.scrape_ms", median(scrapes), len(scrapes))
	sums, maxes := parseMetrics(body)
	l.put("ops.backlog", sums["fastsketches_sketch_backlog"], 0)
	l.put("ops.view_lag_ms", maxes["fastsketches_sketch_view_lag_seconds"]*1e3, 0)
	l.put("ops.window_rotations", sums["fastsketches_sketch_window_rotations_total"], 0)
	l.put("ops.resident_mb", sums["fastsketches_sketch_resident_bytes"]/(1<<20), 0)
	return nil
}

func scrape(hc *http.Client, addr string) ([]byte, error) {
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// parseMetrics sums and maxes every Prometheus text sample by metric name
// across its label sets.
func parseMetrics(body []byte) (sums, maxes map[string]float64) {
	sums, maxes = map[string]float64{}, map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		sums[name] += v
		if m, ok := maxes[name]; !ok || v > m {
			maxes[name] = v
		}
	}
	return sums, maxes
}

// inProcess runs the in-process layer rows, from the hash up to the
// registry, with sketchd already stopped so nothing else competes.
func (l *ledger) inProcess(seed uint64, p *probe) error {
	const n = 1 << 18
	r := newRNG(seed, 0x60)
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = r.next()
		vals[i] = float64(r.intn(tenantLevels))
	}
	var sink uint64
	l.row("murmur.hash_ns", n, time.Nanosecond, func() {
		for _, k := range keys {
			sink ^= murmur.HashUint64(k, murmur.DefaultSeed)
		}
	})
	cm := countmin.NewWithError(geo.CMEps, geo.CMDelta, murmur.DefaultSeed)
	l.row("countmin.update_ns", n, time.Nanosecond, func() {
		for _, k := range keys {
			cm.Update(k)
		}
	})
	l.row("countmin.estimate_ns", n/4, time.Nanosecond, func() {
		for _, k := range keys[:n/4] {
			sink ^= cm.Estimate(k)
		}
	})
	hs := hll.New(geo.HLLP, murmur.DefaultSeed)
	l.row("hll.update_ns", n, time.Nanosecond, func() {
		for _, k := range keys {
			hs.Update(k)
		}
	})
	l.row("hll.estimate_ns", 256, time.Nanosecond, func() {
		for i := 0; i < 256; i++ {
			sink ^= math.Float64bits(hs.Estimate())
		}
	})
	ts := theta.NewQuickSelect(geo.ThetaLgK, murmur.DefaultSeed)
	l.row("theta.update_ns", n, time.Nanosecond, func() {
		for _, k := range keys {
			ts.Update(k)
		}
	})
	qs := quantiles.New(geo.QuantilesK, quantiles.NewRandomBits(int64(seed)))
	l.row("quantiles.update_ns", n, time.Nanosecond, func() {
		for _, v := range vals {
			qs.Update(v)
		}
	})
	if err := l.coreRows(keys); err != nil {
		return err
	}
	if err := l.shardRows(keys, vals); err != nil {
		return err
	}
	l.wireRows(keys)
	l.queryRows(seed, p)
	sinkU64.Store(sink)
	return l.registryRows(seed)
}

// coreRows time the root package's concurrent sketches (the paper's
// framework without sharding) with one writer and with one writer per CPU.
func (l *ledger) coreRows(keys []uint64) error {
	nproc := runtime.NumCPU()
	for _, fam := range []string{"hll", "theta"} {
		for _, writers := range []int{1, nproc} {
			suffix := ".w1"
			if writers != 1 {
				suffix = ".wnproc"
			}
			per := make([]float64, ledgerReps)
			for rep := range per {
				var update func(w int, k uint64)
				var closeFn func()
				if fam == "hll" {
					h, err := fastsketches.NewConcurrentHLL(fastsketches.HLLConfig{P: geo.HLLP, Writers: writers})
					if err != nil {
						return err
					}
					update, closeFn = h.Update, h.Close
				} else {
					t, err := fastsketches.NewConcurrentTheta(fastsketches.ThetaConfig{LgK: geo.ThetaLgK, Writers: writers})
					if err != nil {
						return err
					}
					update, closeFn = t.Update, t.Close
				}
				chunk := len(keys) / writers
				t0 := time.Now()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for _, k := range keys[w*chunk : (w+1)*chunk] {
							update(w, k)
						}
					}(w)
				}
				wg.Wait()
				t1 := time.Now()
				closeFn()
				l.tr.add("ledger.core."+fam+suffix, l.tr.newReq(), -1, t0, t1, chunk*writers)
				per[rep] = float64(t1.Sub(t0).Nanoseconds()) / float64(chunk*writers)
			}
			l.put("core."+fam+"_update_ns"+suffix, median(per), ledgerReps*len(keys))
		}
	}
	return nil
}

// shardRows time Handle.UpdateBatch on one lane, per item, at the served
// batch sizes.
func (l *ledger) shardRows(keys []uint64, vals []float64) error {
	reg, err := fastsketches.NewRegistry(registryConfig())
	if err != nil {
		return err
	}
	defer reg.Close()
	cm, err := reg.OpenCountMin("ledger.cm", fastsketches.Spec{})
	if err != nil {
		return err
	}
	hl, err := reg.OpenHLL("ledger.hll", fastsketches.Spec{})
	if err != nil {
		return err
	}
	th, err := reg.OpenTheta("ledger.theta", fastsketches.Spec{})
	if err != nil {
		return err
	}
	q, err := reg.OpenQuantiles("ledger.q", fastsketches.Spec{})
	if err != nil {
		return err
	}
	const batches = 64
	batched := func(name string, size int, apply func(lo, hi int)) {
		l.row(name, batches*size, time.Nanosecond, func() {
			for b := 0; b < batches; b++ {
				lo := (b * size) % (len(keys) - size)
				apply(lo, lo+size)
			}
		})
	}
	batched("shard.countmin_batch_ns", ingestItems, func(lo, hi int) { cm.UpdateBatch(0, keys[lo:hi]) })
	batched("shard.hll_batch_ns", ingestItems, func(lo, hi int) { hl.UpdateBatch(0, keys[lo:hi]) })
	batched("shard.theta_batch_ns", ingestItems, func(lo, hi int) { th.UpdateBatch(0, keys[lo:hi]) })
	batched("shard.quantiles_batch_ns", ingestItems, func(lo, hi int) { q.UpdateBatch(0, vals[lo:hi]) })
	batched("shard.countmin_batch64_ns", tenantItems, func(lo, hi int) { cm.UpdateBatch(0, keys[lo:hi]) })
	return nil
}

// wireRows time the frame codec: batch encode and decode per item, and one
// query round trip's four codec steps per query.
func (l *ledger) wireRows(keys []uint64) {
	const frames = 256
	var buf, out []byte
	var sink uint64
	l.row("wire.batch_encode_ns", frames*ingestItems, time.Nanosecond, func() {
		for f := 0; f < frames; f++ {
			buf = wire.AppendBatch(buf[:0], uint32(f), wire.FamilyCountMin, probeFams[0].name, keys[:ingestItems])
		}
	})
	l.row("wire.batch_decode_ns", frames*ingestItems, time.Nanosecond, func() {
		for f := 0; f < frames; f++ {
			rq, err := wire.ParseRequest(buf[4:])
			if err != nil {
				panic("decoding a frame this process encoded: " + err.Error())
			}
			for k := 0; k < rq.NumItems(); k++ {
				sink ^= rq.Item(k)
			}
		}
	})
	const queries = 1 << 14
	l.row("wire.query_codec_ns", queries, time.Nanosecond, func() {
		for i := 0; i < queries; i++ {
			buf = wire.AppendQuery(buf[:0], uint32(i), wire.FamilyCountMin, wire.QueryCount, probeFams[0].name, keys[i])
			rq, err := wire.ParseRequest(buf[4:])
			if err != nil {
				panic("decoding a frame this process encoded: " + err.Error())
			}
			out = wire.AppendOKU64(out[:0], rq.ID, rq.Arg)
			_, _, body, err := wire.ParseResponse(out[4:])
			if err != nil {
				panic("decoding a frame this process encoded: " + err.Error())
			}
			sink ^= uint64(len(body))
		}
	})
	sinkU64.Store(sink)
}

// queryRows time the shard layer's query paths on the probe's in-process
// sketches, which hold exactly the probe's served input.
func (l *ledger) queryRows(seed uint64, p *probe) {
	r := newRNG(seed, 0x61)
	keys := make([]uint64, 1<<14)
	for i := range keys {
		keys[i] = rankKey(seed, p.z.rank(r))
	}
	var sink float64
	q := func(name string, n int, unit time.Duration, kind int, sk func() float64) {
		l.row(name, n, unit, func() {
			for i := 0; i < n; i++ {
				if sk != nil {
					sink += sk()
				} else {
					sink += p.query(kind, keys[i%len(keys)])
				}
			}
		})
	}
	q("shard.countmin_count_ns", len(keys), time.Nanosecond, qCount, nil)
	q("shard.countmin_window_count_us", 50, time.Microsecond, qWindowCount, nil)
	q("shard.countmin_decayed_count_us", 50, time.Microsecond, qDecayedCount, nil)
	q("shard.theta_view_us", 200, time.Microsecond, qThetaEstimate, nil)
	acc := p.thLive.NewAccumulator()
	q("shard.theta_queryinto_us", 50, time.Microsecond, 0, func() float64 {
		p.thLive.QueryInto(acc)
		return acc.Estimate()
	})
	q("shard.hll_estimate_us", 100, time.Microsecond, qHLLEstimate, nil)
	q("shard.quantile_us", 100, time.Microsecond, qQuantile, nil)
	sinkU64.Store(math.Float64bits(sink))
}

// registryRows build an in-process registry shaped like the tenants
// workload (256 sketches, 64 per family, Zipf popularity, 64-item batches
// on two lanes), sampling the Θ tenants' propagation pressure while it
// ingests, then time Open* on existing names and Checkpoint / Restore of
// the whole registry.
func (l *ledger) registryRows(seed uint64) error {
	reg, err := fastsketches.NewRegistry(registryConfig())
	if err != nil {
		return err
	}
	defer reg.Close()
	tw := newTenants(seed)
	type tenant struct {
		fam client.Family
		cm  *fastsketches.CountMinHandle
		th  *fastsketches.ThetaHandle
		hl  *fastsketches.HLLHandle
		q   *fastsketches.QuantilesHandle
		fed atomic.Int64
	}
	ts := make([]*tenant, numTenants)
	for i, ref := range tw.refs {
		t := &tenant{fam: ref.fam}
		var err error
		switch ref.fam {
		case client.CountMin:
			t.cm, err = reg.OpenCountMin(ref.name, fastsketches.Spec{})
		case client.Theta:
			t.th, err = reg.OpenTheta(ref.name, fastsketches.Spec{})
		case client.HLL:
			t.hl, err = reg.OpenHLL(ref.name, fastsketches.Spec{})
		case client.Quantiles:
			t.q, err = reg.OpenQuantiles(ref.name, fastsketches.Spec{})
		}
		if err != nil {
			return err
		}
		ts[i] = t
	}
	const perLane = 8000
	var backlogMax atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			for _, t := range ts {
				if t.th != nil {
					if b := t.th.Pressure().Backlog(); b > backlogMax.Load() {
						backlogMax.Store(b)
					}
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	t0 := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < geo.Writers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			r := newRNG(seed, 0x70+uint64(lane))
			keys := newDistinctKeys(seed, uint8(16+lane))
			items := make([]uint64, tenantItems)
			vals := make([]float64, tenantItems)
			for b := 0; b < perLane; b++ {
				t := ts[tw.perm[tw.pop.rank(r)]]
				for i := range items {
					items[i] = keys.next()
					vals[i] = float64(r.intn(tenantLevels))
				}
				switch t.fam {
				case client.CountMin:
					t.cm.UpdateBatch(lane, items)
				case client.Theta:
					t.th.UpdateBatch(lane, items)
				case client.HLL:
					t.hl.UpdateBatch(lane, items)
				case client.Quantiles:
					t.q.UpdateBatch(lane, vals)
				}
				t.fed.Add(tenantItems)
			}
		}(lane)
	}
	wg.Wait()
	t1 := time.Now()
	close(stop)
	<-sampled
	l.tr.add("ledger.registry.tenant_ingest", l.tr.newReq(), -1, t0, t1, geo.Writers*perLane*tenantItems)
	var ingested, fed int64
	for _, t := range ts {
		if t.th != nil {
			ingested += t.th.Pressure().Ingested
			fed += t.fed.Load()
		}
	}
	if fed == 0 {
		return fmt.Errorf("registry rows: no Θ tenant was fed")
	}
	l.put("core.propagated_ratio", float64(ingested)/float64(fed), int(fed))
	l.put("core.backlog_max", float64(backlogMax.Load()), 0)

	const opens = 1 << 14
	var openErr error
	l.row("registry.open_ns", opens, time.Nanosecond, func() {
		for i := 0; i < opens; i++ {
			ref := tw.refs[i%numTenants]
			var err error
			switch ref.fam {
			case client.CountMin:
				_, err = reg.OpenCountMin(ref.name, fastsketches.Spec{})
			case client.Theta:
				_, err = reg.OpenTheta(ref.name, fastsketches.Spec{})
			case client.HLL:
				_, err = reg.OpenHLL(ref.name, fastsketches.Spec{})
			case client.Quantiles:
				_, err = reg.OpenQuantiles(ref.name, fastsketches.Spec{})
			}
			if err != nil && openErr == nil {
				openErr = err
			}
		}
	})
	if openErr != nil {
		return fmt.Errorf("registry rows: reopening a tenant: %w", openErr)
	}

	var blob bytes.Buffer
	var ckErr error
	l.row("registry.checkpoint_ms", 1, time.Millisecond, func() {
		blob.Reset()
		if err := reg.Checkpoint(&blob); err != nil && ckErr == nil {
			ckErr = err
		}
	})
	if ckErr != nil {
		return fmt.Errorf("registry rows: checkpoint: %w", ckErr)
	}
	l.put("registry.checkpoint_mb", float64(blob.Len())/(1<<20), 0)
	per := make([]float64, ledgerReps)
	for i := range per {
		fresh, err := fastsketches.NewRegistry(registryConfig())
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = fresh.Restore(bytes.NewReader(blob.Bytes()))
		t1 := time.Now()
		fresh.Close()
		if err != nil {
			return fmt.Errorf("registry rows: restore: %w", err)
		}
		l.tr.add("ledger.registry.restore_ms", l.tr.newReq(), -1, t0, t1, 1)
		per[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	}
	l.put("registry.restore_ms", median(per), ledgerReps)
	return nil
}
