package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches/client"
)

// Query workload constants. Setup fills all four sketches with
// queryWarmBatches 1024-item batches of Zipf keys over 2^16 ranks; during
// the load the ingest connection paces 1024-item batches into the
// windowed Count-Min sketch only, at a fixed 100k items/s (about 4% of
// the ingest workload's capacity), which keeps window rotations and view
// refreshes running without moving the query numbers. The Θ, HLL and
// quantiles sketches are not fed during the load: on Zipf keys a served
// Θ batch costs about ten times a Count-Min one, so a round robin over all
// four families at this rate ran the ingest near saturation, and its
// flush latencies queued instead of measuring the ingest path.
const (
	queryDomain     = 1 << 16
	queryZipfS      = 1.1
	queryRate       = 100_000 // items/s
	queryViewEvery  = 100 * time.Millisecond
	queryViewMaxAge = 400 * time.Millisecond
	// queryViewSlack is how far behind the acked stream a served view
	// answer may lie: at most the view's max age plus the fold itself.
	queryViewSlack = time.Second
	queryWinEvery  = time.Second
	queryWinSlots  = 8
	queryWinDecay  = 0.5
	queryNCheck    = 64 // every 64th mix step also checks CountMinN/QuantilesN live
	// queryWarmBatches per sketch put the Θ sketch well past k distinct
	// keys (estimation mode) and every shard past the eager phase.
	queryWarmBatches = 32
)

// The query workload's sketches, in the ingest connection's round-robin
// order. The Count-Min sketch has a window with decay; the Θ sketch has a
// view.
var queryRefs = [4]sketchRef{
	{client.CountMin, "query.cm"},
	{client.Theta, "query.theta"},
	{client.HLL, "query.hll"},
	{client.Quantiles, "query.q"},
}

// The fixed query mix, in equal shares.
const (
	qCount = iota
	qWindowCount
	qDecayedCount
	qThetaEstimate
	qHLLEstimate
	qQuantile
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{
	"count", "window_count", "decayed_count", "theta_estimate", "hll_estimate", "quantile",
}

// rankTruth is the exact truth of one sketch's stream over the rank
// domain: per-rank sent and acked counts (ranks are Count-Min keys and
// quantile values), totals, and distinct counts. The ingest goroutine
// writes it; the query goroutine reads it for live checks.
type rankTruth struct {
	sent, acked   []atomic.Uint32
	sentN, ackedN atomic.Uint64
	sentD, ackedD atomic.Uint64
	mu            sync.Mutex
	dHist         []distinctAt // acked distinct count over time
}

type distinctAt struct {
	t time.Time
	d uint64
}

func newRankTruth() *rankTruth {
	return &rankTruth{sent: make([]atomic.Uint32, queryDomain), acked: make([]atomic.Uint32, queryDomain)}
}

func (t *rankTruth) send(ranks []int32) {
	for _, r := range ranks {
		if t.sent[r].Add(1) == 1 {
			t.sentD.Add(1)
		}
	}
	t.sentN.Add(uint64(len(ranks)))
}

func (t *rankTruth) ack(ranks []int32, now time.Time) {
	for _, r := range ranks {
		if t.acked[r].Add(1) == 1 {
			t.ackedD.Add(1)
		}
	}
	t.ackedN.Add(uint64(len(ranks)))
	t.mu.Lock()
	t.dHist = append(t.dHist, distinctAt{now, t.ackedD.Load()})
	t.mu.Unlock()
}

// ackedDistinctAt returns the acked distinct count as of time at.
func (t *rankTruth) ackedDistinctAt(at time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d uint64
	for _, h := range t.dHist {
		if h.t.After(at) {
			break
		}
		d = h.d
	}
	return d
}

type queryW struct {
	seed    uint64
	orc     oracle
	z       *zipf
	truth   [4]*rankTruth
	relax   [4]uint64
	cmShard uint64
	keyOf   []uint64  // rank → Count-Min / Θ / HLL key
	warm    *ingester // the ingest stream, continued from setup into the load
}

func newQuery(seed uint64) *queryW {
	w := &queryW{seed: seed, z: newZipf(queryDomain, queryZipfS), keyOf: make([]uint64, queryDomain+64)}
	for i := range w.truth {
		w.truth[i] = newRankTruth()
	}
	for r := range w.keyOf {
		w.keyOf[r] = rankKey(seed, r)
	}
	return w
}

func (w *queryW) name() string    { return "query" }
func (w *queryW) batchLimit() int { return 4096 }
func (w *queryW) oracle() *oracle { return &w.orc }

// ingester is the query workload's ingest connection state.
type ingester struct {
	w     *queryW
	r     *rng
	bs    [4]*client.Batch
	ranks []int32
}

func (w *queryW) newIngester(c *client.Client) *ingester {
	in := &ingester{w: w, r: newRNG(w.seed, 0x10), ranks: make([]int32, ingestItems)}
	for f, ref := range queryRefs {
		in.bs[f] = c.NewBatch(ref.fam, ref.name)
	}
	return in
}

// next ships the next batch to sketch f.
func (in *ingester) next(f int) error {
	b := in.bs[f]
	for j := range in.ranks {
		rk := in.w.z.rank(in.r)
		in.ranks[j] = int32(rk)
		var err error
		if queryRefs[f].fam == client.Quantiles {
			err = b.AddFloat(float64(rk))
		} else {
			err = b.Add(in.w.keyOf[rk])
		}
		if err != nil {
			return err
		}
	}
	t := in.w.truth[f]
	t.send(in.ranks)
	if err := b.Flush(); err != nil {
		b.Reset()
		return err
	}
	t.ack(in.ranks, time.Now())
	return nil
}

// mixer runs the query mix on one connection, checking each answer live.
type mixer struct {
	w *queryW
	c *client.Client
	r *rng
	j int
}

func (w *queryW) newMixer(c *client.Client) *mixer {
	return &mixer{w: w, c: c, r: newRNG(w.seed, 0x20)}
}

// step issues the next query of the mix and returns its kind and error.
func (m *mixer) step() (int, error) {
	w, c := m.w, m.c
	kind := m.j % numQueryKinds
	m.j++
	cm := w.truth[0]
	switch kind {
	case qCount, qWindowCount, qDecayedCount:
		rk := m.z()
		k := w.keyOf[rk]
		lo := int64(cm.acked[rk].Load()) - int64(w.cmShard)
		var est uint64
		var err error
		switch kind {
		case qCount:
			est, err = c.Count(queryRefs[0].name, k)
		case qWindowCount:
			est, err = c.WindowCount(queryRefs[0].name, k)
		default:
			est, err = c.DecayedCount(queryRefs[0].name, k)
		}
		if err != nil {
			return kind, err
		}
		epsN := geo.CMEps * float64(cm.sentN.Load())
		lower, upper := countBounds(est, lo, uint64(cm.sent[rk].Load()), epsN)
		if kind == qCount {
			w.orc.check(lower, "query: Count(rank %d)=%d below acked-r=%d", rk, est, lo)
		}
		w.orc.cmUpper(upper, "query: %s(rank %d)=%d", queryKindNames[kind], rk, est)
	case qThetaEstimate, qHLLEstimate:
		f, fam := 1, client.Theta
		if kind == qHLLEstimate {
			f, fam = 2, client.HLL
		}
		t := w.truth[f]
		lo := t.ackedD.Load()
		if fam == client.Theta {
			lo = t.ackedDistinctAt(time.Now().Add(-queryViewSlack))
		}
		var est float64
		var err error
		if fam == client.Theta {
			est, err = c.ThetaEstimate(queryRefs[f].name)
		} else {
			est, err = c.HLLEstimate(queryRefs[f].name)
		}
		if err != nil {
			return kind, err
		}
		hi := t.sentD.Load()
		w.orc.check(distinctOK(est, float64(lo)-float64(w.relax[f]), float64(hi), geo.distinctTol(fam)),
			"query: %s estimate %.0f outside [%d-%d, %d]", fam, est, lo, w.relax[f], hi)
	case qQuantile:
		v, err := c.Quantile(queryRefs[3].name, 0.99)
		if err != nil {
			return kind, err
		}
		l := int(v)
		w.orc.check(float64(l) == v && l >= 0 && l < queryDomain && w.truth[3].sent[l].Load() > 0,
			"query: Quantile(0.99)=%v is not a streamed value", v)
	}
	return kind, nil
}

func (m *mixer) z() int { return m.w.z.rank(m.r) }

// totals checks the paper's bound live on the aggregate counts: a served
// CountMinN / QuantilesN is never below the acked items minus the
// Info-reported relaxation, and never above the items sent.
func (m *mixer) totals(e *e2e) {
	for _, f := range []int{0, 3} {
		t := m.w.truth[f]
		lo := t.ackedN.Load()
		var n uint64
		var err error
		if f == 0 {
			n, err = m.c.CountMinN(queryRefs[f].name)
		} else {
			n, err = m.c.QuantilesN(queryRefs[f].name)
		}
		if !e.op(err) {
			continue
		}
		hi := t.sentN.Load()
		m.w.orc.check(n+m.w.relax[f] >= lo && n <= hi,
			"query: %s N=%d outside [acked-relax, sent]=[%d-%d, %d]", queryRefs[f].fam, n, lo, m.w.relax[f], hi)
	}
}

func (w *queryW) setup(s *session) error {
	qc, ic := s.conns[0], s.conns[1]
	for i, r := range queryRefs {
		if err := qc.Create(r.fam, r.name); err != nil {
			return err
		}
		inf, err := qc.Info(r.fam, r.name)
		if err != nil {
			return err
		}
		w.relax[i] = inf.Relaxation
		if r.fam == client.CountMin {
			w.cmShard = inf.ShardRelaxation
		}
	}
	if err := qc.EnableWindow(queryRefs[0].name, queryWinEvery, queryWinSlots, queryWinDecay); err != nil {
		return err
	}
	if err := qc.EnableView(queryRefs[1].name, queryViewEvery, queryViewMaxAge); err != nil {
		return err
	}
	// Warm-up: queryWarmBatches unpaced batches per sketch, round robin,
	// then 60 queries.
	in := w.newIngester(ic)
	for i := 0; i < queryWarmBatches*len(queryRefs); i++ {
		if err := in.next(i % len(queryRefs)); err != nil {
			return err
		}
	}
	m := w.newMixer(qc)
	for i := 0; i < 60; i++ {
		if _, err := m.step(); err != nil {
			return err
		}
	}
	w.warm = in
	return nil
}

func (w *queryW) load(s *session, dur time.Duration, e *e2e, tr *tracer, sl *slicer) error {
	start := time.Now()
	deadline := start.Add(dur)
	period := time.Duration(float64(ingestItems) / queryRate * float64(time.Second))
	e.itemsPerFlush = ingestItems
	e.queriesInLoad = true
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // open-loop ingest: each batch is timed from its due time
		defer wg.Done()
		in := w.warm
		lat := newSamples(start, 4096)
		late := make([]float64, 0, 4096)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * period)
			if !due.Before(deadline) {
				break
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			err := in.next(0)
			done := time.Now()
			if !e.op(err) {
				continue
			}
			lat.add(due, done)
			late = append(late, float64(sent.Sub(due).Nanoseconds())/1e3)
			if tr.enabled() {
				tr.add("load.flush.countmin", tr.newReq(), -1, due, done, 1)
			}
		}
		e.mu.Lock()
		e.lateUs = append(e.lateUs, late...)
		e.mu.Unlock()
		e.addFlushes(lat)
	}()
	go func() { // closed-loop queries
		defer wg.Done()
		m := w.newMixer(s.conns[0])
		lat := newSamples(start, 1<<17)
		for time.Now().Before(deadline) {
			if m.j%queryNCheck == 0 {
				m.totals(e)
			}
			t0 := time.Now()
			kind, err := m.step()
			t1 := time.Now()
			if !e.op(err) {
				continue
			}
			lat.add(t0, t1)
			sl.add(1)
			if tr.enabled() {
				tr.add("load.query."+queryKindNames[kind], tr.newReq(), -1, t0, t1, 1)
			}
		}
		e.mu.Lock()
		e.queryDur = time.Since(start)
		e.mu.Unlock()
		e.addQueries(lat)
	}()
	wg.Wait()
	e.loadDur = time.Since(start)
	return nil
}

// probe adds the served checkpoints the query load does not make.
func (w *queryW) probe(s *session, e *e2e) error { return checkpoints(s.conns[0], e, probeCheckpoints) }

func (w *queryW) final(s *session, e *e2e) (*finalTruth, error) {
	c := s.conns[0]
	if err := quiesce(c, queryRefs[:], e); err != nil {
		return nil, err
	}
	cmT := w.truth[0]
	cm := cmFinal{name: queryRefs[0].name, n: cmT.ackedN.Load()}
	r := newRNG(w.seed, 0x30)
	for i := 0; i < 128; i++ {
		rk := i // the 64 hottest ranks, then 64 random ones
		if i >= 64 {
			rk = r.intn(queryDomain)
		}
		cm.keys, cm.counts = append(cm.keys, w.keyOf[rk]), append(cm.counts, uint64(cmT.acked[rk].Load()))
	}
	for i := 0; i < 16; i++ { // keys outside the streamed domain
		cm.keys, cm.counts = append(cm.keys, w.keyOf[queryDomain+i]), append(cm.counts, 0)
	}
	// Windowed and decayed reads cover a subset of the stream (with weights
	// at most 1), so after the drain they lie in [0, true + ε·N] as well.
	epsN := geo.CMEps * float64(cm.n)
	for i, k := range cm.keys[:64] {
		for _, decayed := range []bool{false, true} {
			var est uint64
			var err error
			if decayed {
				est, err = c.DecayedCount(cm.name, k)
			} else {
				est, err = c.WindowCount(cm.name, k)
			}
			if !e.op(err) {
				continue
			}
			_, upper := countBounds(est, 0, cm.counts[i], epsN)
			w.orc.cmUpper(upper, "query final: windowed/decayed count of rank %d = %d, true %d", i, est, cm.counts[i])
		}
	}
	qT := w.truth[3]
	q := quantFinal{name: queryRefs[3].name, n: qT.ackedN.Load(), hist: make([]uint64, queryDomain)}
	for i := range q.hist {
		q.hist[i] = uint64(qT.acked[i].Load())
	}
	return &finalTruth{
		cm: []cmFinal{cm},
		distinct: []distinctFinal{
			{client.Theta, queryRefs[1].name, w.truth[1].ackedD.Load()},
			{client.HLL, queryRefs[2].name, w.truth[2].ackedD.Load()},
		},
		quant: []quantFinal{q},
	}, nil
}

// latenessSummary reports how late the paced generator sent its batches.
func latenessSummary(late []float64) (p50, max float64) {
	if len(late) == 0 {
		return 0, 0
	}
	max = math.Inf(-1)
	for _, v := range late {
		max = math.Max(max, v)
	}
	return median(late), max
}
