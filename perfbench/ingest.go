package main

import (
	"sync"
	"time"

	"fastsketches/client"
)

// ingestItems is the batch size of the ingest and query workloads.
const ingestItems = 1024

// ingestW is the `ingest` workload: two closed-loop connections, each
// sending 1024-key batches of distinct uniform 64-bit keys, alternating
// between one Count-Min and one HLL sketch, with no view and no window.
// Neither family pre-filters, so every item takes the whole per-item path:
// hash, family update, core propagation, shard routing, lane, wire decode.
// The query plane stays idle during the load.
type ingestW struct {
	seed    uint64
	orc     oracle
	keys    [maxConns]*distinctKeys
	acked   [maxConns][2]uint64 // per connection: Count-Min, HLL items acked
	samples [maxConns][]uint64  // acked Count-Min keys kept for per-key checks
	relax   [2]uint64           // Info-reported merged-query relaxation
	cmShard uint64              // Count-Min per-key (single shard) relaxation
}

var ingestRefs = [2]sketchRef{{client.CountMin, "ingest.cm"}, {client.HLL, "ingest.hll"}}

// ingestProbeFor is the post-load query phase's length.
const ingestProbeFor = 2 * time.Second

// probeCheckpoints is how many served checkpoints a post-load probe times.
const probeCheckpoints = 15

// samplesPerConn bounds the per-key Count-Min checks; sampled keys are the
// acked keys whose low 12 bits are zero, in send order.
const samplesPerConn = 128

func newIngest(seed uint64) *ingestW {
	w := &ingestW{seed: seed}
	for g := range w.keys {
		w.keys[g] = newDistinctKeys(seed, uint8(g))
	}
	return w
}

func (w *ingestW) name() string      { return "ingest" }
func (w *ingestW) batchLimit() int   { return 4096 }
func (w *ingestW) oracle() *oracle   { return &w.orc }
func (w *ingestW) refs() []sketchRef { return ingestRefs[:] }

// send ships one batch on connection g to family f (0 Count-Min, 1 HLL).
func (w *ingestW) send(g, f int, b *client.Batch, buf []uint64) error {
	for i := range buf {
		buf[i] = w.keys[g].next()
		if err := b.Add(buf[i]); err != nil {
			return err
		}
	}
	if err := b.Flush(); err != nil {
		b.Reset()
		return err
	}
	w.acked[g][f] += uint64(len(buf))
	if f == 0 {
		for _, k := range buf {
			if k&0xfff == 0 && len(w.samples[g]) < samplesPerConn {
				w.samples[g] = append(w.samples[g], k)
			}
		}
	}
	return nil
}

func (w *ingestW) setup(s *session) error {
	c := s.conns[0]
	for i, r := range ingestRefs {
		if err := c.Create(r.fam, r.name); err != nil {
			return err
		}
		inf, err := c.Info(r.fam, r.name)
		if err != nil {
			return err
		}
		w.relax[i] = inf.Relaxation
		if r.fam == client.CountMin {
			w.cmShard = inf.ShardRelaxation
		}
	}
	// Warm-up: 16 batches per connection, both connections at once.
	return w.each(s, func(g int, bs [2]*client.Batch, buf []uint64) error {
		for i := 0; i < 16; i++ {
			f := (i + g) % 2
			if err := w.send(g, f, bs[f], buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// each runs fn on every connection concurrently, each with its own batch
// buffers, and returns the first error.
func (w *ingestW) each(s *session, fn func(g int, bs [2]*client.Batch, buf []uint64) error) error {
	var wg sync.WaitGroup
	errs := make([]error, maxConns)
	for g := 0; g < maxConns; g++ {
		bs := [2]*client.Batch{
			s.conns[g].NewBatch(ingestRefs[0].fam, ingestRefs[0].name),
			s.conns[g].NewBatch(ingestRefs[1].fam, ingestRefs[1].name),
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = fn(g, bs, make([]uint64, ingestItems))
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestW) load(s *session, dur time.Duration, e *e2e, tr *tracer, sl *slicer) error {
	start := time.Now()
	deadline := start.Add(dur)
	spanName := [2]string{"load.flush.countmin", "load.flush.hll"}
	e.itemsPerFlush = ingestItems
	_ = w.each(s, func(g int, bs [2]*client.Batch, buf []uint64) error {
		lat := newSamples(start, 1<<16)
		for i := 0; time.Now().Before(deadline); i++ {
			f := (i + g) % 2
			t0 := time.Now()
			err := w.send(g, f, bs[f], buf)
			t1 := time.Now()
			if !e.op(err) {
				continue
			}
			lat.add(t0, t1)
			sl.add(uint64(len(buf)))
			if tr.enabled() {
				tr.add(spanName[f], tr.newReq(), -1, t0, t1, 1)
			}
		}
		e.addFlushes(lat)
		return nil
	})
	e.loadDur = time.Since(start)
	return nil
}

// probe is the post-load phase that gives ingest its query and checkpoint
// metrics without loading the query plane during the ingest measurement:
// ingestProbeFor of closed-loop per-key Count reads of sampled keys, with
// CountMinN and HLLEstimate checked live against the relaxation bound
// every queryNCheck reads (untimed), then the served checkpoints. One
// timed query kind keeps the latency median inside one mode.
func (w *ingestW) probe(s *session, e *e2e) error {
	c := s.conns[0]
	cmN, hllN := w.total(0), w.total(1)
	keys := append(append([]uint64(nil), w.samples[0]...), w.samples[1]...)
	start := time.Now()
	lat := newSamples(start, 1<<16)
	for j := 0; time.Since(start) < ingestProbeFor; j++ {
		if j%queryNCheck == 0 {
			w.checkTotals(c, e, cmN, hllN)
		}
		k := keys[j%len(keys)]
		t0 := time.Now()
		est, err := c.Count(ingestRefs[0].name, k)
		t1 := time.Now()
		if !e.op(err) {
			continue
		}
		lat.add(t0, t1)
		lo, hi := countBounds(est, 1-int64(w.cmShard), 1, geo.CMEps*float64(cmN))
		w.orc.check(lo, "ingest: Count(%#x)=%d below 1-r", k, est)
		w.orc.cmUpper(hi, "ingest: Count(%#x)=%d", k, est)
	}
	e.queryDur = time.Since(start)
	e.addQueries(lat)
	return checkpoints(c, e, probeCheckpoints)
}

// checkTotals checks the paper's bound live on the aggregates: CountMinN
// within [acked − relaxation, acked] and the HLL estimate within its RSE
// tolerance of the same interval.
func (w *ingestW) checkTotals(c *client.Client, e *e2e, cmN, hllN uint64) {
	if n, err := c.CountMinN(ingestRefs[0].name); e.op(err) {
		w.orc.check(n <= cmN && n+w.relax[0] >= cmN,
			"ingest: CountMinN=%d outside [acked-relax, acked]=[%d-%d, %d]", n, cmN, w.relax[0], cmN)
	}
	if est, err := c.HLLEstimate(ingestRefs[1].name); e.op(err) {
		w.orc.check(distinctOK(est, float64(hllN)-float64(w.relax[1]), float64(hllN), geo.distinctTol(client.HLL)),
			"ingest: HLLEstimate=%.0f, acked distinct %d", est, hllN)
	}
}

func (w *ingestW) total(f int) uint64 {
	var n uint64
	for g := range w.acked {
		n += w.acked[g][f]
	}
	return n
}

func (w *ingestW) final(s *session, e *e2e) (*finalTruth, error) {
	if err := quiesce(s.conns[0], ingestRefs[:], e); err != nil {
		return nil, err
	}
	cm := cmFinal{name: ingestRefs[0].name, n: w.total(0)}
	for g := range w.samples {
		for _, k := range w.samples[g] {
			cm.keys, cm.counts = append(cm.keys, k), append(cm.counts, 1)
		}
	}
	absent := newDistinctKeys(w.seed, 255) // a stream no connection draws from
	for i := 0; i < 32; i++ {
		cm.keys, cm.counts = append(cm.keys, absent.next()), append(cm.counts, 0)
	}
	return &finalTruth{
		cm:       []cmFinal{cm},
		distinct: []distinctFinal{{client.HLL, ingestRefs[1].name, w.total(1)}},
	}, nil
}

func sinceUs(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// checkpoints times n served Checkpoint calls.
func checkpoints(c *client.Client, e *e2e, n int) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if !e.op(c.Checkpoint()) {
			continue
		}
		e.mu.Lock()
		e.ckptMs = append(e.ckptMs, sinceUs(t0)/1e3)
		e.mu.Unlock()
	}
	return nil
}
