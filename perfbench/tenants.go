package main

import (
	"fmt"
	"sync"
	"time"

	"fastsketches/client"
)

// Tenants workload constants: 256 sketch names, 64 per family, picked by
// Zipf(1.1) popularity; 64-item batches; every 16th request is a query on
// a uniformly random tenant. A control connection calls OpsStats every
// second and Checkpoint every second tick.
const (
	numTenants    = 256
	tenantItems   = 64
	tenantZipfS   = 1.1
	tenantQEvery  = 16
	tenantLevels  = 4096 // quantile tenants draw integer values in [0, 4096)
	tenantSamples = 4    // first keys of each Count-Min tenant kept for per-key checks
	controlTick   = time.Second
	// tenantWarmItems is each tenant's warm-up volume: both shards each get
	// about 1536 items, past the 1250-update eager phase.
	tenantWarmItems = 3 * ingestItems
)

var tenantFams = [4]client.Family{client.Theta, client.HLL, client.Quantiles, client.CountMin}

type tenantsW struct {
	seed    uint64
	orc     oracle
	refs    []sketchRef
	pop     *zipf
	perm    []int // popularity rank → tenant
	r       *rng
	keys    *distinctKeys
	n       []uint64   // acked items per tenant
	hist    [][]uint64 // quantile tenants: acked count per value level
	samples [][]uint64 // Count-Min tenants: sampled keys (each sent once)
	relax   [4]uint64  // per family, from Info
	batches []*client.Batch
	items   []uint64
	j       int
}

func newTenants(seed uint64) *tenantsW {
	w := &tenantsW{
		seed: seed, pop: newZipf(numTenants, tenantZipfS), r: newRNG(seed, 0x40),
		keys: newDistinctKeys(seed, 0), n: make([]uint64, numTenants),
		hist: make([][]uint64, numTenants), samples: make([][]uint64, numTenants),
		items: make([]uint64, tenantItems),
	}
	for i := 0; i < numTenants; i++ {
		fam := tenantFams[i%4]
		w.refs = append(w.refs, sketchRef{fam, fmt.Sprintf("tenant%03d.%s", i, fam.String())})
		if fam == client.Quantiles {
			w.hist[i] = make([]uint64, tenantLevels)
		}
	}
	// Popularity rank r goes to a tenant of family r mod 4, so every family
	// holds the same share of the load on every seed; the seed only
	// permutes which tenant of a family is hot.
	pr := newRNG(seed, 0x41)
	byFam := make([][]int, len(tenantFams))
	for i := 0; i < numTenants; i++ {
		byFam[i%4] = append(byFam[i%4], i)
	}
	for _, ts := range byFam {
		for i := len(ts) - 1; i > 0; i-- {
			j := pr.intn(i + 1)
			ts[i], ts[j] = ts[j], ts[i]
		}
	}
	w.perm = make([]int, numTenants)
	for r := range w.perm {
		w.perm[r] = byFam[r%4][r/4]
	}
	return w
}

func (w *tenantsW) name() string    { return "tenants" }
func (w *tenantsW) oracle() *oracle { return &w.orc }

// stream is one connection's input generator: distinct keys for Θ, HLL
// and Count-Min tenants, integer levels for quantile tenants.
type stream struct {
	keys *distinctKeys
	r    *rng
}

// send ships one batch of len(items) items to tenant t through b, using
// items as scratch, and records the acked truth. Concurrent senders must
// own disjoint tenants and their own streams.
func (w *tenantsW) send(b *client.Batch, t int, items []uint64, st stream) error {
	fam := w.refs[t].fam
	for i := range items {
		var err error
		if fam == client.Quantiles {
			v := st.r.intn(tenantLevels)
			items[i] = uint64(v)
			err = b.AddFloat(float64(v))
		} else {
			items[i] = st.keys.next()
			err = b.Add(items[i])
		}
		if err != nil {
			return err
		}
	}
	if err := b.Flush(); err != nil {
		b.Reset()
		return err
	}
	w.n[t] += uint64(len(items))
	switch fam {
	case client.Quantiles:
		for _, v := range items {
			w.hist[t][v]++
		}
	case client.CountMin:
		for _, k := range items {
			if len(w.samples[t]) < tenantSamples {
				w.samples[t] = append(w.samples[t], k)
			}
		}
	}
	return nil
}

// query reads tenant t with its family's aggregate query and checks the
// answer live. The data connection is closed loop, so every batch sent
// before the query is acked: the truth interval is [acked − relax, acked].
func (w *tenantsW) query(c *client.Client, t int) error {
	ref := w.refs[t]
	n := w.n[t]
	f := t % 4
	lo := float64(n) - float64(w.relax[f])
	switch ref.fam {
	case client.Theta, client.HLL:
		var est float64
		var err error
		if ref.fam == client.Theta {
			est, err = c.ThetaEstimate(ref.name)
		} else {
			est, err = c.HLLEstimate(ref.name)
		}
		if err != nil {
			return err
		}
		w.orc.check(distinctOK(est, lo, float64(n), geo.distinctTol(ref.fam)),
			"tenants: %s estimate %.0f outside [%d-%d, %d]", ref.name, est, n, w.relax[f], n)
	default:
		var got uint64
		var err error
		if ref.fam == client.Quantiles {
			got, err = c.QuantilesN(ref.name)
		} else {
			got, err = c.CountMinN(ref.name)
		}
		if err != nil {
			return err
		}
		w.orc.check(float64(got) >= lo && got <= n,
			"tenants: %s N=%d outside [%d-%d, %d]", ref.name, got, n, w.relax[f], n)
	}
	return nil
}

// step issues the data connection's next request: a query every 16th
// request, otherwise a batch to a Zipf-popular tenant.
func (w *tenantsW) step(c *client.Client) (isQuery bool, label string, err error) {
	w.j++
	if w.j%tenantQEvery == 0 {
		t := w.r.intn(numTenants)
		return true, w.refs[t].fam.String(), w.query(c, t)
	}
	t := w.perm[w.pop.rank(w.r)]
	return false, w.refs[t].fam.String(), w.send(w.batches[t], t, w.items, stream{w.keys, w.r})
}

func (w *tenantsW) setup(s *session) error {
	c := s.conns[0]
	for _, r := range w.refs {
		if err := c.Create(r.fam, r.name); err != nil {
			return err
		}
		w.batches = append(w.batches, c.NewBatch(r.fam, r.name))
	}
	for f := range tenantFams {
		inf, err := c.Info(w.refs[f].fam, w.refs[f].name)
		if err != nil {
			return err
		}
		w.relax[f] = inf.Relaxation
	}
	// Warm-up: tenantWarmItems per tenant in 1024-item batches, split
	// across both connections, which takes every shard of every tenant past
	// the core framework's eager phase (2/e² = 1250 updates per shard at the
	// default e = 0.04): the load then measures the lazy steady state of
	// established tenants instead of a ramp through eager-to-lazy
	// transitions, whose served cost is far higher per item.
	var wg sync.WaitGroup
	errs := make([]error, maxConns)
	for g := 0; g < maxConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := stream{newDistinctKeys(w.seed, uint8(1+g)), newRNG(w.seed, 0x42+uint64(g))}
			warm := make([]uint64, ingestItems)
			for t := g; t < numTenants; t += maxConns {
				b := s.conns[g].NewBatch(w.refs[t].fam, w.refs[t].name)
				for i := 0; i < tenantWarmItems/ingestItems; i++ {
					if err := w.send(b, t, warm, st); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	_, err := s.conns[1].OpsStats()
	return err
}

func (w *tenantsW) load(s *session, dur time.Duration, e *e2e, tr *tracer, sl *slicer) error {
	start := time.Now()
	deadline := start.Add(dur)
	stop := make(chan struct{})
	ctlDone := make(chan struct{})
	go func() { // control connection: OpsStats every tick, Checkpoint every other tick
		defer close(ctlDone)
		c := s.conns[1]
		tk := time.NewTicker(controlTick)
		defer tk.Stop()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			case <-tk.C:
			}
			t0 := time.Now()
			if _, err := c.OpsStats(); e.op(err) && tr.enabled() {
				tr.add("load.ops_stats", tr.newReq(), -1, t0, time.Now(), 1)
			}
			if i%2 == 0 {
				t0 := time.Now()
				_ = checkpoints(c, e, 1)
				if tr.enabled() {
					tr.add("load.checkpoint", tr.newReq(), -1, t0, time.Now(), 1)
				}
			}
		}
	}()
	c := s.conns[0]
	e.itemsPerFlush = tenantItems
	e.queriesInLoad = true
	flushes := newSamples(start, 1<<18)
	queries := newSamples(start, 1<<15)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		isQuery, label, err := w.step(c)
		t1 := time.Now()
		if !e.op(err) {
			continue
		}
		kind := "flush"
		if isQuery {
			queries.add(t0, t1)
			kind = "query"
		} else {
			flushes.add(t0, t1)
			sl.add(tenantItems)
		}
		if tr.enabled() {
			tr.add("load."+kind+"."+label, tr.newReq(), -1, t0, t1, 1)
		}
	}
	e.loadDur = time.Since(start)
	close(stop)
	<-ctlDone
	e.queryDur = e.loadDur
	e.addFlushes(flushes)
	e.addQueries(queries)
	return nil
}

// probe: the tenants load already makes queries and checkpoints.
func (w *tenantsW) probe(s *session, e *e2e) error { return nil }

func (w *tenantsW) final(s *session, e *e2e) (*finalTruth, error) {
	if err := quiesce(s.conns[0], w.refs, e); err != nil {
		return nil, err
	}
	ft := &finalTruth{}
	absent := newDistinctKeys(w.seed, 255)
	for t, r := range w.refs {
		switch r.fam {
		case client.Theta, client.HLL:
			ft.distinct = append(ft.distinct, distinctFinal{r.fam, r.name, w.n[t]})
		case client.Quantiles:
			ft.quant = append(ft.quant, quantFinal{name: r.name, n: w.n[t], hist: w.hist[t]})
		case client.CountMin:
			cm := cmFinal{name: r.name, n: w.n[t]}
			for _, k := range w.samples[t] {
				cm.keys, cm.counts = append(cm.keys, k), append(cm.counts, 1)
			}
			for i := 0; i < 2; i++ {
				cm.keys, cm.counts = append(cm.keys, absent.next()), append(cm.counts, 0)
			}
			ft.cm = append(ft.cm, cm)
		}
	}
	return ft, nil
}
