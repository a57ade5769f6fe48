package main

import (
	"fmt"
	"math"
	"sync"

	"fastsketches/client"
	"fastsketches/internal/hll"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/theta"
)

// geometry is the one sketch geometry every workload and every in-process
// layer row uses, passed to sketchd as explicit flags so rows built on
// different geometries can never be compared by accident.
type geometry struct {
	Shards, Writers int
	CMEps, CMDelta  float64
	ThetaLgK, HLLP  int
	QuantilesK      int
	DistinctSigmas  float64 // HLL/Θ answers must lie within this many RSEs
	QuantilePhis    []float64
}

var geo = geometry{
	Shards: 2, Writers: 2,
	CMEps: 0.001, CMDelta: 0.01,
	ThetaLgK: 12, HLLP: 12, QuantilesK: 128,
	DistinctSigmas: 5,
	QuantilePhis:   []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99},
}

func (g geometry) flags() []string {
	return []string{
		"-shards", fmt.Sprint(g.Shards), "-writers", fmt.Sprint(g.Writers),
		"-cm-eps", fmt.Sprint(g.CMEps), "-cm-delta", fmt.Sprint(g.CMDelta),
		"-theta-lgk", fmt.Sprint(g.ThetaLgK), "-hll-p", fmt.Sprint(g.HLLP),
		"-quantiles-k", fmt.Sprint(g.QuantilesK),
	}
}

// distinctTol is the relative tolerance for a distinct-count answer of
// family fam.
func (g geometry) distinctTol(fam client.Family) float64 {
	if fam == client.HLL {
		return g.DistinctSigmas * hll.RSEBound(g.HLLP)
	}
	return g.DistinctSigmas * theta.RSEBound(1<<g.ThetaLgK)
}

// quantileEps is the rank error the quantiles sketch guarantees over n
// items.
func (g geometry) quantileEps(n uint64) float64 { return quantiles.EpsilonBound(g.QuantilesK, n) }

// oracle counts the wrong answers that live and final checks find. A wrong
// answer is a failed operation. Count-Min's upper bound true + ε·N holds
// per query with probability 1−δ, so those reads are tallied apart and
// only the violations beyond ⌊checks·δ⌋ count as wrong; an underestimate
// is always wrong.
type oracle struct {
	mu       sync.Mutex
	checks   int64
	wrong    int64
	msgs     []string
	cmChecks int64
	cmOver   int64
	cmMsgs   []string
}

const maxMsgs = 8

func (o *oracle) check(ok bool, format string, args ...any) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checks++
	if !ok {
		o.wrong++
		if len(o.msgs) < maxMsgs {
			o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// cmUpper records one probabilistic Count-Min upper-bound check.
func (o *oracle) cmUpper(ok bool, format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cmChecks++
	if !ok {
		o.cmOver++
		if len(o.cmMsgs) < maxMsgs {
			o.cmMsgs = append(o.cmMsgs, fmt.Sprintf(format, args...))
		}
	}
}

// result returns the number of wrong answers and a description of the
// first few.
func (o *oracle) result(delta float64) (int64, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	wrong, msgs := o.wrong, append([]string(nil), o.msgs...)
	if allowed := int64(math.Floor(float64(o.cmChecks) * delta)); o.cmOver > allowed {
		wrong += o.cmOver
		msgs = append(msgs, fmt.Sprintf("Count-Min: %d of %d reads above true+ε·N (allowed %d): %v",
			o.cmOver, o.cmChecks, allowed, o.cmMsgs))
	}
	return wrong, msgs
}

// countBounds checks a Count-Min answer against the truth interval
// [lo, hi] (lo = acked count minus any relaxation, hi = sent count) widened
// by ε·N above.
func countBounds(est uint64, lo int64, hi uint64, epsN float64) (lowerOK, upperOK bool) {
	return int64(est) >= lo, float64(est) <= float64(hi)+epsN
}

// distinctOK checks a distinct-count estimate against the truth interval
// [lo, hi] widened by the relative tolerance tol.
func distinctOK(est, lo, hi, tol float64) bool {
	if lo < 0 {
		lo = 0
	}
	return est >= lo*(1-tol)-0.5 && est <= hi*(1+tol)+0.5
}

// rankError returns how far the true normalized rank interval of v lies
// from phi: values are integer levels and hist[l] counts level l, so ties
// make the true rank an interval.
func rankError(v, phi float64, hist []uint64, n uint64) (float64, bool) {
	l := int(v)
	if float64(l) != v || l < 0 || l >= len(hist) || hist[l] == 0 || n == 0 {
		return math.Inf(1), false // not an element of the stream
	}
	var less uint64
	for _, c := range hist[:l] {
		less += c
	}
	lo, hi := float64(less)/float64(n), float64(less+hist[l])/float64(n)
	switch {
	case phi < lo:
		return lo - phi, true
	case phi > hi:
		return phi - hi, true
	}
	return 0, true
}

// querier is the part of the client the final checks call; tests swap in
// a fake to prove the oracle rejects wrong answers.
type querier interface {
	Count(name string, key uint64) (uint64, error)
	CountMinN(name string) (uint64, error)
	HLLEstimate(name string) (float64, error)
	ThetaEstimate(name string) (float64, error)
	Quantile(name string, phi float64) (float64, error)
	QuantilesN(name string) (uint64, error)
}

// Final truths, exact once every batch is acked and the sketches are
// quiesced.
type cmFinal struct {
	name   string
	n      uint64
	keys   []uint64
	counts []uint64
}

type distinctFinal struct {
	fam      client.Family
	name     string
	distinct uint64
}

type quantFinal struct {
	name string
	n    uint64
	hist []uint64
}

type finalTruth struct {
	cm       []cmFinal
	distinct []distinctFinal
	quant    []quantFinal
}

// verifyFinal runs the end-of-run checks: exact Count-Min and quantiles
// totals, per-key counts in [true, true+ε·N], distinct counts within the
// stated RSE multiple, and quantile rank errors within ε. It returns how
// many operations it attempted and how many failed in transport; wrong
// answers go to o.
func verifyFinal(q querier, ft *finalTruth, g geometry, o *oracle) (attempted, failed int64) {
	try := func(err error) bool {
		attempted++
		if err != nil {
			failed++
			return false
		}
		return true
	}
	for _, c := range ft.cm {
		n, err := q.CountMinN(c.name)
		if try(err) {
			o.check(n == c.n, "countmin %s: N=%d, want %d", c.name, n, c.n)
		}
		epsN := g.CMEps * float64(c.n)
		for i, k := range c.keys {
			est, err := q.Count(c.name, k)
			if !try(err) {
				continue
			}
			lower, upper := countBounds(est, int64(c.counts[i]), c.counts[i], epsN)
			o.check(lower, "countmin %s: Count(%#x)=%d below true %d", c.name, k, est, c.counts[i])
			o.cmUpper(upper, "%s:%#x=%d true %d ε·N %.0f", c.name, k, est, c.counts[i], epsN)
		}
	}
	for _, d := range ft.distinct {
		var est float64
		var err error
		if d.fam == client.HLL {
			est, err = q.HLLEstimate(d.name)
		} else {
			est, err = q.ThetaEstimate(d.name)
		}
		if try(err) {
			tol := g.distinctTol(d.fam)
			o.check(distinctOK(est, float64(d.distinct), float64(d.distinct), tol),
				"%s %s: estimate %.0f, true %d (±%.1f%%)", d.fam, d.name, est, d.distinct, 100*tol)
		}
	}
	for _, qt := range ft.quant {
		n, err := q.QuantilesN(qt.name)
		if try(err) {
			o.check(n == qt.n, "quantiles %s: N=%d, want %d", qt.name, n, qt.n)
		}
		eps := g.quantileEps(qt.n)
		for _, phi := range g.QuantilePhis {
			v, err := q.Quantile(qt.name, phi)
			if !try(err) {
				continue
			}
			e, ok := rankError(v, phi, qt.hist, qt.n)
			o.check(ok && e <= eps, "quantiles %s: Quantile(%v)=%v rank error %.4f > ε %.4f",
				qt.name, phi, v, e, eps)
		}
	}
	return attempted, failed
}
