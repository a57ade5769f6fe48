package adversary

// Live stress driver for the sharded registry: where the rest of this
// package simulates the Section 6 adversaries analytically, this file plays
// the adversary against the real implementation. One driver, Stress, runs
// concurrent writers against a sharded Count-Min or Θ sketch while queriers
// race merged reads against two ground-truth counters — updates started and
// updates completed — and check every answer with relax.Envelope, the
// r-relaxation predicate of Definition 2, against the composed bound: S·r =
// S·2·N·b (Theorem 1 applied per shard, summed over the fold), widened while
// a resize, window rotation or autoscale transition may be in flight, and
// exactness (r = 0) while every shard is still in its eager phase.
//
// Around that core the run layers a live resize schedule and at most one
// conductor, which paces one serving-plane perturbation explicitly over a
// manual clock so nothing happens behind the checker's back: a view
// refresh, a window rotation, or an autoscale controller tick.
//
// The queriers alternate between the two merged-query planes: the pooled
// path (family query methods drawing a reused accumulator from the sketch's
// internal sync.Pool) and the caller-owned path (one accumulator per
// querier goroutine, reset and refolded by QueryInto on every odd query).
// Both race live against concurrent propagation, so the run also asserts
// that accumulator reuse never leaks state across queries — a stale fold
// would surface as a bound violation in either direction.
//
// Writers bracket each update with the started and completed counters
// rather than a relax.Recorder: the recorder takes a mutex per event and
// would serialise the writers the run exists to race, while the two
// atomics already carry the two numbers the predicate needs.

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
	"fastsketches/internal/core"
	"fastsketches/internal/relax"
	"fastsketches/internal/shard"
)

// raiseMax lifts m to at least v (CAS loop: concurrent queriers race here).
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Family selects the sketch a stress run drives.
type Family int

const (
	// CountMin checks a sharded Count-Min's cross-shard total N() — the
	// aggregate most sensitive to propagation lag, since every update
	// contributes to it exactly once. Keys cycle over a small hot set so
	// all shards stay loaded.
	CountMin Family = iota
	// Theta checks a sharded Θ sketch fed all-distinct keys kept inside
	// every gadget's exact mode, so the merged Union estimate counts
	// propagated distinct keys exactly.
	Theta
)

// Conductor selects the serving-plane perturbation a stress run paces.
// Every conductor drives a Count-Min.
type Conductor int

const (
	// Static paces nothing: only the resize schedule perturbs the run.
	Static Conductor = iota
	// Refresh serves every query from a materialized view whose refreshes
	// the conductor publishes one after another (RefreshViewNow).
	Refresh
	// Rotate checks the windowed total WindowN() while the conductor
	// expels ring slots by explicit rotation (RotateNow).
	Rotate
	// Autoscale lets a live autoscale.Controller, ticked by the conductor,
	// choose the resizes from the run's measured pressure: up under the
	// write burst, back down to MinShards in the lull after it.
	Autoscale
)

// StressConfig parameterises a stress run.
type StressConfig struct {
	// Family is the sketch driven. Default CountMin.
	Family Family
	// Shards is S; Writers is N (goroutines = writer lanes); BufferSize is b.
	Shards, Writers, BufferSize int
	// UpdatesPerWriter is the stream length each writer ingests.
	UpdatesPerWriter int
	// Queriers is the number of concurrent query goroutines. Default 2.
	Queriers int
	// MaxError is the per-shard eager budget; 1.0 disables the eager phase
	// so the whole run exercises the lazy path. Values < 1 additionally run
	// a single-threaded eager prologue asserting exactness.
	MaxError float64
	// Schedule is the successive shard counts live Resize calls move
	// through, triggered at evenly-spaced points of the ingested stream;
	// empty means no resizes.
	Schedule []int
	// Conductor is the paced serving-plane perturbation. Default Static.
	Conductor Conductor
	// Slots is the window ring's closed-interval capacity W (Rotate only).
	// Default 4 — small enough that a default run expels many slots, so
	// the eviction path (oldest slot folded into legacy) is genuinely
	// under fire.
	Slots int
	// Decay, when in (0,1), additionally maintains the exponential decay
	// plane through every rotation (Rotate only), racing its
	// scale-and-fold against the writers.
	Decay float64
	// MinShards / MaxShards bound the autoscale policy (Autoscale only).
	// Defaults 1 and 4·Shards.
	MinShards, MaxShards int
}

func (c *StressConfig) normalise() error {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Writers == 0 {
		c.Writers = 4
	}
	if c.BufferSize == 0 {
		c.BufferSize = 4
	}
	if c.UpdatesPerWriter == 0 {
		c.UpdatesPerWriter = 20000
	}
	if c.Queriers == 0 {
		c.Queriers = 2
	}
	if c.MaxError == 0 {
		c.MaxError = 1.0
	}
	switch {
	case c.Family != CountMin && c.Conductor != Static:
		return errors.New("adversary: conductors drive Count-Min only")
	case c.MaxError < 1 && (len(c.Schedule) > 0 || c.Conductor != Static):
		return errors.New("adversary: the eager prologue runs without resizes or conductor")
	case c.Conductor == Autoscale && len(c.Schedule) > 0:
		return errors.New("adversary: autoscale chooses its own resizes")
	case c.Conductor != Rotate && (c.Slots != 0 || c.Decay != 0):
		return errors.New("adversary: Slots and Decay need the Rotate conductor")
	case c.Conductor != Autoscale && (c.MinShards != 0 || c.MaxShards != 0):
		return errors.New("adversary: MinShards and MaxShards need the Autoscale conductor")
	}
	if c.Conductor == Rotate && c.Slots == 0 {
		c.Slots = 4
	}
	if c.Conductor == Autoscale {
		if c.MinShards == 0 {
			c.MinShards = 1
		}
		if c.MaxShards == 0 {
			c.MaxShards = 4 * c.Shards
		}
	}
	return nil
}

// bounds returns the relaxation the queriers hold answers to: transitional
// while a resize, rotation or controller transition may be in flight, final
// once the run has settled.
//
//   - A drain folds both epochs' live snapshots, so a resize schedule is
//     bounded by its widest consecutive pair (S_a+S_b)·r.
//   - A window rotation is an epoch swap at constant S, 2·S·r; with resizes
//     racing the rotator the worst transient is a rotation at the
//     schedule's widest shard count, 2·max(S)·r, which dominates every
//     resize pair.
//   - Every controller transition keeps both epochs within MaxShards (the
//     policy cap is set to exactly that window): 2·MaxShards·r, settling
//     at MinShards.
//
// Once settled, retired state is folded exactly and contributes no
// staleness: final = S_final·r.
func (c *StressConfig) bounds() (transitional, final int64) {
	r := int64(2 * c.Writers * c.BufferSize) // r = 2·N·b (OptParSketch)
	if c.Conductor == Autoscale {
		return 2 * int64(c.MaxShards) * r, int64(c.MinShards) * r
	}
	prev, widest := int64(c.Shards), int64(c.Shards)
	transitional = prev * r
	for _, s := range c.Schedule {
		transitional = max(transitional, (prev+int64(s))*r)
		prev, widest = int64(s), max(widest, int64(s))
	}
	if c.Conductor == Rotate {
		transitional = 2 * widest * r
	}
	return transitional, prev * r
}

// StressReport is the outcome of a stress run. A correct implementation
// yields zero violations of either kind; WorstDeficit records how close the
// adversary got to the bound.
type StressReport struct {
	// Bound is the transitional relaxation the queries were checked
	// against (the plain S·r when nothing perturbs the run).
	Bound int
	// Queries is the number of merged queries issued during the lazy phase.
	Queries int64
	// LowerViolations counts queries whose answer missed more than the
	// bound of completed updates (or whose windowed plane lost its window);
	// UpperViolations counts answers exceeding the updates started by query
	// end (invented data).
	LowerViolations, UpperViolations int64
	// WorstDeficit is the maximum observed (completed − bound − answer)
	// over all lazy-phase queries: ≤ 0 means the bound held with that much
	// margin, > 0 is a violation. math.MinInt64 when no query ran.
	WorstDeficit int64
	// EagerQueries counts queries issued during the eager prologue;
	// EagerViolations counts those whose answer was not exact.
	EagerQueries, EagerViolations int64
	// Resizes counts live Resize transitions completed during the run.
	Resizes int64
	// PostResizeQueries counts queries issued once the run had settled —
	// the final resize drained and the conductor quiesced; those were
	// checked against the tighter final bound S_final·r.
	PostResizeQueries int64
	// ScaleUps / ScaleDowns split Resizes by direction, and FinalShards is
	// S once the run quiesced (Autoscale only).
	ScaleUps, ScaleDowns int64
	FinalShards          int
	// CapViolations counts controller-initiated transitions whose
	// (S_old+S_new)·r exceeded the policy's MaxTransitionalRelaxation — the
	// staleness cap the controller must never breach.
	CapViolations int64
	// Refreshes counts materialized-view refresh publications (Refresh
	// only).
	Refreshes int64
	// Rotations counts window rotations completed during the run, and
	// Expulsions how many of them expelled a full ring's oldest slot
	// (Rotate only). Expulsions > 0 certifies the run actually exercised
	// the eviction path, not just a filling ring.
	Rotations, Expulsions int64
}

// family adapts one sketch family to the driver.
type family struct {
	// update ingests writer w's i-th update; w = −1 is the single-threaded
	// eager prologue, which ingests on lane 0 with keys of its own.
	update func(w, i int)
	// newQuery returns one querier's read: the i-th answer comes from the
	// pooled plane for even i and from the querier's own accumulator for
	// odd i. ok is false when a windowed plane lost its window.
	newQuery func() func(i int) (answer float64, ok bool)
	eager    func() bool
	resize   func(int) error
	close    func()
	// prologueCap bounds the eager prologue's length.
	prologueCap int
	// cm is the Count-Min every conductor drives; nil for Θ.
	cm *shard.CountMin
}

// newFamily builds the sketch cfg asks for, trimming cfg.UpdatesPerWriter
// to the Θ exact-mode budget.
func newFamily(cfg *StressConfig) (family, error) {
	scfg := shard.Config{
		Shards:     cfg.Shards,
		Writers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   cfg.MaxError,
	}
	if cfg.Family == Theta {
		return newThetaFamily(cfg, scfg)
	}
	sk, err := shard.NewCountMin(0.001, 0.01, scfg)
	if err != nil {
		return family{}, err
	}
	const hotKeys = 64
	upw := cfg.UpdatesPerWriter
	windowed := cfg.Conductor == Rotate
	return family{
		update: func(w, i int) { sk.Update(max(w, 0), uint64(w*upw+i)%hotKeys) },
		newQuery: func() func(int) (float64, bool) {
			acc := sk.NewAccumulator()
			return func(i int) (float64, bool) {
				switch {
				case i%2 == 0 && windowed:
					n, ok := sk.WindowN()
					return float64(n), ok
				case i%2 == 0:
					return float64(sk.N()), true
				case windowed:
					ok := sk.WindowQueryInto(acc)
					return float64(acc.N()), ok
				}
				sk.QueryInto(acc)
				return float64(acc.N()), true
			}
		},
		eager:       sk.Eager,
		resize:      sk.Resize,
		close:       sk.Close,
		prologueCap: math.MaxInt,
		cm:          sk,
	}, nil
}

func newThetaFamily(cfg *StressConfig, scfg shard.Config) (family, error) {
	// Keep total distinct (eager prologue + writers) ≤ k, well inside the
	// 2k exact-mode boundary of every shard gadget and of the union gadget,
	// so the estimate counts propagated distinct keys exactly. The prologue
	// is capped at half the union's exact capacity: for large S the
	// combined eager window S·2/e² could otherwise outgrow the merge
	// Union's exact mode and flag sampling noise as violations.
	const lgK = 13
	prologueCap := (1 << lgK) / 2
	prologue := min(cfg.Shards*core.DeriveEagerLimit(cfg.MaxError), prologueCap)
	if budget := (1 << lgK) - prologue; cfg.Writers*cfg.UpdatesPerWriter > budget {
		cfg.UpdatesPerWriter = budget / cfg.Writers
	}
	sk, err := shard.NewTheta(lgK, scfg)
	if err != nil {
		return family{}, err
	}
	return family{
		// Writer w's keys start at (w+2)<<40, the prologue's at 1<<40:
		// distinct throughout.
		update: func(w, i int) { sk.Update(max(w, 0), uint64(w+2)<<40+uint64(i)) },
		newQuery: func() func(int) (float64, bool) {
			acc := sk.NewAccumulator()
			return func(i int) (float64, bool) {
				if i%2 == 0 {
					return sk.Estimate(), true
				}
				sk.QueryInto(acc)
				return acc.Estimate(), true
			}
		},
		eager:       sk.Eager,
		resize:      sk.Resize,
		close:       sk.Close,
		prologueCap: prologueCap,
	}, nil
}

// Stress plays the adversary against a live sharded sketch as cfg
// describes and checks every answer against the composed relaxation bound.
// With the writers bracketing each update between the started and completed
// counters, each query is held to
//
//	lower − floor − bound ≤ answer ≤ started
//
// by relax.Envelope, where:
//
//   - lower is the completed count read before the query — or, under
//     Refresh, the completed count read before the latest published refresh
//     began its fold (the "+ one refresh interval" term made exact: all of
//     it is either folded into the published view or inside the fold's own
//     S·r window);
//   - floor, under Rotate, bounds the update weight the ring has expelled:
//     the started count read right after rotation k−W completed, published
//     before rotation k performs the expulsion and read by queriers after
//     their answer, so it always covers the expulsions the answer missed
//     (the "+ one rotation interval" term made exact); 0 otherwise;
//   - bound is the transitional bound while a resize, rotation or
//     controller transition may be in flight, the final S_final·r once the
//     run has settled (see bounds);
//   - started is read after the answer: a sketch must never invent weight.
//
// A lower breach means a drain, refresh or rotation lost committed weight;
// an upper breach that one double-counted it. Under Rotate with Decay set
// every eighth query also probes the decayed plane, which can never exceed
// the cumulative stream. Under Autoscale the controller's transitions are
// checked against its staleness cap, and the run must settle at MinShards.
//
// Combinations no scenario needs return an error: conductors drive
// Count-Min only, the eager prologue runs without resizes or conductor, and
// autoscale takes no schedule.
func Stress(cfg StressConfig) (StressReport, error) {
	if err := cfg.normalise(); err != nil {
		return StressReport{}, err
	}
	fam, err := newFamily(&cfg)
	if err != nil {
		return StressReport{}, err
	}
	defer fam.close()
	return stress(cfg, fam)
}

// stressRun is the state one run shares between its goroutines.
type stressRun struct {
	cfg                 StressConfig
	fam                 family
	transitional, final int64
	rep                 StressReport
	// started and completed bracket every update: started before, completed
	// after.
	started, completed atomic.Int64
	// lower is the counter a querier reads before its query as the lower
	// reference: &completed, or &viewFloor under Refresh.
	lower *atomic.Int64
	// viewFloor is the completed count read just before the latest
	// published refresh started folding, stored after the publication, so
	// a querier that observes it is guaranteed the view it subsequently
	// acquires folded at least that refresh's state.
	viewFloor atomic.Int64
	// expelled is the window floor: an upper bound on the weight the ring
	// has expelled into the cumulative legacy plane.
	expelled atomic.Int64
	// resizesDone is set once the schedule's last resize has drained;
	// settled once, in addition, the conductor has quiesced, so the final
	// bound applies.
	resizesDone, settled atomic.Bool
	worst                atomic.Int64
	stop, writersDone    chan struct{}
}

// stress runs cfg (normalised) against fam.
func stress(cfg StressConfig, fam family) (StressReport, error) {
	r := &stressRun{
		cfg:         cfg,
		fam:         fam,
		stop:        make(chan struct{}),
		writersDone: make(chan struct{}),
	}
	r.transitional, r.final = cfg.bounds()
	r.rep.Bound = int(r.transitional)
	r.lower = &r.completed
	r.worst.Store(math.MinInt64)

	if cfg.MaxError < 1 {
		r.eagerPrologue()
	}
	conduct, err := r.conductor()
	if err != nil {
		return StressReport{}, err
	}

	var writers, queriers sync.WaitGroup
	for q := 0; q < cfg.Queriers; q++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			r.querier()
		}()
	}
	for w := 0; w < cfg.Writers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				r.started.Add(1)
				fam.update(w, i)
				r.completed.Add(1)
			}
		}(w)
	}
	go func() {
		writers.Wait()
		close(r.writersDone)
	}()
	errc := make(chan error, 1)
	go func() { errc <- r.resizer() }()
	conductorDone := make(chan struct{})
	go func() {
		defer close(conductorDone)
		conduct()
	}()

	<-r.writersDone
	err = <-errc
	// Let the settled phase produce checked queries against the tight final
	// bound. Bounded: a wedged plane surfaces as PostResizeQueries == 0,
	// not a hang.
	for deadline := time.Now().Add(30 * time.Second); err == nil &&
		atomic.LoadInt64(&r.rep.PostResizeQueries) < int64(cfg.Queriers) &&
		time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(r.stop)
	<-conductorDone
	queriers.Wait()
	r.rep.WorstDeficit = r.worst.Load()
	return r.rep, err
}

// eagerPrologue runs single-threaded while every shard is eager: each
// completed update is immediately visible, so every pooled-plane answer is
// held to the envelope with r = 0 — exactness.
func (r *stressRun) eagerPrologue() {
	query := r.fam.newQuery()
	for i := 0; r.fam.eager() && i < r.fam.prologueCap; i++ {
		r.started.Add(1)
		r.fam.update(-1, i)
		r.completed.Add(1)
		r.rep.EagerQueries++
		got, _ := query(0)
		if deficit, over := relax.Envelope(got, r.completed.Load(), r.started.Load(), 0); deficit > 0 || over {
			r.rep.EagerViolations++
		}
	}
}

func (r *stressRun) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *stressRun) writersFinished() bool {
	select {
	case <-r.writersDone:
		return true
	default:
		return false
	}
}

// querier issues queries until stop and checks each one with the
// relaxation predicate.
func (r *stressRun) querier() {
	query := r.fam.newQuery()
	for i := 1; !r.stopped(); i++ {
		settled := r.settled.Load()
		bound := r.transitional
		if settled {
			bound = r.final
		}
		lower := r.lower.Load()
		got, ok := query(i)
		if !ok {
			// The window is never disabled during the run, so a failed
			// resolve is itself a violation: the serving plane lost the
			// declared window.
			atomic.AddInt64(&r.rep.LowerViolations, 1)
			continue
		}
		// Read AFTER the answer: the floor only grows, and at every instant
		// it covers all expulsions performed so far, so a post-answer read
		// can only over-cover — never under.
		lower -= r.expelled.Load()
		started := r.started.Load()
		atomic.AddInt64(&r.rep.Queries, 1)
		if settled {
			atomic.AddInt64(&r.rep.PostResizeQueries, 1)
		}
		deficit, over := relax.Envelope(got, lower, started, bound)
		raiseMax(&r.worst, int64(deficit))
		if deficit > 0 {
			atomic.AddInt64(&r.rep.LowerViolations, 1)
		}
		if over {
			atomic.AddInt64(&r.rep.UpperViolations, 1)
		}
		if r.cfg.Decay > 0 && i%8 == 0 {
			// Decay plane under fire: no closed-form ground truth, but a
			// decayed count can never exceed the cumulative stream (weights
			// only shrink).
			if d, ok := r.fam.cm.DecayedCount(uint64(i % 64)); ok && int64(d) > r.started.Load() {
				atomic.AddInt64(&r.rep.UpperViolations, 1)
			}
		}
		runtime.Gosched()
	}
}

// resizer walks the schedule, issuing each Resize once the completed
// counter crosses the next evenly-spaced threshold (or the writers finish),
// and flags resizesDone after the last transition has fully drained — and
// settled too when no conductor is left to quiesce.
func (r *stressRun) resizer() error {
	total := int64(r.cfg.Writers * r.cfg.UpdatesPerWriter)
	for i, s := range r.cfg.Schedule {
		threshold := total * int64(i+1) / int64(len(r.cfg.Schedule)+1)
		for r.completed.Load() < threshold && !r.writersFinished() {
			runtime.Gosched()
		}
		if err := r.fam.resize(s); err != nil {
			return err
		}
		r.rep.Resizes++
	}
	r.resizesDone.Store(true)
	if r.cfg.Conductor == Static {
		r.settled.Store(true)
	}
	return nil
}

// conductor arms cfg.Conductor on the sketch (over a manual clock that is
// never advanced, so no background refresh or rotation ever fires and every
// one is the conductor's doing) and returns its pacing loop, which runs
// until the run settles or stops.
func (r *stressRun) conductor() (func(), error) {
	cm := r.fam.cm
	clk := clock.NewManualClock(time.Unix(1<<20, 0))
	switch r.cfg.Conductor {
	case Refresh:
		// MaxAge −1 never expires the view, so every query is served from
		// the published buffer. The very first refresh, by EnableView,
		// published an empty pre-ingest view: floor 0, consistent.
		if err := cm.EnableView(shard.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1, Clock: clk}); err != nil {
			return nil, err
		}
		r.lower = &r.viewFloor
		return r.refresh, nil
	case Rotate:
		if err := cm.EnableWindow(shard.WindowConfig{
			Interval: time.Hour, Slots: r.cfg.Slots, Decay: r.cfg.Decay, Clock: clk,
		}); err != nil {
			return nil, err
		}
		return r.rotate, nil
	case Autoscale:
		return r.autoscaler(clk)
	}
	return func() {}, nil
}

// refresh publishes refreshes back to back: read completed, refresh, then
// publish that pre-fold count as the queriers' floor.
func (r *stressRun) refresh() {
	for !r.stopped() {
		resized := r.resizesDone.Load()
		c := r.completed.Load()
		if !r.fam.cm.RefreshViewNow() {
			return
		}
		r.viewFloor.Store(c)
		r.rep.Refreshes++
		if resized {
			// This refresh began after the final resize had fully drained:
			// the published fold owes nothing to transitional epochs.
			r.settled.Store(true)
		}
		runtime.Gosched()
	}
}

// rotate publishes the floor the imminent expulsion is covered by, rotates,
// then snapshots started for the rotation that will expel this slot one
// ring-length from now. It is the sole rotator, so once it returns no
// rotation can be in flight and the final bound applies.
func (r *stressRun) rotate() {
	var startedAfter []int64 // startedAfter[k-1]: started right after rotation k
	for !r.stopped() {
		if r.writersFinished() && r.resizesDone.Load() {
			r.settled.Store(true)
			return
		}
		k := len(startedAfter) + 1
		if k > r.cfg.Slots {
			r.expelled.Store(startedAfter[k-r.cfg.Slots-1])
			r.rep.Expulsions++
		}
		if !r.fam.cm.RotateNow() {
			return
		}
		startedAfter = append(startedAfter, r.started.Load())
		r.rep.Rotations++
		runtime.Gosched()
	}
}

// capCheckTarget wraps the sketch the controller drives, recording any
// transition whose combined window (S_old+S_new)·r would exceed the
// policy's staleness cap — which a correct controller never requests.
type capCheckTarget struct {
	*shard.CountMin
	budget     int
	violations *atomic.Int64
}

func (t capCheckTarget) Resize(s int) error {
	if from := t.Shards(); t.budget > 0 && (from+s)*t.ShardRelaxation() > t.budget {
		t.violations.Add(1)
	}
	return t.CountMin.Resize(s)
}

// autoscaler builds the controller, takes its warmup baseline before any
// writer starts (so every later tick's ingest delta is real load), and
// returns the loop that ticks it through the burst and the lull.
func (r *stressRun) autoscaler(mc *clock.ManualClock) (func(), error) {
	cm := r.fam.cm
	// One qualifying sample per decision (the conductor paces ticks, so
	// sustained windows would only slow the walk), near-zero cooldown in
	// manual time, and the staleness cap at exactly the envelope the
	// queriers enforce. HighWater is tiny relative to the real deltas a 1ms
	// manual-time sample sees, so any observed ingest is up-pressure;
	// LowWater keeps the mandatory hysteresis gap.
	var capViolations atomic.Int64
	ctl, err := autoscale.New(
		capCheckTarget{CountMin: cm, budget: int(r.transitional), violations: &capViolations},
		autoscale.Policy{
			MinShards: r.cfg.MinShards, MaxShards: r.cfg.MaxShards,
			HighWater: 500, LowWater: 100,
			SustainedUp: 1, SustainedDown: 2,
			SampleEvery: time.Millisecond, Cooldown: time.Nanosecond,
			MaxTransitionalRelaxation: int(r.transitional),
			Clock:                     mc,
		})
	if err != nil {
		return nil, err
	}
	ctl.Tick()
	tick := func() {
		mc.Advance(time.Millisecond)
		ctl.Tick()
	}
	return func() {
		// The burst: tick against the live pressure until S reaches
		// MaxShards, or the writers have finished and two consecutive ticks
		// saw no new ingest (every update is by then counted, so at least
		// one tick observed a positive delta and scaled up).
		for zeroTicks := 0; cm.Shards() < r.cfg.MaxShards && zeroTicks < 2; {
			before := cm.Pressure().Ingested
			tick()
			if r.writersFinished() && cm.Pressure().Ingested == before {
				zeroTicks++
			} else {
				zeroTicks = 0
			}
			runtime.Gosched() // single-core friendliness: let writers run
		}
		// The lull: wait out the writers, then keep ticking with zero load
		// until the backlog drains and the controller walks S back down to
		// MinShards. Bounded in case the loop is broken — that surfaces as
		// FinalShards ≠ MinShards, not a hang.
		<-r.writersDone
		for i := 0; i < 100_000 && cm.Shards() > r.cfg.MinShards; i++ {
			tick()
			runtime.Gosched()
		}
		// The load is gone and S is pinned, so no further resize can fire.
		st := ctl.Stats()
		r.rep.ScaleUps, r.rep.ScaleDowns = st.ScaleUps, st.ScaleDowns
		r.rep.Resizes = st.ScaleUps + st.ScaleDowns
		r.rep.FinalShards = cm.Shards()
		r.rep.CapViolations = capViolations.Load()
		r.settled.Store(true)
	}, nil
}
