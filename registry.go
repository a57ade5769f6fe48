package fastsketches

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
	"fastsketches/internal/core"
	"fastsketches/internal/shard"
)

// PressureSample is the wait-free cumulative ingest-pressure counter pair
// every sketch exposes (see Handle.Pressure): Ingested counts items handed
// to the propagation plane, Merged items folded into shard snapshots;
// Backlog() is their difference. Both are monotonic across resizes.
type PressureSample = core.PressureSample

// RegistryConfig parameterises a Registry and the sharded sketches it
// creates. The zero value serves 4-shard, single-lane sketches with the
// paper's default accuracy parameters.
type RegistryConfig struct {
	// Shards is S, the number of independent concurrent sketches each named
	// sketch is striped over. More shards buy ingest throughput (one
	// propagator per shard) at the cost of a larger combined staleness
	// window S·r for merged queries. Default 4.
	Shards int
	// Writers is the number of writer lanes per named sketch. Lane l must
	// be driven by at most one goroutine at a time. Default 1.
	Writers int
	// MaxError is the per-shard eager-phase error budget e; each shard
	// answers exactly until its substream exceeds 2/e². 1.0 disables the
	// eager phase. Default 0.04.
	MaxError float64
	// BufferSize overrides the derived per-writer buffer b. The combined
	// relaxation of a merged query is S·2·Writers·b. 0 = derive per family.
	BufferSize int
	// Unoptimised selects the ParSketch variant (r = N·b per shard).
	Unoptimised bool
	// Seed is the hash seed shared by all sketches; 0 means DefaultSeed.
	Seed uint64

	// WindowInterval, when positive, declares a registry-wide default
	// sliding window: every sketch this registry creates starts with a
	// window of WindowSlots closed intervals of this length (see
	// Spec.Window for the per-sketch form and the staleness semantics).
	// Zero means sketches start unwindowed.
	WindowInterval time.Duration
	// WindowSlots is the default window's closed-interval capacity;
	// 0 = the window layer's default. Requires WindowInterval.
	WindowSlots int
	// WindowDecay is the default window's exponential decay factor,
	// applied to Count-Min sketches only (the one family with a decayable
	// counter plane); other families get the sliding window without a
	// decay plane. 0 = no decay. Requires WindowInterval.
	WindowDecay float64

	// ThetaLgK is log2 of the per-shard Θ sample count. Default 12.
	ThetaLgK int
	// HLLPrecision is the per-shard HLL precision p. Default 12.
	HLLPrecision int
	// QuantilesK is the per-shard quantiles summary parameter. Default 128.
	QuantilesK int
	// CountMinEpsilon / CountMinDelta dimension per-shard Count-Min
	// sketches. Defaults 0.001 / 0.01.
	CountMinEpsilon float64
	CountMinDelta   float64
}

func (c *RegistryConfig) normalise() error {
	if c.Shards == 0 {
		c.Shards = shard.DefaultShards
	}
	if c.Shards < 1 {
		return fmt.Errorf("%w: Shards must be ≥ 1", ErrConfig)
	}
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Writers < 0 {
		return fmt.Errorf("%w: negative Writers", ErrConfig)
	}
	if c.MaxError == 0 {
		c.MaxError = 0.04
	}
	if c.MaxError < 0 {
		return fmt.Errorf("%w: negative MaxError", ErrConfig)
	}
	if c.BufferSize < 0 {
		return fmt.Errorf("%w: negative BufferSize", ErrConfig)
	}
	if c.WindowInterval < 0 {
		return fmt.Errorf("%w: negative WindowInterval", ErrConfig)
	}
	if c.WindowInterval == 0 && (c.WindowSlots != 0 || c.WindowDecay != 0) {
		return fmt.Errorf("%w: WindowSlots/WindowDecay require WindowInterval", ErrConfig)
	}
	if c.WindowInterval > 0 {
		wc := shard.WindowConfig{Interval: c.WindowInterval, Slots: c.WindowSlots, Decay: c.WindowDecay}
		if _, err := wc.Normalise(); err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	if c.ThetaLgK == 0 {
		c.ThetaLgK = 12
	}
	if c.ThetaLgK < 2 || c.ThetaLgK > 26 {
		return fmt.Errorf("%w: ThetaLgK %d outside [2,26]", ErrConfig, c.ThetaLgK)
	}
	if c.HLLPrecision == 0 {
		c.HLLPrecision = 12
	}
	if c.HLLPrecision < 4 || c.HLLPrecision > 21 {
		return fmt.Errorf("%w: HLLPrecision %d outside [4,21]", ErrConfig, c.HLLPrecision)
	}
	if c.QuantilesK == 0 {
		c.QuantilesK = 128
	}
	if c.QuantilesK < 2 {
		return fmt.Errorf("%w: QuantilesK must be ≥ 2", ErrConfig)
	}
	if c.CountMinEpsilon == 0 {
		c.CountMinEpsilon = 0.001
	}
	if c.CountMinEpsilon <= 0 || c.CountMinEpsilon >= 1 {
		return fmt.Errorf("%w: CountMinEpsilon must be in (0,1)", ErrConfig)
	}
	if c.CountMinDelta == 0 {
		c.CountMinDelta = 0.01
	}
	if c.CountMinDelta <= 0 || c.CountMinDelta >= 1 {
		return fmt.Errorf("%w: CountMinDelta must be in (0,1)", ErrConfig)
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return nil
}

func (c *RegistryConfig) shardConfig() shard.Config {
	return shard.Config{
		Shards:      c.Shards,
		Writers:     c.Writers,
		BufferSize:  c.BufferSize,
		MaxError:    c.MaxError,
		Unoptimised: c.Unoptimised,
		Seed:        c.Seed,
	}
}

// defaultWindow returns the registry-wide default WindowConfig new sketches
// start with, and whether one is declared. decayable gates the decay factor:
// only Count-Min has a scalable counter plane, so other families take the
// sliding window without decay rather than failing to open.
func (c *RegistryConfig) defaultWindow(decayable bool) (shard.WindowConfig, bool) {
	if c.WindowInterval <= 0 {
		return shard.WindowConfig{}, false
	}
	wc := shard.WindowConfig{Interval: c.WindowInterval, Slots: c.WindowSlots}
	if decayable {
		wc.Decay = c.WindowDecay
	}
	return wc, true
}

// Registry is a multi-tenant collection of named sharded sketches: the
// service-facing facade over the concurrent framework. Each (family, name)
// pair maps to an independent sharded sketch created on first use:
//
//	reg, _ := fastsketches.NewRegistry(fastsketches.RegistryConfig{
//		Shards: 8, Writers: 4,
//	})
//	defer reg.Close()
//	users, _ := reg.OpenTheta("users.daily", fastsketches.Spec{})
//	calls, _ := reg.OpenCountMin("api.calls", fastsketches.Spec{})
//	users.Update(lane, userID)             // ingestion path
//	calls.Update(lane, endpoint)
//	est := users.Sketch().Estimate()       // merged live query
//
// Accessors are safe to call from any goroutine (creation is serialised);
// the returned sketches follow the lane discipline of the core framework —
// writer lane l of any sketch must be driven by one goroutine at a time.
// Merged queries are wait-free and may run at any time; each reflects all
// but at most S·2·Writers·b of the updates that completed before it.
//
// Merged queries are also allocation-free steady-state: every named sketch
// owns a sync.Pool of reusable merge accumulators (a theta.Union, an HLL
// register array, a quantiles.Accumulator, a Count-Min counter grid), so
// Estimate/Quantile/Rank/N reset a pooled accumulator and fold the S shard
// snapshots into it instead of allocating per query. Callers that prefer to
// own the accumulator — e.g. one per reader goroutine — use the handle's
// QueryInto (or NewAccumulator/QueryInto on the sketch itself).
//
// Configuration is declarative: Open* and Apply take a Spec, and every
// configuration change — from a handle, the wire, a checkpoint restore or
// the ops layer — runs through one apply path (see Apply).
type Registry struct {
	cfg    RegistryConfig
	mu     sync.RWMutex
	closed bool
	// sketches is the one sketch map: every registered sketch, keyed by
	// family and name, with its lifecycle.
	sketches map[key]*entry
	// memPressure is the memory-budget signal installed by
	// SetAutoscaleMemoryPressure; every controller reads it through
	// overBudget, so installing it touches no sketch.
	memPressure atomic.Pointer[func() bool]

	// ckptMu serialises checkpoint encodes and guards the reusable
	// checkpoint scratch below, so steady-state checkpoints (a periodic
	// Checkpointer) allocate nothing once the scratch has grown to the
	// working size. See checkpoint.go.
	ckptMu      sync.Mutex
	ckptEntries []checkpointEntry
	ckptNameBuf []byte
	ckptBuf     []byte
}

// families lists the registry's family strings in enumeration order.
var families = [...]string{"theta", "hll", "quantiles", "countmin"}

// key identifies one registered sketch.
type key struct{ family, name string }

// entry is one registered sketch together with its lifecycle. sk and key
// never change; idleTTL and pinned are guarded by r.mu and written only
// while the entry is registered, so a lifecycle declared on a dropped
// sketch cannot leak into a sketch recreated under its name. Everything
// else declared on the sketch — view, window, autoscale controller — lives
// on the sketch itself and dies with its Close.
type entry struct {
	key
	sk      sharded
	idleTTL time.Duration
	pinned  bool
}

// sharded is the family-agnostic surface of a sharded sketch the registry
// drives; all four family wrappers of the shard package satisfy it.
type sharded interface {
	autoscale.Target
	Relaxation() int
	Eager() bool
	SizeBytes() int64
	EnableView(shard.ViewConfig) error
	DisableView() bool
	ViewEnabled() bool
	ViewLag() time.Duration
	ViewSettings() (shard.ViewConfig, bool)
	EnableWindow(shard.WindowConfig) error
	DisableWindow() bool
	WindowSettings() (shard.WindowConfig, bool)
	WindowStats() (shard.WindowInfo, bool)
	WindowDecaySupported() bool
	RestoreWindow(shard.WindowConfig, [][]byte, []byte) error
	EnableAutoscale(autoscale.Policy, func() bool) error
	DisableAutoscale() bool
	AutoscaleSettings() (autoscale.Policy, bool)
	AutoscaleStats() (autoscale.Stats, bool)
	AppendSnapshot([]byte) []byte
	AppendWindowedSnapshot([]byte) ([]byte, [][]byte, []byte)
	ImportSnapshot([]byte) error
	Close()
}

// NewRegistry validates the configuration and returns an empty registry.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	return &Registry{cfg: cfg, sketches: make(map[key]*entry)}, nil
}

const errUseAfterClose = "fastsketches: Registry used after Close"

// newSketch builds a fresh sketch of the family under the registry's
// configuration, with the registry-wide default window if one is declared.
func (r *Registry) newSketch(family string) (sharded, error) {
	var sk sharded
	var err error
	cfg := r.cfg.shardConfig()
	switch family {
	case "theta":
		sk, err = shard.NewTheta(r.cfg.ThetaLgK, cfg)
	case "hll":
		sk, err = shard.NewHLL(r.cfg.HLLPrecision, cfg)
	case "quantiles":
		sk, err = shard.NewQuantiles(r.cfg.QuantilesK, cfg)
	case "countmin":
		sk, err = shard.NewCountMin(r.cfg.CountMinEpsilon, r.cfg.CountMinDelta, cfg)
	default:
		return nil, fmt.Errorf("%w: unknown family %q", ErrConfig, family)
	}
	if err != nil {
		return nil, err
	}
	if wc, ok := r.cfg.defaultWindow(sk.WindowDecaySupported()); ok {
		if err := sk.EnableWindow(wc); err != nil {
			sk.Close()
			return nil, err
		}
	}
	return sk, nil
}

// entryFor returns the registered entry of (family, name), creating the
// sketch on first use. The hit path is a shared-lock map read; creation
// takes the exclusive lock. A closed registry panics: it must not hand out
// sketches whose propagators are stopped (an Update on one would block
// forever), though handles obtained before Close stay queryable.
func (r *Registry) entryFor(family, name string) (*entry, error) {
	k := key{family, name}
	r.mu.RLock()
	e, ok := r.sketches[k]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		panic(errUseAfterClose)
	}
	if ok {
		return e, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		panic(errUseAfterClose)
	}
	if e, ok = r.sketches[k]; !ok {
		sk, err := r.newSketch(family)
		if err != nil {
			return nil, err
		}
		e = &entry{key: k, sk: sk}
		r.sketches[k] = e
	}
	return e, nil
}

// open is the body of every Open*: find or create the entry, then apply
// spec to it.
func (r *Registry) open(family, name string, spec Spec) (*entry, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	e, err := r.entryFor(family, name)
	if err != nil {
		return nil, err
	}
	if err := r.apply(e, spec); err != nil {
		return nil, err
	}
	return e, nil
}

// entries returns the registered entries under name: the one of family, or
// with family "" every family's. It panics after Close.
func (r *Registry) entries(family, name string) []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		panic(errUseAfterClose)
	}
	fams := families[:]
	if family != "" {
		fams = []string{family}
	}
	var out []*entry
	for _, fam := range fams {
		if e, ok := r.sketches[key{fam, name}]; ok {
			out = append(out, e)
		}
	}
	return out
}

// Apply applies spec to already-registered sketches and reports how many it
// covered: the sketch of the given family ("theta", "hll", "quantiles",
// "countmin"), or with family "" every sketch registered under name across
// all four families. Apply never creates a sketch — it fails with ErrConfig
// when none matches — which is what makes it the admin path serving and ops
// layers use to resize, re-view, re-window or re-autoscale live sketches.
//
// Spec's declarative rules hold per sketch: an absent (zero or nil) section
// leaves that setting alone, a declared view is re-armed, a declared window
// replaces a differing one and keeps an equal one's ring, and a declared
// autoscale policy replaces the sketch's controller. Spanning all families,
// a window's Decay is dropped for families without linearly scalable
// counters (mirroring RegistryConfig.WindowDecay) instead of failing; a
// family-specific Apply rejects it, like Open*. Like every registry
// accessor, Apply panics after Close.
func (r *Registry) Apply(family, name string, spec Spec) (int, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	es := r.entries(family, name)
	if len(es) == 0 {
		return 0, fmt.Errorf("%w: no registered sketch %q to apply to", ErrConfig, name)
	}
	for _, e := range es {
		s := spec
		if family == "" && s.Window != nil && s.Window.Decay > 0 && !e.sk.WindowDecaySupported() {
			w := *s.Window
			w.Decay = 0
			s.Window = &w
		}
		if err := r.apply(e, s); err != nil {
			return 0, err
		}
	}
	return len(es), nil
}

// apply is the one configuration path: Open*, Apply, checkpoint restore
// and the handle's Autoscale all end here. Autoscale, resize, view and
// window changes run outside the registry lock (each serialises on the
// sketch's own resize lock, and a resize drain can take a writer-grace
// period); a sketch closed by a concurrent Drop refuses every one of them,
// so nothing an apply racing Drop declares can run against the closed
// sketch. The lifecycle is written under r.mu, and only while e is still
// registered, so it cannot leak into the next sketch opened under the name.
// The controller is attached first, so an invalid policy fails before any
// other section takes effect.
func (r *Registry) apply(e *entry, spec Spec) error {
	if spec.Autoscale != nil {
		if err := e.sk.EnableAutoscale(*spec.Autoscale, r.overBudget); err != nil {
			return err
		}
	}
	if spec.Shards > 0 && e.sk.Shards() != spec.Shards {
		if err := e.sk.Resize(spec.Shards); err != nil {
			return err
		}
	}
	if spec.View != nil {
		e.sk.DisableView()
		if err := e.sk.EnableView(*spec.View); err != nil {
			return err
		}
	}
	if spec.Window != nil {
		want, err := spec.Window.Normalise()
		if err != nil {
			return err
		}
		// Equal declaration → no-op, so routinely reopening a windowed
		// sketch never discards its ring of closed intervals; only a changed
		// config re-arms (collapse into the cumulative plane, fresh ring).
		if cur, ok := e.sk.WindowSettings(); !ok || !cur.Same(want) {
			e.sk.DisableWindow()
			if err := e.sk.EnableWindow(*spec.Window); err != nil {
				return err
			}
		}
	}
	if spec.IdleTTL == 0 && !spec.Pinned {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.sketches[e.key] != e {
		return fmt.Errorf("%w: %s sketch %q was dropped or its registry closed", ErrConfig, e.family, e.name)
	}
	e.idleTTL, e.pinned = spec.IdleTTL, spec.Pinned
	return nil
}

// ViewConfig configures a materialized merged view — see shard.ViewConfig:
// refresh interval, maximum served staleness, and an injectable clock for
// deterministic pacing in tests.
type ViewConfig = shard.ViewConfig

// WindowConfig declares a sliding window (and, for Count-Min, exponential
// time decay) — see shard.WindowConfig: rotation interval, closed-slot
// capacity, decay factor, and an injectable clock for deterministic pacing
// in tests.
type WindowConfig = shard.WindowConfig

// WindowInfo is a wait-free introspection sample of a sketch's window plane
// — see shard.WindowInfo.
type WindowInfo = shard.WindowInfo

// Clock is the module's one injectable time source — see clock.Clock —
// shared by view refreshers, window rotators, autoscale controllers, the
// Checkpointer and the ops sweeper.
type Clock = clock.Clock

// StopView stops the view refresher of every sketch registered under
// name, across all families, and reports how many views were disabled.
// Subsequent merged queries fold live shard snapshots again (bound back to
// S·r). Spec has no "clear", so disabling stays a call of its own.
func (r *Registry) StopView(name string) int {
	n := 0
	for _, e := range r.entries("", name) {
		if e.sk.DisableView() {
			n++
		}
	}
	return n
}

// StopWindow disables the sliding window of every sketch registered under
// name, across all families, and reports how many windows were stopped.
// Each window's closed slots are collapsed into the sketch's cumulative
// plane first, so no counted update is lost; subsequent queries serve the
// cumulative stream only.
func (r *Registry) StopWindow(name string) int {
	n := 0
	for _, e := range r.entries("", name) {
		if e.sk.DisableWindow() {
			n++
		}
	}
	return n
}

// StopAutoscale stops and detaches the autoscale controller of every
// sketch registered under name, across all families, and reports how many
// were stopped.
func (r *Registry) StopAutoscale(name string) int {
	n := 0
	for _, e := range r.entries("", name) {
		if e.sk.DisableAutoscale() {
			n++
		}
	}
	return n
}

// SetAutoscaleMemoryPressure installs f as the memory-budget signal of
// every autoscale controller, current and future: while f reports true,
// controllers veto scale-ups and treat quiet samples as down-pressure (see
// autoscale.Controller.SetMemoryPressure). The ops layer's budget
// accountant installs it so the budget acts through the control loop
// before the accountant has to shed. Pass nil to remove the signal.
func (r *Registry) SetAutoscaleMemoryPressure(f func() bool) {
	r.memPressure.Store(&f)
}

// overBudget is the one memory-pressure closure every controller the
// registry attaches reads: the signal currently installed, or false.
func (r *Registry) overBudget() bool {
	f := r.memPressure.Load()
	return f != nil && *f != nil && (*f)()
}

// AutoscaleStats returns a live counter snapshot of the autoscale
// controller attached to the named sketch of the given family, reporting
// ok=false when the sketch has no controller (or does not exist).
func (r *Registry) AutoscaleStats(family, name string) (autoscale.Stats, bool) {
	r.mu.RLock()
	e, ok := r.sketches[key{family, name}]
	r.mu.RUnlock()
	if !ok {
		return autoscale.Stats{}, false
	}
	return e.sk.AutoscaleStats()
}

// Config returns a copy of the registry's normalised configuration — the
// geometry (shard and writer-lane counts) and family accuracy parameters
// every sketch it creates inherits. Serving layers use it to dimension
// per-connection state: all sketches of one family share accumulator
// dimensions, because those depend only on this configuration.
func (r *Registry) Config() RegistryConfig { return r.cfg }

// SketchInfo is one registered sketch's metadata: its identity, its current
// shard/lane geometry, and its live staleness bounds. Relaxation is the
// merged-query bound S·r (transiently S_old·r + S_new·r while a resize
// drains); ShardRelaxation is the single-shard bound r governing per-key
// queries.
type SketchInfo struct {
	Family          string
	Name            string
	Shards          int
	Writers         int
	Relaxation      int
	ShardRelaxation int
	Eager           bool
	// ViewEnabled reports whether a materialized merged view is serving this
	// sketch's aggregate queries; ViewLag is the age of its latest published
	// refresh — the extra term on top of Relaxation in the query-staleness
	// bound. Zero when no view is enabled.
	ViewEnabled bool
	ViewLag     time.Duration
	// WindowEnabled reports whether a sliding window is declared on this
	// sketch; the remaining Window fields echo its shape and liveness (see
	// shard.WindowInfo): rotation count since enable, the live interval's
	// age, and how far the live interval has outlived the declared interval
	// (0 while the rotator keeps up). Zero values when no window is enabled.
	WindowEnabled     bool
	WindowInterval    time.Duration
	WindowSlots       int
	WindowDecay       float64
	WindowRotations   uint64
	WindowLiveAge     time.Duration
	WindowRotationLag time.Duration
	// Ingested / Merged / Backlog are the sketch's wait-free cumulative
	// pressure counters (see PressureSample), monotonic across resizes:
	// items handed to the propagation plane, items folded into shard
	// snapshots, and their difference. The ops layer differentiates
	// successive Ingested readings into the idle-eviction signal.
	Ingested, Merged, Backlog int64
	// SizeBytes is the sketch's estimated resident heap footprint — the
	// unit the memory-budget accountant sums (see shard.Sharded.SizeBytes).
	SizeBytes int64
	// IdleTTL and Pinned echo the lifecycle declared through Open*/Spec:
	// the per-sketch idle-eviction override (0 = use the sweeper's default)
	// and whether eviction/shedding must skip this sketch entirely.
	IdleTTL time.Duration
	Pinned  bool
}

// infoEntry is the under-lock snapshot Infos takes: the identity, the
// sketch, and the lifecycle. Everything else — every per-sketch
// introspection call and the final sort — happens outside the registry
// lock, so a slow enumeration (a /metrics scrape walking thousands of
// sketches) can never stall Open/Drop.
type infoEntry struct {
	key
	sk      sharded
	idleTTL time.Duration
	pinned  bool
}

func (r *Registry) info(e infoEntry) SketchInfo {
	pr := e.sk.Pressure()
	si := SketchInfo{
		Family: e.family, Name: e.name,
		Shards: e.sk.Shards(), Writers: r.cfg.Writers,
		Relaxation:      e.sk.Relaxation(),
		ShardRelaxation: e.sk.ShardRelaxation(),
		Eager:           e.sk.Eager(),
		ViewEnabled:     e.sk.ViewEnabled(),
		ViewLag:         e.sk.ViewLag(),
		Ingested:        pr.Ingested,
		Merged:          pr.Merged,
		Backlog:         pr.Backlog(),
		SizeBytes:       e.sk.SizeBytes(),
		IdleTTL:         e.idleTTL,
		Pinned:          e.pinned,
	}
	// WindowStats is wait-free (one epoch load plus a clock read), keeping
	// the rule that info() never takes a lock or folds sketch state — a
	// metrics scrape walking thousands of sketches must not stall rotations.
	if wi, ok := e.sk.WindowStats(); ok {
		si.WindowEnabled = true
		si.WindowInterval = wi.Interval
		si.WindowSlots = wi.Slots
		si.WindowDecay = wi.Decay
		si.WindowRotations = wi.Rotations
		si.WindowLiveAge = wi.LiveAge
		si.WindowRotationLag = wi.RotationLag
	}
	return si
}

// infoEntryLocked copies e's enumeration inputs. Caller holds r.mu.
func infoEntryLocked(e *entry) infoEntry {
	return infoEntry{e.key, e.sk, e.idleTTL, e.pinned}
}

// Info returns the named sketch's metadata without creating it. Family is
// one of "theta", "hll", "quantiles", "countmin" (the prefixes Names uses).
func (r *Registry) Info(family, name string) (SketchInfo, bool) {
	r.mu.RLock()
	e, ok := r.sketches[key{family, name}]
	var ie infoEntry
	if ok {
		ie = infoEntryLocked(e)
	}
	r.mu.RUnlock()
	if !ok {
		return SketchInfo{}, false
	}
	return r.info(ie), true
}

// Infos returns every registered sketch's metadata, sorted by family then
// name — the enumeration hook serving layers expose as their admin listing
// and the ops layer walks every metrics scrape and sweep. Only the map
// snapshot happens under the registry lock; the per-sketch introspection
// (pressure loads, size estimates, view lag) and the sort run outside it,
// so a slow enumeration cannot stall Open/Drop. A sketch dropped
// concurrently may still appear in the result — its counters summarise its
// final drained state, the same staleness any enumeration has.
func (r *Registry) Infos() []SketchInfo {
	r.mu.RLock()
	entries := make([]infoEntry, 0, len(r.sketches))
	for _, e := range r.sketches {
		entries = append(entries, infoEntryLocked(e))
	}
	r.mu.RUnlock()
	out := make([]SketchInfo, len(entries))
	for i, e := range entries {
		out[i] = r.info(e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Drop closes and removes the named sketch of the given family, reporting
// whether it existed: its propagators stop (after an exact drain of every
// buffer), its view, window and autoscale controller stop with it, and the
// name becomes free — the next accessor call under it creates a fresh,
// empty sketch with no view, window, controller or lifecycle of its own.
// Handles retained by
// callers stay queryable (merged queries are wait-free and summarise the
// final drained state) but must not be updated: an Update on a dropped
// sketch blocks forever, the same contract as Close. Like every registry
// accessor it panics after Close.
func (r *Registry) Drop(family, name string) bool {
	k := key{family, name}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		panic(errUseAfterClose)
	}
	e, ok := r.sketches[k]
	if !ok {
		r.mu.Unlock()
		return false
	}
	delete(r.sketches, k)
	r.mu.Unlock()
	e.sk.Close()
	return true
}

// Names lists every registered sketch, sorted, as "family/name". Like
// Infos, only the map walk runs under the registry lock; the string
// concatenations and the sort happen outside it.
func (r *Registry) Names() []string {
	r.mu.RLock()
	keys := make([]key, 0, len(r.sketches))
	for k := range r.sketches {
		keys = append(keys, k)
	}
	r.mu.RUnlock()
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.family + "/" + k.name
	}
	sort.Strings(out)
	return out
}

// Close stops every sketch's propagators and drains all buffers; afterwards
// merged queries summarise their full streams exactly. The registry must
// not be used after Close. Close is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, e := range r.sketches {
		e.sk.Close()
	}
}
