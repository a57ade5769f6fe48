package fastsketches

import (
	"fmt"
	"time"

	"fastsketches/internal/autoscale"
	"fastsketches/internal/countmin"
	"fastsketches/internal/hll"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/shard"
	"fastsketches/internal/theta"
)

// AutoscalePolicy parameterises an autoscaling controller — see
// autoscale.Policy for every knob. Aliased here so Spec literals can name
// it without importing the internal package.
type AutoscalePolicy = autoscale.Policy

// Spec declares a sketch's lifecycle in one place: its shard geometry, its
// materialized view, its autoscaling policy, and how the ops layer's
// eviction and budget sweeps may treat it. Open* applies the spec to the
// named sketch (creating it on first use) and returns a typed Handle;
// Registry.Apply applies it to sketches that already exist. The zero Spec
// is valid and declares nothing: the sketch is created (or found) with the
// registry's defaults and left untouched.
type Spec struct {
	// Shards is the declared shard count S. 0 leaves the sketch at its
	// current (or the registry's default) S; a positive value live-resizes
	// the sketch whenever it differs — Open is declarative, so reopening
	// with a different Shards walks the throughput/staleness trade-off
	// exactly like Handle.Resize.
	Shards int
	// View, when non-nil, (re-)materializes the sketch's merged view under
	// this config: the refresher is re-armed on every Open or Apply that
	// declares it. Nil leaves any existing view untouched.
	View *ViewConfig
	// Autoscale, when non-nil, attaches an autoscaling controller under
	// this policy with replace semantics: a controller already driving the
	// sketch is stopped and swapped, never stacked. Nil leaves any existing
	// controller untouched.
	Autoscale *AutoscalePolicy
	// Window, when non-nil, declares a sliding window (and, for Count-Min,
	// exponential time decay) under this config: windowed queries cover the
	// live rotation interval plus the last Slots closed intervals, while the
	// cumulative plane keeps serving the whole stream. Open is declarative
	// with replace semantics, but an equal declaration is a no-op: reopening
	// with the same Interval/Slots/Decay keeps the running window and its
	// ring (no history loss), a different config collapses the old window
	// into the cumulative plane and re-arms a fresh one. Nil leaves any
	// existing window untouched.
	Window *WindowConfig
	// IdleTTL, when positive, overrides the ops sweeper's default idle TTL
	// for this sketch: no ingest for longer than this and the sweeper drops
	// it. 0 keeps the sketch on the sweeper's default (which may itself be
	// "never evict"). Negative values are rejected.
	IdleTTL time.Duration
	// Pinned exempts the sketch from idle eviction and budget shedding
	// entirely — the budget class for sketches that must survive quiet
	// periods and memory pressure.
	Pinned bool
}

// Sketch is the uniform surface the generic Handle requires of a family's
// sharded sketch: the lane-disciplined ingest plane, the zero-alloc merged
// and windowed query planes, live resizing, introspection, and the
// view/window off-switches (Spec via Open* or Apply is the one way to
// switch them on). All four family wrappers of the shard package satisfy
// it through the embedded generic Sharded layer; family-specific queries
// (Theta.Estimate, Quantiles.Quantile, CountMin.Estimate, UpdateString)
// stay on the concrete type, reachable via Handle.Sketch.
type Sketch[T any, A any] interface {
	Update(lane int, item T)
	UpdateBatch(lane int, items []T)
	QueryInto(acc A)
	MergeInto(acc A)
	NewAccumulator() A
	Resize(shards int) error
	Shards() int
	Relaxation() int
	ShardRelaxation() int
	Eager() bool
	Pressure() PressureSample
	SizeBytes() int64
	DisableView() bool
	ViewEnabled() bool
	ViewLag() time.Duration
	RefreshViewNow() bool
	DisableWindow() bool
	WindowEnabled() bool
	WindowSettings() (WindowConfig, bool)
	WindowStats() (WindowInfo, bool)
	WindowQueryInto(acc A) bool
	WindowMergeInto(acc A) bool
	RotateNow() bool
}

// Handle is a typed, family-generic handle on one registered sketch: T is
// the item type, A the reusable merge accumulator, S the concrete sharded
// sketch (so family-specific queries stay statically dispatched — no
// interface boxing on the ingest or query hot paths). Obtain one from
// OpenTheta / OpenHLL / OpenQuantiles / OpenCountMin; the per-family
// aliases (ThetaHandle, …) spell the instantiations.
//
// A handle is a cheap value tied to the sketch it was opened on. After
// Drop (from any handle, or Registry.Drop) the sketch's propagators are
// stopped: queries through a retained handle still summarise the final
// drained state, but updates would block forever — the same contract as a
// retained *shard.Theta. Reopening the name yields a fresh sketch and
// fresh handles.
type Handle[T any, A any, S Sketch[T, A]] struct {
	r  *Registry
	e  *entry
	sk S
}

// Per-family Handle instantiations — what the Open* constructors return.
type (
	// ThetaHandle is the distinct-count (Θ) sketch handle.
	ThetaHandle = Handle[uint64, *theta.Union, *shard.Theta]
	// HLLHandle is the HyperLogLog distinct-count sketch handle.
	HLLHandle = Handle[uint64, *hll.Sketch, *shard.HLL]
	// QuantilesHandle is the quantiles sketch handle.
	QuantilesHandle = Handle[float64, *quantiles.Accumulator, *shard.Quantiles]
	// CountMinHandle is the Count-Min frequency sketch handle.
	CountMinHandle = Handle[uint64, *countmin.Sketch, *shard.CountMin]
)

// OpenTheta returns a typed handle on the named Θ distinct-count sketch,
// creating the sketch on first use and applying spec (see Spec; the zero
// Spec declares nothing). Open is idempotent: reopening a live name returns
// a handle on the same sketch, re-applying only what the spec declares. An
// Open racing a Drop of the same name may fail with the error of the
// dropped sketch; nothing it declared survives on that sketch.
func (r *Registry) OpenTheta(name string, spec Spec) (*ThetaHandle, error) {
	return openHandle[uint64, *theta.Union, *shard.Theta](r, "theta", name, spec)
}

// OpenHLL is OpenTheta for the named HLL sketch.
func (r *Registry) OpenHLL(name string, spec Spec) (*HLLHandle, error) {
	return openHandle[uint64, *hll.Sketch, *shard.HLL](r, "hll", name, spec)
}

// OpenQuantiles is OpenTheta for the named quantiles sketch.
func (r *Registry) OpenQuantiles(name string, spec Spec) (*QuantilesHandle, error) {
	return openHandle[float64, *quantiles.Accumulator, *shard.Quantiles](r, "quantiles", name, spec)
}

// OpenCountMin is OpenTheta for the named Count-Min sketch.
func (r *Registry) OpenCountMin(name string, spec Spec) (*CountMinHandle, error) {
	return openHandle[uint64, *countmin.Sketch, *shard.CountMin](r, "countmin", name, spec)
}

func openHandle[T any, A any, S Sketch[T, A]](r *Registry, family, name string, spec Spec) (*Handle[T, A, S], error) {
	e, err := r.open(family, name, spec)
	if err != nil {
		return nil, err
	}
	return &Handle[T, A, S]{r: r, e: e, sk: e.sk.(S)}, nil
}

// validate rejects the negative values Spec documents as invalid and a
// window config that cannot normalise, before any section takes effect.
func (spec *Spec) validate() error {
	if spec.Shards < 0 {
		return fmt.Errorf("%w: negative Spec.Shards", ErrConfig)
	}
	if spec.IdleTTL < 0 {
		return fmt.Errorf("%w: negative Spec.IdleTTL", ErrConfig)
	}
	if spec.Window != nil {
		if _, err := spec.Window.Normalise(); err != nil {
			return err
		}
	}
	return nil
}

// Family returns the handle's family string ("theta", "hll", "quantiles",
// "countmin") — the discriminator Registry.Info/Drop and the wire protocol
// use.
func (h *Handle[T, A, S]) Family() string { return h.e.family }

// Name returns the sketch's registered name.
func (h *Handle[T, A, S]) Name() string { return h.e.name }

// Sketch returns the concrete sharded sketch for family-specific calls —
// Theta/HLL Estimate, Quantiles Quantile/Rank/N, CountMin per-key Estimate,
// the UpdateString variants — all statically dispatched.
func (h *Handle[T, A, S]) Sketch() S { return h.sk }

// Update processes one item on writer lane lane. Lane l must be driven by
// at most one goroutine at a time — the core framework's lane discipline.
func (h *Handle[T, A, S]) Update(lane int, item T) { h.sk.Update(lane, item) }

// UpdateBatch processes a batch of items on writer lane lane, partitioned
// to the owning shards in one pass; steady-state it allocates nothing.
func (h *Handle[T, A, S]) UpdateBatch(lane int, items []T) { h.sk.UpdateBatch(lane, items) }

// QueryInto resets the caller-owned accumulator and folds every shard
// snapshot into it — the zero-allocation merged query plane. The result
// reflects all but at most Relaxation() of the updates that completed
// before the call.
func (h *Handle[T, A, S]) QueryInto(acc A) { h.sk.QueryInto(acc) }

// MergeInto folds every shard snapshot into acc without resetting it —
// cross-sketch aggregation over a shared accumulator.
func (h *Handle[T, A, S]) MergeInto(acc A) { h.sk.MergeInto(acc) }

// NewAccumulator builds a fresh family-dimensioned merge accumulator for
// QueryInto/MergeInto. Reuse one per reader goroutine to stay
// allocation-free.
func (h *Handle[T, A, S]) NewAccumulator() A { return h.sk.NewAccumulator() }

// Resize live-reshards the sketch to the given S; writers and queriers
// stay active throughout (transitional staleness bound S_old·r + S_new·r).
func (h *Handle[T, A, S]) Resize(shards int) error { return h.sk.Resize(shards) }

// Shards returns the current shard count S.
func (h *Handle[T, A, S]) Shards() int { return h.sk.Shards() }

// Relaxation returns the merged-query staleness bound S·r (transiently
// S_old·r + S_new·r while a resize drains).
func (h *Handle[T, A, S]) Relaxation() int { return h.sk.Relaxation() }

// ShardRelaxation returns the single-shard bound r = 2·N·b governing
// per-key queries.
func (h *Handle[T, A, S]) ShardRelaxation() int { return h.sk.ShardRelaxation() }

// Eager reports whether merged queries currently reflect every completed
// update (every shard still in its exact eager phase).
func (h *Handle[T, A, S]) Eager() bool { return h.sk.Eager() }

// Pressure returns the sketch's cumulative ingest-pressure counters,
// wait-free and monotonic across resizes.
func (h *Handle[T, A, S]) Pressure() PressureSample { return h.sk.Pressure() }

// SizeBytes estimates the sketch's resident heap footprint — the figure
// the memory-budget accountant sums (see shard.Sharded.SizeBytes).
func (h *Handle[T, A, S]) SizeBytes() int64 { return h.sk.SizeBytes() }

// DisableView stops the view refresher, reporting whether one was running;
// merged queries fold live shard snapshots again.
func (h *Handle[T, A, S]) DisableView() bool { return h.sk.DisableView() }

// ViewEnabled reports whether a materialized view is serving merged
// queries.
func (h *Handle[T, A, S]) ViewEnabled() bool { return h.sk.ViewEnabled() }

// ViewLag returns the age of the view's latest published refresh; zero
// when no view is enabled.
func (h *Handle[T, A, S]) ViewLag() time.Duration { return h.sk.ViewLag() }

// DisableWindow stops the window's rotator and collapses its closed slots
// into the cumulative plane (no counted update is lost), reporting whether a
// window was enabled.
func (h *Handle[T, A, S]) DisableWindow() bool { return h.sk.DisableWindow() }

// WindowEnabled reports whether a sliding window is declared on this sketch.
func (h *Handle[T, A, S]) WindowEnabled() bool { return h.sk.WindowEnabled() }

// WindowStats returns a wait-free sample of the window plane — shape,
// rotation count, live-interval age and rotation lag — and whether a window
// is enabled.
func (h *Handle[T, A, S]) WindowStats() (WindowInfo, bool) { return h.sk.WindowStats() }

// WindowQueryInto resets the caller-owned accumulator and folds the windowed
// state — the closed-slot suffix-merge plus the live shard snapshots — into
// it: the zero-allocation windowed query plane, O(1) in the closed-slot
// count. Returns false (leaving acc reset) when no window is enabled.
func (h *Handle[T, A, S]) WindowQueryInto(acc A) bool { return h.sk.WindowQueryInto(acc) }

// WindowMergeInto folds the windowed state into acc without resetting it —
// cross-sketch windowed aggregation. Returns false (acc untouched) when no
// window is enabled.
func (h *Handle[T, A, S]) WindowMergeInto(acc A) bool { return h.sk.WindowMergeInto(acc) }

// RotateNow forces one window rotation immediately, independent of the
// rotation clock — deterministic interval boundaries for tests and batch
// pipelines. Returns false when no window is enabled.
func (h *Handle[T, A, S]) RotateNow() bool { return h.sk.RotateNow() }

// Autoscale attaches an autoscaling controller under p with replace
// semantics — any controller already driving this sketch is stopped and
// swapped, never stacked. It is Spec.Autoscale applied to this handle's
// sketch, and fails once the sketch has been dropped.
func (h *Handle[T, A, S]) Autoscale(p AutoscalePolicy) error {
	return h.r.apply(h.e, Spec{Autoscale: &p})
}

// StopAutoscale stops and detaches the controller driving this sketch,
// reporting how many were stopped (0 or 1).
func (h *Handle[T, A, S]) StopAutoscale() int {
	if h.e.sk.DisableAutoscale() {
		return 1
	}
	return 0
}

// Info returns the sketch's live metadata (geometry, staleness bounds,
// pressure counters, resident size, lifecycle), or ok=false after Drop.
func (h *Handle[T, A, S]) Info() (SketchInfo, bool) {
	return h.r.Info(h.e.family, h.e.name)
}

// AutoscaleStats returns the live counters of the controller driving this
// sketch, or ok=false when none is attached.
func (h *Handle[T, A, S]) AutoscaleStats() (autoscale.Stats, bool) {
	return h.r.AutoscaleStats(h.e.family, h.e.name)
}

// Drop closes and removes the sketch from the registry, reporting whether
// it still existed — see Registry.Drop for the retained-handle contract.
func (h *Handle[T, A, S]) Drop() bool {
	return h.r.Drop(h.e.family, h.e.name)
}
