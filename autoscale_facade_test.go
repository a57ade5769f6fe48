package fastsketches_test

// Registry autoscaling tests: Spec.Autoscale and Apply attach one started
// controller per registered sketch with replace semantics, the controllers
// actually walk S through the registry's sketches when driven by a
// ManualClock, and Close stops them. All timing is manual-clock driven — no
// sleeps.

import (
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
)

// testPolicy returns an aggressive manual-clock policy: one qualifying
// sample resizes, no cooldown.
func testPolicy(mc *clock.ManualClock) *autoscale.Policy {
	return &autoscale.Policy{
		MinShards: 1, MaxShards: 8,
		HighWater: 1000, LowWater: 100,
		SustainedUp: 1, SustainedDown: 1,
		SampleEvery: 10 * time.Millisecond,
		Cooldown:    time.Nanosecond,
		Clock:       mc,
	}
}

// statsOf reads the live counters of the controller driving the sketch of
// (family, name), failing the test when none is attached.
func statsOf(t *testing.T, reg *fastsketches.Registry, family, name string) func() autoscale.Stats {
	return func() autoscale.Stats {
		t.Helper()
		st, ok := reg.AutoscaleStats(family, name)
		if !ok {
			t.Fatalf("no controller attached to %s/%s", family, name)
		}
		return st
	}
}

// advanceTicks drives every controller through n full sampling periods,
// synchronising on the manual clock's armed-timer count so no tick is lost
// between a controller's wakeup and its re-arm.
func advanceTicks(t *testing.T, mc *clock.ManualClock, n int, stats ...func() autoscale.Stats) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	base := make([]int64, len(stats))
	for i, st := range stats {
		base[i] = st().Samples
	}
	for tick := 1; tick <= n; tick++ {
		for mc.Waiters() < len(stats) {
			if time.Now().After(deadline) {
				t.Fatal("controllers never armed their sampling timers")
			}
			time.Sleep(50 * time.Microsecond)
		}
		mc.Advance(10 * time.Millisecond)
		for i, st := range stats {
			for st().Samples < base[i]+int64(tick) {
				if time.Now().After(deadline) {
					t.Fatal("controller never ticked")
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

func TestRegistryAutoscaleAttachesPerSketch(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 2})
	openTheta(t, reg, "tenant-a")
	openHLL(t, reg, "tenant-a")
	openCountMin(t, reg, "tenant-b")

	mc := clock.NewManualClock(time.Unix(1_000_000, 0))
	n, err := reg.Apply("", "tenant-a", fastsketches.Spec{Autoscale: testPolicy(mc)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // theta + hll under tenant-a; tenant-b not matched
		t.Fatalf("Apply(tenant-a) covered %d sketches, want 2", n)
	}
	for _, fam := range []string{"theta", "hll"} {
		if _, ok := reg.AutoscaleStats(fam, "tenant-a"); !ok {
			t.Errorf("%s/tenant-a has no controller after Apply", fam)
		}
	}
	if _, ok := reg.AutoscaleStats("countmin", "tenant-b"); ok {
		t.Error("Apply(tenant-a) attached a controller to tenant-b")
	}
	// Per-sketch attach through Open's Spec, and through one family of a
	// shared name.
	if _, err := reg.OpenCountMin("tenant-b", fastsketches.Spec{Autoscale: testPolicy(mc)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.AutoscaleStats("countmin", "tenant-b"); !ok {
		t.Error("Spec.Autoscale attached no controller")
	}
	if n, err := reg.Apply("hll", "tenant-a", fastsketches.Spec{Autoscale: testPolicy(mc)}); err != nil || n != 1 {
		t.Fatalf("family Apply = (%d, %v), want (1, nil)", n, err)
	}

	if _, err := reg.Apply("", "nobody", fastsketches.Spec{Autoscale: testPolicy(mc)}); err == nil {
		t.Error("Apply to an unregistered name must error")
	}
	if _, err := reg.Apply("", "tenant-a", fastsketches.Spec{Autoscale: &autoscale.Policy{}}); err == nil {
		t.Error("invalid policy must error")
	}
	// Replace, never stack: one controller per sketch survives every call
	// above, the invalid one included.
	if got := reg.StopAutoscale("tenant-a"); got != 2 {
		t.Errorf("StopAutoscale(tenant-a) stopped %d controllers, want 2", got)
	}
	if got := reg.StopAutoscale("tenant-b"); got != 1 {
		t.Errorf("StopAutoscale(tenant-b) stopped %d controllers, want 1", got)
	}
}

func TestRegistryAutoscaleWalksShardsUnderLoad(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1, MaxError: 1})
	mc := clock.NewManualClock(time.Unix(1_000_000, 0))
	h, err := reg.OpenCountMin("api.calls", fastsketches.Spec{Autoscale: testPolicy(mc)})
	if err != nil {
		t.Fatal(err)
	}
	sk := h.Sketch()
	stats := statsOf(t, reg, "countmin", "api.calls")
	advanceTicks(t, mc, 1, stats) // warmup baseline

	// Burst: ingest between every tick; 4000 items per 10ms of manual time
	// is a per-shard rate far above HighWater → the controller must walk S
	// up to MaxShards.
	for tick := 0; tick < 8 && sk.Shards() < 8; tick++ {
		for i := 0; i < 4000; i++ {
			sk.Update(0, uint64(i))
		}
		advanceTicks(t, mc, 1, stats)
	}
	if got := sk.Shards(); got != 8 {
		t.Fatalf("shards after sustained burst = %d, want MaxShards 8", got)
	}

	// Lull: no ingest at all. The backlog drains (propagators keep running
	// in real time), then quiet samples walk S back down to MinShards.
	deadline := time.Now().Add(30 * time.Second)
	for sk.Shards() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never scaled back down; shards %d, stats %+v", sk.Shards(), stats())
		}
		advanceTicks(t, mc, 1, stats)
	}
	st := stats()
	if st.ScaleUps == 0 || st.ScaleDowns == 0 {
		t.Errorf("stats = %+v, want both ups and downs recorded", st)
	}
}

func TestRegistryCloseStopsControllers(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	mc := clock.NewManualClock(time.Unix(1_000_000, 0))
	if _, err := reg.OpenTheta("t", fastsketches.Spec{Autoscale: testPolicy(mc)}); err != nil {
		t.Fatal(err)
	}
	stats := statsOf(t, reg, "theta", "t")
	advanceTicks(t, mc, 1, stats)
	reg.Close()
	samples := stats().Samples
	// The loop is stopped: advancing the clock can no longer produce ticks.
	mc.Advance(time.Second)
	mc.Advance(time.Second)
	if got := stats().Samples; got != samples {
		t.Errorf("controller ticked after registry Close: %d → %d samples", samples, got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Apply after Close must panic like every registry accessor")
		}
	}()
	reg.Apply("", "t", fastsketches.Spec{Autoscale: testPolicy(mc)})
}
