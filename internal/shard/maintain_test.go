package shard_test

// Maintenance-loop tests: one goroutine per sketch runs every periodic task
// — view refresh, window rotation, autoscale tick — each on its own period,
// none for a sketch without tasks, and none after Close. All pacing is on a
// ManualClock: the test advances time only once every armed task has
// re-armed its timer (Waiters), so no tick can be lost or doubled.

import (
	"runtime"
	"testing"
	"time"

	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
	"fastsketches/internal/shard"
)

const (
	maintView   = 10 * time.Millisecond
	maintScale  = 20 * time.Millisecond
	maintRotate = 30 * time.Millisecond
)

// waitFor polls cond with a generous bound; the condition is driven by the
// ManualClock and the loop goroutine, never by the passage of real time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// settledGoroutines returns the goroutine count once it has stopped moving,
// so goroutines of earlier tests still winding down cannot skew a baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	waitFor(t, "goroutine count to settle", func() bool { return runtime.NumGoroutine() == want })
}

// maintPolicy never resizes an idle sketch within the tests' horizon: no
// ingest stays far below HighWater, and the down streak needs 6 samples.
func maintPolicy(clk clock.Clock) autoscale.Policy {
	return autoscale.Policy{HighWater: 1e12, SampleEvery: maintScale, Clock: clk}
}

// armAll declares a view, a window and an autoscale controller on sk, all
// paced by clk, and waits until the loop has armed all three timers.
func armAll(t *testing.T, sk *shard.CountMin, clk *clock.ManualClock) {
	t.Helper()
	if err := sk.EnableView(shard.ViewConfig{RefreshEvery: maintView, MaxAge: -1, Clock: clk}); err != nil {
		t.Fatal(err)
	}
	if err := sk.EnableWindow(shard.WindowConfig{Interval: maintRotate, Slots: 4, Clock: clk}); err != nil {
		t.Fatal(err)
	}
	if err := sk.EnableAutoscale(maintPolicy(clk), nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "three armed timers", func() bool { return clk.Waiters() == 3 })
}

// stepAndCheck advances clk by maintView six times (60ms), waiting after
// each step until the armed timers are back to armed(step) — every task
// that came due has run and re-armed (the count only climbs back to it
// once the last re-arm lands). With a view enabled, each step must have
// been served by a background refresh (view lag back to zero).
func stepAndCheck(t *testing.T, sk *shard.CountMin, clk *clock.ManualClock, armed func(step int) int) {
	t.Helper()
	for step := 1; step <= 6; step++ {
		clk.Advance(maintView)
		waitFor(t, "tasks to re-arm", func() bool { return clk.Waiters() == armed(step) })
		if sk.ViewEnabled() {
			if lag := sk.ViewLag(); lag != 0 {
				t.Fatalf("step %d: view lag %v; the 10ms refresh did not run", step, lag)
			}
		}
	}
}

func rotations(sk *shard.CountMin) uint64 {
	st, _ := sk.WindowStats()
	return st.Rotations
}

func samples(sk *shard.CountMin) int64 {
	st, _ := sk.AutoscaleStats()
	return st.Samples
}

// TestMaintenanceLoopPacesEveryTask: view (10ms), window (30ms) and
// autoscale (20ms) on one sketch and one clock share one goroutine, and
// 60ms of manual time yields 6 refreshes, 2 rotations and 3 controller
// samples (the first a warmup). Close stops the loop.
func TestMaintenanceLoopPacesEveryTask(t *testing.T) {
	none := settledGoroutines()
	sk := eagerCM(t, 2)
	base := settledGoroutines() // plus the shards' propagators
	clk := clock.NewManualClock(time.Unix(1<<20, 0))
	armAll(t, sk, clk)
	waitGoroutines(t, base+1)

	stepAndCheck(t, sk, clk, func(int) int { return 3 })
	if got := rotations(sk); got != 2 {
		t.Errorf("rotations after 60ms = %d, want 2", got)
	}
	st, _ := sk.AutoscaleStats()
	if st.Samples != 3 || st.LastDecision != autoscale.DecisionHold {
		t.Errorf("controller after 60ms: %d samples, last %v; want 3, hold", st.Samples, st.LastDecision)
	}
	waitGoroutines(t, base+1)

	sk.Close()
	waitGoroutines(t, none)
}

// TestMaintenanceDisableLeavesOthersFiring: disabling any one task stops
// only that task; the other two keep their periods on the same loop.
func TestMaintenanceDisableLeavesOthersFiring(t *testing.T) {
	// The step at which the disabled task's last timer comes due.
	for task, due := range map[string]int{"view": 1, "autoscale": 2, "window": 3} {
		t.Run(task, func(t *testing.T) {
			sk := eagerCM(t, 2)
			defer sk.Close()
			base := settledGoroutines()
			clk := clock.NewManualClock(time.Unix(1<<20, 0))
			armAll(t, sk, clk)
			var disabled bool
			switch task {
			case "view":
				disabled = sk.DisableView()
			case "window":
				disabled = sk.DisableWindow()
			case "autoscale":
				disabled = sk.DisableAutoscale()
			}
			if !disabled {
				t.Fatalf("Disable %s found nothing to disable", task)
			}
			// The disabled task's last timer stays registered on the manual
			// clock until it comes due; from then on only two are armed.
			stepAndCheck(t, sk, clk, func(step int) int {
				if step < due {
					return 3
				}
				return 2
			})
			if task != "view" && !sk.ViewEnabled() {
				t.Error("view gone")
			}
			if task != "window" {
				if got := rotations(sk); got != 2 {
					t.Errorf("rotations after 60ms = %d, want 2", got)
				}
			} else if sk.WindowEnabled() {
				t.Error("window still enabled")
			}
			if task != "autoscale" {
				if got := samples(sk); got != 3 {
					t.Errorf("controller samples after 60ms = %d, want 3", got)
				}
			} else if _, ok := sk.AutoscaleStats(); ok {
				t.Error("controller still attached")
			}
			waitGoroutines(t, base+1) // still one loop for the remaining two
		})
	}
}

// TestMaintenanceAutoscaleTickPerSample: a controller alone is paced once
// per Advance(SampleEvery), and stopping it (Close) is clean and
// idempotent — advancing further produces no tick.
func TestMaintenanceAutoscaleTickPerSample(t *testing.T) {
	none := settledGoroutines()
	sk := eagerCM(t, 2)
	clk := clock.NewManualClock(time.Unix(1<<20, 0))
	if err := sk.EnableAutoscale(maintPolicy(clk), nil); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		waitFor(t, "the sample timer", func() bool { return clk.Waiters() == 1 })
		clk.Advance(maintScale)
		waitFor(t, "the sample", func() bool { return samples(sk) == i })
	}
	sk.Close()
	sk.Close() // idempotent
	waitGoroutines(t, none)
	clk.Advance(maintScale)
	clk.Advance(maintScale)
	if got := samples(sk); got != 3 {
		t.Fatalf("samples after stop = %d, want 3", got)
	}
	if sk.DisableAutoscale() {
		t.Error("DisableAutoscale after Close reported a running controller")
	}
}

// TestMaintenanceNoTasksNoGoroutine: a sketch that declares no periodic
// task — ingest, queries, manual pacing hooks — runs no maintenance loop,
// and a closed sketch refuses every Enable* without starting one.
func TestMaintenanceNoTasksNoGoroutine(t *testing.T) {
	sk := eagerCM(t, 2)
	base := settledGoroutines()
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i))
	}
	sk.Estimate(1)
	if sk.RefreshViewNow() || sk.RotateNow() || sk.DisableAutoscale() {
		t.Fatal("a pacing hook found a task on a sketch that declared none")
	}
	if n := settledGoroutines(); n != base {
		t.Fatalf("goroutines %d → %d on a sketch with no periodic task", base, n)
	}

	sk.Close()
	base = settledGoroutines()
	clk := clock.NewManualClock(time.Unix(1<<20, 0))
	if err := sk.EnableAutoscale(maintPolicy(clk), nil); err == nil {
		t.Error("EnableAutoscale after Close succeeded")
	}
	if err := sk.EnableView(shard.ViewConfig{Clock: clk}); err == nil {
		t.Error("EnableView after Close succeeded")
	}
	if err := sk.EnableWindow(shard.WindowConfig{Clock: clk}); err == nil {
		t.Error("EnableWindow after Close succeeded")
	}
	if _, ok := sk.AutoscaleStats(); ok {
		t.Error("refused EnableAutoscale attached a controller")
	}
	if n := settledGoroutines(); n != base || clk.Waiters() != 0 {
		t.Fatalf("refused Enable* started work: goroutines %d → %d, %d armed timers", base, n, clk.Waiters())
	}
}
