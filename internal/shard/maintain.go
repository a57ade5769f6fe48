package shard

import (
	"fmt"
	"sync"
	"time"

	"fastsketches/internal/autoscale"
)

// Per-sketch background maintenance. Beside its shards' propagators, a
// Sharded sketch runs at most one goroutine: the maintenance loop, started
// by the first periodic task enabled on it and stopped by Close. A sketch
// that never declares a view, a window or an autoscale controller runs
// none.
//
// Each armed task keeps its own period on its own clock: the loop holds one
// timer per task — view refresh every ViewConfig.RefreshEvery, window
// rotation every WindowConfig.Interval, a controller Tick every
// Policy.SampleEvery — and re-arms a task's timer only after the task has
// run, exactly as a dedicated goroutine per task would. Enable*/Disable*
// swap the task's runtime under resizeMu and wake the loop, which arms a
// fresh period for a new runtime and drops the timer of a detached one.
// Tasks run one at a time, so a slow rotation delays a due refresh by at
// most its own duration.

// maintenance is the handle on a sketch's maintenance loop.
type maintenance struct {
	// wake has capacity 1: Enable*/Disable* calls coalesce into one re-read
	// of the task set.
	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// armLocked starts the maintenance loop on the first periodic task and
// otherwise wakes it to re-read its task set. Caller holds resizeMu and
// has just swapped a task runtime.
func (s *Sharded[T, A, C]) armLocked() {
	if s.loop == nil {
		s.loop = &maintenance{
			wake: make(chan struct{}, 1),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		go s.maintain(s.loop)
		return
	}
	select {
	case s.loop.wake <- struct{}{}:
	default:
	}
}

// maintain is the maintenance loop. The armed runtime pointers (vr, wr, ar)
// remember which task each timer belongs to: a runtime swapped since its
// timer was armed gets a fresh period (or none, once disabled), and a timer
// that fires for a runtime detached meanwhile runs a no-op — a stopped view
// publishes nothing, a replaced window is not rotated, a stopped
// controller does not tick.
func (s *Sharded[T, A, C]) maintain(m *maintenance) {
	defer close(m.done)
	var (
		vr                  *viewRuntime[A]
		wr                  *windowRuntime[A]
		ar                  *autoscaleRuntime
		refresh, rot, scale <-chan time.Time
	)
	for {
		if cur := s.vr.Load(); cur != vr {
			vr, refresh = cur, nil
			if vr != nil {
				refresh = vr.cfg.Clock.After(vr.cfg.RefreshEvery)
			}
		}
		if cur := s.wr.Load(); cur != wr {
			wr, rot = cur, nil
			if wr != nil {
				rot = wr.cfg.Clock.After(wr.cfg.Interval)
			}
		}
		if cur := s.ar.Load(); cur != ar {
			ar, scale = cur, nil
			if ar != nil {
				scale = ar.p.Clock.After(ar.p.SampleEvery)
			}
		}
		// A task that ran forgets its runtime, so the re-read above re-arms
		// it from whichever runtime is current once the task is done.
		select {
		case <-m.stop:
			return
		case <-m.wake:
		case <-refresh:
			s.refreshView(vr)
			vr, refresh = nil, nil
		case <-rot:
			s.rotate(wr)
			wr, rot = nil, nil
		case <-scale:
			ar.tick()
			ar, scale = nil, nil
		}
	}
}

// autoscaleRuntime is the controller state while autoscale is enabled.
type autoscaleRuntime struct {
	ctl *autoscale.Controller
	p   autoscale.Policy // ctl's normalised policy
	// mu orders ticks against teardown: once stopped is set under mu, no
	// further tick runs.
	mu      sync.Mutex
	stopped bool
}

// tick samples and applies the policy once, unless stopped.
func (a *autoscaleRuntime) tick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.stopped {
		a.ctl.Tick()
	}
}

// stop waits out an in-flight tick (which may be mid-Resize, so never call
// it with resizeMu held) and forbids further ticks.
func (a *autoscaleRuntime) stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
}

// EnableAutoscale attaches an autoscaling controller under p to this
// sketch, paced by the maintenance loop every p.SampleEvery on p.Clock. It
// replaces a controller already attached (the old one ticks no more once
// EnableAutoscale returns) rather than stacking a second. memPressure, if
// non-nil, is the controller's memory-budget signal (see
// autoscale.Controller.SetMemoryPressure). An invalid policy changes
// nothing; enabling after Close is an error.
func (s *Sharded[T, A, C]) EnableAutoscale(p autoscale.Policy, memPressure func() bool) error {
	ctl, err := autoscale.New(s, p)
	if err != nil {
		return err
	}
	ctl.SetMemoryPressure(memPressure)
	s.resizeMu.Lock()
	if s.closed {
		s.resizeMu.Unlock()
		return fmt.Errorf("shard: EnableAutoscale after Close")
	}
	old := s.ar.Swap(&autoscaleRuntime{ctl: ctl, p: ctl.Policy()})
	s.armLocked()
	s.resizeMu.Unlock()
	if old != nil {
		old.stop()
	}
	return nil
}

// DisableAutoscale detaches the controller, reporting whether a running
// one was attached (Close already stopped a closed sketch's). No tick runs
// after it returns; S stays wherever the controller left it.
func (s *Sharded[T, A, C]) DisableAutoscale() bool {
	s.resizeMu.Lock()
	if s.closed || s.ar.Load() == nil {
		s.resizeMu.Unlock()
		return false
	}
	ar := s.ar.Swap(nil)
	s.armLocked()
	s.resizeMu.Unlock()
	ar.stop()
	return true
}

// AutoscaleSettings returns the attached controller's normalised policy
// and whether one is attached — what checkpointing persists, including
// after Close. Wait-free.
func (s *Sharded[T, A, C]) AutoscaleSettings() (autoscale.Policy, bool) {
	ar := s.ar.Load()
	if ar == nil {
		return autoscale.Policy{}, false
	}
	return ar.p, true
}

// AutoscaleStats returns a snapshot of the attached controller's counters
// and whether one is attached; after Close, the stopped controller's final
// counters.
func (s *Sharded[T, A, C]) AutoscaleStats() (autoscale.Stats, bool) {
	ar := s.ar.Load()
	if ar == nil {
		return autoscale.Stats{}, false
	}
	return ar.ctl.Stats(), true
}
