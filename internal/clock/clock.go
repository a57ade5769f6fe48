// Package clock is the module's one injectable time source. Every periodic
// task — a sketch's view refresh, window rotation and autoscale tick, the
// registry checkpointer and the ops sweeper — reads time and arms its next
// tick through a Clock, so tests and stress drivers replace real time with a
// ManualClock and pace every loop deterministically.
package clock

import (
	"sync"
	"time"
)

// Clock abstracts the two uses of time every periodic task has — reading
// the current instant and waiting for the next tick — so every
// time-dependent decision (rates, cooldowns, expiries, tick pacing) can be
// driven by a ManualClock in tests and stress runs, with no sleeps and no
// wall-clock flakiness. Production code defaults to SystemClock.
type Clock interface {
	Now() time.Time
	// After behaves like time.After: a channel that delivers one value once
	// d has elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// SystemClock is the production Clock: real time.
type SystemClock struct{}

// Now returns the current wall-clock time.
func (SystemClock) Now() time.Time { return time.Now() }

// After defers to time.After.
func (SystemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// ManualClock is a deterministic Clock for tests and stress drivers: time
// stands still until Advance moves it, firing any timers that come due.
// Safe for concurrent use.
type ManualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []manualTimer
}

type manualTimer struct {
	at time.Time
	ch chan time.Time
}

// NewManualClock returns a ManualClock frozen at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now returns the clock's current instant.
func (m *ManualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// After registers a one-shot timer due at Now()+d. Non-positive durations
// fire immediately.
func (m *ManualClock) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.timers = append(m.timers, manualTimer{at: m.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d and fires every timer that has come
// due, in registration order.
func (m *ManualClock) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	kept := m.timers[:0]
	for _, t := range m.timers {
		if !t.at.After(m.now) {
			t.ch <- m.now
		} else {
			kept = append(kept, t)
		}
	}
	m.timers = kept
}

// Waiters returns the number of armed timers — how many goroutines are
// blocked in After. Tests synchronise on this before Advancing, so a tick
// can never be lost between a controller's wakeup and its re-arm.
func (m *ManualClock) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.timers)
}
