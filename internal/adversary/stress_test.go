package adversary

import (
	"math"
	"sync/atomic"
	"testing"
)

// TestStressOracleCatchesFaults drives Stress through deliberately broken
// family adapters and requires the checker to flag them: a sketch that
// drops its state must breach the lower edge, one that double-counts the
// upper edge. A checker that cannot fail certifies nothing.
func TestStressOracleCatchesFaults(t *testing.T) {
	cfg := StressConfig{Shards: 2, Writers: 2, BufferSize: 4, UpdatesPerWriter: 2000, Queriers: 2}
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	bound, _ := cfg.bounds()
	total := float64(cfg.Writers * cfg.UpdatesPerWriter)

	// faulty runs cfg with every answer passed through fault, which also
	// sees how many updates had completed when the answer was read.
	faulty := func(t *testing.T, fault func(answer float64, completed int64) float64) StressReport {
		cfg := cfg
		fam, err := newFamily(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer fam.close()
		var completed atomic.Int64
		update, newQuery := fam.update, fam.newQuery
		fam.update = func(w, i int) {
			update(w, i)
			completed.Add(1)
		}
		fam.newQuery = func() func(int) (float64, bool) {
			query := newQuery()
			return func(i int) (float64, bool) {
				got, ok := query(i)
				return fault(got, completed.Load()), ok
			}
		}
		rep, err := stress(cfg, fam)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%+v", rep)
		if rep.Queries == 0 {
			t.Fatal("queriers never ran")
		}
		return rep
	}

	t.Run("drops-state", func(t *testing.T) {
		rep := faulty(t, func(got float64, completed int64) float64 {
			if completed > bound {
				return 0
			}
			return got
		})
		if rep.LowerViolations == 0 || rep.WorstDeficit <= 0 {
			t.Errorf("a sketch answering 0 past the bound %d went unflagged: %d lower violations, worst deficit %d",
				bound, rep.LowerViolations, rep.WorstDeficit)
		}
	})
	t.Run("double-counts", func(t *testing.T) {
		rep := faulty(t, func(got float64, _ int64) float64 { return got + total + 1 })
		if rep.UpperViolations == 0 {
			t.Error("a sketch answering above the whole stream went unflagged")
		}
	})
	t.Run("clean", func(t *testing.T) {
		rep := faulty(t, func(got float64, _ int64) float64 { return got })
		if rep.LowerViolations != 0 || rep.UpperViolations != 0 {
			t.Errorf("a correct sketch was flagged: %d lower, %d upper violations",
				rep.LowerViolations, rep.UpperViolations)
		}
		if rep.WorstDeficit > 0 || rep.WorstDeficit == math.MinInt64 {
			t.Errorf("worst deficit %d: a clean run must report its real margin, ≤ 0", rep.WorstDeficit)
		}
	})
}
