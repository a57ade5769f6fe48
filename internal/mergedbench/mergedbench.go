// Package mergedbench defines the merged-query benchmark suite shared by
// BenchmarkMergedQuery (go test) and benchrunner's mergedquery scenario, so
// both surfaces measure exactly the same query paths:
//
//   - pooled:    the registry hot path — family query methods folding into a
//     pooled, reused accumulator (zero allocs/op steady-state).
//   - queryinto: one caller-owned accumulator reused via QueryInto.
//   - fresh:     the pre-refactor behaviour — a fresh accumulator allocated
//     and folded per query — kept as the allocation baseline.
package mergedbench

import (
	"testing"

	"fastsketches"
	"fastsketches/internal/shard"
)

// Sinks keep query results observable so the folds are not elided.
var (
	sinkF float64
	sinkU uint64
)

// Case is one family/path benchmark over a prepared suite.
type Case struct {
	Family, Path string
	Fn           func(b *testing.B)
}

// Suite holds closed (quiescent) sharded sketches of each family,
// pre-loaded with a fixed stream; closed handles stay queryable and give
// deterministic per-query work.
type Suite struct {
	Theta     *shard.Theta
	HLL       *shard.HLL
	Quantiles *shard.Quantiles
	CountMin  *shard.CountMin
}

// NewSuite builds the registry-backed sketches, ingests `uniques` items per
// family and closes the registry so every case measures a stable snapshot.
func NewSuite(shards, uniques int) (*Suite, error) {
	return newSuite(shards, uniques, nil)
}

// NewSuiteResized is NewSuite with a live-resharding history: each sketch
// ingests part of the stream at each shard count of the resize schedule
// before settling on the schedule's last entry. The resulting suite
// exercises the post-resize query planes — every merged query additionally
// folds the legacy accumulator holding the retired epochs' drained state —
// so the zero-allocation contract test and the benchmarks can pin that a
// resize leaves the steady-state paths allocation-free.
func NewSuiteResized(shards, uniques int, schedule []int) (*Suite, error) {
	return newSuite(shards, uniques, schedule)
}

func newSuite(shards, uniques int, schedule []int) (*Suite, error) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards:          shards,
		MaxError:        1,
		QuantilesK:      128,
		CountMinEpsilon: 0.01,
	})
	if err != nil {
		return nil, err
	}
	th, _ := reg.OpenTheta("bench", fastsketches.Spec{})
	hl, _ := reg.OpenHLL("bench", fastsketches.Spec{})
	qu, _ := reg.OpenQuantiles("bench", fastsketches.Spec{})
	cm, _ := reg.OpenCountMin("bench", fastsketches.Spec{})
	s := &Suite{
		Theta:     th.Sketch(),
		HLL:       hl.Sketch(),
		Quantiles: qu.Sketch(),
		CountMin:  cm.Sketch(),
	}
	// cuts[p] is the stream position where schedule[p] takes effect,
	// splitting the stream into len(schedule)+1 roughly equal phases.
	cuts := make(map[int]int, len(schedule))
	for p, newS := range schedule {
		cuts[(p+1)*uniques/(len(schedule)+1)] = newS
	}
	for i := 0; i < uniques; i++ {
		if newS, ok := cuts[i]; ok {
			if _, err := reg.Apply("", "bench", fastsketches.Spec{Shards: newS}); err != nil {
				return nil, err
			}
		}
		s.Theta.Update(0, uint64(i))
		s.HLL.Update(0, uint64(i))
		s.Quantiles.Update(0, float64(i%4096))
		s.CountMin.Update(0, uint64(i%512))
	}
	reg.Close()
	return s, nil
}

// Cases returns the benchmark closures. Pooled cases warm the accumulator
// pool (and, for quantiles, grow the reused accumulator's capacity) before
// the timer starts, so they report steady-state allocation behaviour.
func (s *Suite) Cases() []Case {
	return []Case{
		{"theta", "pooled", func(b *testing.B) {
			sinkF = s.Theta.Estimate()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF = s.Theta.Estimate()
			}
		}},
		{"theta", "queryinto", func(b *testing.B) {
			acc := s.Theta.NewAccumulator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Theta.QueryInto(acc)
				sinkF = acc.Estimate()
			}
		}},
		{"theta", "fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := s.Theta.NewAccumulator()
				s.Theta.MergeInto(acc)
				sinkF = acc.Estimate()
			}
		}},
		{"hll", "pooled", func(b *testing.B) {
			sinkF = s.HLL.Estimate()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF = s.HLL.Estimate()
			}
		}},
		{"hll", "fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := s.HLL.NewAccumulator()
				s.HLL.MergeInto(acc)
				sinkF = acc.Estimate()
			}
		}},
		{"quantiles", "pooled", func(b *testing.B) {
			sinkF = s.Quantiles.Quantile(0.99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF = s.Quantiles.Quantile(0.99)
			}
		}},
		{"quantiles", "fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := s.Quantiles.NewAccumulator()
				s.Quantiles.MergeInto(acc)
				sinkF = acc.Quantile(0.99)
			}
		}},
		{"countmin", "queryinto", func(b *testing.B) {
			acc := s.CountMin.NewAccumulator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.CountMin.QueryInto(acc)
				sinkU = acc.Estimate(7)
			}
		}},
		{"countmin", "fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkU = s.CountMin.Merged().Estimate(7)
			}
		}},
	}
}
