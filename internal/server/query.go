package server

import (
	"fmt"
	"math"
	"time"

	"fastsketches"
	"fastsketches/internal/wire"
)

// query serves one OpQuery through the zero-alloc QueryInto plane: the
// connection's per-family accumulator is reset and every shard snapshot
// (plus any legacy resharding state) folded into it, then the scalar is
// read off. The served result is exactly what an in-process caller of
// QueryInto would read at the same instant, including the staleness
// contract: all but at most S·r completed updates are reflected
// (transiently S_old·r + S_new·r while a resize drains), and a Count-Min
// per-key Count keeps the tighter single-shard bound r.
// The Window* kinds answer over the sketch's declared sliding window and
// DecayedCount over the Count-Min time-decayed plane, through the same
// reusable per-connection accumulators (WindowQueryInto resets and refolds
// exactly like QueryInto). A windowed query on a sketch without a declared
// window is a typed error, not a silent fall-through to the cumulative
// stream.
func (cs *connState) query(req *wire.Request, out []byte) []byte {
	switch req.Family {
	case wire.FamilyTheta:
		switch req.Query {
		case wire.QueryEstimate:
			sk := cs.theta(req.Name)
			if cs.accTheta == nil {
				cs.accTheta = sk.NewAccumulator()
			}
			sk.QueryInto(cs.accTheta)
			return wire.AppendOKU64(out, req.ID, math.Float64bits(cs.accTheta.Estimate()))
		case wire.QueryWindowEstimate:
			sk := cs.theta(req.Name)
			if cs.accTheta == nil {
				cs.accTheta = sk.NewAccumulator()
			}
			if !sk.WindowQueryInto(cs.accTheta) {
				return appendNoWindow(out, req)
			}
			return wire.AppendOKU64(out, req.ID, math.Float64bits(cs.accTheta.Estimate()))
		}

	case wire.FamilyHLL:
		switch req.Query {
		case wire.QueryEstimate:
			sk := cs.hll(req.Name)
			if cs.accHLL == nil {
				cs.accHLL = sk.NewAccumulator()
			}
			sk.QueryInto(cs.accHLL)
			return wire.AppendOKU64(out, req.ID, math.Float64bits(cs.accHLL.Estimate()))
		case wire.QueryWindowEstimate:
			sk := cs.hll(req.Name)
			if cs.accHLL == nil {
				cs.accHLL = sk.NewAccumulator()
			}
			if !sk.WindowQueryInto(cs.accHLL) {
				return appendNoWindow(out, req)
			}
			return wire.AppendOKU64(out, req.ID, math.Float64bits(cs.accHLL.Estimate()))
		}

	case wire.FamilyQuantiles:
		switch req.Query {
		case wire.QueryQuantile, wire.QueryRank, wire.QueryN,
			wire.QueryWindowQuantile, wire.QueryWindowN:
			sk := cs.quantiles(req.Name)
			if cs.accQuant == nil {
				cs.accQuant = sk.NewAccumulator()
			}
			switch req.Query {
			case wire.QueryWindowQuantile, wire.QueryWindowN:
				if !sk.WindowQueryInto(cs.accQuant) {
					return appendNoWindow(out, req)
				}
			default:
				sk.QueryInto(cs.accQuant)
			}
			switch req.Query {
			case wire.QueryQuantile, wire.QueryWindowQuantile:
				v := cs.accQuant.Quantile(math.Float64frombits(req.Arg))
				return wire.AppendOKU64(out, req.ID, math.Float64bits(v))
			case wire.QueryRank:
				r := cs.accQuant.Rank(math.Float64frombits(req.Arg))
				return wire.AppendOKU64(out, req.ID, math.Float64bits(r))
			default:
				return wire.AppendOKU64(out, req.ID, cs.accQuant.N())
			}
		}

	case wire.FamilyCountMin:
		switch req.Query {
		case wire.QueryCount:
			// Per-key frequency reads the owning shard directly — no
			// accumulator, single-shard staleness bound r.
			return wire.AppendOKU64(out, req.ID, cs.countmin(req.Name).Estimate(req.Arg))
		case wire.QueryN:
			sk := cs.countmin(req.Name)
			if cs.accCM == nil {
				cs.accCM = sk.NewAccumulator()
			}
			sk.QueryInto(cs.accCM)
			return wire.AppendOKU64(out, req.ID, cs.accCM.N())
		case wire.QueryWindowCount, wire.QueryWindowN:
			sk := cs.countmin(req.Name)
			if cs.accCM == nil {
				cs.accCM = sk.NewAccumulator()
			}
			if !sk.WindowQueryInto(cs.accCM) {
				return appendNoWindow(out, req)
			}
			if req.Query == wire.QueryWindowCount {
				return wire.AppendOKU64(out, req.ID, cs.accCM.Estimate(req.Arg))
			}
			return wire.AppendOKU64(out, req.ID, cs.accCM.N())
		case wire.QueryDecayedCount:
			sk := cs.countmin(req.Name)
			if cs.accCM == nil {
				cs.accCM = sk.NewAccumulator()
			}
			if !sk.DecayedQueryInto(cs.accCM) {
				return wire.AppendError(out, req.ID,
					fmt.Sprintf("no decayed window declared on %s/%s", req.Family, req.Name))
			}
			return wire.AppendOKU64(out, req.ID, cs.accCM.Estimate(req.Arg))
		}
	}
	return wire.AppendError(out, req.ID,
		fmt.Sprintf("query kind %d unsupported for family %s", req.Query, req.Family))
}

func appendNoWindow(out []byte, req *wire.Request) []byte {
	return wire.AppendError(out, req.ID,
		fmt.Sprintf("no window declared on %s/%s", req.Family, req.Name))
}

// openSpec checks an OpOpen body's bounds and maps its sections onto a
// Spec. The autoscale section carries four policy knobs; sampling cadence,
// streaks, cooldown and step factor take the package's production defaults
// (see autoscale.Policy).
func openSpec(o *wire.Open) (fastsketches.Spec, error) {
	var spec fastsketches.Spec
	if o.HasShards {
		if o.Shards < 1 || o.Shards > wire.MaxShards {
			return spec, fmt.Errorf("resize to %d shards outside [1,%d]", o.Shards, wire.MaxShards)
		}
		spec.Shards = int(o.Shards)
	}
	if o.HasView {
		spec.View = &fastsketches.ViewConfig{
			RefreshEvery: time.Duration(o.ViewRefreshNs),
			MaxAge:       time.Duration(o.ViewMaxAgeNs),
		}
	}
	if o.HasWindow {
		spec.Window = &fastsketches.WindowConfig{
			Interval: time.Duration(o.WindowIntervalNs),
			Slots:    int(o.WindowSlots),
			Decay:    o.WindowDecay,
		}
	}
	if o.HasAutoscale {
		if o.MinShards > wire.MaxShards || o.MaxShards > wire.MaxShards {
			return spec, fmt.Errorf("autoscale shard bounds exceed %d", wire.MaxShards)
		}
		spec.Autoscale = &fastsketches.AutoscalePolicy{
			MinShards: int(o.MinShards),
			MaxShards: int(o.MaxShards),
			HighWater: o.HighWater,
			LowWater:  o.LowWater,
		}
	}
	return spec, nil
}
