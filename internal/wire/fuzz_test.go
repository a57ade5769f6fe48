package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzFrameDecode throws arbitrary bytes at the full server-side decode
// path — framing, request parsing, and the response/names/info parsers the
// client uses — asserting none of them ever panic and that every accepted
// request re-encodes within protocol bounds. Malformed, truncated and
// oversized frames must come back as errors, never as crashes: this is the
// target CI's fuzz-smoke step drives against the network front-end.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendPing(nil, 1))
	f.Add(AppendNamesReq(nil, 2))
	f.Add(AppendOpen(nil, 3, FamilyTheta, "users", &Open{}))
	f.Add(AppendDrop(nil, 4, FamilyHLL, "x"))
	f.Add(AppendInfo(nil, 5, FamilyCountMin, "api.calls"))
	f.Add(AppendOpen(nil, 6, FamilyQuantiles, "lat", &Open{HasShards: true, Shards: 8}))
	f.Add(AppendOpen(nil, 7, FamilyAny, "users", &Open{HasAutoscale: true,
		MinShards: 2, MaxShards: 16, HighWater: 250e3, LowWater: 50e3}))
	f.Add(AppendBatch(nil, 8, FamilyTheta, "users", []uint64{1, 2, 3}))
	f.Add(AppendBatch(nil, 9, FamilyQuantiles, "lat", []uint64{math.Float64bits(0.5)}))
	f.Add(AppendQuery(nil, 10, FamilyTheta, QueryEstimate, "users", 0))
	f.Add(AppendQuery(nil, 11, FamilyQuantiles, QueryQuantile, "lat", math.Float64bits(0.99)))
	f.Add(AppendOKU64(nil, 12, 99))
	f.Add(AppendOKNames(nil, 13, []string{"theta/users", "hll/x"}))
	f.Add(AppendOKInfo(nil, 14, Info{Shards: 4, Writers: 2, Relaxation: 64, ShardRelaxation: 16, Eager: true}))
	f.Add(AppendError(nil, 15, "boom"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3})
	f.Add(AppendOpen(nil, 16, FamilyCountMin, "api.calls", &Open{
		HasShards: true, Shards: 4,
		HasView: true, ViewRefreshNs: 1e7, ViewMaxAgeNs: -1,
		HasWindow: true, WindowIntervalNs: 6e10, WindowSlots: 12, WindowDecay: 0.5,
		HasAutoscale: true, MinShards: 1, MaxShards: 8, HighWater: 1e6, LowWater: 1e4,
	}))
	f.Add(AppendOpen(nil, 17, FamilyAny, "w", &Open{HasWindow: true, WindowIntervalNs: 1e9}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r, &buf)
			if err != nil {
				return // framing rejected the rest; that is a valid outcome
			}
			if req, err := ParseRequest(payload); err == nil {
				// Anything the parser accepts must be within protocol
				// bounds: the server indexes items and names directly.
				switch req.Op {
				case OpPing, OpNames, OpCheckpoint, OpOpsStats:
				default:
					if len(req.Name) == 0 {
						t.Fatalf("accepted request with empty name: %+v", req)
					}
				}
				// An accepted OpOpen re-encodes to the same bytes: the
				// section mask and the sections are one canonical form.
				if req.Op == OpOpen {
					re := AppendOpen(nil, req.ID, req.Family, string(req.Name), &req.Open)
					if !bytes.Equal(re[4:], payload) {
						t.Fatalf("OpOpen re-encodes differently: %x vs %x", re[4:], payload)
					}
				}
				if req.NumItems() > MaxBatchItems {
					t.Fatalf("accepted %d items > MaxBatchItems", req.NumItems())
				}
				for i := 0; i < req.NumItems(); i++ {
					_ = req.Item(i)
				}
			}
			if status, _, body, err := ParseResponse(payload); err == nil && status == StatusOK {
				_, _ = ParseNames(body)
				_, _ = ParseInfo(body)
			}
		}
	})
}
