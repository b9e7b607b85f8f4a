package main

import (
	"bytes"
	"fmt"

	"octocache"
)

// The correctness checks run outside every timed region. Each counts as
// one attempted operation; a failed check makes the run incorrect.

type checkResult struct {
	name   string
	ok     bool
	detail string
}

func (b *bench) check(name string, ok bool, format string, args ...any) {
	b.checks = append(b.checks, checkResult{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// endpointSet discretizes every scan endpoint of the first n scans.
func endpointSet(scans []scan, n int, p octocache.Params) map[octocache.Key]struct{} {
	set := make(map[octocache.Key]struct{})
	for _, s := range scans[:n] {
		for _, q := range s.points {
			if k, ok := keyOf(q, p.Resolution, p.Depth); ok {
				set[k] = struct{}{}
			}
		}
	}
	return set
}

// checkLeaves verifies that every leaf's log-odds lies within the clamp
// bounds, and that every occupied voxel (aggregates expanded) contains
// an endpoint of some scan — occupancy only rises on a hit.
func (b *bench) checkLeaves(walk func(func(octocache.Leaf) bool), p octocache.Params, ends map[octocache.Key]struct{}) {
	var leaves, clamped, occupied, unseen int
	walk(func(l octocache.Leaf) bool {
		leaves++
		if l.LogOdds < p.ClampMin || l.LogOdds > p.ClampMax {
			clamped++
		}
		if l.LogOdds < p.OccupancyThreshold {
			return true
		}
		side := 1 << (p.Depth - l.Depth)
		if side > 64 {
			// Too large to expand, and no scan hits every voxel of a
			// 64³ block: count it as one voxel without an endpoint.
			occupied++
			unseen++
			return true
		}
		for x := 0; x < side; x++ {
			for y := 0; y < side; y++ {
				for z := 0; z < side; z++ {
					occupied++
					k := octocache.Key{X: l.Key.X + uint16(x), Y: l.Key.Y + uint16(y), Z: l.Key.Z + uint16(z)}
					if _, ok := ends[k]; !ok {
						unseen++
					}
				}
			}
		}
		return true
	})
	b.check("leaves-clamped", leaves > 0 && clamped == 0, "%d of %d leaves outside [%g, %g]", clamped, leaves, p.ClampMin, p.ClampMax)
	b.check("occupied-has-endpoint", occupied > 0 && unseen == 0, "%d of %d occupied voxels contain no scan endpoint", unseen, occupied)
}

// checkLastScan verifies that every in-range endpoint of the last scan
// lies in a known voxel.
func (b *bench) checkLastScan(known func(octocache.Key) bool, p octocache.Params, maxRange float64) {
	last := b.scans[len(b.scans)-1]
	var n, missing int
	for _, q := range last.points {
		if maxRange > 0 && q.Dist(last.origin) > maxRange {
			continue
		}
		k, ok := keyOf(q, p.Resolution, p.Depth)
		if !ok {
			continue
		}
		n++
		if !known(k) {
			missing++
		}
	}
	b.check("last-scan-known", n > 0 && missing == 0, "%d of %d in-range endpoints of the last scan unknown", missing, n)
}

// queryKeys gathers the keys the batch-versus-single check compares:
// the planner tubes of the last scans plus the last scan's endpoints.
func (b *bench) queryKeys(p octocache.Params) []octocache.Key {
	var keys []octocache.Key
	from := len(b.scans) - 8
	if from < 0 {
		from = 0
	}
	for _, s := range b.scans[from:] {
		keys = append(keys, s.keys...)
	}
	for _, q := range b.scans[len(b.scans)-1].points {
		if k, ok := keyOf(q, p.Resolution, p.Depth); ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkBatch verifies that batched answers equal per-key answers.
func (b *bench) checkBatch(keys []octocache.Key, batch []octocache.CellState, single func(octocache.Key) (float32, bool)) {
	bad := 0
	if len(batch) != len(keys) {
		bad = len(keys)
	} else {
		for i, k := range keys {
			lo, known := single(k)
			if batch[i].Known != known || (known && batch[i].LogOdds != lo) {
				bad++
			}
		}
	}
	b.check("batch-equals-single", len(keys) > 0 && bad == 0, "%d of %d batched answers differ from per-key answers", bad, len(keys))
}

func (b *bench) checkBytes(name string, got, want []byte) {
	b.check(name, len(want) > 0 && bytes.Equal(got, want), "%d bytes vs %d reference bytes, equal=%v", len(got), len(want), bytes.Equal(got, want))
}
