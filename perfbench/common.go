package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"octocache"
	"octocache/internal/dataset"
)

// scan is one input frame plus the planner step that follows it: voxels
// along the path ahead to query, and a fan of ray directions to cast.
type scan struct {
	origin octocache.Vec3
	points []octocache.Vec3
	keys   []octocache.Key  // path-ahead voxels, for OccupancyBatch
	probe  []octocache.Vec3 // their centres, for the wire's OccupiedBatch
	rays   []octocache.Vec3 // ray fan directions (unit length)
}

// keyOf discretizes p the way an OctoMap-style key space does: the map
// origin sits at the centre of the 2^depth key range. It is the
// benchmark's own arithmetic, so the endpoint checks do not trust the
// map's CoordToKey.
func keyOf(p octocache.Vec3, res float64, depth int) (octocache.Key, bool) {
	half := 1 << (depth - 1)
	var k [3]uint16
	for i, c := range [3]float64{p.X, p.Y, p.Z} {
		v := int(math.Floor(c/res)) + half
		if v < 0 || v >= 2*half {
			return octocache.Key{}, false
		}
		k[i] = uint16(v)
	}
	return octocache.Key{X: k[0], Y: k[1], Z: k[2]}, true
}

func centreOf(k octocache.Key, res float64, depth int) octocache.Vec3 {
	half := 1 << (depth - 1)
	return octocache.V((float64(int(k.X)-half)+0.5)*res, (float64(int(k.Y)-half)+0.5)*res, (float64(int(k.Z)-half)+0.5)*res)
}

// model returns the occupancy model maps with these options run under.
func model(opts octocache.Options) (octocache.Params, error) {
	m, err := octocache.New(octocache.Options{Resolution: opts.Resolution, Mode: octocache.ModeOctoMap})
	if err != nil {
		return octocache.Params{}, err
	}
	defer m.Close()
	return m.Model(), nil
}

// planScans attaches a planner step to every scan: a 3x3-voxel tube
// running 40% of the sensor range ahead along the direction of travel,
// and a fan of rays spanning ±60° about it, alternately level and
// pitched down so that half of them meet the ground.
func planScans(raw []dataset.Scan, p octocache.Params, maxRange float64, fan int) []scan {
	res := p.Resolution
	out := make([]scan, len(raw))
	for i, s := range raw {
		j := i + 1
		if j == len(raw) {
			j = i - 1
		}
		head := octocache.V(1, 0, 0)
		if j >= 0 {
			d := raw[j].Origin.Sub(s.Origin)
			if i == len(raw)-1 {
				d = d.Scale(-1)
			}
			d.Z = 0
			if d.Norm() > 1e-9 {
				head = d.Normalize()
			}
		}
		side := octocache.V(-head.Y, head.X, 0)
		up := octocache.V(0, 0, 1)
		sc := scan{origin: s.Origin, points: s.Points}
		for step := 1; float64(step)*res <= 0.4*maxRange; step++ {
			c := s.Origin.Add(head.Scale(float64(step) * res))
			for a := -1; a <= 1; a++ {
				for b := -1; b <= 1; b++ {
					q := c.Add(side.Scale(float64(a) * res)).Add(up.Scale(float64(b) * res))
					if k, ok := keyOf(q, res, p.Depth); ok {
						sc.keys = append(sc.keys, k)
						sc.probe = append(sc.probe, centreOf(k, res, p.Depth))
					}
				}
			}
		}
		yaw := math.Atan2(head.Y, head.X)
		for r := 0; r < fan; r++ {
			a := yaw + (float64(r)/float64(fan-1)-0.5)*2*math.Pi/3
			pitch := -0.15 * float64(r%2)
			sc.rays = append(sc.rays, octocache.V(math.Cos(a)*math.Cos(pitch), math.Sin(a)*math.Cos(pitch), math.Sin(pitch)))
		}
		out[i] = sc
	}
	return out
}

// span is one timed call into a layer. Spans of one scan share its
// index; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Scan   int    `json:"scan"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so call sites need no guard.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int64, scan int) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Scan: scan, Start: now})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeMedian times fn and reports the median. Calls under 100 ms are
// repeated until at least 5 samples and 200 ms of them are in, so that
// short timings are not one noisy sample; longer calls run once. prep,
// when non-nil, runs untimed before each call.
func timeMedian(prep, fn func() error) (time.Duration, error) {
	var xs []time.Duration
	var total time.Duration
	for {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		xs = append(xs, d)
		total += d
		if d >= 100*time.Millisecond || (len(xs) >= 5 && total >= 200*time.Millisecond) || len(xs) >= 200 {
			return median(xs), nil
		}
	}
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// memCounters is the runtime's allocation and GC tally at one instant.
type memCounters struct {
	alloc, gcs, pauseNs uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{alloc: m.TotalAlloc, gcs: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files under src to dst, as a crash image.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !fi.Mode().IsRegular() {
			return fmt.Errorf("crash image: %s is not a regular file", path)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
