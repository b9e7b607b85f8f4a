package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"octocache"
	"octocache/internal/dataset"
	"octocache/internal/geom"
	"octocache/internal/sensor"
	"octocache/internal/world"
)

// workload fixes one traffic mix: the scan stream it replays and the map
// options it replays them into. Only the seed varies between runs.
type workload struct {
	name  string
	scans int // scans per round at size 1
	// fan is the rays per planner fan. In process a fan runs right after
	// Insert, with cold caches: a sparse fan is mostly the misses of its
	// first rays, whose cost swings with the shared host, so in-process
	// fans are dense enough to be mostly ray work.
	fan  int
	spec func(seed int64, scans int) dataset.Spec
	opts octocache.Options
	run  func(*bench) error
}

// Each workload replays one fixed scene, like a recorded dataset; the
// seed perturbs the trajectory through it (waypoints and yaw sweep), so
// that runs on different seeds see different scans of the same world.
var workloads = map[string]workload{
	"corridor-nav": {
		name:  "corridor-nav",
		scans: 400,
		fan:   64,
		run:   runInproc,
		spec: func(seed int64, n int) dataset.Spec {
			j := jitter(seed)
			return dataset.Spec{
				Env:      world.FR079,
				Seed:     79,
				NumScans: n,
				Sensor:   sensor.Panoramic(5, 120, 24),
				// Down the corridor centerline: the walls never leave view.
				Waypoints: []geom.Vec3{geom.V(0, j(0.3), 1.2+j(0.15)), geom.V(30, j(0.3), 1.2+j(0.15))},
				YawSweep:  0.5 + j(0.05),
			}
		},
		opts: octocache.Options{Resolution: 0.1, MaxRange: 5},
	},
	"campus-service": {
		name:  "campus-service",
		scans: 160,
		fan:   8,
		run:   runCampus,
		spec: func(seed int64, n int) dataset.Spec {
			j := jitter(seed)
			return dataset.Spec{
				Env:      world.Campus,
				Seed:     81,
				NumScans: n,
				Sensor:   sensor.Panoramic(25, 160, 24),
				// Along the central walkway with a lateral zig-zag.
				Waypoints: []geom.Vec3{
					geom.V(0, j(1), 1.5), geom.V(35, 3+j(1), 1.5), geom.V(70, j(1), 1.5),
					geom.V(105, -3+j(1), 1.5), geom.V(140, j(1), 1.5),
				},
				YawSweep: 0.7 + j(0.07),
			}
		},
		opts: octocache.Options{
			Resolution: 0.2, MaxRange: 25, Shards: 2,
			Backend: octocache.BackendGrid, Trace: octocache.TraceBoundary,
		},
	},
	"newcollege-durable": {
		name:  "newcollege-durable",
		scans: 160,
		fan:   64,
		run:   runInproc,
		spec: func(seed int64, n int) dataset.Spec {
			j := jitter(seed)
			return dataset.Spec{
				Env:      world.NewCollege,
				Seed:     92,
				NumScans: n,
				Sensor:   sensor.Panoramic(12, 120, 20),
				// A loop around the quad that returns to its start.
				Waypoints: []geom.Vec3{
					geom.V(-30+j(1), -30+j(1), 1.5), geom.V(30+j(1), -30+j(1), 1.5), geom.V(30+j(1), 30+j(1), 1.5),
					geom.V(-30+j(1), 30+j(1), 1.5), geom.V(-30+j(1), -30+j(1), 1.5), geom.V(28+j(1), -28+j(1), 1.5),
				},
				YawSweep: 0.9 + j(0.09),
			}
		},
		opts: octocache.Options{
			Resolution: 0.2, MaxRange: 12,
			Durable: octocache.Durable{Sync: octocache.SyncEveryBatch, SnapshotEvery: 50},
			Window:  octocache.Window{Radius: 2},
		},
	},
}

// jitter returns a seeded source of offsets uniform in [-a, a].
func jitter(seed int64) func(a float64) float64 {
	r := rand.New(rand.NewSource(seed))
	return func(a float64) float64 { return (2*r.Float64() - 1) * a }
}

// loadScans returns the workload's scans for seed, generating them on
// first use and caching the result under dir so that later runs on the
// same seed skip generation. The file name hashes the whole generator
// spec, so a changed spec never reads stale scans.
func loadScans(w workload, seed int64, n int, dir string) ([]dataset.Scan, error) {
	spec := w.spec(seed, n)
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", spec)
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-%016x.ds", w.name, seed, h.Sum64()))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		var d dataset.Dataset
		if _, err := d.ReadFrom(bufio.NewReader(f)); err != nil {
			return nil, fmt.Errorf("read cached scans %s: %w", path, err)
		}
		return d.Scans, nil
	}
	d := dataset.Generate(spec)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, ".scans-*")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	if _, err := d.WriteTo(tmp); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("cache scans: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, err
	}
	return d.Scans, nil
}
