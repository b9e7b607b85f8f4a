package main

import (
	"fmt"
	"time"

	"octocache"
	"octocache/internal/core"
	"octocache/internal/raytrace"
	"octocache/internal/shard"
)

// The metric tables. BENCHMARK.json lists the same names and units; the
// smoke test holds the two together. The p99 latencies swing by more than
// a tenth between runs on a shared 2-vCPU host, so they are per-layer
// reference figures (tail.*) rather than bounded end-to-end metrics.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"scans_per_s", "1/s"},
	{"scan_p50_ms", "ms"},
	{"query_p50_us", "us"},
	{"raycast_p50_us", "us"},
	{"snapshot_s", "s"},
	{"recover_s", "s"},
	{"disk_mb", "MB"},
	{"heap_live_mb", "MB"},
}

// perLayer metrics of a layer a workload does not exercise read 0.
var perLayer = []struct{ name, unit string }{
	{"raytrace.trace_ms", "ms"},
	{"raytrace.voxels_per_scan", "count"},
	{"core.cache_insert_ms", "ms"},
	{"core.cache_evict_ms", "ms"},
	{"core.backend_update_ms", "ms"},
	{"core.enqueue_ms", "ms"},
	{"core.dequeue_ms", "ms"},
	{"core.wait_ms", "ms"},
	{"cache.hit_rate", "ratio"},
	{"cache.evicted_per_scan", "count"},
	{"backend.writes_per_scan", "count"},
	{"backend.mb", "MB"},
	{"backend.query_idle_us", "us"},
	{"backend.raycast_idle_us", "us"},
	{"shard.query_wait_us", "us"},
	{"durable.wal_bytes_per_scan", "B"},
	{"durable.snapshots", "count"},
	{"durable.cut_scan_ms", "ms"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.replayed_batches", "count"},
	{"durable.replay_ms_per_batch", "ms"},
	{"window.evictions", "count"},
	{"window.reloads", "count"},
	{"window.max_pause_ms", "ms"},
	{"window.resident_mb", "MB"},
	{"server.stalls", "count"},
	{"client.insert_block_ms", "ms"},
	{"client.rtt_idle_us", "us"},
	{"client.query_late_ms", "ms"},
	{"client.snapshot_leaves_per_s", "1/s"},
	{"runtime.alloc_bytes_per_scan", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"tail.scan_p99_ms", "ms"},
	{"tail.query_p99_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range endToEnd {
		u[m.name] = m.unit
	}
	for _, m := range perLayer {
		u[m.name] = m.unit
	}
	return u
}()

// set records a metric under its unit from the tables.
func (b *bench) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the tables")
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// coreConfig mirrors the engine configuration octocache.New derives from
// the workload's options, minus the window and durable policies: the
// replay isolates the engine's own stages.
func (b *bench) coreConfig() core.Config {
	o := b.w.opts
	cfg := core.DefaultConfig(o.Resolution)
	cfg.Backend = o.Backend
	cfg.MaxRange = o.MaxRange
	cfg.RT = o.DedupRays
	cfg.Trace = o.Trace
	cfg.TraceWorkers = o.TraceWorkers
	if o.CacheBuckets > 0 {
		cfg.CacheBuckets = o.CacheBuckets
	}
	if o.CacheTau > 0 {
		cfg.CacheTau = o.CacheTau
	}
	return cfg
}

// replayLayers replays the scans standalone through the tracer, then
// through the engine (core.New, or shard.New for a sharded workload),
// and reads the engine's stage timings.
func (b *bench) replayLayers() error {
	cfg := b.coreConfig()
	sc := raytrace.New(raytrace.Config{Resolution: cfg.Octree.Resolution, Depth: cfg.Octree.Depth, MaxRange: cfg.MaxRange}, cfg.Trace, cfg.TraceWorkers)
	var traced time.Duration
	var voxels int
	for i, s := range b.scans {
		id := b.spans.begin("raytrace.Trace", 0, i)
		t0 := time.Now()
		var v []raytrace.Voxel
		if cfg.RT {
			v = sc.TraceRT(s.origin, s.points)
		} else {
			v = sc.Trace(s.origin, s.points)
		}
		traced += time.Since(t0)
		b.spans.end(id)
		voxels += len(v)
	}
	n := float64(len(b.scans))
	b.set("raytrace.trace_ms", ms(traced)/n)
	b.set("raytrace.voxels_per_scan", float64(voxels)/n)

	name := "core.Insert"
	var insert func(o octocache.Vec3, pts []octocache.Vec3) error
	var finish func() (core.Timings, core.ArenaStats)
	if b.w.opts.Shards > 0 {
		name = "shard.Insert"
		sm, err := shard.New(shard.Config{Core: cfg, Shards: b.w.opts.Shards, Pipeline: shard.PipelineAsync})
		if err != nil {
			return err
		}
		insert = sm.Insert
		finish = func() (core.Timings, core.ArenaStats) {
			sm.Close()
			return sm.Timings(), sm.ArenaStats()
		}
	} else {
		m, err := core.New(core.KindParallel, cfg)
		if err != nil {
			return err
		}
		insert = m.Insert
		finish = func() (core.Timings, core.ArenaStats) {
			m.Close()
			return m.Timings(), m.ArenaStats()
		}
	}
	for i, s := range b.scans {
		id := b.spans.begin(name, 0, i)
		b.op(insert(s.origin, s.points))
		b.spans.end(id)
	}
	t, arena := finish()
	if t.Batches == 0 {
		return fmt.Errorf("engine replay counted no batches")
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(t.Batches) }
	b.set("core.cache_insert_ms", per(t.CacheInsert))
	b.set("core.cache_evict_ms", per(t.CacheEvict))
	b.set("core.backend_update_ms", per(t.OctreeUpdate))
	b.set("core.enqueue_ms", per(t.Enqueue))
	b.set("core.dequeue_ms", per(t.Dequeue))
	b.set("core.wait_ms", per(t.Wait))
	b.set("backend.mb", float64(arena.Bytes)/1e6)
	return nil
}

// setMapLayers reads the cache and backend counters off a map's stats.
func (b *bench) setMapLayers(st octocache.Stats) {
	batches := float64(st.Pipeline.Batches)
	b.set("cache.hit_rate", st.Cache.HitRate)
	b.set("cache.evicted_per_scan", float64(st.Cache.Evicted)/batches)
	b.set("backend.writes_per_scan", float64(st.Pipeline.VoxelsToOctree)/batches)
	b.setWindow(st)
}

// idleReplay replays every planner step on an idle map and returns the
// median query-batch and ray-fan times.
func (b *bench) idleReplay(query func(s *scan), fan func(s *scan)) (time.Duration, time.Duration) {
	var qs, fs []time.Duration
	for i := range b.scans {
		s := &b.scans[i]
		t0 := time.Now()
		query(s)
		t1 := time.Now()
		fan(s)
		qs = append(qs, t1.Sub(t0))
		fs = append(fs, time.Since(t1))
	}
	return median(qs), median(fs)
}

// reportCommonLayers sets what every traced run reports the same way:
// the idle planner costs, the query wait under ingest, the replays, the
// runtime counters of the plain rounds and the tracing overhead.
func (b *bench) reportCommonLayers(queryIdle, fanIdle, rtt time.Duration) error {
	b.set("backend.query_idle_us", us(queryIdle))
	b.set("backend.raycast_idle_us", us(fanIdle))
	busy := b.plain.query
	if len(b.plain.ingestQuery) > 0 {
		busy = b.plain.ingestQuery
	}
	b.set("shard.query_wait_us", us(median(busy)-queryIdle-rtt))
	b.set("tail.scan_p99_ms", ms(quantile(b.plain.insert, 0.99)))
	b.set("tail.query_p99_us", us(quantile(busy, 0.99)))
	var alloc, gcs, pause uint64
	rounds := len(b.plain.mem) / 2
	for i := 0; i < rounds; i++ {
		before, after := b.plain.mem[2*i], b.plain.mem[2*i+1]
		alloc += after.alloc - before.alloc
		gcs += after.gcs - before.gcs
		pause += after.pauseNs - before.pauseNs
	}
	b.set("runtime.alloc_bytes_per_scan", float64(alloc)/float64(b.plain.scans))
	b.set("runtime.gc_cycles", float64(gcs)/float64(rounds))
	b.set("runtime.gc_pause_ms", float64(pause)/1e6/float64(rounds))
	b.set("trace.overhead_pct", (1-medianF(b.traced.rates)/medianF(b.plain.rates))*100)
	return b.replayLayers()
}
