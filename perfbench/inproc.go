package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"octocache"
)

// samples pools one run's timings over its rounds. Traced runs keep the
// traced rounds apart, so that the plain rounds stay comparable with
// plain runs and the difference between the two is the tracing overhead.
type samples struct {
	insert, query, fan []time.Duration // per scan
	ingestQuery        []time.Duration // campus: the paced querier's batches during ingest
	scans              int
	rates              []float64 // scans per second of ingest, planner steps included, per round
	setup              []time.Duration
	snapshot, recover  []time.Duration
	heap, disk         []float64 // bytes
	mem                []memCounters
}

func (b *bench) pool() *samples {
	if b.warming {
		return &b.warm
	}
	if b.tr != nil {
		return &b.traced
	}
	return &b.plain
}

// reportEndToEnd sets the end-to-end metrics from the plain rounds.
func (b *bench) reportEndToEnd() {
	s := &b.plain
	b.set("setup_s", median(s.setup).Seconds())
	b.set("scans_per_s", medianF(s.rates))
	b.set("scan_p50_ms", ms(median(s.insert)))
	b.set("query_p50_us", us(median(s.query)))
	b.set("raycast_p50_us", us(median(s.fan)))
	b.set("snapshot_s", median(s.snapshot).Seconds())
	b.set("recover_s", median(s.recover).Seconds())
	b.set("disk_mb", medianF(s.disk)/1e6)
	b.set("heap_live_mb", medianF(s.heap)/1e6)
}

// ingest replays every scan into m, each followed by the planner step:
// one OccupancyBatch along the path ahead and one fan of CastRays. Every
// ray hit is checked to be occupied, outside the timed region.
func (b *bench) ingest(m *octocache.Map, s *samples) (badHits, hits int) {
	maxRange := b.w.opts.MaxRange
	dst := make([]octocache.CellState, 0, 1024)
	type hit struct {
		p  octocache.Vec3
		ok bool
	}
	found := make([]hit, 0, b.w.fan)
	var ingest time.Duration
	for i, sc := range b.scans {
		root := b.tr.begin("scan", 0, i)
		t0 := time.Now()
		id := b.tr.begin("octocache.Insert", root, i)
		err := m.Insert(sc.origin, sc.points)
		b.tr.end(id)
		t1 := time.Now()
		id = b.tr.begin("octocache.OccupancyBatch", root, i)
		dst = m.OccupancyBatch(sc.keys, dst[:0])
		b.tr.end(id)
		t2 := time.Now()
		id = b.tr.begin("octocache.CastRay.fan", root, i)
		found = found[:0]
		for _, d := range sc.rays {
			p, ok := m.CastRay(sc.origin, d, maxRange, true)
			found = append(found, hit{p, ok})
		}
		b.tr.end(id)
		t3 := time.Now()
		b.tr.end(root)
		s.insert = append(s.insert, t1.Sub(t0))
		s.query = append(s.query, t2.Sub(t1))
		s.fan = append(s.fan, t3.Sub(t2))
		ingest += t3.Sub(t0)
		b.op(err)
		b.op(nil)
		b.op(nil)
		for _, h := range found {
			if h.ok {
				hits++
				if !m.Occupied(h.p) {
					badHits++
				}
			}
		}
	}
	s.scans += len(b.scans)
	s.rates = append(s.rates, float64(len(b.scans))/ingest.Seconds())
	return badHits, hits
}

// inproc drives an in-process workload: corridor-nav, or with a durable
// policy newcollege-durable.
type inproc struct {
	b        *bench
	final    *octocache.Map // the last round's map, kept for the checks
	live     []byte         // its bytes when the crash image was taken
	image    string         // its crash image (durable workloads)
	hits     int
	badHits  int
	recovers int
}

func runInproc(b *bench) error {
	r := &inproc{b: b}
	durable := b.w.opts.Durable != (octocache.Durable{})
	base := liveHeap()
	err := b.rounds(func(i int) (time.Duration, error) {
		if r.final != nil {
			r.final.Close()
			r.final = nil
		}
		// Each round keeps its files under its own directory; the
		// previous round's map is closed, so its files can go.
		if err := os.RemoveAll(filepath.Join(b.work, fmt.Sprintf("round-%d", i-1))); err != nil {
			return 0, err
		}
		dir := filepath.Join(b.work, fmt.Sprintf("round-%d", i))
		opts := b.w.opts
		if durable {
			opts.Durable.Dir = filepath.Join(dir, "map")
		}
		runtime.GC()
		t0 := time.Now()
		m, err := octocache.New(opts)
		if err != nil {
			return 0, err
		}
		s := b.pool()
		s.setup = append(s.setup, time.Since(t0))
		before := readMem()
		bad, hits := b.ingest(m, s)
		r.badHits += bad
		r.hits += hits
		s.mem = append(s.mem, before, readMem())
		if durable {
			if err := r.awaitCut(m); err != nil {
				return 0, err
			}
		}
		s.heap = append(s.heap, float64(liveHeap()-base))
		var buf bytes.Buffer
		snap, err := timeMedian(nil, func() error {
			buf.Reset()
			_, err := m.WriteTo(&buf)
			return err
		})
		b.op(err)
		s.snapshot = append(s.snapshot, snap)
		if durable {
			err = r.recoverRound(m, opts, dir, buf.Bytes(), s)
		} else {
			s.disk = append(s.disk, float64(buf.Len()))
			var rec time.Duration
			rec, err = timeMedian(nil, func() error {
				o, err := octocache.Open(bytes.NewReader(buf.Bytes()), opts)
				if err == nil {
					o.Close()
				}
				return err
			})
			s.recover = append(s.recover, rec)
			b.op(err)
			m.Close()
		}
		if err != nil {
			return 0, err
		}
		r.final = m
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	if err := b.moreSetups(func(k int) (func() error, error) {
		opts := b.w.opts
		if durable {
			opts.Durable.Dir = filepath.Join(b.work, fmt.Sprintf("setup-%d", k))
		}
		m, err := octocache.New(opts)
		if err != nil {
			return nil, err
		}
		return m.Close, nil
	}); err != nil {
		return err
	}
	if err := r.checks(); err != nil {
		return err
	}
	if b.trace {
		return r.layers()
	}
	b.reportEndToEnd()
	return nil
}

// setups is how many set-up samples setup_s is the median of.
const setups = 41

// moreSetups adds set-up samples until there are setups of them, so
// that setup_s is a median of repeated set-ups rather than one short
// timing. start performs one set-up and returns its teardown.
func (b *bench) moreSetups(start func(k int) (func() error, error)) error {
	for k := 0; len(b.plain.setup) < setups; k++ {
		runtime.GC()
		t0 := time.Now()
		stop, err := start(k)
		if err != nil {
			return err
		}
		b.plain.setup = append(b.plain.setup, time.Since(t0))
		if err := stop(); err != nil {
			return err
		}
	}
	return nil
}

// awaitCut waits until the background snapshot cut of the last full
// SnapshotEvery period has committed, so that every crash image replays
// the same number of batches.
func (r *inproc) awaitCut(m *octocache.Map) error {
	every := r.b.w.opts.Durable.SnapshotEvery
	if every == 0 {
		return nil
	}
	want := uint64(len(r.b.scans) / every * every)
	deadline := time.Now().Add(60 * time.Second)
	for m.Stats().Durable.LastSnapshotSeq < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("snapshot cut %d did not commit within 60 s", want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// recoverRound takes a crash image of the idle durable map (its files as
// they stand, without Close), then times Recover on fresh copies of it.
func (r *inproc) recoverRound(m *octocache.Map, opts octocache.Options, dir string, live []byte, s *samples) error {
	b := r.b
	n, err := dirBytes(opts.Durable.Dir)
	if err != nil {
		return err
	}
	s.disk = append(s.disk, float64(n))
	image := filepath.Join(dir, "image")
	if err := copyDir(opts.Durable.Dir, image); err != nil {
		return err
	}
	if b.trace && !b.warming && b.tr == nil {
		if err := r.durableLayers(m, s); err != nil {
			return err
		}
	}
	m.Close()
	var target string
	var replayed int64
	rec, err := timeMedian(func() error {
		r.recovers++
		target = filepath.Join(dir, fmt.Sprintf("recovered-%d", r.recovers))
		return copyDir(image, target)
	}, func() error {
		rm, err := recoverFrom(target, opts)
		if err != nil {
			return err
		}
		replayed = rm.Stats().Durable.ReplayedBatches
		return rm.Close()
	})
	b.op(err)
	if err != nil {
		return err
	}
	s.recover = append(s.recover, rec)
	if b.trace {
		b.set("durable.replayed_batches", float64(replayed))
		if replayed > 0 {
			b.set("durable.replay_ms_per_batch", ms(rec)/float64(replayed))
		}
	}
	r.live = live
	r.image = image
	return nil
}

func recoverFrom(dir string, opts octocache.Options) (*octocache.Map, error) {
	opts.Durable.Dir = dir
	return octocache.Recover(dir, opts)
}

// durableLayers reads the durable and window layers off the idle map
// before the crash image is recovered.
func (r *inproc) durableLayers(m *octocache.Map, s *samples) error {
	b := r.b
	st := m.Stats()
	if pending := st.Durable.Seq - st.Durable.LastSnapshotSeq; pending > 0 {
		b.set("durable.wal_bytes_per_scan", float64(st.Durable.WALBytes)/float64(pending))
	}
	b.set("durable.snapshots", float64(st.Durable.Snapshots))
	if every := b.w.opts.Durable.SnapshotEvery; every > 0 {
		var cuts []time.Duration
		n := len(b.scans)
		for i, d := range s.insert[len(s.insert)-n:] {
			if (i+1)%every == 0 {
				cuts = append(cuts, d)
			}
		}
		b.set("durable.cut_scan_ms", ms(median(cuts)))
	}
	b.setWindow(st)
	// Checkpoint retires the log the image holds; the image is already
	// copied, so this does not change what Recover replays.
	cp, err := timeMedian(nil, m.Checkpoint)
	b.op(err)
	if err != nil {
		return err
	}
	b.set("durable.checkpoint_ms", ms(cp))
	return nil
}

func (b *bench) setWindow(st octocache.Stats) {
	if !st.Window.Enabled {
		return
	}
	b.set("window.evictions", float64(st.Window.Evictions))
	b.set("window.reloads", float64(st.Window.Reloads))
	b.set("window.max_pause_ms", ms(st.Window.MaxPause))
	b.set("window.resident_mb", float64(st.Arena.Bytes)/1e6)
}

func (r *inproc) checks() error {
	b, m := r.b, r.final
	p := b.model
	b.checkLeaves(m.WalkLeaves, p, endpointSet(b.scans, len(b.scans), p))
	b.checkLastScan(func(k octocache.Key) bool {
		_, known := m.OccupancyKey(k)
		return known
	}, p, b.w.opts.MaxRange)
	keys := b.queryKeys(p)
	b.checkBatch(keys, m.OccupancyBatch(keys, nil), m.OccupancyKey)
	b.check("castray-hit-occupied", r.hits > 0 && r.badHits == 0, "%d of %d ray hits not reported occupied", r.badHits, r.hits)
	if r.image != "" {
		var got bytes.Buffer
		target := filepath.Join(filepath.Dir(r.image), "check")
		if err := copyDir(r.image, target); err != nil {
			return err
		}
		rm, err := recoverFrom(target, b.w.opts)
		b.op(err)
		if err != nil {
			return err
		}
		_, err = rm.WriteTo(&got)
		b.op(err)
		rm.Close()
		b.checkBytes("recovered-equals-live", got.Bytes(), r.live)
		return nil
	}
	// The paper's claim: the cache changes no answer. A cache-less
	// ModeOctomap build of a prefix must serialize to the same bytes.
	n := len(b.scans)
	if n > 60 {
		n = 60
	}
	ref := b.w.opts
	ref.Mode = octocache.ModeOctoMap
	var got, want bytes.Buffer
	for _, o := range []struct {
		opts octocache.Options
		out  *bytes.Buffer
	}{{b.w.opts, &got}, {ref, &want}} {
		mm, err := octocache.New(o.opts)
		if err != nil {
			return err
		}
		for _, sc := range b.scans[:n] {
			b.op(mm.Insert(sc.origin, sc.points))
		}
		_, err = mm.WriteTo(o.out)
		b.op(err)
		mm.Close()
	}
	b.checkBytes("equals-octomap", got.Bytes(), want.Bytes())
	return nil
}

func (r *inproc) layers() error {
	b, m := r.b, r.final
	b.setMapLayers(m.Stats())
	dst := make([]octocache.CellState, 0, 1024)
	q, f := b.idleReplay(func(s *scan) {
		dst = m.OccupancyBatch(s.keys, dst[:0])
	}, func(s *scan) {
		for _, d := range s.rays {
			m.CastRay(s.origin, d, b.w.opts.MaxRange, true)
		}
	})
	return b.reportCommonLayers(q, f, 0)
}
