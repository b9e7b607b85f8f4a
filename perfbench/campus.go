package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"octocache"
	"octocache/client"
	"octocache/server"
)

// queryPeriod paces the campus querier: one OccupiedBatch plus one ray
// fan every 25 ms, whether or not the previous request has returned
// (an open loop), so the query load does not depend on how fast the
// service answers. At 10 ms the querier could not keep up under ingest
// and its backlog, not the service, set the latency.
const queryPeriod = 25 * time.Millisecond

const tenant = "campus"

// service is one loopback server with a producer and a querier
// connection attached to one tenant.
type service struct {
	srv    *server.Server
	served chan error
	prod   *client.Client
	query  *client.Client
}

func (b *bench) startService() (*service, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	o := b.w.opts
	opts := client.MapOptions{
		Resolution: o.Resolution, MaxRange: o.MaxRange, Mode: o.Mode,
		Backend: o.Backend, Trace: o.Trace, Shards: o.Shards,
	}
	if s.prod, err = client.Dial(ln.Addr().String(), client.Config{}); err == nil {
		if _, err = s.prod.Create(tenant, opts); err == nil {
			if s.query, err = client.Dial(ln.Addr().String(), client.Config{}); err == nil {
				_, err = s.query.Attach(tenant)
			}
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("start service: %w", err)
	}
	return s, nil
}

// close shuts the clients and the server down and waits for Serve to
// return.
func (s *service) close() error {
	for _, c := range []*client.Client{s.query, s.prod} {
		if c != nil {
			c.Close()
		}
	}
	s.srv.Close()
	if err := <-s.served; err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// querier issues the planner step at a fixed rate until stop closes,
// against the scan the producer sent last. Each query batch is timed from
// when it was due; late records how far behind schedule each tick began.
type querier struct {
	query, fan, late []time.Duration
	err              error
}

func (b *bench) runQuerier(c *client.Client, current *atomic.Int64, stop <-chan struct{}, tr *tracer) *querier {
	q := &querier{}
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * queryPeriod)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return q
		case <-timer.C:
		}
		i := int(current.Load())
		s := &b.scans[i]
		t0 := time.Now()
		id := tr.begin("client.OccupiedBatch", 0, i)
		_, err := c.OccupiedBatch(s.probe)
		tr.end(id)
		t1 := time.Now()
		id = tr.begin("client.CastRay.fan", 0, i)
		for _, d := range s.rays {
			if _, _, e := c.CastRay(s.origin, d, b.w.opts.MaxRange, true); e != nil && err == nil {
				err = e
			}
		}
		tr.end(id)
		q.late = append(q.late, t0.Sub(due))
		q.query = append(q.query, t1.Sub(due))
		q.fan = append(q.fan, time.Since(t1))
		if err != nil {
			q.err = err
			return q
		}
	}
}

type campus struct {
	b       *bench
	final   *service
	snap    []byte // the final round's downloaded snapshot
	stalls  int64
	blocked time.Duration
	late    []time.Duration
	leaves  float64
}

func runCampus(b *bench) error {
	r := &campus{b: b}
	defer func() {
		if r.final != nil {
			r.final.close()
		}
	}()
	base := liveHeap()
	err := b.rounds(func(i int) (time.Duration, error) {
		if r.final != nil {
			if err := r.final.close(); err != nil {
				return 0, err
			}
			r.final = nil
		}
		runtime.GC()
		t0 := time.Now()
		svc, err := b.startService()
		if err != nil {
			return 0, err
		}
		r.final = svc
		s := b.pool()
		s.setup = append(s.setup, time.Since(t0))
		before := readMem()
		var current atomic.Int64
		stop := make(chan struct{})
		var q *querier
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			q = b.runQuerier(svc.query, &current, stop, b.tr)
		}()
		start := time.Now()
		var blocked time.Duration
		for j, sc := range b.scans {
			current.Store(int64(j))
			id := b.tr.begin("client.Insert", 0, j)
			t := time.Now()
			err := svc.prod.Insert(sc.origin, sc.points)
			d := time.Since(t)
			b.tr.end(id)
			s.insert = append(s.insert, d)
			blocked += d
			b.op(err)
		}
		id := b.tr.begin("client.Flush", 0, len(b.scans)-1)
		err = svc.prod.Flush()
		b.tr.end(id)
		ingest := time.Since(start)
		s.scans += len(b.scans)
		s.rates = append(s.rates, float64(len(b.scans))/ingest.Seconds())
		b.op(err)
		close(stop)
		wg.Wait()
		for range q.query {
			b.op(nil)
			b.op(nil)
		}
		b.op(q.err)
		s.ingestQuery = append(s.ingestQuery, q.query...)
		s.mem = append(s.mem, before, readMem())
		s.heap = append(s.heap, float64(liveHeap()-base))
		if b.tr == nil {
			r.stalls = svc.srv.Metrics().BackpressureStalls
			r.blocked += blocked
			r.late = append(r.late, q.late...)
		}

		var buf bytes.Buffer
		id = b.tr.begin("client.WriteSnapshot", 0, len(b.scans)-1)
		snap, err := timeMedian(nil, func() error {
			buf.Reset()
			_, err := svc.prod.WriteSnapshot(&buf)
			return err
		})
		b.tr.end(id)
		b.op(err)
		if err != nil {
			return 0, err
		}
		s.snapshot = append(s.snapshot, snap)
		s.disk = append(s.disk, float64(buf.Len()))
		// The end-to-end query and ray-fan latencies are the planner step
		// over the wire on the idle tenant, after the download has drained
		// its appliers. Under ingest the batch waits behind shard write
		// locks and the saturated scheduler, which swings by a third
		// between runs here; that wait is reported per layer
		// (shard.query_wait_us, tail.query_p99_us).
		runtime.GC()
		for j := range b.scans {
			sc := &b.scans[j]
			t0 := time.Now()
			_, err := svc.query.OccupiedBatch(sc.probe)
			t1 := time.Now()
			b.op(err)
			for _, d := range sc.rays {
				_, _, err := svc.query.CastRay(sc.origin, d, b.w.opts.MaxRange, true)
				b.op(err)
			}
			s.query = append(s.query, t1.Sub(t0))
			s.fan = append(s.fan, time.Since(t1))
		}
		// Recover for a service snapshot is making the download live again.
		rec, err := timeMedian(nil, func() error {
			m, err := octocache.Open(bytes.NewReader(buf.Bytes()), b.w.opts)
			if err == nil {
				m.Close()
			}
			return err
		})
		b.op(err)
		if err != nil {
			return 0, err
		}
		s.recover = append(s.recover, rec)
		r.snap = buf.Bytes()
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	if err := b.moreSetups(func(int) (func() error, error) {
		svc, err := b.startService()
		if err != nil {
			return nil, err
		}
		return svc.close, nil
	}); err != nil {
		return err
	}
	ref, err := r.checks()
	if err != nil {
		return err
	}
	if b.trace {
		return r.layers(ref)
	}
	b.reportEndToEnd()
	return nil
}

// checks verifies the final round's tenant and download, and returns the
// in-process reference map (the tenant's options fed the same scans).
func (r *campus) checks() (*octocache.Map, error) {
	b, c := r.b, r.final.prod
	p := b.model
	snap, err := octocache.ReadSnapshot(bytes.NewReader(r.snap))
	b.op(err)
	if err != nil {
		return nil, err
	}
	r.leaves = float64(snap.NumLeaves())
	b.checkLeaves(snap.Walk, p, endpointSet(b.scans, len(b.scans), p))
	b.checkLastScan(func(k octocache.Key) bool {
		_, known := snap.OccupancyKey(k)
		return known
	}, p, b.w.opts.MaxRange)

	keys := b.queryKeys(p)
	batch, err := c.OccupancyKeys(keys)
	b.op(err)
	if err != nil {
		return nil, err
	}
	var single error
	b.checkBatch(keys, batch, func(k octocache.Key) (float32, bool) {
		cs, err := c.Occupancy(k)
		if err != nil {
			single = err
		}
		return cs.LogOdds, cs.Known
	})
	b.op(single)

	var hits, bad int
	from := len(b.scans) - 8
	if from < 0 {
		from = 0
	}
	for _, s := range b.scans[from:] {
		for _, d := range s.rays {
			h, ok, err := c.CastRay(s.origin, d, b.w.opts.MaxRange, true)
			b.op(err)
			if !ok {
				continue
			}
			hits++
			occ, err := c.Occupied(h)
			b.op(err)
			if !occ {
				bad++
			}
		}
	}
	b.check("castray-hit-occupied", hits > 0 && bad == 0, "%d of %d ray hits not reported occupied", bad, hits)

	ref, err := octocache.New(b.w.opts)
	if err != nil {
		return nil, err
	}
	for _, s := range b.scans {
		b.op(ref.Insert(s.origin, s.points))
	}
	ref.Close()
	var want bytes.Buffer
	_, err = ref.WriteTo(&want)
	b.op(err)
	b.checkBytes("download-equals-inprocess", r.snap, want.Bytes())
	return ref, nil
}

func (r *campus) layers(ref *octocache.Map) error {
	b := r.b
	m := r.final.srv.Metrics()
	b.setMapLayers(m.Tenants[tenant].Stats)
	b.set("server.stalls", float64(r.stalls))
	plainScans := float64(b.plain.scans)
	b.set("client.insert_block_ms", ms(r.blocked)/plainScans)
	var late time.Duration
	for _, d := range r.late {
		late += d
	}
	if len(r.late) > 0 {
		b.set("client.query_late_ms", ms(late)/float64(len(r.late)))
	}
	b.set("client.snapshot_leaves_per_s", r.leaves/median(b.plain.snapshot).Seconds())

	// The wire's share of a query: a one-point OccupiedBatch round trip on
	// the idle tenant minus the same lookup in process.
	c := r.final.prod
	one := b.scans[len(b.scans)-1].probe[:1]
	remote, err := timeMedian(nil, func() error {
		_, err := c.OccupiedBatch(one)
		return err
	})
	b.op(err)
	if err != nil {
		return err
	}
	local, _ := timeMedian(nil, func() error {
		for i := 0; i < 1000; i++ {
			ref.Occupied(one[0])
		}
		return nil
	})
	rtt := remote - local/1000
	b.set("client.rtt_idle_us", us(rtt))

	q, f := b.idleReplay(func(s *scan) {
		for _, p := range s.probe {
			ref.Occupied(p)
		}
	}, func(s *scan) {
		for _, d := range s.rays {
			ref.CastRay(s.origin, d, b.w.opts.MaxRange, true)
		}
	})
	return b.reportCommonLayers(q, f, rtt)
}
