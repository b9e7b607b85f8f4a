// Command perfbench is the repository's end-to-end benchmark. It replays
// one workload (corridor-nav, campus-service or newcollege-durable) for a
// fixed time through the public API — octocache, client and server — and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency, throughput,
// set-up, memory, disk); with -trace 1 the run records spans around every
// call into a layer, replays the scans through the tracer and the engine
// standalone, and reports per-layer metrics instead. See README.md.
//
// Run it from the repository root:
//
//	go run ./perfbench -workload corridor-nav -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"octocache"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size scales the scan count per round; the smoke test shrinks it.
	size float64
	// dir holds cached inputs, durable map files and span dumps.
	dir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time; whole rounds run until it is spent")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Float64Var(&cfg.size, "size", 1, "scale of the per-round scan count")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "work directory")
	flag.Parse()
	cfg.trace = trace != 0
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is the state of one run: its inputs, its operation and check
// tallies, and the metrics it reports.
type bench struct {
	config
	w       workload
	scans   []scan
	work    string // scratch directory of this run, removed at the end
	ops     int64
	failed  int64
	checks  []checkResult
	metrics map[string]metric
	model   octocache.Params
	plain   samples
	traced  samples
	warm    samples // the discarded warm-up round
	warming bool
	tr      *tracer // nil unless this round records spans
	spans   *tracer // every traced round appends here
}

func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	n := int(float64(w.scans)*cfg.size + 0.5)
	if n < 8 {
		n = 8
	}
	raw, err := loadScans(w, cfg.seed, n, filepath.Join(cfg.dir, "inputs"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	p, err := model(w.opts)
	if err != nil {
		return nil, err
	}
	b := &bench{config: cfg, w: w, work: work, model: p, metrics: map[string]metric{}}
	b.scans = planScans(raw, p, w.opts.MaxRange, w.fan)
	if cfg.trace {
		b.spans = newTracer()
		for _, m := range perLayer {
			b.set(m.name, 0)
		}
	}
	if err := w.run(b); err != nil {
		return nil, err
	}
	if b.spans != nil {
		path := filepath.Join(cfg.dir, "spans", fmt.Sprintf("%s-s%d.jsonl", cfg.workload, cfg.seed))
		if err := b.spans.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", b.spans.len(), path)
		b.set("trace.spans", float64(b.spans.len()))
	}
	res := &result{Correct: true, Failed: b.failed, Metrics: b.metrics}
	for _, c := range b.checks {
		b.ops++
		if !c.ok {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", c.name, c.detail)
		}
	}
	res.Attempted = b.ops
	return res, nil
}

// op counts one attempted operation and, when err is non-nil, one failed
// operation.
func (b *bench) op(err error) {
	b.ops++
	if err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
}

// rounds runs round until the measured time is spent, at least once, and
// always in whole rounds so that every run attempts the same mix of
// operations. A round reports the time it spent measuring. A first
// warm-up round is run and discarded: a fresh process's first round also
// pays for growing its heap and faulting its memory in. In
// traced runs every other measured round records spans, so that plain and
// traced rounds can be compared for the tracing overhead.
func (b *bench) rounds(round func(i int) (time.Duration, error)) error {
	least := 1
	if b.spans != nil {
		least = 2
	}
	var spent time.Duration
	for i := -1; i < least || spent.Seconds() < b.seconds; i++ {
		b.tr = nil
		if b.spans != nil && i%2 == 1 {
			b.tr = b.spans
		}
		b.warming = i < 0
		s := b.pool()
		nq := len(s.query)
		d, err := round(i + 1)
		if err != nil {
			return err
		}
		if i >= 0 {
			spent += d
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d warm-up=%v traced=%v %.1fs %.2f scans/s, query p50 %.1f us over %d\n",
			i, b.warming, b.tr != nil, d.Seconds(), s.rates[len(s.rates)-1], us(median(s.query[nq:])), len(s.query)-nq)
	}
	b.tr = nil
	b.warming = false
	return nil
}
