// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every verdict against Table I and
// the values recorded in expect.json, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as a table
// followed by a one-line JSON result. Build and run it from the
// repository root with
//
//	bash perfbench/run.sh --workload paper-bfs --seed 1 --seconds 20 --trace 0
//
// All timing happens here, around calls into the program's public
// packages; see NOTES.md for what each workload and metric is for.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"minvn/internal/mc"
	"minvn/internal/obs"
)

//go:embed expect.json
var expectJSON []byte

// expectations are the recorded verdicts every run is checked against
// (regenerate with -record after a change that legitimately alters the
// search).
type expectations struct {
	Rows         map[string]verdict        `json:"rows"`
	ServeVerify  map[string]verdict        `json:"serve_verify"`
	ServeAnalyze map[string]analyzeVerdict `json:"serve_analyze"`
}

func loadExpectations() (*expectations, error) {
	var exp expectations
	if err := json.Unmarshal(expectJSON, &exp); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return &exp, nil
}

// analyzeVerdict is the pinned part of an analyze reply.
type analyzeVerdict struct {
	Class  string `json:"class"`
	NumVNs int    `json:"num_vns"`
}

// The batch workloads. Bounds and sizes are explained in NOTES.md.
var (
	paperBFS = []rowSpec{
		paperCell("paper-bfs/CHI", "CHI"),
		paperCell("paper-bfs/MSI_nonblocking_cache", "MSI_nonblocking_cache"),
		paperCell("paper-bfs/MESI_nonblocking_cache", "MESI_nonblocking_cache"),
	}
	deadlockDFS = []rowSpec{
		deadlockCell("deadlock-dfs/MOSI_blocking_cache", "MOSI_blocking_cache", true),
		deadlockCell("deadlock-dfs/MSI_blocking_cache", "MSI_blocking_cache", false),
	}
	widePipeline = []rowSpec{{
		Name: "wide-pipeline/MSI_nonblocking_cache", Protocol: "MSI_nonblocking_cache",
		Caches: 2, Dirs: 2, Addrs: 2,
		Strategy: mc.BFS, MaxStates: 500_000,
		Engine: mc.EnginePipeline, Store: mc.StoreCompact, Parallel: true,
	}}
)

// paperCell is a Table I Class 3 verify cell at the paper's 3c/2d/2a
// system: minimal VNs, state-bounded BFS, sequential engine, exact
// store, no observer.
func paperCell(name, proto string) rowSpec {
	return rowSpec{
		Name: name, Protocol: proto, Caches: 3, Dirs: 2, Addrs: 2,
		Strategy: mc.BFS, MaxStates: 50_000, Engine: mc.EngineSeq, Store: mc.StoreExact,
	}
}

// deadlockCell is a Table I Class 2 cell as vntable runs it: one VN per
// message, the Fig. 3 ownership seed, DFS. The bound sits above the
// deepest verdict (301,611 states); vntable's 300k default misses it.
func deadlockCell(name, proto string, loadsStores bool) rowSpec {
	return rowSpec{
		Name: name, Protocol: proto, Caches: 3, Dirs: 2, Addrs: 2,
		PerMessageVN: true, LoadsStores: loadsStores, SeedOwned: true,
		Strategy: mc.DFS, MaxStates: 400_000, Traces: true,
		Engine: mc.EngineSeq, Store: mc.StoreExact, Deadlock: true,
	}
}

var workloadNames = []string{"paper-bfs", "deadlock-dfs", "wide-pipeline", "serve-mix"}

func newWorkload(name string, exp *expectations, seed int64) (workload, error) {
	switch name {
	case "paper-bfs":
		return newBatch(paperBFS, exp, seed), nil
	case "deadlock-dfs":
		return newBatch(deadlockDFS, exp, seed), nil
	case "wide-pipeline":
		return newBatch(widePipeline, exp, seed), nil
	case "serve-mix":
		return newServeMix(exp, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
		seed    = fs.Int64("seed", 1, "seed for the workload's inputs")
		seconds = fs.Int("seconds", 20, "time budget for the timed passes")
		trace   = fs.Int("trace", 0, "1 = report the per-layer metrics from a traced run")
		record  = fs.Bool("record", false, "recompute expect.json with the sequential engine and print it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordExpectations(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	exp, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, exp, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	rs, err := measure(w, float64(*seconds), traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var ms []metric
	if traced {
		ms, err = layerMetrics(w, rs)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		ms = endToEndMetrics(rs)
	}
	for _, f := range rs.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED:", f)
	}
	report(stdout, *name, *seed, traced, rs, ms)
	return 0
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// endToEndMetrics are the numbers a user of the checker sees, measured
// on untraced passes.
func endToEndMetrics(rs *runStats) []metric {
	ps := rs.untraced
	lat := opLatencies(ps)
	setup := make([]float64, len(rs.setups))
	for i, s := range rs.setups {
		setup[i] = s.total
	}
	n := len(ps)
	return []metric{
		{"wall_s", median(perPass(ps, func(p *passResult) float64 { return p.wall })), "s", n},
		{"states_per_s", median(perPass(ps, func(p *passResult) float64 { return float64(p.states) / p.wall })), "states/s", n},
		{"setup_s", median(setup), "s", len(setup)},
		{"peak_rss_mb", peakRSSMiB(), "MiB", 1},
		{"req_p50_ms", 1000 * quantile(lat, 0.50), "ms", len(lat)},
		{"req_p95_ms", 1000 * quantile(lat, 0.95), "ms", len(lat)},
		{"req_per_s", median(perPass(ps, func(p *passResult) float64 { return float64(len(p.ops)) / p.wall })), "req/s", n},
	}
}

// layerMetrics reports where a traced pass's time went, as medians over
// the traced passes.
func layerMetrics(w workload, rs *runStats) ([]metric, error) {
	samples := make([]*layerSample, 0, len(rs.traced))
	for _, p := range rs.traced {
		samples = append(samples, p.layers)
	}
	// serve-mix searches run inside the server, out of the decorators'
	// reach; its machine and mc layers come from replaying the pass's
	// cold verify jobs through the decorators instead.
	if sm, ok := w.(*serveMix); ok {
		l, failed, failures, err := sm.replay()
		if err != nil {
			return nil, err
		}
		rs.attempted += l.searches
		rs.failed += failed
		rs.failures = append(rs.failures, failures...)
		samples = []*layerSample{l}
	}
	// The server's counters, from the last untraced pass (all zero on
	// the batch workloads, which have no server).
	var server serveSample
	if s := rs.untraced[len(rs.untraced)-1].serve; s != nil {
		server = *s
	}
	n := len(samples)
	med := func(f func(l *layerSample) float64) float64 {
		xs := make([]float64, n)
		for i, l := range samples {
			xs[i] = f(l)
		}
		return median(xs)
	}
	last := samples[n-1]
	perCall := func(ns, calls int64) float64 { return float64(ns) / float64(calls) / 1e3 }
	var runs, overheads []float64
	for _, p := range rs.untraced {
		for _, o := range p.ops {
			if o.run >= 0 {
				runs = append(runs, 1000*o.run)
				overheads = append(overheads, 1000*(o.latency-o.run))
			}
		}
	}
	setupMed := func(f func(s setupTimes) float64) float64 {
		xs := make([]float64, len(rs.setups))
		for i, s := range rs.setups {
			xs[i] = f(s)
		}
		return median(xs)
	}
	wall := func(ps []*passResult) float64 {
		return median(perPass(ps, func(p *passResult) float64 { return p.wall }))
	}
	hitRatio := 0.0
	if server.requests > 0 {
		hitRatio = float64(server.cacheHits) / float64(server.requests)
	}
	ms := []metric{
		{"machine.successors_s", med(func(l *layerSample) float64 { return float64(l.succNS) / 1e9 }), "s", n},
		{"machine.successors_calls", float64(last.succCalls), "count", n},
		{"machine.successors_us", med(func(l *layerSample) float64 { return perCall(l.succNS, l.succCalls) }), "us", n},
		{"machine.successors_fanout", float64(last.fanout) / float64(last.succCalls), "states", n},
		{"machine.canonicalize_s", med(func(l *layerSample) float64 { return float64(l.canonNS) / 1e9 }), "s", n},
		{"machine.canonicalize_calls", float64(last.canonCalls), "count", n},
		{"machine.canonicalize_us", med(func(l *layerSample) float64 { return perCall(l.canonNS, l.canonCalls) }), "us", n},
		{"machine.observe_calls", float64(last.observeCalls), "count", n},
		{"machine.observe_share", med(func(l *layerSample) float64 { return float64(l.observeNS) / 1e9 / l.searchWall }), "ratio", n},
		{"mc.engine_self_s", med(func(l *layerSample) float64 { return l.selfS }), "s", n},
		{"mc.dedup_hit_rate", float64(last.dedupHits) / float64(last.dedupHits+last.states), "ratio", n},
		{"mc.expansions", float64(last.expansions), "count", n},
		{"mc.set_bytes_per_state", float64(last.setBytes) / float64(last.states), "B", n},
		{"mc.worker_busy_ratio", med(func(l *layerSample) float64 {
			return float64(l.succNS+l.canonNS+l.observeNS) / 1e9 / l.workerWall
		}), "ratio", n},
		{"mc.speculative_expansions", float64(last.succCalls - last.rules), "count", n},
		{"mc.queue_wait_share", med(func(l *layerSample) float64 { return float64(l.queueWaitNS) / 1e9 / l.workerWall }), "ratio", n},
		{"mc.lock_wait_share", med(func(l *layerSample) float64 { return float64(l.lockWaitNS) / 1e9 / l.workerWall }), "ratio", n},
		{"mc.reorder_stalls", float64(last.reorder), "count", n},
		{"analysis.analyze_s", setupMed(func(s setupTimes) float64 { return s.analyze }), "s", len(rs.setups)},
		{"vnassign.assign_s", setupMed(func(s setupTimes) float64 { return s.assign }), "s", len(rs.setups)},
		{"serve.cache_hit_ratio", hitRatio, "ratio", 1},
		{"serve.singleflight_hits", float64(server.singleflight), "count", 1},
		{"serve.rejected_busy", float64(server.rejected), "count", 1},
		{"op.run_ms_p50", median(runs), "ms", len(runs)},
		{"op.overhead_ms_p50", median(overheads), "ms", len(overheads)},
		{"trace_overhead_ratio", wall(rs.traced) / wall(rs.untraced), "ratio", len(rs.traced) + len(rs.untraced)},
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", m.name)
		}
	}
	return ms, nil
}

// report prints provenance, a table of the metrics with their units
// and sample counts, and the one-line JSON result last.
func report(w io.Writer, name string, seed int64, traced bool, rs *runStats, ms []metric) {
	prov := obs.CollectProvenance()
	commit := prov.GitCommit
	if commit == "" {
		commit = "unknown (not built from a git checkout)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", name, seed, traced)
	fmt.Fprintf(w, "commit %s  %s  GOMAXPROCS %d  nproc %d  cpu %q\n",
		commit, prov.GoVersion, prov.GOMAXPROCS, runtime.NumCPU(), prov.CPUModel)
	fmt.Fprintf(w, "passes untraced %d  traced %d  set-ups %d  operations %d  failed %d\n",
		len(rs.untraced), len(rs.traced), len(rs.setups), rs.attempted, rs.failed)
	if !traced {
		fmt.Fprintf(w, "%-28s %16.6f %-10s n=%d\n", "failed_ratio", float64(rs.failed)/float64(rs.attempted), "ratio", rs.attempted)
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%-28s %16.6f %-10s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   rs.failed == 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   make(map[string]value, len(ms)),
	}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // plain structs and finite floats
	fmt.Fprintln(w, string(line))
}
