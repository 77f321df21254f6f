package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"minvn/internal/mc"
)

// workload is one named benchmark input. setup repeats the work done
// before the first timed operation; pass runs the timed operations
// once and checks every output.
type workload interface {
	setup() (setupTimes, error)
	pass(traced bool) (*passResult, error)
}

// op is one operation a user waits for: a verdict (batch workloads) or
// a request (serve-mix). Every pass runs the same operations; id names
// one across passes. run is the part spent searching, as the program
// reports it; it is negative when no search ran.
type op struct {
	id           int
	latency, run float64 // seconds
}

// passResult is one timed pass over a workload's operations.
type passResult struct {
	wall      float64 // seconds
	states    int64   // states stored by the searches the pass ran
	ops       []op
	attempted int
	failed    int
	failures  []string
	layers    *layerSample // traced passes only
	serve     *serveSample // serve-mix only
}

// record counts one checked operation, failed if it has any errors.
func (p *passResult) record(errs []string) {
	p.attempted++
	if len(errs) > 0 {
		p.failed++
		p.failures = append(p.failures, errs...)
	}
}

// layerSample sums the layer spans and engine counters of the searches
// in one traced pass.
type layerSample struct {
	searches                            int
	succNS, canonNS, observeNS          int64
	succCalls, canonCalls, observeCalls int64
	fanout                              int64
	searchWall                          float64 // Σ search wall, seconds
	workerWall                          float64 // Σ workers × search wall
	selfS                               float64 // Σ search wall − machine busy / workers
	rules, expansions                   int64
	states, dedupHits, setBytes         int64
	queueWaitNS, lockWaitNS, reorder    int64
}

// addSearch folds one decorated search into the sample.
func (l *layerSample) addSearch(r *row, res mc.Result, wall float64, tm *timedModel, to *timedObserver) {
	busy := tm.busySeconds()
	l.searches++
	l.succNS += tm.succ.ns.Load()
	l.succCalls += tm.succ.calls.Load()
	l.canonNS += tm.canon.ns.Load()
	l.canonCalls += tm.canon.calls.Load()
	l.fanout += tm.fanout.Load()
	if to != nil {
		l.observeNS += to.obs.ns.Load()
		l.observeCalls += to.obs.calls.Load()
		busy += to.obs.seconds()
	}
	w := float64(r.workers)
	l.searchWall += wall
	l.workerWall += w * wall
	l.selfS += wall - busy/w
	l.rules += int64(res.Rules)
	l.expansions += res.Stats.Expansions
	l.states += int64(res.States)
	l.dedupHits += res.Stats.DedupHits
	if h := res.Stats.Health; h != nil {
		l.setBytes += h.SetBytes
		l.queueWaitNS += h.QueueWaitNS()
		l.lockWaitNS += h.LockWaitNS
		l.reorder += h.ReorderStalls
	}
}

// runStats collects everything one benchmark run measured.
type runStats struct {
	setups    []setupTimes
	untraced  []*passResult
	traced    []*passResult
	attempted int
	failed    int
	failures  []string
}

// setupReps is how many times a run repeats the workload's set-up; the
// reported set-up time is their median.
const setupReps = 51

// measure sets the workload up setupReps times, then runs passes until
// the time budget is spent. A traced run alternates untraced and traced
// passes, so the two can be compared for the tracing overhead.
func measure(w workload, seconds float64, traced bool) (*runStats, error) {
	rs := &runStats{}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t, err := w.setup()
		if err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, t)
	}
	minPasses := 1
	if traced {
		minPasses = 2
	}
	start := time.Now()
	for k := 0; ; k++ {
		runtime.GC()
		tracedPass := traced && k%2 == 1
		pr, err := w.pass(tracedPass)
		if err != nil {
			return nil, err
		}
		if tracedPass {
			rs.traced = append(rs.traced, pr)
		} else {
			rs.untraced = append(rs.untraced, pr)
		}
		rs.attempted += pr.attempted
		rs.failed += pr.failed
		rs.failures = append(rs.failures, pr.failures...)
		// Start another pass only if it is expected to end within the
		// budget.
		elapsed := time.Since(start).Seconds()
		if k+1 >= minPasses && elapsed+elapsed/float64(k+1) > seconds {
			break
		}
	}
	return rs, nil
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opLatencies gives every operation's latency as its median over the
// passes, so a percentile across operations is not moved by one slow
// pass.
func opLatencies(ps []*passResult) []float64 {
	byID := make(map[int][]float64)
	for _, p := range ps {
		for _, o := range p.ops {
			byID[o.id] = append(byID[o.id], o.latency)
		}
	}
	out := make([]float64, 0, len(byID))
	for _, xs := range byID {
		out = append(out, median(xs))
	}
	return out
}

// perPass maps every pass to one number.
func perPass(ps []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
