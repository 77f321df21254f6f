package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"minvn/internal/analysis"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// rowSpec is one model-checking verdict of a batch workload: a Table I
// cell at a given system size, run the way the CLIs run it.
type rowSpec struct {
	Name                string // key into expect.json
	Protocol            string
	Caches, Dirs, Addrs int
	// PerMessageVN gives every message its own VN (the Class 2 deadlock
	// hunts); otherwise the computed minimal assignment is used.
	PerMessageVN bool
	// LoadsStores restricts the workload to loads and stores, as vntable
	// does for the never-blocking-directory deadlock cells.
	LoadsStores bool
	// SeedOwned starts the search from the Fig. 3 ownership prefix.
	SeedOwned bool
	Strategy  mc.Strategy
	MaxStates int
	Traces    bool
	Engine    mc.Engine
	Store     mc.Store
	// Parallel runs the engine with one worker per CPU.
	Parallel bool
	// Deadlock is the Table I verdict: DEADLOCK for the Class 2 cells,
	// no deadlock for the Class 3 cells.
	Deadlock bool
}

// row is a rowSpec after set-up: the protocol loaded, analyzed and
// assigned, and the system built and seeded.
type row struct {
	spec    rowSpec
	sys     *machine.System
	model   mc.Model // sys, or sys seeded
	seed    []byte   // the seeded initial state, when SeedOwned
	opts    mc.Options
	workers int
}

// setupTimes splits one set-up of a workload into its layers.
type setupTimes struct {
	total, analyze, assign float64 // seconds
}

func (a *setupTimes) add(b setupTimes) {
	a.total += b.total
	a.analyze += b.analyze
	a.assign += b.assign
}

// buildRow performs the set-up a CLI does before its first search:
// protocol load, static analysis and VN assignment (vntable's static
// column, and the minimal VNs for Class 3 cells), machine.New and, for
// the deadlock hunts, the Fig. 3 seed.
func buildRow(spec rowSpec) (*row, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	p, err := protocols.Load(spec.Protocol)
	if err != nil {
		return nil, t, err
	}
	t0 := time.Now()
	res := analysis.Analyze(p)
	t.analyze = time.Since(t0).Seconds()
	t0 = time.Now()
	a := vnassign.AssignFromAnalysis(res)
	t.assign = time.Since(t0).Seconds()

	cfg := machine.Config{Protocol: p, Caches: spec.Caches, Dirs: spec.Dirs, Addrs: spec.Addrs}
	if spec.PerMessageVN {
		cfg.VN, cfg.NumVNs = machine.PerMessageVN(p)
	} else {
		if a.Class != vnassign.Class3 {
			return nil, t, fmt.Errorf("%s: %s has no minimal assignment", spec.Name, a.Class)
		}
		cfg.VN, cfg.NumVNs = a.VN, a.NumVNs
	}
	if spec.LoadsStores {
		cfg.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
	}
	sys, err := machine.New(cfg)
	if err != nil {
		return nil, t, fmt.Errorf("%s: %w", spec.Name, err)
	}
	r := &row{
		spec:    spec,
		sys:     sys,
		model:   sys,
		workers: 1,
		opts: mc.Options{
			Strategy:      spec.Strategy,
			MaxStates:     spec.MaxStates,
			Store:         spec.Store,
			DisableTraces: !spec.Traces,
		},
	}
	if spec.Parallel {
		r.workers = runtime.NumCPU()
	}
	if spec.SeedOwned {
		seed, err := ownershipSeed(sys, spec.Caches, spec.Dirs, spec.Addrs)
		if err != nil {
			return nil, t, fmt.Errorf("%s: seeding: %w", spec.Name, err)
		}
		r.seed = seed
		r.model = &machine.Seeded{System: sys, Seeds: [][]byte{seed}}
	}
	t.total = time.Since(start).Seconds()
	return r, t, nil
}

// ownershipSeed establishes the Fig. 3 starting point the deadlock
// cells search from: caches 0 and 1 own addresses 0 and 1 in M.
func ownershipSeed(sys *machine.System, caches, dirs, addrs int) ([]byte, error) {
	sc := machine.NewScenario(sys)
	n := min(2, caches, addrs)
	for i := 0; i < n; i++ {
		home := caches + i%dirs
		if err := sc.Core(i, i, protocol.Store); err != nil {
			return nil, err
		}
		if err := sc.Handle(home, "GetM", i); err != nil {
			return nil, err
		}
		if err := sc.Handle(i, "Data", i); err != nil {
			return nil, err
		}
	}
	return sc.State(), nil
}

// search runs one verdict on the given model (the row's own, or a
// timing decorator around it) and returns the result and the wall time
// measured around the call.
func (r *row) search(m mc.Model, obs mc.StateObserver) (mc.Result, float64) {
	opts := r.opts
	opts.Observer = obs
	t0 := time.Now()
	res := mc.CheckEngine(m, opts, r.spec.Engine, r.workers, 0)
	return res, time.Since(t0).Seconds()
}

// verdict is the part of a result the benchmark pins: it must equal the
// value recorded in expect.json.
type verdict struct {
	Outcome    string `json:"outcome"`
	States     int    `json:"states"`
	Depth      int    `json:"depth"`
	Expansions int64  `json:"expansions"`
}

func verdictOf(res mc.Result) verdict {
	return verdict{res.Outcome.Tag(), res.States, res.MaxDepth, res.Stats.Expansions}
}

// check compares a result with the Table I verdict and the recorded
// values, returning every mismatch found.
func (r *row) check(res mc.Result, want verdict) []string {
	var errs []string
	got := verdictOf(res)
	if got != want {
		errs = append(errs, fmt.Sprintf("%s: got %+v, recorded %+v", r.spec.Name, got, want))
	}
	if int64(res.Rules) != res.Stats.Expansions {
		errs = append(errs, fmt.Sprintf("%s: %d rule firings but %d expansions", r.spec.Name, res.Rules, res.Stats.Expansions))
	}
	if isDeadlock := res.Outcome == mc.Deadlock; isDeadlock != r.spec.Deadlock {
		errs = append(errs, fmt.Sprintf("%s: outcome %s contradicts Table I", r.spec.Name, res.Outcome.Tag()))
	}
	if r.spec.Deadlock && r.spec.Traces && (len(res.Trace) == 0 || !bytes.Equal(res.Trace[0], r.seed)) {
		errs = append(errs, fmt.Sprintf("%s: counterexample trace does not start at the seed", r.spec.Name))
	}
	return errs
}
