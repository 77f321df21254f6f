package main

import (
	"reflect"
	"testing"

	"minvn/internal/mc"
)

// TestDecoratorParity runs every workload's search configuration at a
// small bound twice, on the bare model and through the timing
// decorators, and requires identical results. A decorator that dropped
// Canonicalize would turn off symmetry reduction (more states); one
// that dropped SuccessorsNamed would lose the rule firings.
func TestDecoratorParity(t *testing.T) {
	small := func(spec rowSpec, bound int) rowSpec {
		spec.MaxStates = bound
		return spec
	}
	cases := []struct {
		spec     rowSpec
		observer bool
	}{
		{small(paperBFS[0], 3000), false},
		{small(paperBFS[1], 3000), false},
		{small(paperBFS[2], 3000), false},
		{small(deadlockDFS[0], 5000), false},
		{small(deadlockDFS[1], 5000), false},
		{small(widePipeline[0], 20000), false},
		{serveRowSpec(serveProtocols[0], serveBoundBase), true},
		{serveRowSpec(serveProtocols[2], serveBoundBase+serveLadder-1), true},
	}
	for _, c := range cases {
		t.Run(c.spec.Name, func(t *testing.T) {
			r, _, err := buildRow(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			var plainObs, timedObs mc.StateObserver
			var to *timedObserver
			if c.observer {
				plainObs = r.sys.NewOccupancyProfiler()
				to = &timedObserver{inner: r.sys.NewOccupancyProfiler()}
				timedObs = to
			}
			plain, _ := r.search(r.model, plainObs)
			tm, err := newTimedModel(r.model)
			if err != nil {
				t.Fatal(err)
			}
			timed, _ := r.search(tm, timedObs)

			if got, want := verdictOf(timed), verdictOf(plain); got != want {
				t.Errorf("verdict through decorators %+v, bare %+v", got, want)
			}
			if timed.Rules != plain.Rules || timed.Stats.Generated != plain.Stats.Generated ||
				timed.Stats.DedupHits != plain.Stats.DedupHits {
				t.Errorf("rules/generated/dedup through decorators %d/%d/%d, bare %d/%d/%d",
					timed.Rules, timed.Stats.Generated, timed.Stats.DedupHits,
					plain.Rules, plain.Stats.Generated, plain.Stats.DedupHits)
			}
			if len(plain.Stats.RuleFirings) == 0 || !reflect.DeepEqual(timed.Stats.RuleFirings, plain.Stats.RuleFirings) {
				t.Errorf("rule firings through decorators %v, bare %v", timed.Stats.RuleFirings, plain.Stats.RuleFirings)
			}
			if c.observer && (plain.Stats.Occupancy == nil || !reflect.DeepEqual(timed.Stats.Occupancy, plain.Stats.Occupancy)) {
				t.Errorf("occupancy through decorators %+v, bare %+v", timed.Stats.Occupancy, plain.Stats.Occupancy)
			}
			if tm.succ.calls.Load() < int64(plain.Rules) || tm.canon.calls.Load() == 0 {
				t.Errorf("spans saw %d successor and %d canonicalize calls for %d rule firings",
					tm.succ.calls.Load(), tm.canon.calls.Load(), plain.Rules)
			}
			if to != nil && to.obs.calls.Load() != int64(plain.States) {
				t.Errorf("observer span saw %d states, search stored %d", to.obs.calls.Load(), plain.States)
			}
		})
	}
}

// bareModel implements only mc.Model.
type bareModel struct{ mc.Model }

func TestDecoratorRefusesPartialModel(t *testing.T) {
	r, _, err := buildRow(paperBFS[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newTimedModel(bareModel{r.model}); err == nil {
		t.Fatal("a model without Canonicalize and SuccessorsNamed was accepted")
	}
}

func TestServeRequestsSeeded(t *testing.T) {
	a, b := serveRequests(7), serveRequests(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, serveRequests(8)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[request]bool)
	var cold, repeats, analyze int
	for _, r := range a {
		switch {
		case r.kind == "analyze":
			analyze++
			if _, ok := exp.ServeAnalyze[r.key()]; !ok {
				t.Errorf("%s has no recorded analyze verdict", r.key())
			}
		case seen[r]:
			repeats++
		default:
			cold++
			seen[r] = true
			if _, ok := exp.ServeVerify[r.key()]; !ok {
				t.Errorf("%s has no recorded verify verdict", r.key())
			}
		}
	}
	if cold != serveBlocks*serveColdPerBlock || cold+repeats+analyze != len(a) || len(a) < 200 {
		t.Errorf("mix of %d requests has %d cold, %d repeats, %d analyze", len(a), cold, repeats, analyze)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
}
