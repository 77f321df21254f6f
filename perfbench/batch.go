package main

import (
	"fmt"
	"math/rand"

	"minvn/internal/mc"
)

// batchWorkload runs a fixed list of model-checking verdicts per pass,
// in an order drawn from the seed.
type batchWorkload struct {
	specs  []rowSpec
	expect map[string]verdict
	rng    *rand.Rand
	rows   []*row
	// first holds each row's untraced result, to compare the traced
	// passes' counts against.
	first map[string]mc.Result
}

func newBatch(specs []rowSpec, exp *expectations, seed int64) *batchWorkload {
	return &batchWorkload{
		specs:  specs,
		expect: exp.Rows,
		rng:    rand.New(rand.NewSource(seed)),
		first:  make(map[string]mc.Result),
	}
}

func (b *batchWorkload) setup() (setupTimes, error) {
	var total setupTimes
	rows := make([]*row, 0, len(b.specs))
	for _, spec := range b.specs {
		if _, ok := b.expect[spec.Name]; !ok {
			return total, fmt.Errorf("%s: no recorded verdict in expect.json", spec.Name)
		}
		r, t, err := buildRow(spec)
		if err != nil {
			return total, err
		}
		total.add(t)
		rows = append(rows, r)
	}
	b.rows = rows
	return total, nil
}

func (b *batchWorkload) pass(traced bool) (*passResult, error) {
	pr := &passResult{}
	if traced {
		pr.layers = &layerSample{}
	}
	for _, i := range b.rng.Perm(len(b.rows)) {
		r := b.rows[i]
		var (
			res  mc.Result
			wall float64
			errs []string
		)
		if traced {
			tm, err := newTimedModel(r.model)
			if err != nil {
				return nil, err
			}
			res, wall = r.search(tm, nil)
			pr.layers.addSearch(r, res, wall, tm, nil)
			if r.workers == 1 && tm.succ.calls.Load() != int64(res.Rules) {
				errs = append(errs, fmt.Sprintf("%s: %d decorated Successors calls but %d rule firings",
					r.spec.Name, tm.succ.calls.Load(), res.Rules))
			}
			if r.workers == 1 && wall < tm.busySeconds() {
				errs = append(errs, fmt.Sprintf("%s: machine spans %.6fs exceed the search wall %.6fs",
					r.spec.Name, tm.busySeconds(), wall))
			}
		} else {
			res, wall = r.search(r.model, nil)
		}
		errs = append(errs, r.check(res, b.expect[r.spec.Name])...)
		errs = append(errs, b.compareCounts(r.spec.Name, res)...)
		pr.record(errs)
		pr.wall += wall
		pr.states += int64(res.States)
		pr.ops = append(pr.ops, op{id: i, latency: wall, run: res.Duration.Seconds()})
	}
	return pr, nil
}

// compareCounts pins every pass's counts to the first pass's: traced
// and untraced searches must explore the identical state space.
func (b *batchWorkload) compareCounts(name string, res mc.Result) []string {
	ref, ok := b.first[name]
	if !ok {
		b.first[name] = res
		return nil
	}
	type counts struct {
		states, depth, rules                int
		expansions, generated, dedup, fires int64
	}
	c := func(r mc.Result) counts {
		var fires int64
		for _, n := range r.Stats.RuleFirings {
			fires += n
		}
		return counts{r.States, r.MaxDepth, r.Rules, r.Stats.Expansions,
			r.Stats.Generated, r.Stats.DedupHits, fires}
	}
	if c(res) != c(ref) {
		return []string{fmt.Sprintf("%s: counts %+v differ from the first pass's %+v", name, c(res), c(ref))}
	}
	return nil
}
