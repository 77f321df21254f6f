package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"minvn/internal/mc"
)

// The benchmark times the machine layer from outside the program: it
// wraps the public mc.Model (with its optional Canonicalizer and
// NamedModel methods) and mc.StateObserver in decorators that add each
// call's duration to a span. Untraced runs search the bare model; only
// traced runs pay for the clock reads.

// span accumulates one layer boundary's busy time and call count. The
// pipelined engine calls the model from several workers at once, so
// both fields are atomic.
type span struct {
	ns    atomic.Int64
	calls atomic.Int64
}

func (s *span) add(t0 time.Time) {
	s.ns.Add(int64(time.Since(t0)))
	s.calls.Add(1)
}

func (s *span) seconds() float64 { return float64(s.ns.Load()) / 1e9 }

// fullModel is what every workload searches: a machine.System or
// machine.Seeded, which implement all three interfaces.
type fullModel interface {
	mc.Model
	mc.Canonicalizer
	mc.NamedModel
}

// timedModel decorates a model with spans around successor generation
// and canonicalization. It implements Canonicalizer and NamedModel
// itself, so the engine keeps symmetry reduction and rule attribution.
type timedModel struct {
	inner  fullModel
	succ   span
	canon  span
	fanout atomic.Int64 // successors returned, summed over calls
}

// newTimedModel wraps m. A model without Canonicalize or
// SuccessorsNamed is refused: forwarding them unconditionally would
// change what the search does.
func newTimedModel(m mc.Model) (*timedModel, error) {
	f, ok := m.(fullModel)
	if !ok {
		return nil, fmt.Errorf("timing decorator: %T lacks Canonicalize or SuccessorsNamed", m)
	}
	return &timedModel{inner: f}, nil
}

func (m *timedModel) Initial() [][]byte           { return m.inner.Initial() }
func (m *timedModel) Quiescent(state []byte) bool { return m.inner.Quiescent(state) }
func (m *timedModel) Describe(state []byte) string {
	return m.inner.Describe(state)
}

func (m *timedModel) Successors(state []byte) ([][]byte, error) {
	t0 := time.Now()
	succs, err := m.inner.Successors(state)
	m.succ.add(t0)
	m.fanout.Add(int64(len(succs)))
	return succs, err
}

func (m *timedModel) SuccessorsNamed(state []byte) ([][]byte, []string, error) {
	t0 := time.Now()
	succs, rules, err := m.inner.SuccessorsNamed(state)
	m.succ.add(t0)
	m.fanout.Add(int64(len(succs)))
	return succs, rules, err
}

func (m *timedModel) Canonicalize(state []byte) []byte {
	t0 := time.Now()
	c := m.inner.Canonicalize(state)
	m.canon.add(t0)
	return c
}

// busySeconds is the machine layer's total busy time in the model.
func (m *timedModel) busySeconds() float64 { return m.succ.seconds() + m.canon.seconds() }

// timedObserver decorates a summarizing state observer (the occupancy
// profiler) with a span; Summary passes through so the occupancy
// digest still lands in Result.Stats.
type timedObserver struct {
	inner mc.SummarizingObserver
	obs   span
}

func (o *timedObserver) Observe(state []byte) {
	t0 := time.Now()
	o.inner.Observe(state)
	o.obs.add(t0)
}

func (o *timedObserver) Summary() any { return o.inner.Summary() }
