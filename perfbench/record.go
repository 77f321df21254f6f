package main

import (
	"encoding/json"
	"fmt"
	"io"

	"minvn/internal/mc"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// recordExpectations recomputes expect.json. Every search runs on the
// sequential reference engine, so the pipelined workload is checked
// against a different engine than the one it runs on.
func recordExpectations(w io.Writer) error {
	exp := expectations{
		Rows:         make(map[string]verdict),
		ServeVerify:  make(map[string]verdict),
		ServeAnalyze: make(map[string]analyzeVerdict),
	}
	var specs []rowSpec
	specs = append(specs, paperBFS...)
	specs = append(specs, deadlockDFS...)
	specs = append(specs, widePipeline...)
	for _, spec := range specs {
		spec.Engine, spec.Parallel = mc.EngineSeq, false
		v, err := recordRow(spec)
		if err != nil {
			return err
		}
		exp.Rows[spec.Name] = v
	}
	for _, p := range serveProtocols {
		for k := 0; k < serveLadder; k++ {
			spec := serveRowSpec(p, serveBoundBase+k)
			v, err := recordRow(spec)
			if err != nil {
				return err
			}
			exp.ServeVerify[spec.Name] = v
		}
	}
	for _, name := range analyzeProtocols {
		p, err := protocols.Load(name)
		if err != nil {
			return err
		}
		a := vnassign.Assign(p)
		exp.ServeAnalyze[name] = analyzeVerdict{Class: a.Class.String(), NumVNs: a.NumVNs}
	}
	out, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

func recordRow(spec rowSpec) (verdict, error) {
	r, _, err := buildRow(spec)
	if err != nil {
		return verdict{}, err
	}
	res, _ := r.search(r.model, nil)
	return verdictOf(res), nil
}
