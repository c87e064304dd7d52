package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"jetty/internal/engine"
	"jetty/internal/metrics"
	"jetty/internal/service"
	"jetty/internal/sim"
	"jetty/internal/sweep"
	"jetty/internal/workload"
)

// Output verification runs after the timed interval: it recomputes an
// op in-process, on a fresh engine whose cache is disabled, and demands
// the served numbers match bit for bit (compared as their canonical
// JSON encodings: Go encodes a float64 with the shortest digits that
// round-trip, so equal encodings mean equal bits).

// resolver serves the env's captured trace to an in-process expansion.
func (e *env) resolver(ref string) (sim.TraceInput, error) {
	if e.trace.Digest == "" || ref != e.trace.Digest {
		return sim.TraceInput{}, fmt.Errorf("unknown trace %q", ref)
	}
	return e.trace, nil
}

func sameJSON(a, b any) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// verify recomputes op res from scratch and compares.
func verify(ctx context.Context, e *env, res opResult) error {
	if res.err != nil {
		return res.err
	}
	if res.expRes != nil {
		return verifyExperiment(ctx, res)
	}
	eng := engine.New(engine.Options{Workers: runtime.NumCPU(), CacheEntries: -1})
	defer eng.Close()
	ref, err := sweep.Run(ctx, sim.NewRunner(eng), res.spec, e.resolver)
	if err != nil {
		return fmt.Errorf("verify op %d: reference: %w", res.k, err)
	}
	ok, err := sameJSON(ref.Metrics, res.sweepRes.Metrics)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("verify op %d: served metrics differ from the in-process reference", res.k)
	}
	return nil
}

// experimentRun returns the spec and machine an experiment request runs
// per app, as the service builds them.
func experimentRun(req service.SubmitRequest, app string) (workload.Spec, error) {
	sp, err := workload.Lookup(app)
	if err != nil {
		return workload.Spec{}, err
	}
	return sp.Scale(req.Scale), nil
}

func verifyExperiment(ctx context.Context, res opResult) error {
	cfg, err := sim.PaperBankConfig(4, res.req.NSB, res.req.Filters)
	if err != nil {
		return err
	}
	if len(res.expRes.Results) != len(res.req.Apps) {
		return fmt.Errorf("verify op %d: %d results for %d apps", res.k, len(res.expRes.Results), len(res.req.Apps))
	}
	for i, app := range res.req.Apps {
		sp, err := experimentRun(res.req, app)
		if err != nil {
			return err
		}
		ref, err := sim.RunAppSampledCtx(ctx, sp, cfg, sim.SampleOptions{Interval: res.req.Interval}, nil)
		if err != nil {
			return fmt.Errorf("verify op %d: reference: %w", res.k, err)
		}
		ok, err := sameJSON(ref, res.expRes.Results[i])
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("verify op %d: served %s result differs from the in-process reference", res.k, app)
		}
		if tl := res.expRes.Results[i].Timeline; tl == nil || len(tl.Windows) != res.windows || tl.Interval < metrics.MinInterval {
			return fmt.Errorf("verify op %d: streamed %d windows, timeline holds a different set", res.k, res.windows)
		}
	}
	return nil
}
