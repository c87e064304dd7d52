package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"jetty/internal/trace"
	"jetty/internal/workload"
)

// stripLabel zeroes the fields that legitimately differ between a
// generator-driven run and its trace replay: the workload spec (a
// replay has only a pseudo-spec) and the footprint derived from it.
// Everything else — every counter, rate, histogram and coverage — must
// be identical.
func stripLabel(r AppResult) AppResult {
	r.Spec = workload.Spec{}
	r.MemoryBytes = 0
	return r
}

// TestTraceReplayMatchesDirect is the acceptance test of the trace
// pipeline: exporting a workload to a v1 trace file and replaying it
// through the simulator produces statistics identical to the direct
// in-memory run, for both compression modes, with a full filter bank
// attached.
func TestTraceReplayMatchesDirect(t *testing.T) {
	cfg, err := PaperBankConfig(4, false, []string{"HJ(IJ-10x4x7,EJ-32x4)", "EJ-32x4", "IJ-9x4x7"})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workload.Lookup("Database")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.Scale(0.05)

	direct, err := RunApp(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, compress := range []bool{false, true} {
		// Capture the run's reference stream into a trace file.
		var file bytes.Buffer
		tw, err := trace.NewWriter(&file, cfg.CPUs, trace.WriterOptions{
			Compress: compress,
			Meta:     trace.Meta{App: sp.Name},
		})
		if err != nil {
			t.Fatal(err)
		}
		captured, err := RunAppCapturedCtx(context.Background(), sp, cfg, tw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(captured, direct) {
			t.Fatal("capturing perturbed the run")
		}
		if tw.Records() != direct.Refs {
			t.Fatalf("captured %d records, run stepped %d", tw.Records(), direct.Refs)
		}
		// The file is byte for byte what a round-robin pull of the
		// generator writes, whatever batches the run generated in.
		var want bytes.Buffer
		rw, err := trace.NewWriter(&want, cfg.CPUs, trace.WriterOptions{
			Compress: compress,
			Meta:     trace.Meta{App: sp.Name},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := sp.Source(cfg.CPUs)
		for i := uint64(0); i < sp.Accesses; i++ {
			cpu := int(i % uint64(cfg.CPUs))
			ref, _ := src.Next(cpu)
			if err := rw.Write(cpu, ref); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file.Bytes(), want.Bytes()) {
			t.Errorf("compress=%v: captured trace differs from the round-robin recording", compress)
		}

		// Replay the file and demand identical statistics.
		in, err := LoadTrace("", file.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if in.Name != sp.Name || in.CPUs != cfg.CPUs || in.Records != direct.Refs {
			t.Fatalf("LoadTrace = %s/%d cpus/%d records", in.Name, in.CPUs, in.Records)
		}
		replayed, err := RunTraceCtx(context.Background(), in, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripLabel(replayed), stripLabel(direct)) {
			t.Errorf("compress=%v: replay diverged from the direct run\ndirect: %+v\nreplay: %+v",
				compress, stripLabel(direct), stripLabel(replayed))
		}
		if replayed.Spec.Name != sp.Name {
			t.Errorf("replay label = %q", replayed.Spec.Name)
		}
	}
}

// TestTraceReplayThroughEngine exercises the engine path: identical
// replays share one execution and the second submission is a cache hit.
func TestTraceReplayThroughEngine(t *testing.T) {
	cfg, err := PaperBankConfig(4, false, []string{"EJ-32x4"})
	if err != nil {
		t.Fatal(err)
	}
	sp := workload.Throughput().Scale(0.02)

	var file bytes.Buffer
	tw, err := trace.NewWriter(&file, cfg.CPUs, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAppCapturedCtx(context.Background(), sp, cfg, tw, nil); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := LoadTrace("", file.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	r := DefaultRunner()
	first, err := r.RunTrace(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.RunTrace(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("engine replays of the same trace differ")
	}
}

func TestTraceFingerprint(t *testing.T) {
	cfgA, err := PaperBankConfig(4, false, []string{"EJ-32x4"})
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfgA
	cfgB.L2.SizeBytes *= 2
	fpA := TraceFingerprint("d1", cfgA)
	if fpA != TraceFingerprint("d1", cfgA) {
		t.Error("fingerprint not deterministic")
	}
	if fpA == TraceFingerprint("d2", cfgA) {
		t.Error("digest not covered by fingerprint")
	}
	if fpA == TraceFingerprint("d1", cfgB) {
		t.Error("config not covered by fingerprint")
	}
	if fpA == Fingerprint(workload.Throughput(), cfgA) {
		t.Error("trace and spec fingerprints collide")
	}
}

func TestRunTraceRejectsNarrowMachine(t *testing.T) {
	cfg, err := PaperBankConfig(2, false, []string{"EJ-32x4"})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := trace.Record(&file, workload.Throughput().Scale(0.001).Source(4), 100, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	in, err := LoadTrace("wide", file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTraceCtx(context.Background(), in, cfg, nil); err == nil {
		t.Error("4-cpu trace accepted on a 2-cpu machine")
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	if _, err := LoadTrace("x", []byte("not a trace")); err == nil {
		t.Error("garbage accepted")
	}
	var empty bytes.Buffer
	w, err := trace.NewWriter(&empty, 2, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace("x", empty.Bytes()); err == nil {
		t.Error("empty trace accepted")
	}
}
