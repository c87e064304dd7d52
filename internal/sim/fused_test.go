package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"jetty/internal/jetty"
	"jetty/internal/smp"
	"jetty/internal/trace"
)

// fusedTestBanks is a small multi-member bank mix: single filters, a
// multi-filter bank, and a duplicate of an earlier bank (members may
// repeat in a sweep's "each" mode across machines).
func fusedTestBanks() [][]jetty.Config {
	return [][]jetty.Config{
		{jetty.MustParse("EJ-32x4")},
		{jetty.MustParse("VEJ-32x4-8"), jetty.MustParse("IJ-10x4x7")},
		{jetty.MustParse("HJ(IJ-9x4x7,EJ-32x4)")},
		{jetty.MustParse("EJ-32x4")},
	}
}

// TestFusedMatchesSeparateRuns is the sim-layer half of the fused
// bit-identity claim: one wide pass projected per member equals N
// separate runs, field for field, with and without sampling.
func TestFusedMatchesSeparateRuns(t *testing.T) {
	sp := quickSpec(t)
	base := smp.PaperConfig(4)
	banks := fusedTestBanks()

	for _, interval := range []uint64{0, 4096} {
		opt := SampleOptions{Interval: interval}
		fused, err := RunAppFusedCtx(context.Background(), sp, base, banks, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(banks) {
			t.Fatalf("interval %d: %d results for %d banks", interval, len(fused), len(banks))
		}
		for i, bank := range banks {
			var sep AppResult
			if interval > 0 {
				sep, err = RunAppSampledCtx(context.Background(), sp, base.WithFilters(bank...), opt, nil)
			} else {
				sep, err = RunAppCtx(context.Background(), sp, base.WithFilters(bank...), nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fused[i], sep) {
				t.Errorf("interval %d: member %d diverges from its separate run", interval, i)
			}
		}
	}
}

// TestFusedTraceMatchesSeparateReplays pins the same identity for the
// stored-trace replay path.
func TestFusedTraceMatchesSeparateReplays(t *testing.T) {
	sp := quickSpec(t)
	base := smp.PaperConfig(4)

	// Record a trace from a filterless run, then replay it fused.
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, base.CPUs, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAppCapturedCtx(context.Background(), sp, base, tw, nil); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := LoadTrace(sp.Name, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	banks := fusedTestBanks()
	opt := SampleOptions{Interval: 4096}
	fused, err := RunTraceFusedCtx(context.Background(), in, base, banks, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, bank := range banks {
		sep, err := RunTraceSampledCtx(context.Background(), in, base.WithFilters(bank...), opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[i], sep) {
			t.Errorf("member %d diverges from its separate replay", i)
		}
	}
}

// TestFusedResultsAreIsolated guards the projection's allocation
// discipline: mutating one member's slices must not bleed into another
// member or a second projection of the same run.
func TestFusedResultsAreIsolated(t *testing.T) {
	sp := quickSpec(t)
	base := smp.PaperConfig(4)
	banks := [][]jetty.Config{
		{jetty.MustParse("EJ-32x4")},
		{jetty.MustParse("EJ-32x4")},
	}
	opt := SampleOptions{Interval: 4096}
	fused, err := RunAppFusedCtx(context.Background(), sp, base, banks, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fused[0], fused[1]) {
		t.Fatal("identical banks must project identically")
	}
	fused[0].FilterCounts[0].Filtered++
	fused[0].Coverage[0] = -1
	fused[0].Timeline.Windows[0].Filters[0].Probes++
	fused[0].Bus.RemoteHits[0]++
	if reflect.DeepEqual(fused[0], fused[1]) {
		t.Fatal("members share backing arrays")
	}
}

// TestFusedGroupStepsSeveralMachines pins machine-axis fusion at the
// sim layer: a group whose members sit on different machines of one
// stream steps every machine over one pass, and each live member's
// result equals its separate run, for generated and replayed streams
// with and without sampling. Members interleave machines, and a member
// on a machine the pass cannot step (a 2-CPU machine on a 4-CPU stream)
// fails the run when live but is never built when it is not.
func TestFusedGroupStepsSeveralMachines(t *testing.T) {
	sp := quickSpec(t)
	big := smp.PaperConfig(4)
	big.L2.SizeBytes, big.L2.Assoc = 2<<20, 8
	machines := []smp.Config{smp.PaperConfig(4), big, smp.PaperConfigNSB(4)}
	banks := fusedTestBanks()
	var members []FusedMember
	var cfgs []smp.Config
	for i, bank := range banks {
		for j, m := range machines {
			if (i+j)%2 == 0 {
				members = append(members, FusedMember{Key: fmt.Sprint(i, j), Machine: m, Bank: bank})
				cfgs = append(cfgs, m.WithFilters(bank...))
			}
		}
	}
	live := make([]int, len(members))
	for i := range live {
		live[i] = i
	}
	members = append(members, FusedMember{Key: "narrow", Machine: smp.PaperConfig(2), Bank: banks[0]})

	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, 4, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAppCapturedCtx(context.Background(), sp, smp.PaperConfig(4), tw, nil); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := LoadTrace(sp.Name, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	for _, interval := range []uint64{0, 4096} {
		opt := SampleOptions{Interval: interval}
		for _, src := range []string{"generated", "trace"} {
			g := FusedAppGroup(sp, members, opt)
			separate := func(cfg smp.Config) (AppResult, error) {
				return only(runApp(context.Background(), sp, []smp.Config{cfg}, nil, opt, nil))
			}
			if src == "trace" {
				g = FusedTraceGroup(in, members, opt)
				separate = func(cfg smp.Config) (AppResult, error) {
					return only(runTrace(context.Background(), in, []smp.Config{cfg}, opt, nil))
				}
			}
			out, err := g.Run(context.Background(), live, nil)
			if err != nil {
				t.Fatalf("%s, interval %d: %v", src, interval, err)
			}
			for k, cfg := range cfgs {
				want, err := separate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(out[k], want) {
					t.Errorf("%s, interval %d: member %s diverges from its separate run", src, interval, members[k].Key)
				}
			}
			if _, err := g.Run(context.Background(), append(live, len(members)-1), nil); err == nil {
				t.Errorf("%s, interval %d: a live 2-CPU member ran on a 4-CPU pass", src, interval)
			}
		}
	}
}
