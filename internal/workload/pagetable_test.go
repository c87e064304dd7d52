package workload

import (
	"testing"

	"jetty/internal/trace"
)

// mapPageTable is the first-touch page table as a map: the reference
// the dense table must reproduce frame for frame.
type mapPageTable struct {
	table    map[uint64]uint64
	perColor [pageColors]uint64
}

func (pt *mapPageTable) translate(va uint64) uint64 {
	page := va >> pageBits
	frame, ok := pt.table[page]
	if !ok {
		color := page % pageColors
		frame = pt.perColor[color]*pageColors + color
		pt.perColor[color]++
		pt.table[page] = frame
	}
	return frame<<pageBits | va&((1<<pageBits)-1)
}

// TestDensePageTableMatchesMap drives every library workload (phases
// included) at several machine widths and requires the dense table to
// assign exactly the frames the map-based table assigns.
func TestDensePageTableMatchesMap(t *testing.T) {
	// Odd region sizes make bursts read past a region's last byte, and
	// fractions summing just under 1 send the slop to a wide region that
	// has no fraction of its own.
	odd := Spec{Name: "odd", Accesses: 1000, Seed: 5,
		Hot:    Region{Frac: 0.5, Bytes: 16<<10 + 40, Burst: 4},
		Warm:   Region{Frac: 0.3, Bytes: 100_003, Burst: 3},
		Stream: Region{Frac: 0.1993, Bytes: 50_001, Stride: 24},
		Wide:   WideSharing{Bytes: 8 << 10, WriteFrac: 0.5},
	}
	specs := append(Library(), MigratingThroughput(3000), odd)
	for _, sp := range specs {
		for _, cpus := range []int{1, 4, 16} {
			var gens []*generator
			switch src := sp.Source(cpus).(type) {
			case *generator:
				gens = []*generator{src}
			case *phasedSource:
				gens = src.gens
			}
			ref := &mapPageTable{table: map[uint64]uint64{}}
			for _, g := range gens {
				for i := 0; i < 30000; i++ {
					v, _ := g.next(i % cpus)
					if got, want := g.pt.translate(v.Addr), ref.translate(v.Addr); got != want {
						t.Fatalf("%s on %d cpus, ref %d: va %#x -> %#x, map table %#x",
							sp.Name, cpus, i, v.Addr, got, want)
					}
				}
			}
		}
	}
}

// TestFillMatchesNext checks that batched generation is the round-robin
// Next sequence, whole turns per batch and a partial last batch.
func TestFillMatchesNext(t *testing.T) {
	for _, sp := range []Spec{Throughput(), WebServer(), PhasedOLTP().Scale(0.001)} {
		const cpus = 4
		batched, single := sp.Source(cpus), sp.Source(cpus)
		buf := make([]trace.Rec, 4*cpus*97)
		for _, n := range []int{len(buf), cpus, len(buf), 4*cpus*50 + 3} {
			batched.Fill(buf[:n])
			for i, got := range buf[:n] {
				cpu := i % cpus
				ref, ok := single.Next(cpu)
				if want := (trace.Rec{Addr: ref.Addr, CPU: int32(cpu), Op: ref.Op}); !ok || got != want {
					t.Fatalf("%s: batch of %d, record %d = %+v, Next gives %+v", sp.Name, n, i, got, want)
				}
			}
		}
	}
}
