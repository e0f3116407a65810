package synth

import (
	"context"
	"testing"
	"time"

	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/mapping"
	"streammap/internal/sdf"
)

// FuzzBuildGraph: for any parameter draw the generator must produce a
// valid, balanced, schedulable graph — and produce it again, bit for bit,
// from the same draw. Checked-in seeds live in testdata/fuzz/FuzzBuildGraph.
func FuzzBuildGraph(f *testing.F) {
	f.Add(uint64(1), uint16(8), uint8(4), uint8(3), uint8(6), uint8(0))
	f.Add(uint64(0xDEADBEEF), uint16(64), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(42), uint16(300), uint8(5), uint8(4), uint8(16), uint8(3))
	f.Add(uint64(31603), uint16(458), uint8(5), uint8(4), uint8(3), uint8(0)) // needs the ladder's last rung
	f.Fuzz(func(t *testing.T, seed uint64, filters uint16, width, depth, rate, flags uint8) {
		p := GraphParams{
			Seed:     seed,
			Filters:  1 + int(filters%512),
			MaxWidth: 2 + int(width%6),
			MaxDepth: 1 + int(depth%5),
			MaxRate:  1 + int(rate%24),
			SkewWork: flags&1 != 0,
		}
		g, err := BuildGraph(p)
		if err != nil {
			t.Fatalf("generator failed on %+v: %v", p, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid graph from %+v: %v", p, err)
		}
		if !g.HasSteady() {
			t.Fatalf("unbalanced graph from %+v", p)
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("cyclic graph from %+v: %v", p, err)
		}
		if err := sdf.ValidateSchedule(g, order); err != nil {
			t.Fatalf("unschedulable graph from %+v: %v", p, err)
		}
		g2, err := BuildGraph(p)
		if err != nil {
			t.Fatalf("regeneration failed on %+v: %v", p, err)
		}
		if g.Fingerprint() != g2.Fingerprint() {
			t.Fatalf("nondeterministic generation for %+v", p)
		}
	})
}

// FuzzSpecDigest: for any parameter draw, the generated graph and its wire
// form must agree on identity (see specDigestAgrees), and so must the twin
// ImportGraph rebuilds from that wire form. Checked-in seeds are
// FuzzBuildGraph's, in testdata/fuzz/FuzzSpecDigest.
func FuzzSpecDigest(f *testing.F) {
	f.Add(uint64(1), uint16(8), uint8(4), uint8(3), uint8(6), uint8(0))
	f.Add(uint64(0xDEADBEEF), uint16(64), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(42), uint16(300), uint8(5), uint8(4), uint8(16), uint8(3))
	f.Add(uint64(31603), uint16(458), uint8(5), uint8(4), uint8(3), uint8(0)) // needs the ladder's last rung
	f.Fuzz(func(t *testing.T, seed uint64, filters uint16, width, depth, rate, flags uint8) {
		g, err := BuildGraph(GraphParams{
			Seed:     seed,
			Filters:  1 + int(filters%512),
			MaxWidth: 2 + int(width%6),
			MaxDepth: 1 + int(depth%5),
			MaxRate:  1 + int(rate%24),
			SkewWork: flags&1 != 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := specDigestAgrees(g); err != nil {
			t.Fatal(err)
		}
		twin, err := sdf.ImportGraph(sdf.ExportGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		if err := specDigestAgrees(twin); err != nil {
			t.Fatalf("imported twin: %v", err)
		}
	})
}

// FuzzCompileDifferential: for any small scenario draw, the serial and
// pipelined flows must agree exactly (or agree to fail). Checked-in seeds
// live in testdata/fuzz/FuzzCompileDifferential.
func FuzzCompileDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(2), uint8(0))
	f.Add(uint64(7), uint8(11), uint8(4), uint8(3))
	f.Add(uint64(0xABCD), uint8(14), uint8(1), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, filters, gpus, flags uint8) {
		gp := GraphParams{
			Seed:     seed,
			Filters:  3 + int(filters%12),
			MaxRate:  2 + int(flags%12),
			SkewWork: flags&1 != 0,
		}
		tp := TopoParams{Seed: seed ^ 0xA5A5A5A5, GPUs: 1 + int(gpus%4)}
		topo, err := BuildTopology(tp)
		if err != nil {
			t.Fatalf("topology from %+v: %v", tp, err)
		}
		dev := gpu.M2090()
		if flags&2 != 0 {
			dev = gpu.C2070()
		}
		part := driver.Alg1
		if flags&4 != 0 {
			part = driver.PrevWorkPart
		}
		mapper := driver.ILPMapper
		if flags&8 != 0 {
			mapper = driver.PrevWorkMap
		}
		sc := &Scenario{
			Name:   "fuzz",
			GraphP: gp,
			TopoP:  tp,
			Opts: driver.Options{
				Device:      dev,
				Topo:        topo,
				Partitioner: part,
				Mapper:      mapper,
				MapOptions:  mapping.Options{ILPMaxParts: 4, TimeBudget: 60 * time.Second},
				Workers:     2,
			},
		}
		if err := Check(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	})
}
