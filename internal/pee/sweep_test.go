package pee

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streammap/internal/gpu"
)

// sweepBrute is the parameter selection as the literal triple loop sweep
// replaced: every (S, W, F) scored, the first strict minimum in scan order
// kept. It exists only as the referee sweep is held to, bit for bit.
func sweepBrute(prof *Profile, costs []nodeCost, sVals []int, smBytes, dBytes int64) (*Estimate, error) {
	d := prof.Device
	maxW := int(d.SharedMemPerSM / smBytes)
	if maxW < 1 {
		return nil, fmt.Errorf("%w: need %d bytes, have %d", ErrInfeasible, smBytes, d.SharedMemPerSM)
	}
	best := Estimate{TUS: -1}
	bestCycles := -1.0
	for _, S := range sVals {
		tc := tcompOf(costs, S)
		for W := 1; W <= maxW; W++ {
			if W*S >= d.MaxThreadsPerBlock {
				break
			}
			maxF := d.MaxThreadsPerBlock - W*S
			for F := d.WarpSize; F <= maxF; F += d.WarpSize {
				D := float64(dBytes) * float64(W)
				tdt := prof.C1 * D / float64(F)
				tdb := prof.C2 * D / float64(F+W*S)
				texec := tc
				if tdt > texec {
					texec = tdt
				}
				texec += tdb
				t := texec / float64(W)
				if bestCycles < 0 || t < bestCycles {
					bestCycles = t
					best = Estimate{
						Params:  Params{S: S, W: W, F: F},
						SMBytes: smBytes,
						DBytes:  dBytes,
						TcompUS: d.CyclesToUS(tc),
						TdtUS:   d.CyclesToUS(tdt),
						TdbUS:   d.CyclesToUS(tdb),
						TexecUS: d.CyclesToUS(texec),
						TUS:     d.CyclesToUS(t),
					}
				}
			}
		}
	}
	if bestCycles < 0 {
		return nil, fmt.Errorf("%w: no feasible thread configuration", ErrInfeasible)
	}
	best.LaunchUS = d.KernelLaunchUS
	return &best, nil
}

// tcompOf is Tcomp(S) (III.9), summed in member order.
func tcompOf(costs []nodeCost, S int) float64 {
	var c float64
	for _, nc := range costs {
		par := nc.f
		if int64(S) < par {
			par = int64(S)
		}
		c += nc.cycles / float64(par)
	}
	return c
}

// devProfile is a profile as ProfileGraph derives it, without a graph.
func devProfile(d gpu.Device) *Profile {
	return &Profile{Device: d, C1: d.GMCyclesPerTokenPerF / 4, C2: d.SwapCyclesPerToken / 4}
}

// logUniform draws from [lo, hi] with every magnitude equally likely.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// sweepMembers draws a partition's cost table — n members with firing rates
// from 1 to maxRate and a total around totalCycles — and the candidate S
// values exactly as Engine.estimate derives them.
func sweepMembers(rng *rand.Rand, d *gpu.Device, n int, maxRate, totalCycles float64) ([]nodeCost, []int) {
	sc := &Scorer{}
	for i := 0; i < n; i++ {
		f := int64(logUniform(rng, 1, maxRate))
		sc.costs = append(sc.costs, nodeCost{cycles: totalCycles / float64(n) * rng.Float64(), f: f})
		sc.markCandidate(f, d)
	}
	sc.finishCandidates(d)
	return sc.costs, sc.sVals
}

// checkSweep holds sweep to the brute-force scan on one input and returns
// the agreed estimate (nil when both report the same error).
func checkSweep(t *testing.T, prof *Profile, costs []nodeCost, sVals []int, smBytes, dBytes int64) *Estimate {
	t.Helper()
	sc := &Scorer{costs: costs, sVals: sVals}
	got, gotErr := sc.sweep(prof, smBytes, dBytes)
	want, wantErr := sweepBrute(prof, costs, sVals, smBytes, dBytes)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("costs=%v sm=%d d=%d: err %v, brute force %v", costs, smBytes, dBytes, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrInfeasible) {
			t.Fatalf("untyped error %v", gotErr)
		}
		return nil
	}
	if *got != *want {
		t.Fatalf("costs=%v sVals=%v sm=%d d=%d:\n sweep %+v\n brute %+v", costs, sVals, smBytes, dBytes, *got, *want)
	}
	return got
}

// floorCut reports whether the transfer floor cut the winner's W loop: for
// the winner's S, some feasible W above the winner's has C1·dB/F(W) at or
// above the winner's T.
func floorCut(prof *Profile, est *Estimate) bool {
	d := &prof.Device
	S := est.Params.S
	maxW := d.MaxThreadsPerBlock
	if est.SMBytes > 0 {
		maxW = int(d.SharedMemPerSM / est.SMBytes)
	}
	for W := est.Params.W + 1; W <= maxW && W*S < d.MaxThreadsPerBlock; W++ {
		F := (d.MaxThreadsPerBlock - W*S) / d.WarpSize * d.WarpSize
		if F > 0 && d.CyclesToUS(prof.C1*float64(est.DBytes)/float64(F)) >= est.TUS {
			return true
		}
	}
	return false
}

// floorSkip reports whether the compute floor had a W to skip: some feasible
// (S, W) has fl(Tcomp(S)/W) above the selected T. W = 1 has each S's
// highest floor, so it is the one to test.
func floorSkip(prof *Profile, costs []nodeCost, sVals []int, est *Estimate) bool {
	d := &prof.Device
	p := est.Params
	D := float64(est.DBytes) * float64(p.W)
	_, _, _, t := modelCycles(tcompOf(costs, p.S), prof.C1*D, prof.C2*D, p.F, p.W*p.S, p.W)
	for _, S := range sVals {
		if S+d.WarpSize <= d.MaxThreadsPerBlock && tcompOf(costs, S) > t {
			return true
		}
	}
	return false
}

// plateauSkipped reports whether the sweep reached the winner by skipping
// the interior of its W-plateau, the run of W that share the winner's
// largest F: the winner is the run's last W, the scan entered the run at
// least two W before it (no later than the compute floor of the winner's T
// lets it start), and the run's last two T are clearly apart.
func plateauSkipped(prof *Profile, costs []nodeCost, est *Estimate) bool {
	d := &prof.Device
	p, M, warp := est.Params, d.MaxThreadsPerBlock, d.WarpSize
	maxW := M
	if est.SMBytes > 0 {
		maxW = int(d.SharedMemPerSM / est.SMBytes)
	}
	end, F := min(maxW, (M-warp)/p.S), (M-p.W*p.S)/warp*warp
	if p.W != min(end, (M-F)/p.S) {
		return false
	}
	first := p.W
	for first > 1 && (M-(first-1)*p.S)/warp*warp == F {
		first--
	}
	tc := tcompOf(costs, p.S)
	t := func(W int) float64 {
		D := float64(est.DBytes) * float64(W)
		_, _, _, t := modelCycles(tc, prof.C1*D, prof.C2*D, F, W*p.S, W)
		return t
	}
	return p.W-max(first, floorStart(tc, t(p.W), end)) >= 2 && t(p.W-1)*floorMargin > t(p.W)
}

// TestSweepMatchesBruteForce is the sweep's referee: on seeded random
// inputs per device the pruned selection returns the very Estimate (==, and
// the same error text) the exhaustive scan does. The draw is shaped so the
// corners where a monotone argument could go wrong all occur, and the test
// fails if one of them stops occurring.
func TestSweepMatchesBruteForce(t *testing.T) {
	cases := 200_000
	if testing.Short() {
		cases = 20_000
	}
	for _, d := range []gpu.Device{gpu.M2090(), gpu.C2070()} {
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			// Free buffer swaps (C2 = 0) leave an I/O-bound T exactly flat
			// along a W-plateau, so only rounding orders its W there.
			devProf, freeSwaps := devProfile(d), &Profile{Device: d, C1: devProfile(d).C1}
			rng := rand.New(rand.NewSource(0x5EEB + int64(d.NumSMs)))
			var noIO, partialPlateau, hugeCycles, infeasible, bigRate, ioBound, cut, skip, plateau int
			for c := 0; c < cases; c++ {
				prof := devProf
				totalCycles := logUniform(rng, 1, 1e15)
				maxRate := float64(4 * d.MaxThreadsPerBlock)
				smBytes := int64(logUniform(rng, 256, 96*1024))
				dBytes := 4 * int64(logUniform(rng, 1, 1<<18))
				switch rng.Intn(8) {
				case 0: // no I/O: t is flat over all of F
					dBytes = 0
				case 1: // Tcomp so large that the tail of Tdb(F) is below its
					// rounding step, few threads taken by W·S so F has range
					totalCycles = logUniform(rng, 1e12, 1e15)
					maxRate = 16
					smBytes = int64(logUniform(rng, 8*1024, 48*1024))
					dBytes = 4 * int64(logUniform(rng, 1, 64))
				case 2: // footprints so small that only the thread cap bounds W
					smBytes = int64(logUniform(rng, 4, 256))
				case 3:
					prof = freeSwaps
				}
				costs, sVals := sweepMembers(rng, &d, 1+rng.Intn(10), maxRate, totalCycles)
				est := checkSweep(t, prof, costs, sVals, smBytes, dBytes)
				for _, nc := range costs {
					if nc.f >= int64(d.MaxThreadsPerBlock) {
						bigRate++
						break
					}
				}
				if totalCycles > 1e14 {
					hugeCycles++
				}
				if est == nil {
					infeasible++
					continue
				}
				maxF := (d.MaxThreadsPerBlock - est.Params.W*est.Params.S) / d.WarpSize * d.WarpSize
				switch {
				case dBytes == 0:
					noIO++
					if est.Params.F != d.WarpSize {
						t.Fatalf("no I/O: F = %d, want the first warp", est.Params.F)
					}
				case est.Params.F > d.WarpSize && est.Params.F < maxF:
					partialPlateau++
				}
				if !est.ComputeBound() {
					ioBound++
				}
				if floorCut(prof, est) {
					cut++
				}
				if floorSkip(prof, costs, sVals, est) {
					skip++
				}
				if plateauSkipped(prof, costs, est) {
					plateau++
				}
			}
			corners := map[string]int{"dBytes == 0": noIO, "partial plateau": partialPlateau,
				"cycles > 1e14": hugeCycles, "infeasible": infeasible, "rate >= MaxThreadsPerBlock": bigRate, "I/O bound": ioBound,
				"transfer floor cut the W loop": cut, "compute floor skipped a W": skip, "W-plateau interior skipped": plateau}
			t.Logf("%d cases: %v", cases, corners)
			for name, n := range corners {
				if n < cases/1000 {
					t.Errorf("corner %q drawn %d times in %d cases", name, n, cases)
				}
			}
		})
	}
}

// FuzzSweep explores beyond the seeded draw; the checked-in seeds are one
// per corner TestSweepMatchesBruteForce names.
func FuzzSweep(f *testing.F) {
	f.Add(false, uint64(1), uint8(7), 1e4, int64(600), int64(2048))     // the common case
	f.Add(false, uint64(2), uint8(3), 1e3, int64(256), int64(0))        // no I/O: whole-F plateau
	f.Add(true, uint64(3), uint8(1), 1e15, int64(64), int64(8))         // Tdb absorbed by rounding: partial plateau
	f.Add(false, uint64(4), uint8(10), 1e15, int64(4), int64(1<<20))    // largest cycles, smallest footprint
	f.Add(true, uint64(5), uint8(2), 10.0, int64(48*1024+1), int64(64)) // one byte over shared memory
	f.Add(false, uint64(6), uint8(4), 1e6, int64(48*1024), int64(4096)) // exactly one execution fits
	f.Add(true, uint64(7), uint8(9), 1.0, int64(16), int64(1<<30))      // I/O bound to the last thread
	f.Add(true, uint64(9), uint8(5), 1e5, int64(512), int64(4096))      // the transfer floor cuts the W loop
	f.Add(false, uint64(10), uint8(6), 1e9, int64(64), int64(64))       // the compute floor skips the S = 1 climb
	f.Add(false, uint64(11), uint8(0), 10.0, int64(16), int64(64))      // S = 1 jumps to W = 32, its first plateau's end
	f.Fuzz(func(t *testing.T, c2070 bool, seed uint64, members uint8, totalCycles float64, smBytes, dBytes int64) {
		if smBytes < 1 || dBytes < 0 || dBytes > 1<<40 || !(totalCycles >= 0 && totalCycles <= 1e15) {
			t.Skip()
		}
		d := gpu.M2090()
		if c2070 {
			d = gpu.C2070()
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		costs, sVals := sweepMembers(rng, &d, 1+int(members)%12, float64(4*d.MaxThreadsPerBlock), totalCycles)
		checkSweep(t, devProfile(d), costs, sVals, smBytes, dBytes)
	})
}

// TestSweepZeroSharedMemory: a partition of zero-copy filters only has no
// shared-memory demand. W is then bounded by the thread cap alone, and the
// selection equals the one any footprint small enough not to bind gives.
func TestSweepZeroSharedMemory(t *testing.T) {
	d := gpu.M2090()
	prof := devProfile(d)
	costs := []nodeCost{{cycles: 16, f: 1}, {cycles: 16, f: 1}}
	sc := &Scorer{costs: costs}
	sc.markCandidate(1, &d)
	sc.markCandidate(1, &d)
	sc.finishCandidates(&d)
	sVals := sc.sVals
	got, err := sc.sweep(prof, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweepBrute(prof, costs, sVals, 1, 8) // 1 byte: SharedMemPerSM executions fit
	if err != nil {
		t.Fatal(err)
	}
	want.SMBytes = 0
	if *got != *want {
		t.Errorf("zero shared memory:\n sweep %+v\n want  %+v", *got, *want)
	}
	if got.Params.W*got.Params.S+got.Params.F > d.MaxThreadsPerBlock {
		t.Errorf("threads %d exceed the block cap", got.Params.W*got.Params.S+got.Params.F)
	}
}

var sweepSink *Estimate

// BenchmarkSweep is the parameter selection alone on two multilevel-sized
// candidates of seven members: a typical one (600 B of shared memory, 2 KB
// of I/O) and a compute-bound one (10⁶ cycles per firing, 64 B of each),
// where each S's best W is its last, so a scan from W = 1 visits every W.
func BenchmarkSweep(b *testing.B) {
	for _, bc := range []struct {
		name            string
		perFiring       float64
		smBytes, dBytes int64
	}{
		{"typical", 200, 600, 2048},
		{"compute-bound", 1e6, 64, 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d := gpu.M2090()
			prof := devProfile(d)
			sc := &Scorer{}
			for _, f := range []int64{1, 2, 4, 8, 8, 4, 2} {
				sc.costs = append(sc.costs, nodeCost{cycles: float64(f) * bc.perFiring, f: f})
				sc.markCandidate(f, &d)
			}
			sc.finishCandidates(&d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := sc.sweep(prof, bc.smBytes, bc.dBytes)
				if err != nil {
					b.Fatal(err)
				}
				sweepSink = est
			}
		})
	}
}
