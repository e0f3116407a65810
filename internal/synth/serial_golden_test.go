package synth

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/mapping"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// goldenInstance is one compilation the serial golden file has a digest for.
type goldenInstance struct {
	name  string
	build func() (*sdf.Graph, error)
	opts  driver.Options
}

// serialGoldenInstances lists the recorded family: the eight paper apps at
// the sizes and options of the benchmark's compile-apps workload (4-GPU
// tree, every exact solve closing far inside its budget), then the 200
// scenarios of TestDifferentialCorpus.
func serialGoldenInstances(t *testing.T) []goldenInstance {
	t.Helper()
	var out []goldenInstance
	for _, pc := range []struct {
		app string
		n   int
	}{
		{"DES", 32}, {"FMRadio", 32}, {"FFT", 512}, {"DCT", 30},
		{"MatMul2", 8}, {"MatMul3", 6}, {"BitonicRec", 64}, {"Bitonic", 64},
	} {
		app, ok := apps.ByName(pc.app)
		if !ok {
			t.Fatalf("no app %q", pc.app)
		}
		out = append(out, goldenInstance{
			name:  fmt.Sprintf("%s-%d", pc.app, pc.n),
			build: func() (*sdf.Graph, error) { return apps.BuildGraph(app, pc.n) },
			opts: driver.Options{
				Device: gpu.M2090(), Topo: topology.PairedTree(4),
				MapOptions: mapping.Options{TimeBudget: 60 * time.Second},
			},
		})
	}
	corpus, err := Corpus(CorpusParams{Seed: 0x5EED, Scenarios: corpusSize, MaxFilters: 28, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range corpus {
		out = append(out, goldenInstance{name: sc.Name, build: sc.BuildGraph, opts: sc.Opts})
	}
	return out
}

// compilationDigest folds everything driver.Equivalent compares — partition
// node sets, kernel parameters, estimates and scales, PDG edges and host
// I/O, the assignment and its objective bits — into one SHA-256. A rejected
// compilation is recorded as its error text.
func compilationDigest(c *driver.Compiled, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	for _, p := range c.Parts.Parts {
		fmt.Fprintf(h, "part %v params %d/%d/%d t %016x sm %d scale %d\n", p.Members,
			p.Est.Params.S, p.Est.Params.W, p.Est.Params.F, math.Float64bits(p.Est.TUS), p.Est.SMBytes, p.Scale)
	}
	for _, e := range c.PDG.Edges {
		fmt.Fprintf(h, "edge %d->%d %d\n", e.From, e.To, e.Bytes)
	}
	fmt.Fprintf(h, "host in %v out %v\n", c.PDG.HostInBytes, c.PDG.HostOutBytes)
	fmt.Fprintf(h, "assign %v objective %016x\n", c.Assign.GPUOf, math.Float64bits(c.Assign.Objective))
	return hex.EncodeToString(h.Sum(nil))
}

// TestSerialGolden holds the one compile flow, at Workers 1 and at Workers 8,
// to testdata/serial_golden.json: one digest per instance, written from the
// separate serial compile flow (driver/serial.go) by the last commit that
// had one. Since then both sides of Check are driver.Compile, so the
// differential corpus can no longer see a regression in what the two runs
// share; this record can. The file is a record of the retired flow, not a
// snapshot to regenerate: a change that means to move an artifact says so
// and replaces that entry with the digest this test prints.
func TestSerialGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/serial_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	insts := serialGoldenInstances(t)
	if len(want) != len(insts) {
		t.Fatalf("golden file has %d digests for %d instances", len(want), len(insts))
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			for _, in := range insts {
				g, err := in.build()
				if err != nil {
					t.Fatal(err)
				}
				opts := in.opts
				opts.Workers = workers
				got := compilationDigest(driver.Compile(context.Background(), g, opts))
				if got != want[in.name] {
					t.Errorf("%s: digest %s, the serial flow recorded %s", in.name, got, want[in.name])
				}
			}
		})
	}
}
