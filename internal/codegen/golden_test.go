package codegen

import (
	"context"
	"os"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/topology"
)

// TestGoldenOutput pins CUDA, Report and Dot byte for byte for DES-8 on a
// 2-GPU tree against testdata/des8x2.*: any change to what the generator
// emits, or to the compilation it renders, shows as a diff there.
func TestGoldenOutput(t *testing.T) {
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(context.Background(), g, driver.Options{Topo: topology.PairedTree(2)})
	if err != nil {
		t.Fatal(err)
	}
	src, err := CUDA(c.Plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []struct{ file, got string }{
		{"testdata/des8x2.cu", src},
		{"testdata/des8x2.report.txt", Report(c.Plan)},
		{"testdata/des8x2.dot", Dot(c.Plan)},
	} {
		want, err := os.ReadFile(out.file)
		if err != nil {
			t.Fatal(err)
		}
		if out.got != string(want) {
			t.Errorf("%s: output differs from the golden file (%d bytes, want %d)",
				out.file, len(out.got), len(want))
		}
	}
}
