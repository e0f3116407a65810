package experiments

import (
	"fmt"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/sjopt"
	"streammap/internal/topology"
)

func topologyFor(gpus int) *topology.Tree { return topology.PairedTree(gpus) }

// Table51Row is one original-vs-enhanced measurement.
type Table51Row struct {
	App        string
	N          int
	OriginalUS float64
	EnhancedUS float64
	Speedup    float64
	Splitters  int
	Joiners    int
}

// Table51 reproduces the future-work chapter's Table 5.1: single-GPU
// runtime of the original code versus the version with splitters and
// joiners eliminated (Chapter V), for FFT (one splitter/joiner pair) and
// the recursive Bitonic sort (many).
//
// Substitution note: the paper's "Bitonic" in this table is the
// splitter/joiner-rich program; in our suite that structure is BitonicRec
// (the iterative Bitonic has none by construction).
func Table51(cfg Config) (*Table, []Table51Row, error) {
	cases := []struct {
		app   string
		sizes []int
	}{
		{"FFT", []int{512, 256, 128}},
		{"BitonicRec", []int{64, 32, 16}},
	}
	type cell struct {
		app string
		n   int
	}
	var cells []cell
	for _, cs := range cases {
		for _, n := range cs.sizes {
			cells = append(cells, cell{cs.app, n})
		}
	}
	rows, err := parMap(len(cells), func(i int) (Table51Row, error) {
		cs := cells[i]
		app, ok := apps.ByName(cs.app)
		if !ok {
			return Table51Row{}, fmt.Errorf("table5.1: unknown app %s", cs.app)
		}
		g, err := buildApp(app, cs.n)
		if err != nil {
			return Table51Row{}, err
		}
		enh, st, err := sjopt.Eliminate(g)
		if err != nil {
			return Table51Row{}, err
		}
		co, err := compileApp(g, 1, driver.Alg1, driver.ILPMapper, gpu.M2090())
		if err != nil {
			return Table51Row{}, err
		}
		tOrig, err := measure(co, cfg.Fragments)
		if err != nil {
			return Table51Row{}, err
		}
		ce, err := compileApp(enh, 1, driver.Alg1, driver.ILPMapper, gpu.M2090())
		if err != nil {
			return Table51Row{}, err
		}
		tEnh, err := measure(ce, cfg.Fragments)
		if err != nil {
			return Table51Row{}, err
		}
		return Table51Row{
			App: cs.app, N: cs.n,
			OriginalUS: tOrig, EnhancedUS: tEnh,
			Speedup:   tOrig / tEnh,
			Splitters: st.Splitters, Joiners: st.Joiners,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Table 5.1 — splitter/joiner elimination (1 GPU, per-fragment µs)",
		Header: []string{"app", "N", "original", "enhanced", "speedup", "#split", "#join"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, fmt.Sprintf("%d", r.N),
			f1(r.OriginalUS), f1(r.EnhancedUS), f2(r.Speedup),
			fmt.Sprintf("%d", r.Splitters), fmt.Sprintf("%d", r.Joiners),
		})
	}
	t.Notes = append(t.Notes,
		"paper: FFT speedups 1.44-1.66; Bitonic 1.05-5.01 (higher with more splitters/joiners)",
		"BitonicRec stands in for the paper's splitter/joiner-rich Bitonic program",
	)
	return t, rows, nil
}
