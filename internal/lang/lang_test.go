package lang

import (
	"context"
	"strings"
	"testing"

	"streammap/internal/driver"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

const toyProgram = `
// A toy DSP chain in the DSL.
pipeline Main {
  filter Scale pop 4 push 4 {
    for i = 0 .. 4 { push(peek(i) * 0.5); }
  }
  splitjoin Bands duplicate 4 join 4 4 {
    filter Low  pop 4 push 4 { for i = 0 .. 4 { push(peek(i) + peek(i)); } }
    filter High pop 4 push 4 { for i = 0 .. 4 { push(peek(i) - 1.0); } }
  }
  filter Mix pop 8 push 4 {
    for i = 0 .. 4 { push(peek(i) + peek(i + 4)); }
  }
}
`

func TestParseAndRunToyProgram(t *testing.T) {
	g, err := ParseGraph("toy", toyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 { // scale, split, low, high, join, mix
		t.Errorf("nodes = %d, want 6", g.NumNodes())
	}
	it, err := sdf.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := it.Run(1, [][]sdf.Token{{2, 4, 6, 8}})
	if err != nil {
		t.Fatal(err)
	}
	// scale: 1,2,3,4; low: 2,4,6,8; high: 0,1,2,3; mix: 2,5,8,11.
	want := []sdf.Token{2, 5, 8, 11}
	for i := range want {
		if out[0][i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[0][i], want[i])
		}
	}
}

func TestParsedProgramCompiles(t *testing.T) {
	g, err := ParseGraph("toy", toyProgram)
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(context.Background(), g, driver.Options{Topo: topology.PairedTree(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Parts.Parts) < 1 {
		t.Errorf("no partitions")
	}
}

func TestRoundRobinSplitJoin(t *testing.T) {
	src := `
pipeline P {
  splitjoin Deal roundrobin 1 1 join 1 1 {
    filter A pop 1 push 1 { push(peek(0) + 10.0); }
    filter B pop 1 push 1 { push(peek(0) + 20.0); }
  }
}
`
	g, err := ParseGraph("rr", src)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := sdf.NewInterp(g)
	out, err := it.Run(2, [][]sdf.Token{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := []sdf.Token{11, 22, 13, 24}
	for i := range want {
		if out[0][i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[0][i], want[i])
		}
	}
}

func TestLetAndArithmetic(t *testing.T) {
	src := `
pipeline P {
  filter F pop 2 push 1 ops 7 {
    let a = peek(0) * 3.0;
    let b = -peek(1) + (a - 1.0) / 2.0;
    push(b);
  }
}
`
	g, err := ParseGraph("let", src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes[0].Filter.Ops != 7 {
		t.Errorf("explicit ops = %d, want 7", g.Nodes[0].Filter.Ops)
	}
	it, _ := sdf.NewInterp(g)
	out, err := it.Run(1, [][]sdf.Token{{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	// a = 12; b = -5 + 11/2 = 0.5
	if out[0][0] != 0.5 {
		t.Errorf("out = %v, want 0.5", out[0][0])
	}
}

func TestOpsEstimatedFromBody(t *testing.T) {
	src := `
pipeline P {
  filter F pop 4 push 4 {
    for i = 0 .. 4 { push(peek(i) * 2.0 + 1.0); }
  }
}
`
	g, err := ParseGraph("ops", src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes[0].Filter.Ops <= 0 {
		t.Errorf("estimated ops should be positive, got %d", g.Nodes[0].Filter.Ops)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"pipeline {}", "expected identifier"},
		{"pipeline P {}", "empty"},
		{"filter F pop 1 { push(1.0); }", `expected "push"`},
		{"pipeline P { filter F pop 1 push 1 { shove(1.0); } }", "expected let, push or for"},
		{"pipeline P { filter F pop 1 push 1 { push(1.0); } } extra", "trailing input"},
		{"splitjoin S duplicate 1 join 1 1 { filter A pop 1 push 1 { push(peek(0)); } }", "join weights"},
		{"pipeline P { filter F pop 1 push 1 { push(1.0 @); } }", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("no error for %q", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not mention %q", err, c.want)
		}
	}
}

func TestPushCountMismatchPanics(t *testing.T) {
	src := `
pipeline P {
  filter F pop 1 push 2 { push(peek(0)); }
}
`
	g, err := ParseGraph("bad", src)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := sdf.NewInterp(g)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for push-count mismatch")
		}
	}()
	_, _ = it.Run(1, [][]sdf.Token{{1}})
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "// leading comment\npipeline P { // inline\n filter F pop 1 push 1 { push(peek(0)); } }"
	if _, err := ParseGraph("c", src); err != nil {
		t.Fatal(err)
	}
}
