package sdf

import "fmt"

// fifo is a token channel with amortized O(1) push/consume.
type fifo struct {
	buf  []Token
	head int
}

func (f *fifo) size() int { return len(f.buf) - f.head }

func (f *fifo) push(vs []Token) { f.buf = append(f.buf, vs...) }

// window returns the first k tokens without consuming them.
func (f *fifo) window(k int) []Token { return f.buf[f.head : f.head+k] }

func (f *fifo) consume(k int) {
	f.head += k
	if f.head > 4096 && f.head*2 > len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
}

// Interp executes steady-state iterations of a graph functionally on the
// host. It is the reference semantics against which compiled multi-GPU
// executions are verified, and it doubles as the per-partition functional
// engine inside the GPU simulator.
type Interp struct {
	g       *Graph
	chans   []*fifo   // per edge
	inputs  []*fifo   // per primary input port
	outputs []*fifo   // per primary output port
	state   [][]Token // per node
	workIn  [][][]Token
	workOut [][][]Token

	inPorts  []PortRef
	outPorts []PortRef
	inIndex  map[PortRef]int
	outIndex map[PortRef]int
}

// NewInterp prepares an interpreter. Every Graph is steady, so the error is
// always nil.
func NewInterp(g *Graph) (*Interp, error) {
	it := &Interp{
		g:        g,
		chans:    make([]*fifo, len(g.Edges)),
		state:    make([][]Token, len(g.Nodes)),
		workIn:   make([][][]Token, len(g.Nodes)),
		workOut:  make([][][]Token, len(g.Nodes)),
		inPorts:  g.InputPorts(),
		outPorts: g.OutputPorts(),
		inIndex:  map[PortRef]int{},
		outIndex: map[PortRef]int{},
	}
	for i, e := range g.Edges {
		f := &fifo{}
		f.push(e.Initial)
		it.chans[i] = f
	}
	for i, p := range it.inPorts {
		it.inIndex[p] = i
		it.inputs = append(it.inputs, &fifo{})
	}
	for i, p := range it.outPorts {
		it.outIndex[p] = i
		it.outputs = append(it.outputs, &fifo{})
	}
	for _, n := range g.Nodes {
		it.state[n.ID] = append([]Token(nil), n.Filter.Init...)
		it.workIn[n.ID] = make([][]Token, len(n.Filter.Inputs))
		outs := make([][]Token, len(n.Filter.Outputs))
		for p, push := range n.Filter.Outputs {
			outs[p] = make([]Token, push)
		}
		it.workOut[n.ID] = outs
	}
	return it, nil
}

// Graph returns the interpreted graph.
func (it *Interp) Graph() *Graph { return it.g }

// InputPorts returns the primary input ports in feed order.
func (it *Interp) InputPorts() []PortRef { return it.inPorts }

// OutputPorts returns the primary output ports in drain order.
func (it *Interp) OutputPorts() []PortRef { return it.outPorts }

// Feed appends tokens to the primary input port with index idx (in
// InputPorts order).
func (it *Interp) Feed(idx int, tokens []Token) { it.inputs[idx].push(tokens) }

// Drain removes and returns all tokens produced so far on primary output
// port idx.
func (it *Interp) Drain(idx int) []Token {
	f := it.outputs[idx]
	out := append([]Token(nil), f.window(f.size())...)
	f.consume(f.size())
	return out
}

// canFire reports whether node id can fire right now.
func (it *Interp) canFire(id NodeID) bool {
	n := it.g.Nodes[id]
	for p, in := range n.Filter.Inputs {
		eid := n.in[p]
		if eid == -1 {
			if it.inputs[it.inIndex[PortRef{id, p}]].size() < in.Peek {
				return false
			}
		} else if it.chans[eid].size() < in.Peek {
			return false
		}
	}
	return true
}

// fire executes one firing of node id.
func (it *Interp) fire(id NodeID) {
	n := it.g.Nodes[id]
	w := &Work{In: it.workIn[id], Out: it.workOut[id], State: it.state[id]}
	for p, in := range n.Filter.Inputs {
		eid := n.in[p]
		if eid == -1 {
			w.In[p] = it.inputs[it.inIndex[PortRef{id, p}]].window(in.Peek)
		} else {
			w.In[p] = it.chans[eid].window(in.Peek)
		}
	}
	n.Filter.Work(w)
	for p, in := range n.Filter.Inputs {
		eid := n.in[p]
		if eid == -1 {
			it.inputs[it.inIndex[PortRef{id, p}]].consume(in.Pop)
		} else {
			it.chans[eid].consume(in.Pop)
		}
	}
	for p := range n.Filter.Outputs {
		eid := n.out[p]
		if eid == -1 {
			it.outputs[it.outIndex[PortRef{id, p}]].push(w.Out[p])
		} else {
			it.chans[eid].push(w.Out[p])
		}
	}
}

// RunIterations executes `iters` steady-state iterations, consuming from the
// fed inputs and accumulating outputs. It returns an error if the schedule
// deadlocks (inconsistent graph or insufficient input/delay tokens).
func (it *Interp) RunIterations(iters int) error {
	g := it.g
	for iter := 0; iter < iters; iter++ {
		remaining := make([]int64, len(g.Nodes))
		var total int64
		for _, n := range g.Nodes {
			remaining[n.ID] = g.Rep(n.ID)
			total += g.Rep(n.ID)
		}
		for total > 0 {
			progressed := false
			for _, n := range g.Nodes {
				for remaining[n.ID] > 0 && it.canFire(n.ID) {
					it.fire(n.ID)
					remaining[n.ID]--
					total--
					progressed = true
				}
			}
			if !progressed {
				return fmt.Errorf("sdf: graph %s deadlocked at iteration %d (missing input or delay tokens)", g.Name, iter)
			}
		}
	}
	return nil
}

// Run is a convenience wrapper: it feeds the given tokens per primary input
// port (in InputPorts order), runs `iters` iterations, and returns the
// tokens produced per primary output port.
func (it *Interp) Run(iters int, inputs [][]Token) ([][]Token, error) {
	if len(inputs) != len(it.inPorts) {
		return nil, fmt.Errorf("sdf: Run: %d input streams provided, graph has %d primary inputs", len(inputs), len(it.inPorts))
	}
	for i, in := range inputs {
		need := it.g.PortTokens(it.inPorts[i], true) * int64(iters)
		if int64(len(in)) < need {
			return nil, fmt.Errorf("sdf: Run: input %d has %d tokens, need %d for %d iterations", i, len(in), need, iters)
		}
		it.Feed(i, in)
	}
	if err := it.RunIterations(iters); err != nil {
		return nil, err
	}
	outs := make([][]Token, len(it.outPorts))
	for i := range it.outPorts {
		outs[i] = it.Drain(i)
	}
	return outs, nil
}
