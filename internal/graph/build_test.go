package graph

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/xrand"
)

// refBuild is the sequential reference for FromEdgeList: a stable sort of
// (u, v, w) triples by (u, v) over the forward edges followed by the
// reversed ones, then the self-loop and duplicate filters (a duplicate run
// keeps its minimum weight), and for directed graphs a stable sort of the
// kept edges by destination as the transpose.
func refBuild(n int, el *EdgeList, opt BuildOptions) *CSR {
	type triple struct {
		u, v uint32
		w    int32
	}
	var ts []triple
	for i := range el.Len() {
		ts = append(ts, triple{el.U[i], el.V[i], el.Weight(i)})
	}
	if opt.Symmetrize {
		for i := range el.Len() {
			ts = append(ts, triple{el.V[i], el.U[i], el.Weight(i)})
		}
	}
	byUV := func(a, b triple) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	}
	slices.SortStableFunc(ts, byUV)
	var kept []triple
	for _, t := range ts {
		if !opt.KeepSelfLoops && t.u == t.v {
			continue
		}
		if k := len(kept); !opt.KeepDuplicates && k > 0 && byUV(kept[k-1], t) == 0 {
			kept[k-1].w = min(kept[k-1].w, t.w)
			continue
		}
		kept = append(kept, t)
	}
	layout := func(ts []triple) ([]int64, []uint32, []int32) {
		offsets := make([]int64, n+1)
		edges := make([]uint32, len(ts))
		var weights []int32
		if el.Weighted() {
			weights = make([]int32, len(ts))
		}
		for i, t := range ts {
			offsets[t.u+1]++
			edges[i] = t.v
			if weights != nil {
				weights[i] = t.w
			}
		}
		for v := range n {
			offsets[v+1] += offsets[v]
		}
		return offsets, edges, weights
	}
	g := &CSR{n: n, symmetric: opt.Symmetrize}
	g.offsets, g.edges, g.weights = layout(kept)
	if !opt.Symmetrize && !opt.SkipInEdges {
		rev := make([]triple, len(kept))
		for i, t := range kept {
			rev[i] = triple{t.v, t.u, t.w}
		}
		slices.SortStableFunc(rev, func(a, b triple) int { return cmp.Compare(a.u, b.u) })
		g.inOffsets, g.inEdges, g.inWeights = layout(rev)
	}
	return g
}

// csrDiff describes the first difference between two CSRs, or returns "".
func csrDiff(got, want *CSR) string {
	switch {
	case got.n != want.n:
		return fmt.Sprintf("n %d, want %d", got.n, want.n)
	case got.symmetric != want.symmetric:
		return fmt.Sprintf("symmetric %v, want %v", got.symmetric, want.symmetric)
	case !slices.Equal(got.offsets, want.offsets):
		return "offsets differ"
	case !slices.Equal(got.edges, want.edges):
		return "edges differ"
	case (got.weights == nil) != (want.weights == nil) || !slices.Equal(got.weights, want.weights):
		return "weights differ"
	case (got.inOffsets == nil) != (want.inOffsets == nil) || !slices.Equal(got.inOffsets, want.inOffsets):
		return "in-offsets differ"
	case !slices.Equal(got.inEdges, want.inEdges):
		return "in-edges differ"
	case (got.inWeights == nil) != (want.inWeights == nil) || !slices.Equal(got.inWeights, want.inWeights):
		return "in-weights differ"
	}
	return ""
}

// allBuildOptions enumerates every combination of the build flags.
func allBuildOptions() []BuildOptions {
	var out []BuildOptions
	for bits := range 16 {
		out = append(out, BuildOptions{
			Symmetrize:     bits&1 != 0,
			KeepSelfLoops:  bits&2 != 0,
			KeepDuplicates: bits&4 != 0,
			SkipInEdges:    bits&8 != 0,
		})
	}
	return out
}

// testWeights attaches weights in [-20, 20) drawn per edge index, so the
// copies of a duplicate edge carry different weights of either sign, and
// both the minimum kept by deduplication and the order kept by
// KeepDuplicates are visible.
func testWeights(el *EdgeList, seed uint64) *EdgeList {
	out := &EdgeList{N: el.N, U: el.U, V: el.V, W: make([]int32, el.Len())}
	for i := range out.W {
		out.W[i] = int32(xrand.Uniform(seed, uint64(i), 40)) - 20
	}
	return out
}

// rmatMultigraph draws m edges over 2^scale vertices from the R-MAT
// quadrant distribution, so hubs, duplicate edges and self-loops all occur.
func rmatMultigraph(scale, m int, seed uint64) *EdgeList {
	el := NewEdgeList(1<<scale, m, false)
	for i := range m {
		var u, v uint32
		for l := range scale {
			r := xrand.Float64(seed, uint64(i*scale+l))
			if r >= 0.76 {
				u |= 1 << l
			}
			if (r >= 0.57) != (r >= 0.76) != (r >= 0.95) {
				v |= 1 << l
			}
		}
		el.Add(u, v, 0)
	}
	return el
}

// torusEdges returns one edge per dimension per vertex of a side^3 torus.
func torusEdges(side int) *EdgeList {
	n := side * side * side
	el := NewEdgeList(n, 3*n, false)
	for v := range n {
		x, y, z := v%side, (v/side)%side, v/(side*side)
		el.Add(uint32(v), uint32(z*side*side+y*side+(x+1)%side), 0)
		el.Add(uint32(v), uint32(z*side*side+((y+1)%side)*side+x), 0)
		el.Add(uint32(v), uint32(((z+1)%side)*side*side+y*side+x), 0)
	}
	return el
}

// starEdges returns edges between vertex 0 and every other vertex, in both
// directions when out is false, and repeated so the hub has duplicates.
func starEdges(n int, out bool) *EdgeList {
	el := NewEdgeList(n, 2*n, false)
	for rep := range 2 {
		for v := n - 1; v >= 1; v-- {
			if out || (v+rep)%2 == 0 {
				el.Add(0, uint32(v), 0)
			} else {
				el.Add(uint32(v), 0, 0)
			}
		}
	}
	return el
}

func differentialInputs() map[string]*EdgeList {
	return map[string]*EdgeList{
		"n0":         {N: 0},
		"n1-empty":   {N: 1},
		"n1-loops":   {N: 1, U: []uint32{0, 0}, V: []uint32{0, 0}},
		"n2":         {N: 2, U: []uint32{1, 0, 1, 1, 0}, V: []uint32{0, 1, 1, 0, 0}},
		"star-out":   starEdges(300, true),
		"star-mixed": starEdges(5000, false),
		"rmat10":     rmatMultigraph(10, 8<<10, 1),
		"rmat11":     rmatMultigraph(11, 4<<11, 2),
		"rmat12":     rmatMultigraph(12, 4<<12, 3),
		"torus":      torusEdges(9),
	}
}

func differentialSchedulers() map[string]*parallel.Scheduler {
	return map[string]*parallel.Scheduler{
		"p1":     parallel.New(1),
		"p2":     parallel.New(2),
		"p4":     parallel.New(4),
		"grain1": parallel.NewWithGrain(3, 1),
	}
}

// TestFromEdgeListDifferential compares every field of the parallel build
// against the sequential reference for every flag combination, weighted and
// unweighted, on several schedulers.
func TestFromEdgeListDifferential(t *testing.T) {
	scheds := differentialSchedulers()
	for _, s := range scheds {
		defer s.Close()
	}
	for name, el := range differentialInputs() {
		for _, weighted := range []bool{false, true} {
			in := el
			if weighted {
				in = testWeights(el, uint64(len(name)))
			}
			for _, opt := range allBuildOptions() {
				want := refBuild(in.N, in, opt)
				for sname, s := range scheds {
					if d := csrDiff(FromEdgeList(s, in.N, in, opt), want); d != "" {
						t.Fatalf("%s weighted=%v %+v on %s: %s", name, weighted, opt, sname, d)
					}
				}
			}
		}
	}
}

// FuzzFromEdgeList builds fuzzer-chosen multigraphs under fuzzer-chosen
// flags and checks the result against the sequential reference on a
// sequential and a grain-1 scheduler. The first byte picks the flags and
// whether the list is weighted, the second the vertex count, and each
// following triple of bytes is one edge (u, v, weight), the weight read as a
// signed byte.
func FuzzFromEdgeList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{31, 2, 0, 1, 3, 0, 1, 5, 1, 0, 9, 1, 1, 1})
	f.Add([]byte{16, 3, 0, 1, 3, 0, 1, 251, 0, 1, 5, 2, 0, 1})
	f.Add([]byte{21, 200, 0, 199, 1, 199, 0, 2, 5, 5, 0, 7, 8, 3, 8, 7, 3})
	seq, par := parallel.New(1), parallel.NewWithGrain(3, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		var flags, n int
		if len(data) >= 2 {
			flags, n = int(data[0]), int(data[1])
			data = data[2:]
		}
		opt := BuildOptions{
			Symmetrize:     flags&1 != 0,
			KeepSelfLoops:  flags&2 != 0,
			KeepDuplicates: flags&4 != 0,
			SkipInEdges:    flags&8 != 0,
		}
		el := NewEdgeList(n, len(data)/3, flags&16 != 0)
		for i := 0; n > 0 && i+2 < len(data); i += 3 {
			el.Add(uint32(data[i])%uint32(n), uint32(data[i+1])%uint32(n), int32(int8(data[i+2])))
		}
		want := refBuild(n, el, opt)
		for _, s := range []*parallel.Scheduler{seq, par} {
			if d := csrDiff(FromEdgeList(s, n, el, opt), want); d != "" {
				t.Fatalf("%+v weighted=%v: %s", opt, el.Weighted(), d)
			}
		}
	})
}
