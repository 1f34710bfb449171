package core

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqref"
)

// tcSchedulers are the schedulers the triangle-count tests run on: 1, 2
// and 4 threads, plus a one-vertex grain so that each mark set is reused
// by many blocks and a missed clear shows up as a wrong count.
func tcSchedulers() map[string]*parallel.Scheduler {
	return map[string]*parallel.Scheduler{
		"p=1":       parallel.New(1),
		"p=2":       parallel.New(2),
		"p=4":       parallel.New(4),
		"p=2,grain": parallel.NewWithGrain(2, 1),
	}
}

func symFromEdgeList(el *graph.EdgeList) *graph.CSR {
	return graph.FromEdgeList(parallel.Default, el.N, el, graph.BuildOptions{Symmetrize: true})
}

// TestTriangleCountDifferential compares TriangleCount with the sequential
// oracle on skewed RMAT graphs, a torus, and complete graphs and stars whose
// sizes straddle the mark set's 64-bit word boundaries, in CSR and
// compressed form, on every scheduler of tcSchedulers.
func TestTriangleCountDifferential(t *testing.T) {
	inputs := map[string]*graph.CSR{
		"torus": gen.BuildTorus3D(parallel.Default, 9, false, 1),
	}
	for scale := 12; scale <= 14; scale++ {
		inputs[fmt.Sprintf("rmat-%d", scale)] = gen.BuildRMAT(parallel.Default, scale, 8, true, false, uint64(scale))
	}
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		inputs[fmt.Sprintf("complete-%d", n)] = symFromEdgeList(gen.Complete(n))
		if n > 0 { // gen.Star needs a center
			inputs[fmt.Sprintf("star-%d", n)] = symFromEdgeList(gen.Star(n))
		}
	}
	scheds := tcSchedulers()
	for name, csr := range inputs {
		want := seqref.Triangles(csr)
		forms := map[string]graph.Graph{"csr": csr, "compressed": compress.FromCSR(parallel.Default, csr, 0)}
		for form, g := range forms {
			for sname, s := range scheds {
				if got := TriangleCount(s, g); got != want {
					t.Errorf("%s %s %s: TriangleCount = %d, seqref = %d", name, form, sname, got, want)
				}
			}
		}
	}
}

// TestTriangleCountMultigraph checks that parallel edges and self-loops do
// not change the count: a multigraph has the triangles of its simple graph.
func TestTriangleCountMultigraph(t *testing.T) {
	el := gen.RMAT(parallel.Default, 10, 8, 3)
	multi := graph.FromEdgeList(parallel.Default, el.N, el, graph.BuildOptions{Symmetrize: true, KeepDuplicates: true, KeepSelfLoops: true})
	simple := symFromEdgeList(el)
	if multi.M() == simple.M() {
		t.Fatal("input has no parallel edges or self-loops")
	}
	want := seqref.Triangles(simple)
	if got := seqref.Triangles(multi); got != want {
		t.Fatalf("seqref on the multigraph = %d, on the simple graph %d", got, want)
	}
	for form, g := range map[string]graph.Graph{"csr": multi, "compressed": compress.FromCSR(parallel.Default, multi, 0)} {
		for sname, s := range tcSchedulers() {
			if got := TriangleCount(s, g); got != want {
				t.Errorf("%s %s: TriangleCount = %d, simple graph has %d", form, sname, got, want)
			}
		}
	}
}

// FuzzTriangleCount decodes bytes into a small symmetric multigraph (the
// first byte picks n, each following byte pair an edge, duplicates and
// self-loops kept) and asserts that the CSR count, the compressed count and
// the oracle on the deduplicated build all agree.
func FuzzTriangleCount(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{64, 0, 63, 63, 62, 62, 0, 0, 62, 1, 63})
	f.Add([]byte{65, 0, 64, 64, 1, 1, 0, 64, 64, 0, 1})
	f.Add([]byte{128, 10, 70, 70, 127, 127, 10, 10, 127, 70, 127})
	seq, par := parallel.New(1), parallel.NewWithGrain(3, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n = 1 + int(data[0])
			data = data[1:]
		}
		el := &graph.EdgeList{N: n}
		for i := 0; i+1 < len(data); i += 2 {
			el.Add(uint32(data[i])%uint32(n), uint32(data[i+1])%uint32(n), 1)
		}
		multi := graph.FromEdgeList(seq, n, el, graph.BuildOptions{Symmetrize: true, KeepDuplicates: true, KeepSelfLoops: true})
		want := seqref.Triangles(graph.FromEdgeList(seq, n, el, graph.BuildOptions{Symmetrize: true}))
		if got := TriangleCount(seq, multi); got != want {
			t.Fatalf("CSR count %d, oracle %d", got, want)
		}
		if got := TriangleCount(par, compress.FromCSR(seq, multi, 0)); got != want {
			t.Fatalf("compressed count %d, oracle %d", got, want)
		}
	})
}
