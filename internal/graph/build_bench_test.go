package graph_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// BenchmarkFromEdgeList times the CSR build on the benchmark suite's inputs:
// the symmetrized RMAT 16/8 with paper weights, the directed RMAT 16/8 with
// its transpose, and the side-40 torus, at one thread and at NumCPU.
func BenchmarkFromEdgeList(b *testing.B) {
	s := parallel.New(1)
	defer s.Close()
	rmat := gen.RMAT(s, 16, 8, 1)
	weighted := gen.WithRandomWeights(s, &graph.EdgeList{N: rmat.N, U: rmat.U, V: rmat.V}, gen.PaperWeight(rmat.N), 1)
	cases := []struct {
		name string
		el   *graph.EdgeList
		opt  graph.BuildOptions
	}{
		{"rmat16-sym-weighted", weighted, graph.BuildOptions{Symmetrize: true}},
		{"rmat16-dir", rmat, graph.BuildOptions{}},
		{"torus40", gen.Torus3D(s, 40), graph.BuildOptions{Symmetrize: true}},
	}
	for _, p := range []int{1, runtime.NumCPU()} {
		ps := parallel.New(p)
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/p=%d", c.name, p), func(b *testing.B) {
				for b.Loop() {
					graph.FromEdgeList(ps, c.el.N, c.el, c.opt)
				}
			})
		}
		ps.Close()
	}
}
