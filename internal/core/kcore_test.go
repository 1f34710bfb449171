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

// checkKCore runs both k-core variants on g and compares them with the
// sequential Matula-Beck oracle; the two variants must also agree on ρ.
func checkKCore(t *testing.T, label string, s *parallel.Scheduler, g graph.Graph, want []uint32) {
	t.Helper()
	hist, rhoH := KCore(s, g)
	faa, rhoF := KCoreFetchAndAdd(s, g)
	if !equalU32(hist, want) {
		t.Errorf("%s: KCore coreness differs from seqref", label)
	}
	if !equalU32(faa, want) {
		t.Errorf("%s: KCoreFetchAndAdd coreness differs from seqref", label)
	}
	if rhoH != rhoF {
		t.Errorf("%s: ρ differs: histogram %d, fetch-and-add %d", label, rhoH, rhoF)
	}
}

// TestKCoreDifferential compares KCore and KCoreFetchAndAdd with the
// sequential oracle on skewed RMAT graphs, a torus, stars, complete graphs,
// a path, the one- and zero-vertex graphs and a multigraph with self-loops,
// in CSR and compressed form, on every scheduler of tcSchedulers.
func TestKCoreDifferential(t *testing.T) {
	inputs := map[string]*graph.CSR{
		"torus": gen.BuildTorus3D(parallel.Default, 9, false, 1),
		"path":  symFromEdgeList(gen.Path(300)),
	}
	for scale := 12; scale <= 14; scale++ {
		inputs[fmt.Sprintf("rmat-%d", scale)] = gen.BuildRMAT(parallel.Default, scale, 8, true, false, uint64(scale))
	}
	for _, n := range []int{0, 1, 40, 129} {
		inputs[fmt.Sprintf("complete-%d", n)] = symFromEdgeList(gen.Complete(n))
		if n > 0 { // gen.Star needs a center
			inputs[fmt.Sprintf("star-%d", n)] = symFromEdgeList(gen.Star(n))
		}
	}
	el := gen.RMAT(parallel.Default, 10, 8, 3)
	inputs["multigraph"] = graph.FromEdgeList(parallel.Default, el.N, el, graph.BuildOptions{Symmetrize: true, KeepDuplicates: true, KeepSelfLoops: true})
	scheds := tcSchedulers()
	for name, csr := range inputs {
		want := seqref.Coreness(csr)
		forms := map[string]graph.Graph{"csr": csr, "compressed": compress.FromCSR(parallel.Default, csr, 0)}
		for form, g := range forms {
			for sname, s := range scheds {
				checkKCore(t, name+" "+form+" "+sname, s, g, want)
			}
		}
	}
}

// FuzzKCore decodes bytes into a small symmetric multigraph (the first byte
// picks n, each following byte pair an edge, duplicates and self-loops
// kept) and checks both k-core variants against the oracle, on CSR at one
// thread and compressed on a grain-1 scheduler.
func FuzzKCore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0, 0, 1, 0, 0, 3, 3})
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 1, 2})
	f.Add([]byte{200, 0, 199, 199, 1, 1, 0, 5, 5, 7, 8, 8, 9, 9, 7})
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
		want := seqref.Coreness(multi)
		checkKCore(t, "csr", seq, multi, want)
		checkKCore(t, "compressed", par, compress.FromCSR(seq, multi, 0), want)
	})
}
