package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/seqref"
)

// The paper stresses that its randomized algorithms are internally
// deterministic: for a fixed seed the outputs must not depend on the
// schedule. These tests re-run each algorithm under 1, 2 and all workers
// and require identical (or partition-identical) outputs.

func withWorkers(t *testing.T, p int, f func()) {
	t.Helper()
	old := parallel.SetWorkers(p)
	defer parallel.SetWorkers(old)
	f()
}

func workerCounts() []int { return []int{1, 2, 0} } // 0 = leave default

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	g := symGraphs()["rmat"]
	wg := symWeightedGraphs()["rmat-w"]
	dg := dirGraphs()["rmat-dir"]

	type result struct {
		bfs      []uint32
		wbfs     []uint32
		coreness []uint32
		colors   []uint32
		mis      []bool
		msfW     int64
		mmLen    int
		ccPart   []uint32
		sccPart  []uint32
		tc       int64
		coverLen int
	}
	collect := func() result {
		var r result
		r.bfs = BFS(parallel.Default, g, 0)
		r.wbfs = WeightedBFS(parallel.Default, wg, 0)
		r.coreness, _ = KCore(parallel.Default, g)
		r.colors = Coloring(parallel.Default, g, 3)
		r.mis = MIS(parallel.Default, g, 3)
		_, r.msfW = MSF(parallel.Default, wg)
		r.mmLen = len(MaximalMatching(parallel.Default, g, 3))
		r.ccPart = Connectivity(parallel.Default, g, 0.2, 3)
		r.sccPart = SCC(parallel.Default, dg, 3, SCCOpts{})
		r.tc = TriangleCount(parallel.Default, g)
		r.coverLen = len(ApproxSetCover(parallel.Default, g, 0.01, 3))
		return r
	}
	var base result
	withWorkers(t, 1, func() { base = collect() })
	for _, p := range workerCounts()[1:] {
		var got result
		if p == 0 {
			got = collect()
		} else {
			withWorkers(t, p, func() { got = collect() })
		}
		for v := range base.bfs {
			if got.bfs[v] != base.bfs[v] {
				t.Fatalf("p=%d: BFS differs at %d", p, v)
			}
			if got.wbfs[v] != base.wbfs[v] {
				t.Fatalf("p=%d: wBFS differs at %d", p, v)
			}
			if got.coreness[v] != base.coreness[v] {
				t.Fatalf("p=%d: coreness differs at %d", p, v)
			}
			if got.colors[v] != base.colors[v] {
				t.Fatalf("p=%d: coloring differs at %d", p, v)
			}
			if got.mis[v] != base.mis[v] {
				t.Fatalf("p=%d: MIS differs at %d", p, v)
			}
		}
		if got.msfW != base.msfW {
			t.Fatalf("p=%d: MSF weight %d vs %d", p, got.msfW, base.msfW)
		}
		if got.mmLen != base.mmLen {
			t.Fatalf("p=%d: matching size %d vs %d", p, got.mmLen, base.mmLen)
		}
		if !seqref.SamePartition(got.ccPart, base.ccPart) {
			t.Fatalf("p=%d: CC partition differs", p)
		}
		if !seqref.SamePartition(got.sccPart, base.sccPart) {
			t.Fatalf("p=%d: SCC partition differs", p)
		}
		if got.tc != base.tc {
			t.Fatalf("p=%d: TC %d vs %d", p, got.tc, base.tc)
		}
		if got.coverLen != base.coverLen {
			t.Fatalf("p=%d: cover size %d vs %d", p, got.coverLen, base.coverLen)
		}
	}
}

// TestBiconnectivityDeterministicAcrossWorkers requires byte-identical
// Labels at every thread count: they are minimum-vertex labels of G minus
// its critical edges, and the critical edges cut out the same vertex sets
// whichever BFS forest the race between workers picks.
func TestBiconnectivityDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range []string{"er", "rmat", "torus", "tree"} {
		g := symGraphs()[name]
		base := Biconnectivity(parallel.New(1), g)
		for _, p := range []int{2, 4, runtime.NumCPU()} {
			got := Biconnectivity(parallel.New(p), g)
			if !slices.Equal(got.Labels, base.Labels) {
				t.Fatalf("%s: biconnectivity labels at %d threads differ from 1-thread labels", name, p)
			}
			if !samePartitionMaps(biccEdgePartition(g, base), biccEdgePartition(g, got)) {
				t.Fatalf("%s: biconnectivity edge partition at %d threads differs", name, p)
			}
		}
	}
}
