package core

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/seqref"
)

// The paper runs one code base over uncompressed (Table 4) and compressed
// (Table 5) graphs. These tests pin that property: every algorithm must
// produce identical results on the parallel-byte representation.

func TestAlgorithmsAgreeOnCompressedSymmetric(t *testing.T) {
	csr := gen.BuildRMAT(parallel.Default, 10, 8, true, false, 77)
	cg := compress.FromCSR(parallel.Default, csr, 0)

	if a, b := BFS(parallel.Default, csr, 0), BFS(parallel.Default, cg, 0); !equalU32(a, b) {
		t.Fatal("BFS differs on compressed")
	}
	if a, b := Connectivity(parallel.Default, csr, 0.2, 1), Connectivity(parallel.Default, cg, 0.2, 1); !seqref.SamePartition(a, b) {
		t.Fatal("connectivity differs on compressed")
	}
	ac, arho := KCore(parallel.Default, csr)
	bc, brho := KCore(parallel.Default, cg)
	if arho != brho || !equalU32(ac, bc) {
		t.Fatal("k-core differs on compressed")
	}
	if a, b := TriangleCount(parallel.Default, csr), TriangleCount(parallel.Default, cg); a != b {
		t.Fatalf("TC differs on compressed: %d vs %d", a, b)
	}
	am := MIS(parallel.Default, csr, 5)
	bm := MIS(parallel.Default, cg, 5)
	for v := range am {
		if am[v] != bm[v] {
			t.Fatal("MIS differs on compressed")
		}
	}
	acol := Coloring(parallel.Default, csr, 5)
	bcol := Coloring(parallel.Default, cg, 5)
	if !equalU32(acol, bcol) {
		t.Fatal("coloring differs on compressed")
	}
	aBC := BC(parallel.Default, csr, 0)
	bBC := BC(parallel.Default, cg, 0)
	for v := range aBC {
		if math.Abs(aBC[v]-bBC[v]) > 1e-6*(1+math.Abs(aBC[v])) {
			t.Fatal("BC differs on compressed")
		}
	}
	amatch := MaximalMatching(parallel.Default, csr, 9)
	bmatch := MaximalMatching(parallel.Default, cg, 9)
	if len(amatch) != len(bmatch) {
		t.Fatal("matching differs on compressed")
	}
	if a, b := ApproxSetCover(parallel.Default, csr, 0.01, 3), ApproxSetCover(parallel.Default, cg, 0.01, 3); len(a) != len(b) {
		t.Fatalf("set cover differs on compressed: %d vs %d sets", len(a), len(b))
	}
	ab := Biconnectivity(parallel.Default, csr)
	bb := Biconnectivity(parallel.Default, cg)
	if NumBiccLabels(parallel.Default, csr, ab) != NumBiccLabels(parallel.Default, cg, bb) {
		t.Fatal("biconnectivity differs on compressed")
	}
	al := LDD(parallel.Default, csr, 0.2, 13)
	bl := LDD(parallel.Default, cg, 0.2, 13)
	if len(al) != len(bl) {
		t.Fatal("LDD output sizes differ")
	}
}

func TestAlgorithmsAgreeOnCompressedWeighted(t *testing.T) {
	csr := gen.BuildRMAT(parallel.Default, 10, 8, true, true, 78)
	cg := compress.FromCSR(parallel.Default, csr, 0)
	if a, b := WeightedBFS(parallel.Default, csr, 0), WeightedBFS(parallel.Default, cg, 0); !equalU32(a, b) {
		t.Fatal("wBFS differs on compressed")
	}
	abf, _ := BellmanFord(parallel.Default, csr, 0)
	bbf, _ := BellmanFord(parallel.Default, cg, 0)
	for v := range abf {
		if abf[v] != bbf[v] {
			t.Fatal("Bellman-Ford differs on compressed")
		}
	}
	_, aw := MSF(parallel.Default, csr)
	_, bw := MSF(parallel.Default, cg)
	if aw != bw {
		t.Fatalf("MSF weight differs on compressed: %d vs %d", aw, bw)
	}
}

func TestAlgorithmsAgreeOnCompressedDirected(t *testing.T) {
	csr := gen.BuildErdosRenyi(parallel.Default, 800, 3000, false, false, 79)
	cg := compress.FromCSR(parallel.Default, csr, 0)
	a := SCC(parallel.Default, csr, 3, SCCOpts{})
	b := SCC(parallel.Default, cg, 3, SCCOpts{})
	if !seqref.SamePartition(a, b) {
		t.Fatal("SCC differs on compressed")
	}
	if x, y := BFS(parallel.Default, csr, 0), BFS(parallel.Default, cg, 0); !equalU32(x, y) {
		t.Fatal("directed BFS differs on compressed")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
