package main

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"unsafe"

	"repro/gbbs"
	"repro/internal/seqref"
)

// This file is the correctness gate of the suite workloads. Where
// internal/seqref has a sequential reference the output must equal it;
// otherwise the output's defining property is checked. All checks run
// outside the timed regions.

// unreachable is the hop/weighted-BFS distance of an unreached vertex.
const unreachable = ^uint32(0)

// bytesOf views a slice of plain values as bytes.
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(z)))
}

// digest hashes an algorithm output so passes can be compared cheaply.
// Outputs are first brought into the form the problem defines as its
// answer: labellings (cc, scc, bicc's edge labels) as partitions, the
// matching and the cover as sets.
func digest(g gbbs.Graph, key string, v any) (uint64, error) {
	h := fnv.New64a()
	switch x := v.(type) {
	case []uint32:
		switch key {
		case "cc", "scc":
			x = canonical(x)
		case "setcover":
			x = slices.Clone(x)
			slices.Sort(x)
		}
		h.Write(bytesOf(x))
	case []int64:
		h.Write(bytesOf(x))
	case []float64:
		h.Write(bytesOf(x))
	case []bool:
		h.Write(bytesOf(x))
	case []gbbs.WEdge:
		x = slices.Clone(x)
		slices.SortFunc(x, func(a, b gbbs.WEdge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
		h.Write(bytesOf(x))
	case int64:
		h.Write(bytesOf([]int64{x}))
	case *gbbs.Bicc:
		var labels []uint32
		forEdges(g, func(u, v uint32, _ int32) { labels = append(labels, x.EdgeLabel(u, v)) })
		h.Write(bytesOf(canonical(labels)))
	default:
		return 0, fmt.Errorf("no digest for output type %T", v)
	}
	return h.Sum64(), nil
}

// canonical renumbers a labelling by first occurrence, so two labellings
// of one partition become equal.
func canonical(labels []uint32) []uint32 {
	ids := make(map[uint32]uint32)
	out := make([]uint32, len(labels))
	for i, l := range labels {
		id, ok := ids[l]
		if !ok {
			id = uint32(len(ids))
			ids[l] = id
		}
		out[i] = id
	}
	return out
}

func digestAll(in suiteInput, vals map[string]any) (map[string]uint64, error) {
	out := make(map[string]uint64, len(vals))
	for k, v := range vals {
		d, err := digest(in.graphFor(k), k, v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		out[k] = d
	}
	return out, nil
}

// samePass checks a later pass's output against the first pass's.
// LDD breaks ties arbitrarily by design (internal/core/ldd.go), so its
// clusters may differ between passes; each of its outputs is checked for
// validity instead. BC's dependencies are sums whose order depends on the
// schedule, so they are compared within a relative 1e-9.
func samePass(in suiteInput, key string, v, ref any, refDigest uint64) error {
	switch key {
	case "ldd":
		return checkSolution(in, key, v)
	case "bc":
		got, want := v.([]float64), ref.([]float64)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				return fmt.Errorf("bc output on %s differs from the first pass's by more than 1e-9", in.name)
			}
		}
		return nil
	}
	if d, err := digest(in.graphFor(key), key, v); err != nil || d != refDigest {
		return fmt.Errorf("%s output on %s differs from the first pass's", key, in.name)
	}
	return nil
}

// checkSolution checks one suite output on its input.
func checkSolution(in suiteInput, key string, v any) error {
	g := in.graphFor(key)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s on %s: wrong answer: %s", key, in.name, fmt.Sprintf(format, args...))
	}
	var err error
	switch key {
	case "bfs":
		got, want := v.([]uint32), seqref.BFS(g, 0)
		if i := firstDiff(got, want); i >= 0 {
			return fail("dist[%d] = %d, reference %d", i, got[i], want[i])
		}
	case "wbfs":
		got, want := v.([]uint32), seqref.Dijkstra(g, 0)
		for i := range want {
			if (want[i] == math.MaxInt64) != (got[i] == unreachable) || (want[i] != math.MaxInt64 && int64(got[i]) != want[i]) {
				return fail("dist[%d] = %d, reference %d", i, got[i], want[i])
			}
		}
	case "bellmanford":
		got, want := v.([]int64), seqref.Dijkstra(g, 0)
		for i := range want {
			if got[i] != want[i] { // both use math.MaxInt64 for unreachable
				return fail("dist[%d] = %d, reference %d", i, got[i], want[i])
			}
		}
	case "bc":
		got, want := v.([]float64), seqref.BC(g, 0)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*math.Max(1, math.Abs(want[i])) {
				return fail("dependency[%d] = %g, reference %g", i, got[i], want[i])
			}
		}
	case "ldd":
		err = checkLDD(g, v.([]uint32))
	case "cc":
		if !seqref.SamePartition(v.([]uint32), seqref.Components(g)) {
			return fail("components differ from the union-find reference")
		}
	case "scc":
		if !seqref.SamePartition(v.([]uint32), seqref.SCC(g)) {
			return fail("components differ from Tarjan's")
		}
	case "bicc":
		err = checkBicc(g, v.(*gbbs.Bicc))
	case "msf":
		err = checkMSF(g, v.([]gbbs.WEdge))
	case "mis":
		err = checkMIS(g, v.([]bool))
	case "mm":
		err = checkMatching(g, v.([]gbbs.WEdge))
	case "coloring":
		err = checkColoring(g, v.([]uint32))
	case "setcover":
		err = checkCover(g, v.([]uint32))
	case "kcore":
		if i := firstDiff(v.([]uint32), seqref.Coreness(g)); i >= 0 {
			return fail("coreness of vertex %d differs from the peeling reference", i)
		}
	case "tc":
		if got, want := v.(int64), seqref.Triangles(g); got != want {
			return fail("%d triangles, reference %d", got, want)
		}
	default:
		return fmt.Errorf("no check for %s", key)
	}
	if err != nil {
		return fail("%v", err)
	}
	return nil
}

func firstDiff(a, b []uint32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// forEdges calls f once per undirected edge u < v of a symmetric graph.
func forEdges(g gbbs.Graph, f func(u, v uint32, w int32)) {
	for u := 0; u < g.N(); u++ {
		g.OutNgh(uint32(u), func(v uint32, w int32) bool {
			if uint32(u) < v {
				f(uint32(u), v, w)
			}
			return true
		})
	}
}

// checkLDD: every cluster contains its center and is connected through
// edges inside the cluster.
func checkLDD(g gbbs.Graph, label []uint32) error {
	n := g.N()
	reached := make([]bool, n)
	var queue []uint32
	for v := 0; v < n; v++ {
		c := label[v]
		if int(c) >= n || label[c] != c {
			return fmt.Errorf("vertex %d has label %d, which is not a center of its own cluster", v, c)
		}
		if c == uint32(v) {
			reached[v] = true
			queue = append(queue, uint32(v))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.OutNgh(v, func(u uint32, _ int32) bool {
			if !reached[u] && label[u] == label[v] {
				reached[u] = true
				queue = append(queue, u)
			}
			return true
		})
	}
	for v, ok := range reached {
		if !ok {
			return fmt.Errorf("vertex %d is not connected to its center %d inside its cluster", v, label[v])
		}
	}
	return nil
}

// checkBicc compares the edge partition with Hopcroft-Tarjan's.
func checkBicc(g gbbs.Graph, b *gbbs.Bicc) error {
	want := seqref.BCC(g)
	fwd := make(map[uint32]uint32)
	bwd := make(map[uint32]uint32)
	edges := 0
	var bad error
	forEdges(g, func(u, v uint32, _ int32) {
		if bad != nil {
			return
		}
		edges++
		got := b.EdgeLabel(u, v)
		ref, ok := want[seqref.EdgeKey(u, v)]
		if !ok {
			bad = fmt.Errorf("edge (%d,%d) missing from the reference", u, v)
			return
		}
		if x, seen := fwd[got]; seen && x != ref {
			bad = fmt.Errorf("edge (%d,%d): label %d joins two reference components", u, v, got)
			return
		}
		if y, seen := bwd[ref]; seen && y != got {
			bad = fmt.Errorf("edge (%d,%d): reference component split across labels", u, v)
			return
		}
		fwd[got], bwd[ref] = ref, got
	})
	if bad == nil && edges != len(want) {
		bad = fmt.Errorf("%d edges labelled, reference has %d", edges, len(want))
	}
	return bad
}

// checkMSF compares weight and edge count with Kruskal's.
func checkMSF(g gbbs.Graph, forest []gbbs.WEdge) error {
	var eu, ev []uint32
	var ew []int32
	forEdges(g, func(u, v uint32, w int32) {
		eu, ev, ew = append(eu, u), append(ev, v), append(ew, w)
	})
	wantW, wantN := seqref.Kruskal(g.N(), eu, ev, ew)
	var gotW int64
	for _, e := range forest {
		gotW += int64(e.W)
	}
	if gotW != wantW || len(forest) != wantN {
		return fmt.Errorf("forest of %d edges, weight %d; Kruskal: %d edges, weight %d", len(forest), gotW, wantN, wantW)
	}
	return nil
}

// checkMIS: independent and maximal.
func checkMIS(g gbbs.Graph, in []bool) error {
	for v := 0; v < g.N(); v++ {
		hasIn := false
		var bad error
		g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
			if u == uint32(v) {
				return true
			}
			if in[u] {
				hasIn = true
				if in[v] {
					bad = fmt.Errorf("adjacent vertices %d and %d both in the set", v, u)
					return false
				}
			}
			return true
		})
		if bad != nil {
			return bad
		}
		if !in[v] && !hasIn {
			return fmt.Errorf("vertex %d and all its neighbours are outside the set (not maximal)", v)
		}
	}
	return nil
}

// checkMatching: edges of the graph, no shared endpoint, maximal.
func checkMatching(g gbbs.Graph, match []gbbs.WEdge) error {
	mate := make([]int64, g.N())
	for i := range mate {
		mate[i] = -1
	}
	for _, e := range match {
		if e.U == e.V || mate[e.U] >= 0 || mate[e.V] >= 0 {
			return fmt.Errorf("edge (%d,%d) shares an endpoint with another matched edge", e.U, e.V)
		}
		mate[e.U], mate[e.V] = int64(e.V), int64(e.U)
	}
	found := 0
	var bad error
	forEdges(g, func(u, v uint32, _ int32) {
		if mate[u] == int64(v) {
			found++
		}
		if bad == nil && mate[u] < 0 && mate[v] < 0 {
			bad = fmt.Errorf("edge (%d,%d) has both endpoints unmatched (not maximal)", u, v)
		}
	})
	if bad != nil {
		return bad
	}
	if found != len(match) {
		return fmt.Errorf("%d of %d matched pairs are not edges of the graph", len(match)-found, len(match))
	}
	return nil
}

// checkColoring: no edge joins two vertices of one colour.
func checkColoring(g gbbs.Graph, color []uint32) error {
	var bad error
	forEdges(g, func(u, v uint32, _ int32) {
		if bad == nil && color[u] == color[v] {
			bad = fmt.Errorf("adjacent vertices %d and %d share colour %d", u, v, color[u])
		}
	})
	return bad
}

// checkCover: every vertex with a neighbour lies in N(c) of a chosen c.
func checkCover(g gbbs.Graph, cover []uint32) error {
	covered := make([]bool, g.N())
	for _, c := range cover {
		g.OutNgh(c, func(u uint32, _ int32) bool { covered[u] = true; return true })
	}
	for v := 0; v < g.N(); v++ {
		if !covered[v] && g.OutDeg(uint32(v)) > 0 {
			return fmt.Errorf("vertex %d is not covered", v)
		}
	}
	return nil
}
