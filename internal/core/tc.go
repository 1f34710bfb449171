package core

import (
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// TriangleCount counts the triangles of a symmetric graph (the
// Shun-Tangwongsan algorithm, parallelizing Latapy's compact-forward) in
// O(m^{3/2}) work and O(log n) depth. Edges are directed from lower to
// higher degree-rank, so every triangle is counted exactly once, at its
// lowest-ranked vertex v, as a pair of out-neighbors u, w of v with w an
// out-neighbor of u. For each v the kernel marks N+(v) in an n-bit set,
// counts the marked entries of N+(u) for every u in N+(v), then clears the
// marks; vertices are processed sequentially inside the outer parallel
// loop, as in the paper. Each worker reuses one mark set across the blocks
// it runs, so the scratch is O(P·n) bits.
//
// The count is that of the underlying simple graph: parallel edges are
// counted once and self-loops are ignored.
func TriangleCount(s *parallel.Scheduler, g graph.Graph) int64 {
	n := g.N()
	// rank[v] orders vertices by (degree, id): rank[u] < rank[v] iff
	// (deg(u), u) < (deg(v), v).
	rank := make([]uint64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			rank[v] = uint64(g.OutDeg(uint32(v)))<<32 | uint64(v)
		}
	})
	// up returns v's distinct neighbors of higher rank, in sorted order,
	// filtered into buf. buf is first grown to deg(v), so a decoding
	// DecodeOut fills it in place, and filtering in place is safe: the
	// write index never passes the read index.
	up := func(v uint32, buf []uint32) []uint32 {
		if d := int(rank[v] >> 32); cap(buf) < d {
			buf = make([]uint32, 0, d)
		}
		ngh := g.DecodeOut(v, buf)
		out := buf[:0]
		rv, prev := rank[v], v // a self-loop fails the rank test anyway
		for _, u := range ngh {
			if u != prev && rank[u] > rv {
				out = append(out, u)
			}
			prev = u
		}
		return out
	}
	// Direct the graph. When the input is compressed, the directed graph is
	// built in the parallel-byte format too, as in the paper's §B ("this
	// step creates a directed graph encoded in the parallel-byte format in
	// O(m) work").
	var dg graph.Graph
	if _, isCompressed := g.(*compress.Graph); isCompressed {
		dg = compress.FromFunc(s, n, false, 0, up)
	} else {
		dg = graph.FromAdjacency(s, n, false, up)
	}
	s.Poll()
	// Sum |N+(u) ∩ N+(v)| over directed edges (v, u). The pool holds
	// Workers() mark sets, each allocated on first use and returned
	// all-zero; a block that finds the pool empty waits for a set.
	bounds := s.Blocks(n, 0)
	partial := make([]int64, len(bounds)-1)
	marks := make(chan []uint64, s.Workers())
	for range cap(marks) {
		marks <- nil
	}
	s.ForBlocks(bounds, func(b, lo, hi int) {
		mark := <-marks
		if mark == nil {
			mark = make([]uint64, (n+63)/64)
		}
		// Two decode buffers: nv must stay valid while each neighbor list
		// decodes into the second.
		var buf1, buf2 []uint32
		var local int64
		for v := lo; v < hi; v++ {
			buf1 = dg.DecodeOut(uint32(v), buf1)
			nv := buf1
			if len(nv) < 2 { // a triangle needs two out-neighbors of v
				continue
			}
			for _, w := range nv {
				mark[w>>6] |= 1 << (w & 63)
			}
			for _, u := range nv {
				buf2 = dg.DecodeOut(u, buf2)
				for _, w := range buf2 {
					local += int64(mark[w>>6] >> (w & 63) & 1)
				}
			}
			for _, w := range nv {
				mark[w>>6] = 0
			}
		}
		partial[b] = local
		marks <- mark
	})
	return prims.Sum(s, partial)
}
