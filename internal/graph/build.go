package graph

import (
	"slices"

	"repro/internal/parallel"
	"repro/internal/prims"
)

// BuildOptions controls FromEdgeList. The zero value gives the paper's input
// contract: no self-loops, no duplicate edges, sorted adjacency lists, and
// the transpose built for directed graphs.
type BuildOptions struct {
	// Symmetrize adds the reverse of every input edge, producing a
	// symmetric (undirected) graph. Duplicates created by symmetrizing an
	// already-bidirectional list are removed by deduplication.
	Symmetrize bool
	// KeepSelfLoops retains u->u edges instead of dropping them.
	KeepSelfLoops bool
	// KeepDuplicates retains parallel edges instead of deduplicating. For
	// weighted graphs deduplication keeps the minimum weight per edge.
	KeepDuplicates bool
	// SkipInEdges skips building the transpose of a directed graph.
	// Algorithms needing in-edges (dense edgeMap, SCC, BC) require it.
	SkipInEdges bool
}

// FromEdgeList builds a CSR graph over n vertices from el on scheduler s. It
// is how all generator and I/O paths construct graphs, and runs in
// O(m + Σ_v d_v log d_v) work over four passes, with s.Poll() between them
// so a build on a context-attached scheduler aborts promptly after
// cancellation:
//
//  1. a blocked stable counting sort files each edge under its source:
//     the input edges first, then (with Symmetrize) their reverses;
//  2. each adjacency, which fits in cache, is stable-sorted by neighbor,
//     and self-loops and duplicates are dropped as the options say (a
//     duplicate run keeps its minimum weight);
//  3. a scan of the kept degrees gives the offsets, and the kept edges are
//     compacted;
//  4. for a directed graph, a stable counting sort of the kept edges by
//     destination lays out the transpose, whose adjacencies come out
//     sorted by source with no further sort.
//
// The counting sorts use per-block histograms, at most about two blocks per
// worker and each at least n edges long, so the histograms cost O(m) and the
// result does not depend on the thread count. The depth is bounded by a
// block's length and by the sort of the largest adjacency.
func FromEdgeList(s *parallel.Scheduler, n int, el *EdgeList, opt BuildOptions) *CSR {
	m0 := el.Len()
	m := m0
	if opt.Symmetrize {
		m = 2 * m0
	}
	weighted := el.Weighted()
	// Pass 1. Index i < m0 is input edge i and i >= m0 the reverse of edge
	// i-m0 (an empty range unless symmetrizing). A weighted edge is filed
	// as one key, weight<<32 | neighbor, so the scatter writes one word.
	var nbrs []uint32
	var keys []uint64
	if weighted {
		keys = make([]uint64, m)
	} else {
		nbrs = make([]uint32, m)
	}
	s.Poll()
	fwd := func(lo, hi int) (int, int) { return min(lo, m0), min(hi, m0) }
	rev := func(lo, hi int) (int, int) { return max(lo, m0) - m0, max(hi, m0) - m0 }
	nb := blocksFor(s, m, n)
	raw := countingSort(s, n, s.Blocks(m, (m+nb-1)/nb),
		func(lo, hi int, c []int64) {
			fl, fh := fwd(lo, hi)
			rl, rh := rev(lo, hi)
			for _, u := range el.U[fl:fh] {
				c[u]++
			}
			for _, u := range el.V[rl:rh] {
				c[u]++
			}
		},
		func(lo, hi int, c []int64) {
			fl, fh := fwd(lo, hi)
			rl, rh := rev(lo, hi)
			if weighted {
				fileWeighted(c, el.U[fl:fh], el.V[fl:fh], el.W[fl:fh], keys)
				fileWeighted(c, el.V[rl:rh], el.U[rl:rh], el.W[rl:rh], keys)
			} else {
				file(c, el.U[fl:fh], el.V[fl:fh], nbrs)
				file(c, el.V[rl:rh], el.U[rl:rh], nbrs)
			}
		})
	// Pass 2: sort and filter each adjacency in place; degs[v] is the
	// number kept at the front of v's range. A hub's sort cannot be split,
	// so the blocks are finer than elsewhere to balance the rest around it.
	s.Poll()
	bits := prims.BitsFor(uint64(max(n-1, 0)))
	degs := make([]int64, n+1)
	s.ForBlocks(vertexBlocks(raw, 4*blocksFor(s, m, 0)), func(_, lo, hi int) {
		var tmp32 []uint32
		var tmp64 []uint64
		for v := lo; v < hi; v++ {
			a, b := raw[v], raw[v+1]
			if weighted {
				tmp64 = sortByNeighbor(keys[a:b], tmp64, bits)
				degs[v] = int64(filterWeighted(uint32(v), keys[a:b], opt))
			} else {
				tmp32 = sortByNeighbor(nbrs[a:b], tmp32, bits)
				degs[v] = int64(filter(uint32(v), nbrs[a:b], opt))
			}
		}
	})
	// Pass 3: lay out the kept edges (an unweighted build that kept them
	// all is already laid out).
	s.Poll()
	offsets := degs
	mk := prims.Scan(s, degs[:n], offsets[:n])
	offsets[n] = mk
	edges := nbrs
	var weights []int32
	if weighted || mk != int64(m) {
		edges = make([]uint32, mk)
		if weighted {
			weights = make([]int32, mk)
		}
		s.ForBlocks(vertexBlocks(offsets, blocksFor(s, int(mk), 0)), func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				a, b := offsets[v], offsets[v+1]
				if !weighted {
					copy(edges[a:b], nbrs[raw[v]:])
					continue
				}
				for j, k := range keys[raw[v] : raw[v]+b-a] {
					edges[a+int64(j)], weights[a+int64(j)] = uint32(k), int32(k>>32)
				}
			}
		})
	}
	g := &CSR{
		n:         n,
		offsets:   offsets,
		edges:     edges,
		weights:   weights,
		symmetric: opt.Symmetrize,
	}
	if !g.symmetric && !opt.SkipInEdges {
		// Pass 4: the kept edges are in (source, destination) order, so a
		// stable sort by destination leaves each in-adjacency sorted by
		// source, and the forward passes already removed what the options
		// drop.
		s.Poll()
		g.inEdges = make([]uint32, mk)
		if weighted {
			g.inWeights = make([]int32, mk)
		}
		g.inOffsets = countingSort(s, n, vertexBlocks(offsets, blocksFor(s, int(mk), n)),
			func(lo, hi int, c []int64) {
				for _, v := range edges[offsets[lo]:offsets[hi]] {
					c[v]++
				}
			},
			func(lo, hi int, c []int64) {
				for u := lo; u < hi; u++ {
					for i := offsets[u]; i < offsets[u+1]; i++ {
						v := edges[i]
						p := c[v]
						c[v] = p + 1
						g.inEdges[p] = uint32(u)
						if weighted {
							g.inWeights[p] = weights[i]
						}
					}
				}
			})
	}
	return g
}

// minBlock is the fewest edges a block of a build pass holds.
const minBlock = 4096

// blocksFor returns how many blocks a pass over m edges splits into on s:
// about two per worker, each at least minBlock and minLen edges long. A
// counting sort into n buckets passes minLen = n, so its per-block
// histograms total O(m).
func blocksFor(s *parallel.Scheduler, m, minLen int) int {
	return max(1, min(2*s.Workers(), m/max(minLen, minBlock)))
}

// vertexBlocks splits the vertices into nb contiguous ranges holding about
// equal numbers of the edges that offsets lays out. A range may be empty
// when one vertex holds more than a block's share.
func vertexBlocks(offsets []int64, nb int) []int {
	n := len(offsets) - 1
	total := offsets[n]
	bounds := make([]int, nb+1)
	for k := 1; k < nb; k++ {
		bounds[k] = prims.SearchSorted64(offsets, total*int64(k)/int64(nb))
	}
	bounds[nb] = n
	return bounds
}

// countingSort is a blocked stable counting sort into n buckets. count(lo,
// hi, c) adds the bucket of each key of the block [lo, hi) of bounds into
// c; after an exclusive scan in bucket-major, block-minor order, scatter
// (lo, hi, c) files the block's keys in order, where c[k] is the next free
// slot of bucket k. It returns the bucket offsets (length n+1).
func countingSort(s *parallel.Scheduler, n int, bounds []int, count, scatter func(lo, hi int, c []int64)) []int64 {
	nb := len(bounds) - 1
	cur := make([]int64, nb*n)
	s.ForBlocks(bounds, func(b, lo, hi int) { count(lo, hi, cur[b*n:(b+1)*n]) })
	offsets := make([]int64, n+1)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var d int64
			for b := 0; b < nb; b++ {
				d += cur[b*n+v]
			}
			offsets[v] = d
		}
	})
	offsets[n] = prims.Scan(s, offsets[:n], offsets[:n])
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			next := offsets[v]
			for b := 0; b < nb; b++ {
				c := cur[b*n+v]
				cur[b*n+v] = next
				next += c
			}
		}
	})
	s.ForBlocks(bounds, func(b, lo, hi int) { scatter(lo, hi, cur[b*n:(b+1)*n]) })
	return offsets
}

// file writes each neighbor dst[i] to the next slot c[src[i]] of its source.
func file(c []int64, src, dst, nbrs []uint32) {
	for i, u := range src {
		p := c[u]
		c[u] = p + 1
		nbrs[p] = dst[i]
	}
}

// fileWeighted is file for weighted edges, writing weight<<32 | neighbor.
func fileWeighted(c []int64, src, dst []uint32, w []int32, keys []uint64) {
	for i, u := range src {
		p := c[u]
		c[u] = p + 1
		keys[p] = uint64(uint32(w[i]))<<32 | uint64(dst[i])
	}
}

// sortByNeighbor stable-sorts an adjacency by the neighbor in the low 32
// bits of each key, of which only the low bits bits can be set. Short lists
// take an insertion sort; longer ones an LSD radix sort with 8-bit digits
// through tmp, which it grows and returns for reuse.
func sortByNeighbor[K uint32 | uint64](a, tmp []K, bits int) []K {
	if len(a) <= 64 {
		for i := 1; i < len(a); i++ {
			x, j := a[i], i
			for ; j > 0 && uint32(a[j-1]) > uint32(x); j-- {
				a[j] = a[j-1]
			}
			a[j] = x
		}
		return tmp
	}
	tmp = slices.Grow(tmp[:0], len(a))[:len(a)]
	src, dst := a, tmp
	for shift := 0; shift < bits; shift += 8 {
		var c [256]int
		for _, k := range src {
			c[uint32(k)>>shift&255]++
		}
		sum := 0
		for d, x := range c {
			c[d], sum = sum, sum+x
		}
		for _, k := range src {
			d := uint32(k) >> shift & 255
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
	return tmp
}

// filter moves the neighbors of v's sorted adjacency that the options keep
// to its front and returns how many that is.
func filter(v uint32, nbrs []uint32, opt BuildOptions) int {
	k := 0
	for _, x := range nbrs {
		if !opt.KeepSelfLoops && x == v {
			continue
		}
		if !opt.KeepDuplicates && k > 0 && nbrs[k-1] == x {
			continue
		}
		nbrs[k] = x
		k++
	}
	return k
}

// filterWeighted is filter over weight<<32 | neighbor keys; a collapsed
// duplicate run keeps its minimum weight, compared as int32.
func filterWeighted(v uint32, keys []uint64, opt BuildOptions) int {
	k := 0
	for _, key := range keys {
		x := uint32(key)
		if !opt.KeepSelfLoops && x == v {
			continue
		}
		if !opt.KeepDuplicates && k > 0 && uint32(keys[k-1]) == x {
			if int32(key>>32) < int32(keys[k-1]>>32) {
				keys[k-1] = key
			}
			continue
		}
		keys[k] = key
		k++
	}
	return k
}

// FromAdjacency builds a CSR graph on scheduler s from a per-vertex
// adjacency function, used by code that transforms one graph into another
// (e.g. triangle counting's degree-ordered direction step). adj returns v's
// neighbors, in sorted order for algorithms relying on sorted adjacency; it
// may fill and return buf, and must return the same list both times it is
// called for v (a counting pass and a copying pass).
func FromAdjacency(s *parallel.Scheduler, n int, symmetric bool, adj func(v uint32, buf []uint32) []uint32) *CSR {
	degs := make([]int64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		var buf []uint32
		for v := lo; v < hi; v++ {
			buf = adj(uint32(v), buf)
			degs[v] = int64(len(buf))
		}
	})
	offsets := make([]int64, n+1)
	total := prims.Scan(s, degs, offsets[:n])
	offsets[n] = total
	edges := make([]uint32, total)
	s.Poll()
	s.ForRange(n, 64, func(lo, hi int) {
		var buf []uint32
		for v := lo; v < hi; v++ {
			buf = adj(uint32(v), buf)
			copy(edges[offsets[v]:offsets[v+1]], buf)
		}
	})
	return &CSR{n: n, offsets: offsets, edges: edges, symmetric: symmetric}
}
