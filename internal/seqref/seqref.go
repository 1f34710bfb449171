// Package seqref provides simple sequential reference implementations
// ("oracles") of every problem in the benchmark. They are deliberately
// written with textbook algorithms structurally unrelated to the parallel
// implementations in internal/core, so agreement between the two is strong
// evidence of correctness. They favor clarity over speed and are used only
// in tests.
package seqref

import (
	"container/heap"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
)

const inf = ^uint32(0)

// BFS returns hop distances from src (inf when unreachable).
func BFS(g graph.Graph, src uint32) []uint32 {
	n := g.N()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.OutNgh(v, func(u uint32, _ int32) bool {
			if dist[u] == inf {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
			return true
		})
	}
	return dist
}

type pqItem struct {
	v uint32
	d int64
}
type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; x := old[len(old)-1]; *p = old[:len(old)-1]; return x }

// Dijkstra returns shortest-path distances from src under non-negative
// weights (math.MaxInt64 when unreachable).
func Dijkstra(g graph.Graph, src uint32) []int64 {
	n := g.N()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[src] = 0
	h := &pq{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.d > dist[it.v] {
			continue
		}
		g.OutNgh(it.v, func(u uint32, w int32) bool {
			if nd := it.d + int64(w); nd < dist[u] {
				dist[u] = nd
				heap.Push(h, pqItem{u, nd})
			}
			return true
		})
	}
	return dist
}

// BellmanFord returns shortest-path distances from src allowing negative
// weights; vertices reachable from a negative cycle get math.MinInt64. The
// second result reports whether such a cycle exists.
func BellmanFord(g graph.Graph, src uint32) ([]int64, bool) {
	n := g.N()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[src] = 0
	relax := func() bool {
		changed := false
		for v := 0; v < n; v++ {
			if dist[v] == math.MaxInt64 {
				continue
			}
			g.OutNgh(uint32(v), func(u uint32, w int32) bool {
				if nd := dist[v] + int64(w); nd < dist[u] {
					dist[u] = nd
					changed = true
				}
				return true
			})
		}
		return changed
	}
	for i := 0; i < n-1; i++ {
		if !relax() {
			return dist, false
		}
	}
	if !relax() {
		return dist, false
	}
	// Mark everything reachable from still-improving vertices as -inf.
	improving := []uint32{}
	old := slices.Clone(dist)
	relax()
	for v := 0; v < n; v++ {
		if dist[v] != old[v] {
			improving = append(improving, uint32(v))
		}
	}
	seen := make([]bool, n)
	for _, v := range improving {
		seen[v] = true
	}
	for len(improving) > 0 {
		v := improving[len(improving)-1]
		improving = improving[:len(improving)-1]
		dist[v] = math.MinInt64
		g.OutNgh(v, func(u uint32, _ int32) bool {
			if !seen[u] {
				seen[u] = true
				improving = append(improving, u)
			}
			return true
		})
	}
	return dist, true
}

// BC returns Brandes' single-source betweenness dependencies from src.
func BC(g graph.Graph, src uint32) []float64 {
	n := g.N()
	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma[src] = 1
	dist[src] = 0
	order := []uint32{src}
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		g.OutNgh(v, func(u uint32, _ int32) bool {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				order = append(order, u)
			}
			if dist[u] == dist[v]+1 {
				sigma[u] += sigma[v]
			}
			return true
		})
	}
	for qi := len(order) - 1; qi >= 0; qi-- {
		w := order[qi]
		g.OutNgh(w, func(u uint32, _ int32) bool {
			// u is a successor of w when it is one level deeper.
			if dist[u] >= 0 && dist[u] == dist[w]+1 {
				delta[w] += sigma[w] / sigma[u] * (1 + delta[u])
			}
			return true
		})
	}
	delta[src] = 0 // the source's dependency is zero by convention
	return delta
}

// UnionFind is a plain union-find over n items.
type UnionFind struct{ parent []uint32 }

// NewUnionFind returns a fresh structure over n items.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]uint32, n)}
	for i := range uf.parent {
		uf.parent[i] = uint32(i)
	}
	return uf
}

// Find returns the representative of x with path compression.
func (u *UnionFind) Find(x uint32) uint32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the classes of a and b, returning true if they were distinct.
func (u *UnionFind) Union(a, b uint32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	u.parent[ra] = rb
	return true
}

// Components returns a component label per vertex via union-find.
func Components(g graph.Graph) []uint32 {
	n := g.N()
	uf := NewUnionFind(n)
	for v := 0; v < n; v++ {
		g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
			uf.Union(uint32(v), u)
			return true
		})
	}
	out := make([]uint32, n)
	for v := 0; v < n; v++ {
		out[v] = uf.Find(uint32(v))
	}
	return out
}

// SamePartition reports whether two labellings induce the same partition of
// [0, n).
func SamePartition(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := bwd[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

// Kruskal returns the total weight and edge count of a minimum spanning
// forest of the undirected edges (u < v once each).
func Kruskal(n int, eu, ev []uint32, ew []int32) (int64, int) {
	type edge struct {
		w  int32
		id int
	}
	edges := make([]edge, len(eu))
	for i := range eu {
		edges[i] = edge{ew[i], i}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w < edges[j].w
		}
		return edges[i].id < edges[j].id
	})
	uf := NewUnionFind(n)
	var total int64
	count := 0
	for _, e := range edges {
		if uf.Union(eu[e.id], ev[e.id]) {
			total += int64(e.w)
			count++
		}
	}
	return total, count
}

// SCC returns strongly connected component labels via iterative Tarjan.
func SCC(g graph.Graph) []uint32 {
	n := g.N()
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]uint32, n)
	onstack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = inf
	}
	var tstack []uint32
	type frame struct {
		v  uint32
		pi int
	}
	next := int32(0)
	compID := uint32(0)
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = frames[:0]
		frames = append(frames, frame{uint32(root), 0})
		index[root] = next
		low[root] = next
		next++
		tstack = append(tstack, uint32(root))
		onstack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			nghs := g.DecodeOut(f.v, nil)
			if f.pi < len(nghs) {
				w := nghs[f.pi]
				f.pi++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					tstack = append(tstack, w)
					onstack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onstack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onstack[w] = false
					comp[w] = compID
					if w == v {
						break
					}
				}
				compID++
			}
		}
	}
	return comp
}

// EdgeKey normalizes an undirected edge to a map key.
func EdgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// BCC returns the biconnected components of a symmetric graph as a map from
// normalized edge keys to component IDs, via iterative Hopcroft-Tarjan.
func BCC(g graph.Graph) map[uint64]uint32 {
	n := g.N()
	disc := make([]int32, n)
	low := make([]int32, n)
	parent := make([]int32, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	out := map[uint64]uint32{}
	var estack []uint64
	compID := uint32(0)
	type frame struct {
		v  uint32
		pi int
	}
	timer := int32(0)
	var frames []frame
	for root := 0; root < n; root++ {
		if disc[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{uint32(root), 0})
		disc[root] = timer
		low[root] = timer
		timer++
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			nghs := g.DecodeOut(v, nil)
			if f.pi < len(nghs) {
				w := nghs[f.pi]
				f.pi++
				if int32(w) == parent[v] {
					continue
				}
				if disc[w] == -1 {
					parent[w] = int32(v)
					estack = append(estack, EdgeKey(v, w))
					disc[w] = timer
					low[w] = timer
					timer++
					frames = append(frames, frame{w, 0})
				} else if disc[w] < disc[v] {
					estack = append(estack, EdgeKey(v, w))
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				continue
			}
			p := frames[len(frames)-1].v
			if low[v] < low[p] {
				low[p] = low[v]
			}
			if low[v] >= disc[p] {
				// Pop the biconnected component of edge (p, v).
				key := EdgeKey(p, v)
				for {
					e := estack[len(estack)-1]
					estack = estack[:len(estack)-1]
					out[e] = compID
					if e == key {
						break
					}
				}
				compID++
			}
		}
	}
	return out
}

// Coreness returns the Matula-Beck peeling corenesses.
func Coreness(g graph.Graph) []uint32 {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDeg(uint32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]uint32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], uint32(v))
	}
	core := make([]uint32, n)
	removed := make([]bool, n)
	k := 0
	for d := 0; d <= maxDeg; d++ {
		for len(buckets[d]) > 0 {
			v := buckets[d][len(buckets[d])-1]
			buckets[d] = buckets[d][:len(buckets[d])-1]
			if removed[v] || deg[v] != d {
				continue
			}
			if d > k {
				k = d
			}
			core[v] = uint32(k)
			removed[v] = true
			g.OutNgh(v, func(u uint32, _ int32) bool {
				if !removed[u] && deg[u] > d {
					deg[u]--
					buckets[deg[u]] = append(buckets[deg[u]], u)
				}
				return true
			})
		}
	}
	return core
}

// GreedyMIS returns the independent set produced by processing vertices in
// increasing rank order.
func GreedyMIS(g graph.Graph, rank []uint32) []bool {
	n := g.N()
	order := make([]uint32, n)
	for v := 0; v < n; v++ {
		order[rank[v]] = uint32(v)
	}
	in := make([]bool, n)
	blocked := make([]bool, n)
	for _, v := range order {
		if blocked[v] {
			continue
		}
		in[v] = true
		g.OutNgh(v, func(u uint32, _ int32) bool {
			blocked[u] = true
			return true
		})
	}
	return in
}

// GreedyMatching matches edges in increasing key order.
func GreedyMatching(n int, eu, ev []uint32, key []uint64) map[uint64]bool {
	idx := make([]int, len(eu))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return key[idx[a]] < key[idx[b]] })
	used := make([]bool, n)
	out := map[uint64]bool{}
	for _, i := range idx {
		if !used[eu[i]] && !used[ev[i]] {
			used[eu[i]] = true
			used[ev[i]] = true
			out[EdgeKey(eu[i], ev[i])] = true
		}
	}
	return out
}

// Triangles counts triangles by ordered intersection, independently of the
// parallel implementation's directed-graph construction. It counts the
// triangles of the underlying simple graph: repeated neighbors are merged
// and self-loops never close a triangle.
func Triangles(g graph.Graph) int64 {
	n := g.N()
	distinct := func(v uint32) []uint32 { return slices.Compact(slices.Clone(g.DecodeOut(v, nil))) }
	var count int64
	for v := 0; v < n; v++ {
		nv := distinct(uint32(v))
		for _, u := range nv {
			if u <= uint32(v) {
				continue
			}
			nu := distinct(u)
			// Count common neighbors w with w > u > v: each triangle once.
			i, j := 0, 0
			for i < len(nv) && j < len(nu) {
				a, b := nv[i], nu[j]
				switch {
				case a == b:
					if a > u {
						count++
					}
					i++
					j++
				case a < b:
					i++
				default:
					j++
				}
			}
		}
	}
	return count
}
