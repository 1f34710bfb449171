package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// SpanningForest computes a rooted spanning forest of a symmetric graph:
// union-find connectivity (UnionFindCC) labels each component with its
// minimum vertex ID, those vertices become the roots, and a multi-source
// BFS from the roots builds the forest. Returns the parent of each vertex
// (roots point to themselves), the BFS level of each vertex, and the roots
// in increasing order. Biconnectivity (Algorithm 7) consumes this; the
// paper computes the same forest with a breadth-first search over each
// component in O(m) work and O(diam(G) log n) depth.
func SpanningForest(s *parallel.Scheduler, g graph.Graph) (parent, level, roots []uint32) {
	labels := UnionFindCC(s, g)
	roots = componentRoots(s, labels)
	level, parent = MultiBFS(s, g, roots)
	return parent, level, roots
}

// componentRoots returns the vertices that label their own component under
// a minimum-vertex labelling, in increasing order.
func componentRoots(s *parallel.Scheduler, labels []uint32) []uint32 {
	return prims.MapFilter(s, len(labels),
		func(v int) bool { return labels[v] == uint32(v) },
		func(v int) uint32 { return uint32(v) })
}

// ForestEdgeCount returns the number of tree edges in a parent array
// (vertices with parent != self and != Inf).
func ForestEdgeCount(s *parallel.Scheduler, parent []uint32) int {
	return prims.Count(s, len(parent), func(i int) bool {
		return parent[i] != Inf && parent[i] != uint32(i)
	})
}
