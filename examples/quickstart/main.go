// Quickstart: build a small power-law graph, run a few algorithms through an
// Engine, print results. This is the smallest end-to-end use of the public
// API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/gbbs"
)

func main() {
	// An Engine owns its own scheduler: concurrent engines with different
	// thread counts never interfere, and every method takes a context.
	eng := gbbs.New(gbbs.WithSeed(1))
	ctx := context.Background()

	// A symmetrized RMAT graph with 2^14 vertices and ~16 edges/vertex —
	// the same family the paper uses to stand in for social networks.
	// Engine.Build runs the generator and the CSR construction on the
	// engine's own scheduler.
	g, err := eng.BuildCSR(ctx, gbbs.RMAT(14, 16, 42), gbbs.Symmetrize())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d (directed edge count)\n", g.N(), g.M())

	// Breadth-first search from vertex 0.
	dist, err := eng.BFS(ctx, g, 0)
	if err != nil {
		log.Fatal(err)
	}
	reached, maxd := 0, uint32(0)
	for _, d := range dist {
		if d != gbbs.Inf {
			reached++
			if d > maxd {
				maxd = d
			}
		}
	}
	fmt.Printf("BFS:  reached %d vertices, eccentricity %d\n", reached, maxd)

	// Connected components, dispatched by name through the registry — the
	// Result carries a ready-made summary, the raw labels and the effective
	// seed. Opts are validated against the algorithm's typed parameter
	// schema (see `gbbs-run -describe ldd`): a typo'd name or out-of-range
	// value is an error, not a silent default. cc declares no parameters.
	res, err := eng.Run(ctx, "cc", gbbs.Request{Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CC:   %s (in %v, seed %d)\n", res.Summary, res.Elapsed, res.Seed)

	// Triangle counting.
	tri, err := eng.TriangleCount(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TC:   %d triangles\n", tri)

	// k-core decomposition.
	coreness, rho, err := eng.KCore(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("core: degeneracy kmax=%d, peeled in rho=%d rounds\n",
		gbbs.Degeneracy(coreness), rho)
}
