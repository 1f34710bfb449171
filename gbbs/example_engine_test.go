package gbbs_test

import (
	"context"
	"fmt"

	"repro/gbbs"
)

// ExampleEngine_Build materializes a declarative graph description — a
// source plus composable transforms — on the engine's private scheduler.
func ExampleEngine_Build() {
	eng := gbbs.New(gbbs.WithThreads(2))
	g, err := eng.Build(context.Background(), gbbs.Torus(4), gbbs.Symmetrize())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(g.N(), g.M(), g.Symmetric())
	// Output: 64 384 true
}

// ExampleParseSource parses the textual spec language the CLI drivers and
// the serving layer accept. The parsed source renders canonically, with
// every argument spelled out — the form under which the serving layer's
// graph cache recognizes equal inputs.
func ExampleParseSource() {
	src, err := gbbs.ParseSource("rmat:18")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(src)
	// Output: rmat(scale=18,factor=16,seed=1)
}

// ExampleEngine_Run_declarative dispatches an algorithm by registry name
// with a declarative input: the engine builds the graph from the request's
// InputSpec before running, all under one context.
func ExampleEngine_Run_declarative() {
	eng := gbbs.New(gbbs.WithThreads(2), gbbs.WithSeed(1))
	res, err := eng.Run(context.Background(), "cc", gbbs.Request{
		Input: &gbbs.InputSpec{
			Source:     gbbs.Torus(4),
			Transforms: []gbbs.Transform{gbbs.Symmetrize()},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Summary)
	// Output: 1 components, largest 64
}

// ExampleRequest_Key fingerprints a declarative request: the canonical
// identity — algorithm, canonical specs, source vertex, resolved seed,
// normalized parameters — under which the serving layer caches results.
// Equivalent spellings (spec shorthand, defaults spelled out, JSON-typed
// numbers) produce identical keys.
func ExampleRequest_Key() {
	scc, _ := gbbs.Lookup("scc")
	src, _ := gbbs.ParseSource("rmat:12")
	key, err := gbbs.Request{
		Input: &gbbs.InputSpec{Source: src},
		Opts:  map[string]any{"beta": 1.5},
	}.Key(scc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(key)
	// Output: scc|rmat(scale=12,factor=16,seed=1)|seed=1|beta=1.5,trimrounds=3
}

// ExampleAlgorithm_ResolveOpts validates request options against an
// algorithm's typed parameter schema: unknown names and out-of-range
// values are descriptive errors, and valid maps come back normalized with
// defaults applied.
func ExampleAlgorithm_ResolveOpts() {
	ldd, _ := gbbs.Lookup("ldd")
	if _, err := ldd.ResolveOpts(map[string]any{"betta": 0.4}); err != nil {
		fmt.Println(err)
	}
	params, _ := ldd.ResolveOpts(map[string]any{"beta": 0.4})
	fmt.Println(params["beta"])
	// Output:
	// gbbs: ldd: unknown parameter "betta" (valid: beta)
	// 0.4
}

// ExampleEngine_Run_deadline bounds a run with a context deadline, the same
// mechanism the serving layer uses for per-request timeouts.
func ExampleEngine_Run_deadline() {
	eng := gbbs.New(gbbs.WithThreads(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // an already-expired context: the run returns immediately
	_, err := eng.Run(ctx, "bfs", gbbs.Request{
		Input: &gbbs.InputSpec{Source: gbbs.RMAT(16, 16, 1)},
	})
	fmt.Println(err)
	// Output: gbbs: bfs: building rmat(scale=16,factor=16,seed=1): context canceled
}

// ExampleParseTransforms composes a transform pipeline from its textual
// spec, including long-name aliases and positional arguments.
func ExampleParseTransforms() {
	tfs, err := gbbs.ParseTransforms("symmetrize;paper-weights:7;compress:32")
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, t := range tfs {
		fmt.Println(t)
	}
	// Output:
	// sym
	// paperweights(seed=7)
	// compress(block=32)
}
