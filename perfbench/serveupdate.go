package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/gbbs"
	"repro/gbbs/serve"
	"repro/gbbs/store"
	"repro/internal/seqref"
	"repro/internal/vfs"
)

// storedGraph is one graph the serve-update set-up stores.
type storedGraph struct {
	name   string
	source string
}

func storedGraphs(cfg config) []storedGraph {
	return []storedGraph{
		{"ga", fmt.Sprintf("rmat:scale=%d,factor=8,seed=%d", cfg.storeScale, inputSeed)},
		{"gb", fmt.Sprintf("torus:side=%d", cfg.storeSide)},
	}
}

// updateReads are the serve-update read problems, the stored graph each
// reads (one graph per problem, so each problem's executions are alike) and
// their shares of the reads.
var updateReads = []struct {
	algo  string
	graph int
	share float64
}{{"incrcc", 0, 0.35}, {"bfs", 0, 0.3}, {"cc", 0, 0.1}, {"mis", 1, 0.15}, {"kcore", 1, 0.1}}

// The serve-update phase writes edge batches beside reads on stored graphs.
// Every traced run drives it for a short probe, which gives the store.*
// metrics (see probeUpdate). It is not a workload of its own: over ten
// seeds its read p99 spread by 0.59 (quartile distance over median) as
// load from other tenants of the machine came and went, far past any bound.

// setupUpdate starts a server whose store persists to an in-memory
// filesystem (the WAL and snapshot code runs; fsync cost is not measured)
// and stores the workload's graphs.
func setupUpdate(cfg config) (*loadGen, []store.Info, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	srv := serve.New(serve.Config{
		MaxThreads: cfg.threads, CacheBytes: cfg.cacheBytes, ResultCacheBytes: cfg.resultBytes,
		DefaultTimeout: 30 * time.Second, DataDir: "/data", StoreFS: vfs.NewMemFS(),
	})
	lg := newLoadGen(srv, cfg.threads)
	var infos []store.Info
	for _, g := range storedGraphs(cfg) {
		var info store.Info
		if err := lg.call("PUT", "/v1/graphs/"+g.name, serve.GraphCreateRequest{Source: g.source, Transforms: []string{"sym"}}, &info); err != nil {
			lg.close()
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		infos = append(infos, info)
	}
	return lg, infos, time.Since(start), nil
}

// edgeBatch is one write's edges.
type edgeBatch struct {
	graph int
	u, v  []uint32
}

// updateSchedule draws the serve-update open loop from the seed: Poisson
// arrivals, one write in cfg.writeEvery ops carrying cfg.batchEdges random
// edges to each graph in turn, and reads spread over updateReads.
func updateSchedule(cfg config, graphs []store.Info, seed uint64, seconds float64) ([]*op, []edgeBatch) {
	r := rand.New(rand.NewPCG(seed, 0x0bd8))
	total := cfg.warmup + time.Duration(seconds*float64(time.Second))
	var ops []*op
	var batches []edgeBatch
	for i, due := range arrivals(r, cfg.updateRate, total) {
		if i%cfg.writeEvery == cfg.writeEvery-1 {
			gi := i / cfg.writeEvery % len(graphs)
			g := graphs[gi]
			b := edgeBatch{graph: gi, u: make([]uint32, cfg.batchEdges), v: make([]uint32, cfg.batchEdges)}
			pairs := make([][2]uint32, cfg.batchEdges)
			for e := range pairs {
				b.u[e], b.v[e] = uint32(r.IntN(graphs[gi].N)), uint32(r.IntN(graphs[gi].N))
				pairs[e] = [2]uint32{b.u[e], b.v[e]}
			}
			body, _ := json.Marshal(map[string]any{"edges": pairs})
			ops = append(ops, &op{due: due, write: true, method: "POST", path: "/v1/graphs/" + g.Name + "/edges", body: body, graph: g.Name, batch: len(batches)})
			batches = append(batches, b)
			continue
		}
		u := r.Float64()
		read := updateReads[len(updateReads)-1]
		for _, a := range updateReads {
			if u < a.share {
				read = a
				break
			}
			u -= a.share
		}
		algo, gi := read.algo, read.graph
		g := graphs[gi]
		req := serve.RunRequest{Graph: g.Name, Algorithm: algo, TimeoutMS: 20000, Threads: 1}
		if algo == "bfs" {
			req.Src = uint32(r.IntN(graphs[gi].N))
		}
		body, _ := json.Marshal(req)
		ops = append(ops, &op{due: due, method: "POST", path: "/v1/run", body: body, algo: algo, graph: g.Name, src: req.Src, single: true})
	}
	return ops, batches
}

// setStoreLayer fills the store.* metrics from a traced phase.
func (p *phase) setStoreLayer(m metrics, lg *loadGen) error {
	var writes, incrcc, bfs []float64
	var invalidated []float64
	var reads, hits, compactions int
	for _, o := range p.measured {
		if !o.ok() {
			continue
		}
		if o.write {
			writes = append(writes, ms(o.end.Sub(o.start)))
			invalidated = append(invalidated, float64(o.edges.InvalidatedResults))
			if o.edges.Added > 0 && o.edges.Graph.DeltaEdges == 0 {
				compactions++
			}
			continue
		}
		reads++
		if o.run.ResultCache == "hit" {
			hits++
			continue
		}
		switch o.algo {
		case "incrcc":
			incrcc = append(incrcc, ms(o.run.Result.Elapsed))
		case "bfs":
			bfs = append(bfs, ms(o.run.Result.Elapsed))
		}
	}
	var health serve.HealthResponse
	if err := lg.call("GET", "/healthz", nil, &health); err != nil {
		return err
	}
	var wal int64
	for _, d := range health.Durability {
		wal += d.WALBytes
	}
	m.set("store.write_ms", median(writes))
	m.set("store.write_p90_ms", quantile(writes, 0.9))
	m.set("store.compactions", float64(compactions))
	m.set("store.wal_bytes", float64(wal))
	m.set("store.invalidated_per_write", mean(invalidated))
	m.set("store.read_hit_frac", frac(hits, reads))
	m.set("store.incrcc_ms", median(incrcc))
	m.set("store.overlay_bfs_ms", median(bfs))
	return nil
}

// versionOf parses the version out of a store snapshot ID.
func versionOf(spec string) (uint64, error) {
	i := strings.Index(spec, "version=")
	if i < 0 {
		return 0, fmt.Errorf("no version in %q", spec)
	}
	return strconv.ParseUint(strings.TrimRight(spec[i+len("version="):], ")"), 10, 64)
}

// readKey identifies one distinct serve-update answer.
type readKey struct {
	graph   string
	version uint64
	algo    string
	src     uint32
}

// checkServeUpdate checks a serve-update phase:
//   - all reads of one (graph, version, problem, source) carry one summary;
//   - every cc, incrcc and bfs answer equals a sequential union-find over
//     the base graph plus the batches up to that version;
//   - every other answer, and every answer at the final versions, equals an
//     in-process Engine.Run on a from-scratch build of that version;
//   - incrcc's labelling of each final version partitions the vertices
//     exactly as seqref.Components of that from-scratch build.
func checkServeUpdate(cfg config, lg *loadGen, p *phase, batches []edgeBatch) error {
	graphs := storedGraphs(cfg)
	// Order each graph's applied batches by the version they produced.
	type applied struct {
		version uint64
		b       edgeBatch
	}
	perGraph := make([][]applied, len(graphs))
	answers := make(map[readKey]string)
	for _, o := range p.ops {
		if o.write {
			if !o.ok() {
				return fmt.Errorf("serve-update: write %d failed (%v); the final state is unknown", o.batch, o.err)
			}
			if o.edges.Added > 0 {
				b := batches[o.batch]
				perGraph[b.graph] = append(perGraph[b.graph], applied{o.edges.Version, b})
			}
			continue
		}
		if !o.ok() {
			continue
		}
		v, err := versionOf(o.run.Spec)
		if err != nil {
			return err
		}
		k := readKey{o.graph, v, o.algo, o.src}
		if s, seen := answers[k]; seen && s != o.run.Result.Summary {
			return fmt.Errorf("serve-update: %v answered %q and %q", k, s, o.run.Result.Summary)
		}
		answers[k] = o.run.Result.Summary
	}
	ctx := context.Background()
	eng := gbbs.New(gbbs.WithThreads(cfg.threads))
	defer eng.Close()
	for gi, g := range graphs {
		sort.Slice(perGraph[gi], func(i, j int) bool { return perGraph[gi][i].version < perGraph[gi][j].version })
		var final struct {
			Version uint64 `json:"version"`
		}
		if err := lg.call("GET", "/v1/graphs/"+g.name, nil, &final); err != nil {
			return err
		}
		src, err := gbbs.ParseSource(g.source)
		if err != nil {
			return err
		}
		base, err := eng.BuildCSR(ctx, src, gbbs.Symmetrize())
		if err != nil {
			return err
		}
		el := &gbbs.EdgeList{N: base.N()}
		forEdges(base, func(u, v uint32, _ int32) { el.U, el.V = append(el.U, u), append(el.V, v) })
		// Walk the versions, keeping a union-find of the edges so far.
		uf := seqref.NewUnionFind(base.N())
		size := make([]int, base.N())
		for i := range size {
			size[i] = 1
		}
		comps, largest := base.N(), 1
		unite := func(u, v uint32) {
			ru, rv := uf.Find(u), uf.Find(v)
			if ru == rv {
				return
			}
			uf.Union(u, v)
			r := uf.Find(u)
			size[r] = size[ru] + size[rv]
			comps--
			largest = max(largest, size[r])
		}
		for i := range el.U {
			unite(el.U[i], el.V[i])
		}
		keys := make([]readKey, 0)
		for k := range answers {
			if k.graph == g.name {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].version < keys[j].version })
		next := 0 // next batch of perGraph[gi] to apply
		version := uint64(1)
		var built gbbs.Graph // from-scratch build of version, made on demand
		for ki := 0; ki <= len(keys); ki++ {
			target := final.Version
			if ki < len(keys) {
				target = keys[ki].version
			}
			for version < target {
				if next >= len(perGraph[gi]) || perGraph[gi][next].version != version+1 {
					return fmt.Errorf("serve-update: %s version %d has no recorded batch", g.name, version+1)
				}
				b := perGraph[gi][next].b
				for e := range b.u {
					unite(b.u[e], b.v[e])
				}
				el.U, el.V = append(el.U, b.u...), append(el.V, b.v...)
				built = nil
				next++
				version++
			}
			if ki == len(keys) {
				break
			}
			k := keys[ki]
			got := answers[k]
			var want string
			switch k.algo {
			case "cc", "incrcc":
				want = fmt.Sprintf("%d components, largest %d", comps, largest)
			case "bfs":
				want = fmt.Sprintf("reached %d vertices", size[uf.Find(k.src)])
			}
			if want == "" || version == final.Version {
				if built == nil {
					if built, err = buildEdges(ctx, eng, el); err != nil {
						return err
					}
				}
				res, err := eng.Run(ctx, k.algo, gbbs.Request{Graph: built, Source: k.src})
				if err != nil {
					return err
				}
				want = res.Summary
			}
			if got != want {
				return fmt.Errorf("serve-update: %s version %d %s (src %d): served %q, reference %q", g.name, k.version, k.algo, k.src, got, want)
			}
		}
		// The final version's labelling against a from-scratch build.
		var resp serve.RunResponse
		if err := lg.call("POST", "/v1/run", serve.RunRequest{Graph: g.name, Algorithm: "incrcc", IncludeValue: true}, &resp); err != nil {
			return err
		}
		if v, _ := versionOf(resp.Spec); v != final.Version {
			return fmt.Errorf("serve-update: %s changed version during the check", g.name)
		}
		labels, err := uint32s(resp.Result.Value)
		if err != nil {
			return err
		}
		fresh, err := buildEdges(ctx, eng, el)
		if err != nil {
			return err
		}
		if !seqref.SamePartition(labels, seqref.Components(fresh)) {
			return fmt.Errorf("serve-update: %s version %d: incrcc labelling differs from seqref.Components of a from-scratch build", g.name, final.Version)
		}
	}
	return nil
}

// buildEdges builds a symmetric graph from scratch from a copy of el.
func buildEdges(ctx context.Context, eng *gbbs.Engine, el *gbbs.EdgeList) (gbbs.Graph, error) {
	cp := &gbbs.EdgeList{N: el.N, U: append([]uint32(nil), el.U...), V: append([]uint32(nil), el.V...)}
	return eng.Build(ctx, gbbs.Edges(cp), gbbs.Symmetrize())
}

// uint32s converts a JSON-decoded array of numbers.
func uint32s(v any) ([]uint32, error) {
	xs, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("value is %T, not an array", v)
	}
	out := make([]uint32, len(xs))
	for i, x := range xs {
		f, ok := x.(float64)
		if !ok {
			return nil, fmt.Errorf("value[%d] is %T", i, x)
		}
		out[i] = uint32(f)
	}
	return out, nil
}
