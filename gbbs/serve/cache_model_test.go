package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"repro/gbbs"
)

// The model tests drive the graph cache and the result cache through seeded
// random operation sequences and check their byte accounting after every
// step: the reported size must equal the sum of the completed entries'
// bytes and stay within the budget. Sequentially, a reference LRU model
// also fixes which keys are resident, in which order, and the hit and miss
// counters. Concurrently (several goroutines on one cache, for -race), a
// checker asserts the accounting invariant on every snapshot it takes.

// Outcomes of one lookup's work.
const (
	workOK = iota
	workFail
	workPanic
)

// modelEntry is one resident entry as a cache reports it.
type modelEntry struct {
	key      string
	bytes    int64
	building bool
}

// modelStats is the part of a cache snapshot the model checks.
type modelStats struct {
	size, budget, hits, misses int64
	entries                    []modelEntry // most recently used first
}

// modelCache adapts Cache and ResultCache to one operation set. get looks
// key up, running work of the given size index and outcome on a miss.
// invalidateMatching is nil for caches that lack it.
type modelCache struct {
	sizes              []int64 // bytes of a completed entry, by size index
	get                func(key string, size, outcome int) (hit bool, err error)
	invalidate         func(key string) bool
	invalidateMatching func(pred func(string) bool) int
	clear              func()
	stats              func() modelStats
}

var errModelWork = errors.New("model: work failed")

func newGraphModelCache(t *testing.T, budget int64) *modelCache {
	t.Helper()
	eng := gbbs.New(gbbs.WithThreads(1))
	defer eng.Close()
	// A graph larger than the whole budget is evicted right after insertion.
	var graphs []gbbs.Graph
	var sizes []int64
	for _, n := range []int{16, 64, 200, 500, 2000} {
		g, err := eng.Build(context.Background(), gbbs.Path(n), gbbs.Symmetrize())
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
		sizes = append(sizes, approxGraphBytes(g))
	}
	c := NewCache(context.Background(), budget)
	return &modelCache{
		sizes: sizes,
		get: func(key string, size, outcome int) (bool, error) {
			_, hit, err := c.GetOrBuild(context.Background(), key, func(context.Context) (gbbs.Graph, error) {
				switch outcome {
				case workFail:
					return nil, errModelWork
				case workPanic:
					panic("model: build panicked")
				}
				return graphs[size], nil
			})
			return hit, err
		},
		invalidate: c.Invalidate,
		clear:      c.Clear,
		stats: func() modelStats {
			s := c.Stats()
			out := modelStats{size: s.SizeBytes, budget: s.BudgetBytes, hits: s.Hits, misses: s.Misses}
			for _, e := range s.Entries {
				out.entries = append(out.entries, modelEntry{e.Spec, e.Bytes, e.Building})
			}
			return out
		},
	}
}

func newResultModelCache(budget int64) *modelCache {
	lens := []int{0, 200, 800, 2000, 8000}
	c := NewResultCache(budget)
	m := &modelCache{
		get: func(key string, size, outcome int) (bool, error) {
			_, hit, err := c.GetOrRun(context.Background(), key, func(context.Context) (RunResponse, error) {
				switch outcome {
				case workFail:
					return RunResponse{}, errModelWork
				case workPanic:
					panic("model: run panicked")
				}
				var resp RunResponse
				resp.Result.Value = make([]uint32, lens[size])
				return resp, nil
			})
			return hit, err
		},
		invalidate:         c.Invalidate,
		invalidateMatching: c.InvalidateMatching,
		clear:              c.Clear,
		stats: func() modelStats {
			s := c.Stats()
			out := modelStats{size: s.SizeBytes, budget: s.BudgetBytes, hits: s.Hits, misses: s.Misses}
			for _, e := range s.Entries {
				out.entries = append(out.entries, modelEntry{e.Key, e.Bytes, e.Running})
			}
			return out
		},
	}
	for _, l := range lens {
		var resp RunResponse
		resp.Result.Value = make([]uint32, l)
		m.sizes = append(m.sizes, approxResponseBytes(resp))
	}
	return m
}

// checkAccounting asserts the byte-accounting invariant on one snapshot.
func checkAccounting(s modelStats) error {
	var sum int64
	for _, e := range s.entries {
		if !e.building {
			sum += e.bytes
		}
	}
	if s.size != sum {
		return fmt.Errorf("SizeBytes %d != %d summed over completed entries %+v", s.size, sum, s.entries)
	}
	if sum > s.budget {
		return fmt.Errorf("completed entries hold %d bytes, over the %d budget", sum, s.budget)
	}
	return nil
}

// modelKeys are the keys operations draw from: two groups, so that
// InvalidateMatching can select a proper subset by prefix.
var modelKeys = []string{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"}

// modelOp is one random operation.
type modelOp struct {
	kind          int // 0-5 lookup, 6 invalidate, 7 invalidate matching, 8 clear
	key, prefix   string
	size, outcome int
}

func randomOp(r *rand.Rand, nsizes int, matching bool) modelOp {
	op := modelOp{
		kind:   r.IntN(9),
		key:    modelKeys[r.IntN(len(modelKeys))],
		prefix: []string{"a", "b"}[r.IntN(2)],
		size:   r.IntN(nsizes),
	}
	if op.kind == 7 && !matching {
		op.kind = 6
	}
	if op.kind == 8 && r.IntN(4) != 0 {
		op.kind = r.IntN(6) // keep Clear rare so the cache fills up
	}
	switch r.IntN(8) {
	case 0:
		op.outcome = workFail
	case 1:
		op.outcome = workPanic
	}
	return op
}

// runModelSequential applies steps random operations to c and to a
// reference LRU model, comparing the two after every step.
func runModelSequential(t *testing.T, c *modelCache, seed uint64, steps int) {
	t.Helper()
	budget := c.stats().budget
	r := rand.New(rand.NewPCG(seed, 0))
	var want []modelEntry // the model's resident entries, most recent first
	var hits, misses int64
	find := func(key string) int {
		for i, e := range want {
			if e.key == key {
				return i
			}
		}
		return -1
	}
	for step := 0; step < steps; step++ {
		op := randomOp(r, len(c.sizes), c.invalidateMatching != nil)
		switch {
		case op.kind < 6:
			hit, err := c.get(op.key, op.size, op.outcome)
			if i := find(op.key); i >= 0 {
				hits++
				e := want[i]
				want = append([]modelEntry{e}, append(want[:i:i], want[i+1:]...)...)
				if !hit || err != nil {
					t.Fatalf("seed %d step %d: get %s of a resident key: hit=%v err=%v", seed, step, op.key, hit, err)
				}
				break
			}
			misses++
			if hit {
				t.Fatalf("seed %d step %d: get %s of an absent key reported a hit", seed, step, op.key)
			}
			if op.outcome != workOK {
				if err == nil {
					t.Fatalf("seed %d step %d: failing work on %s returned no error", seed, step, op.key)
				}
				break
			}
			if err != nil {
				t.Fatalf("seed %d step %d: get %s: %v", seed, step, op.key, err)
			}
			want = append([]modelEntry{{key: op.key, bytes: c.sizes[op.size]}}, want...)
			var total int64
			for _, e := range want {
				total += e.bytes
			}
			for total > budget {
				total -= want[len(want)-1].bytes
				want = want[:len(want)-1]
			}
		case op.kind == 6:
			i := find(op.key)
			if got := c.invalidate(op.key); got != (i >= 0) {
				t.Fatalf("seed %d step %d: Invalidate(%s) = %v, model has it: %v", seed, step, op.key, got, i >= 0)
			}
			if i >= 0 {
				want = append(want[:i:i], want[i+1:]...)
			}
		case op.kind == 7:
			kept := want[:0:0]
			for _, e := range want {
				if !strings.HasPrefix(e.key, op.prefix) {
					kept = append(kept, e)
				}
			}
			if got := c.invalidateMatching(func(k string) bool { return strings.HasPrefix(k, op.prefix) }); got != len(want)-len(kept) {
				t.Fatalf("seed %d step %d: InvalidateMatching(%s*) removed %d, want %d", seed, step, op.prefix, got, len(want)-len(kept))
			}
			want = kept
		default:
			c.clear()
			want = nil
		}

		s := c.stats()
		if err := checkAccounting(s); err != nil {
			t.Fatalf("seed %d step %d (op %+v): %v", seed, step, op, err)
		}
		if s.hits != hits || s.misses != misses {
			t.Fatalf("seed %d step %d: hits/misses %d/%d, model %d/%d", seed, step, s.hits, s.misses, hits, misses)
		}
		if fmt.Sprint(s.entries) != fmt.Sprint(want) {
			t.Fatalf("seed %d step %d (op %+v): entries %+v, model %+v", seed, step, op, s.entries, want)
		}
	}
}

// runModelConcurrent applies random operations from several goroutines at
// once while a checker asserts the accounting invariant on every snapshot.
// Once the workers finish nothing may still be building.
func runModelConcurrent(t *testing.T, c *modelCache, seed uint64, workers, steps int) {
	t.Helper()
	done := make(chan struct{})
	checked := make(chan error, 1)
	go func() {
		for {
			if err := checkAccounting(c.stats()); err != nil {
				checked <- err
				return
			}
			select {
			case <-done:
				checked <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, uint64(w)+1))
			for step := 0; step < steps; step++ {
				op := randomOp(r, len(c.sizes), c.invalidateMatching != nil)
				switch {
				case op.kind < 6:
					// A waiter on failing work may see that failure or, for
					// the result cache, retry into a success: no error check.
					_, _ = c.get(op.key, op.size, op.outcome)
				case op.kind == 6:
					c.invalidate(op.key)
				case op.kind == 7:
					c.invalidateMatching(func(k string) bool { return strings.HasPrefix(k, op.prefix) })
				default:
					c.clear()
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if err := <-checked; err != nil {
		t.Fatalf("seed %d: concurrent: %v", seed, err)
	}
	s := c.stats()
	if err := checkAccounting(s); err != nil {
		t.Fatalf("seed %d: after concurrent phase: %v", seed, err)
	}
	for _, e := range s.entries {
		if e.building {
			t.Fatalf("seed %d: entry %s still building after every lookup returned", seed, e.key)
		}
	}
}

func TestCacheAccountingModel(t *testing.T) {
	const budget = 10000
	for seed := uint64(1); seed <= 8; seed++ {
		runModelSequential(t, newGraphModelCache(t, budget), seed, 400)
		runModelConcurrent(t, newGraphModelCache(t, budget), seed, 4, 200)
	}
}

func TestResultCacheAccountingModel(t *testing.T) {
	const budget = 12000
	for seed := uint64(1); seed <= 8; seed++ {
		runModelSequential(t, newResultModelCache(budget), seed, 400)
		runModelConcurrent(t, newResultModelCache(budget), seed, 4, 200)
	}
}
