package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/gbbs"
)

// Cache is the server's graph cache: built graphs keyed by their canonical
// (source, transforms) spec, so repeated requests against the same input
// skip Engine.Build entirely. Lookups are singleflight — concurrent requests
// for a key that is still building share the one in-flight build instead of
// each building their own copy — and completed entries are evicted least-
// recently-used once the cache's approximate byte footprint exceeds its
// budget.
//
// Builds run detached from any single request (under the context given to
// NewCache, typically the server's lifetime): a tenant whose deadline
// expires mid-build stops waiting, but the build completes and the graph
// stays cached for the next request. Each waiter observes its own context
// while waiting.
type Cache struct {
	budget   int64
	buildCtx context.Context

	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // of *cacheEntry, front = most recently used
	bytes   int64      // total approximate bytes of completed entries

	hits, misses, evictions int64
}

// cacheEntry is one cached (or in-flight) build. ready is closed when the
// build completes; graph/err/bytes/buildTime are immutable afterwards.
type cacheEntry struct {
	key   string
	ready chan struct{}

	graph     gbbs.Graph
	err       error
	bytes     int64
	buildTime time.Duration

	hits     int64
	lastUsed time.Time
	elem     *list.Element
}

// NewCache returns a cache evicting past approximately budget bytes.
// budget <= 0 disables caching entirely except for singleflight sharing of
// in-flight builds. Builds started by the cache run under buildCtx; cancel
// it (e.g. at server shutdown) to abort them.
func NewCache(buildCtx context.Context, budget int64) *Cache {
	if buildCtx == nil {
		buildCtx = context.Background()
	}
	return &Cache{
		budget:   budget,
		buildCtx: buildCtx,
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
	}
}

// GetOrBuild returns the graph cached under key, joining an in-flight build
// for the key if one is running, or starting build otherwise. The returned
// hit is false only for the caller that started the build. Waiting is
// bounded by ctx; the build itself is bounded only by the cache's build
// context, so a caller timing out does not abort the build for everyone
// else.
func (c *Cache) GetOrBuild(ctx context.Context, key string, build func(ctx context.Context) (gbbs.Graph, error)) (g gbbs.Graph, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.hits++
		e.lastUsed = time.Now()
		c.lru.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		g, err := e.wait(ctx)
		return g, true, err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{}), lastUsed: time.Now()}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	go c.runBuild(e, build)
	g, err = e.wait(ctx)
	return g, false, err
}

// runBuild executes one build and publishes the entry. A panicking build
// (a source handed absurd parameters, a buggy custom loader) is converted
// into the entry's error instead of crashing the daemon — this goroutine
// is detached, so an unrecovered panic here would take down every tenant.
// (Panics on the engine's worker goroutines are out of reach of this
// recover; the spec layer rejects the negative sizes that could cause
// them.)
func (c *Cache) runBuild(e *cacheEntry, build func(ctx context.Context) (gbbs.Graph, error)) {
	start := time.Now()
	g, err := func() (g gbbs.Graph, err error) {
		defer func() {
			if r := recover(); r != nil {
				g, err = nil, fmt.Errorf("serve: build panicked: %v", r)
			}
		}()
		return build(c.buildCtx)
	}()
	e.graph, e.err = g, err
	e.buildTime = time.Since(start)
	if g != nil {
		e.bytes = approxGraphBytes(g)
	}

	// Publish and account in one critical section: an entry that reads as
	// done always has its bytes counted, so Clear, Invalidate and eviction
	// never subtract bytes that were not added.
	c.mu.Lock()
	defer c.mu.Unlock()
	close(e.ready)
	if c.entries[e.key] != e {
		// This entry was removed while building (Clear), and the key may
		// since have been re-inserted by a newer request: account nothing,
		// and above all do not touch the newer entry's state.
		return
	}
	if err != nil {
		// Failed builds are not cached: drop the entry so the next request
		// for this key retries instead of replaying a possibly transient
		// error forever.
		c.removeLocked(e)
		return
	}
	c.bytes += e.bytes
	c.evictLocked()
}

// wait blocks until the entry's build completes or ctx is done.
func (e *cacheEntry) wait(ctx context.Context) (gbbs.Graph, error) {
	select {
	case <-e.ready:
		return e.graph, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// evictLocked evicts completed least-recently-used entries until the
// footprint fits the budget. In-flight entries are never evicted. An entry
// larger than the whole budget is evicted immediately after insertion —
// its waiters already hold the graph, it just is not retained.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget {
		victim := (*cacheEntry)(nil)
		for elem := c.lru.Back(); elem != nil; elem = elem.Prev() {
			e := elem.Value.(*cacheEntry)
			if e.done() {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
		c.evictions++
	}
}

// removeLocked unlinks an entry and reclaims its accounted bytes.
func (c *Cache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	if e.done() && e.err == nil {
		c.bytes -= e.bytes
	}
}

// done reports whether the entry's build has completed.
func (e *cacheEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// CacheStats is the snapshot GET /v1/cache returns.
type CacheStats struct {
	// BudgetBytes is the configured eviction budget.
	BudgetBytes int64 `json:"budget_bytes"`
	// SizeBytes is the approximate footprint of all completed entries.
	SizeBytes int64 `json:"size_bytes"`
	// Hits counts lookups that found an entry (completed or in-flight).
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to start a build.
	Misses int64 `json:"misses"`
	// Evictions counts entries evicted to fit the budget.
	Evictions int64 `json:"evictions"`
	// Entries lists the cached graphs, most recently used first.
	Entries []CacheEntryStats `json:"entries"`
}

// CacheEntryStats describes one cache entry in CacheStats.
type CacheEntryStats struct {
	// Spec is the canonical (source, transforms) key.
	Spec string `json:"spec"`
	// Bytes is the entry's approximate in-memory size (0 while building).
	Bytes int64 `json:"bytes"`
	// Hits counts lookups served by this entry since it was inserted.
	Hits int64 `json:"hits"`
	// BuildNS is the wall-clock build time in nanoseconds.
	BuildNS int64 `json:"build_ns"`
	// Building reports an in-flight build.
	Building bool `json:"building,omitempty"`
	// LastUsed is when the entry was last returned.
	LastUsed time.Time `json:"last_used"`
}

// Stats returns a consistent snapshot of the cache's counters and entries.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		BudgetBytes: c.budget,
		SizeBytes:   c.bytes,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Entries:     make([]CacheEntryStats, 0, c.lru.Len()),
	}
	for elem := c.lru.Front(); elem != nil; elem = elem.Next() {
		e := elem.Value.(*cacheEntry)
		done := e.done()
		es := CacheEntryStats{Spec: e.key, Hits: e.hits, Building: !done, LastUsed: e.lastUsed}
		if done {
			es.Bytes = e.bytes
			es.BuildNS = int64(e.buildTime)
		}
		s.Entries = append(s.Entries, es)
	}
	return s
}

// Invalidate removes the entry cached under exactly key, reporting whether
// one was present. An in-flight build keeps running and publishes to its
// waiters, but its result is not retained. Unlike Clear, unrelated entries
// are untouched — this is the precise invalidation the update path uses.
func (c *Cache) Invalidate(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.removeLocked(e)
	}
	return ok
}

// Clear empties the cache (in-flight builds keep running and publish to
// their waiters, but their results are not retained). Counters survive.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.removeLocked(e)
	}
}

// approxGraphBytes estimates a graph's resident size from its shape: for an
// uncompressed CSR, offsets (8B per vertex) plus neighbor IDs (4B per
// stored edge) plus weights (4B per edge when weighted), doubled for the
// CSC transpose of directed graphs; for the parallel-byte representation,
// the encoded payload plus the per-vertex degree and offset tables. It is
// an eviction heuristic, not an accounting guarantee.
func approxGraphBytes(g gbbs.Graph) int64 {
	n, m := int64(g.N()), int64(g.M())
	switch cg := g.(type) {
	case *gbbs.Compressed:
		return cg.SizeBytes() + 12*n
	default:
		bytes := 8*(n+1) + 4*m
		if g.Weighted() {
			bytes += 4 * m
		}
		if !g.Symmetric() {
			bytes *= 2
		}
		return bytes
	}
}
