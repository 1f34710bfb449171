package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestLimiterAccounting(t *testing.T) {
	l := NewLimiter(8, nil)
	if l.Capacity() != 8 || l.InUse() != 0 {
		t.Fatalf("fresh limiter: capacity=%d inUse=%d", l.Capacity(), l.InUse())
	}
	if err := l.Acquire(context.Background(), DefaultTenant, 5); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background(), "other", 3); err != nil {
		t.Fatal(err)
	}
	if got := l.InUse(); got != 8 {
		t.Fatalf("inUse = %d, want 8", got)
	}
	l.Release(DefaultTenant, 5)
	l.Release("other", 3)
	if got := l.InUse(); got != 0 {
		t.Fatalf("inUse after release = %d, want 0", got)
	}
}

func TestLimiterRejectsOversizedRequest(t *testing.T) {
	l := NewLimiter(4, nil)
	if err := l.Acquire(context.Background(), DefaultTenant, 5); err == nil {
		t.Fatal("Acquire beyond capacity should fail immediately")
	}
}

func TestLimiterBlocksUntilRelease(t *testing.T) {
	l := NewLimiter(4, nil)
	if err := l.Acquire(context.Background(), DefaultTenant, 3); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := l.Acquire(context.Background(), DefaultTenant, 3); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second Acquire(3) should block at capacity 4")
	case <-time.After(50 * time.Millisecond):
	}
	l.Release(DefaultTenant, 3)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("waiter not admitted after Release")
	}
	l.Release(DefaultTenant, 3)
}

func TestLimiterCancelWhileWaiting(t *testing.T) {
	l := NewLimiter(2, nil)
	if err := l.Acquire(context.Background(), DefaultTenant, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx, DefaultTenant, 1); err != context.DeadlineExceeded {
		t.Fatalf("cancelled Acquire = %v, want DeadlineExceeded", err)
	}
	l.Release(DefaultTenant, 2)
	// The cancelled waiter must not have leaked units.
	if err := l.Acquire(context.Background(), DefaultTenant, 2); err != nil {
		t.Fatal(err)
	}
	l.Release(DefaultTenant, 2)
	if got := l.InUse(); got != 0 {
		t.Fatalf("inUse = %d, want 0", got)
	}
}

func TestLimiterFIFOWithinTenant(t *testing.T) {
	l := NewLimiter(4, nil)
	if err := l.Acquire(context.Background(), DefaultTenant, 4); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Acquire(context.Background(), DefaultTenant, 4); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Release(DefaultTenant, 4)
		}(i)
		// Start the next waiter only once this one is queued, so the queue
		// order is deterministic however the goroutines are scheduled.
		for l.Queued(DefaultTenant) < i+1 {
			runtime.Gosched()
		}
	}
	l.Release(DefaultTenant, 4)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order = %v, want FIFO [0 1 2]", order)
		}
	}
}

func TestLimiterCancelledHeadAdmitsSmallerWaiters(t *testing.T) {
	l := NewLimiter(4, nil)
	if err := l.Acquire(context.Background(), DefaultTenant, 2); err != nil {
		t.Fatal(err)
	}
	// Head waiter wants the whole budget and cannot fit; a smaller waiter
	// that would fit queues behind it.
	headCtx, cancelHead := context.WithCancel(context.Background())
	headBlocked := make(chan error, 1)
	go func() { headBlocked <- l.Acquire(headCtx, DefaultTenant, 4) }()
	time.Sleep(20 * time.Millisecond) // let the head enqueue first
	smallDone := make(chan error, 1)
	go func() { smallDone <- l.Acquire(context.Background(), DefaultTenant, 2) }()
	select {
	case err := <-smallDone:
		t.Fatalf("small waiter admitted past the fair-order head: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Cancelling the head must admit the small waiter without any Release.
	cancelHead()
	if err := <-headBlocked; err != context.Canceled {
		t.Fatalf("head waiter err = %v", err)
	}
	select {
	case err := <-smallDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("small waiter not admitted after the blocking head cancelled")
	}
	l.Release(DefaultTenant, 2)
	l.Release(DefaultTenant, 2)
	if got := l.InUse(); got != 0 {
		t.Fatalf("inUse = %d, want 0", got)
	}
}

func TestLimiterConcurrentChurn(t *testing.T) {
	l := NewLimiter(4, map[string]int{"t1": 3})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%3)
			n := 1 + i%4
			if err := l.Acquire(context.Background(), tenant, n); err != nil {
				t.Error(err)
				return
			}
			if got := l.InUse(); got > l.Capacity() {
				t.Errorf("inUse %d exceeds capacity %d", got, l.Capacity())
			}
			l.Release(tenant, n)
		}(i)
	}
	wg.Wait()
	if got := l.InUse(); got != 0 {
		t.Fatalf("inUse after churn = %d, want 0", got)
	}
}

func TestLimiterWeightLookup(t *testing.T) {
	l := NewLimiter(4, map[string]int{"gold": 10, "zeroed": 0, "negative": -3})
	if got := l.Weight("gold"); got != 10 {
		t.Fatalf("Weight(gold) = %d, want 10", got)
	}
	for _, tenant := range []string{"zeroed", "negative", "unconfigured", DefaultTenant} {
		if got := l.Weight(tenant); got != 1 {
			t.Fatalf("Weight(%s) = %d, want 1 (non-positive and absent weights default)", tenant, got)
		}
	}
}

// enqueueWaiters queues count single-thread waiters for the tenant and spins
// (no sleeps — Queued is the synchronization point) until all are enqueued.
// Each admitted waiter appends its tenant to order under mu and releases its
// grant immediately, so admissions are strictly sequential and the recorded
// order is the limiter's deterministic fair order.
func enqueueWaiters(t *testing.T, l *Limiter, tenant string, count int, mu *sync.Mutex, order *[]string, wg *sync.WaitGroup) {
	t.Helper()
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Acquire(context.Background(), tenant, 1); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			*order = append(*order, tenant)
			mu.Unlock()
			l.Release(tenant, 1)
		}()
	}
	for l.Queued(tenant) < count {
		runtime.Gosched()
	}
}

// runFairnessTrial fills a capacity-1 limiter with a seed grant, queues
// perTenant waiters for each tenant in the given order, then releases the
// seed and returns the deterministic admission order.
func runFairnessTrial(t *testing.T, weights map[string]int, tenants []string, perTenant int) []string {
	t.Helper()
	l := NewLimiter(1, weights)
	l.now = func() time.Time { return time.Unix(0, 0) } // fake clock: no wall time in the trial
	if err := l.Acquire(context.Background(), "seed", 1); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	for _, tenant := range tenants {
		enqueueWaiters(t, l, tenant, perTenant, &mu, &order, &wg)
	}
	l.Release("seed", 1) // start the admission cascade
	wg.Wait()
	if got := l.InUse(); got != 0 {
		t.Fatalf("inUse after trial = %d, want 0", got)
	}
	return order
}

// TestLimiterWeightedFairness is the weighted-fairness property test: for
// weight ratios 1:1, 3:1 and 10:1, over 100 admissions per tenant, every
// prefix of the admission order must award tenant a its weighted share
// within ±1 slot. Deterministic — fake clock, no sleeps: waiters enqueue
// before any admission happens and each admission is strictly sequential.
func TestLimiterWeightedFairness(t *testing.T) {
	const perTenant = 100
	for _, tc := range []struct{ wa, wb int }{{1, 1}, {3, 1}, {10, 1}} {
		t.Run(fmt.Sprintf("%d:%d", tc.wa, tc.wb), func(t *testing.T) {
			weights := map[string]int{"a": tc.wa, "b": tc.wb}
			order := runFairnessTrial(t, weights, []string{"a", "b"}, perTenant)
			if len(order) != 2*perTenant {
				t.Fatalf("admissions = %d, want %d", len(order), 2*perTenant)
			}
			counts := map[string]int{}
			total := tc.wa + tc.wb
			for k, tenant := range order {
				counts[tenant]++
				// While both tenants remain backlogged, tenant a's share of the
				// first k+1 admissions is (k+1)·wa/(wa+wb) within one slot.
				// After one tenant drains (k ≥ total·perTenant/max-weight
				// share), the remainder is all the other tenant, so only check
				// the contended prefix.
				if counts["a"] < perTenant && counts["b"] < perTenant {
					ideal := float64(k+1) * float64(tc.wa) / float64(total)
					if diff := float64(counts["a"]) - ideal; diff > 1.0001 || diff < -1.0001 {
						t.Fatalf("after %d admissions: tenant a got %d, ideal %.2f (>±1 slot)", k+1, counts["a"], ideal)
					}
				}
			}
			if counts["a"] != perTenant || counts["b"] != perTenant {
				t.Fatalf("final counts = %v, want %d each", counts, perTenant)
			}
		})
	}
}

// TestLimiterStarvationRegression: one tenant enqueues 50 jobs before
// another tenant's first. The late tenant must be admitted within a bounded
// number of slots (it joins at the current virtual time, so it is next or
// next-after in fair order) — not after the 50-deep backlog drains.
func TestLimiterStarvationRegression(t *testing.T) {
	l := NewLimiter(1, nil)
	l.now = func() time.Time { return time.Unix(0, 0) }
	if err := l.Acquire(context.Background(), "seed", 1); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	enqueueWaiters(t, l, "hog", 50, &mu, &order, &wg)
	enqueueWaiters(t, l, "late", 1, &mu, &order, &wg)
	l.Release("seed", 1)
	wg.Wait()
	if len(order) != 51 {
		t.Fatalf("admissions = %d, want 51", len(order))
	}
	slot := -1
	for i, tenant := range order {
		if tenant == "late" {
			slot = i
			break
		}
	}
	// Equal weights: the late tenant activates at the current vtime and must
	// interleave immediately — within the first 3 admissions, not after the
	// hog's 50.
	if slot < 0 || slot > 2 {
		t.Fatalf("late tenant admitted at slot %d of %v..., want within the first 3", slot, order[:min(len(order), 6)])
	}
}

// TestLimiterIdleTenantGainsNoCredit: a tenant that sat idle through another
// tenant's admissions re-enters at the current virtual time — it does not
// cash in "credit" for the idle period by being admitted many times in a row.
func TestLimiterIdleTenantGainsNoCredit(t *testing.T) {
	l := NewLimiter(1, nil)
	l.now = func() time.Time { return time.Unix(0, 0) }
	// Tenant a runs 20 uncontended admissions while b idles.
	for i := 0; i < 20; i++ {
		if err := l.Acquire(context.Background(), "a", 1); err != nil {
			t.Fatal(err)
		}
		l.Release("a", 1)
	}
	// Now both tenants contend; b must not get a 20-admission burst.
	if err := l.Acquire(context.Background(), "seed", 1); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	enqueueWaiters(t, l, "b", 20, &mu, &order, &wg)
	enqueueWaiters(t, l, "a", 20, &mu, &order, &wg)
	l.Release("seed", 1)
	wg.Wait()
	counts := map[string]int{}
	for k, tenant := range order {
		counts[tenant]++
		if counts["a"] < 20 && counts["b"] < 20 {
			if diff := counts["a"] - counts["b"]; diff > 1 || diff < -1 {
				t.Fatalf("after %d admissions counts diverged: %v (idle credit leaked)", k+1, counts)
			}
		}
	}
}

func TestLimiterTenantStats(t *testing.T) {
	base := time.Unix(1000, 0)
	l := NewLimiter(2, map[string]int{"gold": 3})
	l.now = func() time.Time { return base }
	if err := l.Acquire(context.Background(), "gold", 2); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- l.Acquire(context.Background(), "bronze", 1) }()
	for l.Queued("bronze") < 1 {
		runtime.Gosched()
	}
	l.now = func() time.Time { return base.Add(250 * time.Millisecond) }
	stats := l.TenantStats()
	if len(stats) != 2 {
		t.Fatalf("TenantStats = %+v, want 2 tenants", stats)
	}
	// Sorted by name: bronze first.
	if stats[0].Tenant != "bronze" || stats[0].Queued != 1 || stats[0].Weight != 1 {
		t.Fatalf("bronze stats = %+v", stats[0])
	}
	if stats[0].OldestWaitMS != 250 {
		t.Fatalf("bronze OldestWaitMS = %d, want 250", stats[0].OldestWaitMS)
	}
	if stats[1].Tenant != "gold" || stats[1].InUse != 2 || stats[1].Weight != 3 || stats[1].Admitted != 1 {
		t.Fatalf("gold stats = %+v", stats[1])
	}
	l.Release("gold", 2)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	l.Release("bronze", 1)
	if got := l.InUse(); got != 0 {
		t.Fatalf("inUse = %d, want 0", got)
	}
}

func TestLimiterCleanupBoundsTenantMap(t *testing.T) {
	l := NewLimiter(4, nil)
	for i := 0; i < 100; i++ {
		tenant := fmt.Sprintf("ephemeral-%d", i)
		if err := l.Acquire(context.Background(), tenant, 1); err != nil {
			t.Fatal(err)
		}
		l.Release(tenant, 1)
	}
	l.mu.Lock()
	n := len(l.tenants)
	l.mu.Unlock()
	if n > 1 {
		t.Fatalf("tenant map holds %d idle tenants, want them garbage-collected", n)
	}
}
