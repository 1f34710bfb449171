package bucket

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/xrand"
)

// modelRun drives one seeded sequence of New/Update/NextBucket calls on s
// and checks every extraction against a reference map from identifier to
// processing tick. It returns the NextBucket outputs in order (bucket ID,
// then the identifiers as returned) so callers can compare runs across
// schedulers.
//
// Identifiers follow the two update patterns the structure's callers use:
// "peel" identifiers (k-core, wBFS) only move toward the processing point
// while filed, possibly behind it (clamped into the bucket being drained),
// or to Nil for good; "cover" identifiers (set cover) are never moved while
// filed but may be filed again after extraction, at the bucket being
// drained or later. Initial and refiled buckets reach several 128-slot
// windows past the processing point, so identifiers pass through the
// overflow. Update batches repeat identifiers and include no-op updates.
func modelRun(t *testing.T, s *parallel.Scheduler, order Order, seed uint64) []uint32 {
	t.Helper()
	const (
		n       = 3000
		maxTick = 1200
		maxBkt  = uint32(maxTick)
	)
	bucketOf := func(tick int) uint32 {
		if order == Increasing {
			return uint32(tick)
		}
		return maxBkt - uint32(tick)
	}
	rng := xrand.New(seed)
	want := make([]uint32, n) // the bucket function's current values
	cover := make([]bool, n)
	refiles := make([]int, n)
	model := map[uint32]int{} // filed identifier -> desired tick
	for i := range want {
		cover[i] = rng.Intn(3) == 0
		refiles[i] = 3
		want[i] = Nil
		if rng.Intn(10) != 0 {
			tick := rng.Intn(700)
			want[i] = bucketOf(tick)
			model[uint32(i)] = tick
		}
	}
	b := New(s, n, order, maxBkt, func(i uint32) uint32 { return want[i] })
	proc := 0 // tick of the last extracted bucket: the processing point
	var out []uint32
	randomUpdates := func(size int) {
		var batch []uint32
		for range size {
			id := uint32(rng.Intn(n))
			tick, filed := model[id]
			switch {
			case filed && cover[id]:
				// No-op update of a filed cover identifier.
			case filed:
				if rng.Intn(8) == 0 {
					want[id] = Nil
					delete(model, id)
					break
				}
				eff := max(tick, proc)
				nt := max(proc-5, 0) + rng.Intn(eff-max(proc-5, 0)+1)
				want[id] = bucketOf(nt)
				model[id] = nt
			case cover[id] && refiles[id] > 0:
				refiles[id]--
				if rng.Intn(6) == 0 {
					break // refile to Nil: stays out
				}
				nt := proc + rng.Intn(min(300, maxTick-proc)+1)
				want[id] = bucketOf(nt)
				model[id] = nt
			default:
				continue
			}
			batch = append(batch, id)
			if rng.Intn(4) == 0 {
				batch = append(batch, id) // repeated identifier
			}
		}
		// Shuffle so repeated copies land in different blocks.
		for i := len(batch) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			batch[i], batch[j] = batch[j], batch[i]
		}
		b.Update(batch)
	}
	randomUpdates(200)
	for step := 0; ; step++ {
		// Reference: the smallest effective tick and its identifiers.
		minTick := -1
		var expect []uint32
		for id, tick := range model {
			eff := max(tick, proc)
			switch {
			case minTick < 0 || eff < minTick:
				minTick, expect = eff, []uint32{id}
			case eff == minTick:
				expect = append(expect, id)
			}
		}
		bkt, ids := b.NextBucket()
		if minTick < 0 {
			if bkt != Nil || ids != nil {
				t.Fatalf("step %d: model empty, NextBucket returned bucket %d with %d ids", step, bkt, len(ids))
			}
			return out
		}
		if bkt != bucketOf(minTick) {
			t.Fatalf("step %d: NextBucket returned bucket %d, model expects %d", step, bkt, bucketOf(minTick))
		}
		got := slices.Clone(ids)
		slices.Sort(got)
		slices.Sort(expect)
		if !slices.Equal(got, expect) {
			t.Fatalf("step %d bucket %d: extracted %d ids %v, model expects %d ids %v", step, bkt, len(got), got, len(expect), expect)
		}
		out = append(out, bkt, uint32(len(ids)))
		out = append(out, ids...)
		proc = minTick
		for _, id := range ids {
			delete(model, id)
			want[id] = Nil
		}
		size := rng.Intn(40)
		if step%50 == 49 {
			size = 6000 // several filing blocks
		}
		randomUpdates(size)
	}
}

// TestBucketModel checks the structure against a reference map on seeded
// random New/Update/NextBucket sequences in both orders, and checks that the
// extraction sequence, including the order of identifiers inside each
// bucket, is the same on 1, 2 and 4 workers and on a grain-1 scheduler.
func TestBucketModel(t *testing.T) {
	scheds := []struct {
		name string
		s    *parallel.Scheduler
	}{
		{"p=1", parallel.New(1)},
		{"p=2", parallel.New(2)},
		{"p=4", parallel.New(4)},
		{"p=2,grain=1", parallel.NewWithGrain(2, 1)},
	}
	for _, order := range []Order{Increasing, Decreasing} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("order=%d/seed=%d", order, seed), func(t *testing.T) {
				ref := modelRun(t, scheds[0].s, order, seed)
				for _, sc := range scheds[1:] {
					got := modelRun(t, sc.s, order, seed)
					if !slices.Equal(got, ref) {
						t.Fatalf("%s: NextBucket sequence differs from %s", sc.name, scheds[0].name)
					}
				}
			})
		}
	}
}
