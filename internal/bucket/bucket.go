// Package bucket implements Julienne's bucketing structure (Dhulipala,
// Blelloch, Shun, SPAA 2017), the substrate under the paper's wBFS, k-core
// and approximate set cover implementations. It maintains a dynamic mapping
// from identifiers to buckets, supports extracting the next non-empty bucket
// in priority order, and moves identifiers between buckets in bulk.
//
// The structure is lazy: bucket arrays may hold stale entries (an identifier
// that has since moved); staleness is detected on extraction by comparing
// against the identifier's current bucket. A bounded window of "open"
// buckets is materialized; identifiers destined further away wait in an
// overflow bucket that is re-bucketed when the window advances past it.
//
// As in Julienne, callers keep each identifier's bucket moving toward the
// bucket being processed while it is filed (or move it to Nil); an
// identifier extracted by NextBucket may be filed again anywhere at or after
// the processing point. Re-filing an identifier into a bucket that still
// holds a stale entry for it would extract it twice. wBFS and k-core only
// lower distances and degrees; set cover refiles a set only after
// extracting it.
package bucket

import (
	"slices"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/prims"
)

// Nil marks "no bucket": identifiers mapped to Nil by the bucket function
// are not tracked (e.g. unreached vertices in wBFS, peeled vertices in
// k-core).
const Nil = ^uint32(0)

// numOpen is the size of the window of open buckets; identifiers filed
// further ahead wait in the overflow bucket.
const numOpen = 128

// fileGrain is the block size of the filing passes. Each block keeps one
// counter per destination (numOpen open buckets plus the overflow), so the
// blocks must be large next to that.
const fileGrain = 2048

// claimed marks, in an entry of cur, a tick claimed by the file call in
// progress; the call clears it before returning.
const claimed = uint64(1) << 32

// Order selects processing order.
type Order int

const (
	// Increasing processes bucket 0, 1, 2, ... (wBFS, k-core).
	Increasing Order = iota
	// Decreasing processes the largest bucket first (set cover).
	Decreasing
)

// Buckets is the bucketing structure over identifiers [0, n).
type Buckets struct {
	sched  *parallel.Scheduler
	order  Order
	maxBkt uint32              // inclusive bound on bucket IDs (used for Decreasing)
	fn     func(uint32) uint32 // current desired bucket of an identifier
	// cur[id] holds, in its low 32 bits, the tick of the bucket id was last
	// filed under (Nil = not filed), plus the claimed bit while a file call
	// is inserting id. Every access is atomic: filing runs in parallel.
	cur []atomic.Uint64
	// open[j] holds ids filed at tick base+j; open[numOpen] is the
	// overflow, holding ids filed at ticks past the window.
	open [numOpen + 1][]uint32
	base uint32 // tick of open[0]
	iter int    // next open slot to inspect
	// Scratch reused by file: each input position's destination slot, and
	// the per-block destination counts.
	dest   []uint8
	counts []int
}

// Destination codes in Buckets.dest besides the slot numbers 0..numOpen.
const (
	skip = 0xff // nothing to file: Nil, already filed, or a later copy
	lost = 0xfe // a copy of an id another copy claimed in this call
)

// New builds the structure over n identifiers on scheduler s with the given
// processing order and bucket function fn (fn(i) == Nil files identifier i
// nowhere). maxBkt is an inclusive upper bound on bucket IDs fn can return;
// it is required for Decreasing order and advisory otherwise. fn may be
// called concurrently.
func New(s *parallel.Scheduler, n int, order Order, maxBkt uint32, fn func(uint32) uint32) *Buckets {
	b := &Buckets{
		sched:  s,
		order:  order,
		maxBkt: maxBkt,
		fn:     fn,
		cur:    make([]atomic.Uint64, n),
	}
	ids := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ids[i] = uint32(i)
			b.cur[i].Store(uint64(Nil))
		}
	})
	b.file(ids)
	return b
}

// tick maps a bucket ID to the monotone processing order: identity for
// Increasing, reversed against maxBkt for Decreasing.
func (b *Buckets) tick(bkt uint32) uint32 {
	if b.order == Increasing {
		return bkt
	}
	if bkt > b.maxBkt {
		bkt = b.maxBkt
	}
	return b.maxBkt - bkt
}

// bucketOf converts a tick back to the caller's bucket ID.
func (b *Buckets) bucketOf(tick uint32) uint32 {
	if b.order == Increasing {
		return tick
	}
	return b.maxBkt - tick
}

// slotOf returns the open slot of a tick in the current window, or numOpen
// for the overflow.
func (b *Buckets) slotOf(t uint32) uint8 {
	return uint8(min(t-b.base, numOpen))
}

// file files each id at the tick of its bucket under fn, appending it to an
// open bucket or the overflow and recording the tick in cur; ids whose fn
// is Nil are marked unfiled. Ticks before the current window are clamped
// into the bucket being processed, preserving the monotone processing
// contract. An id already filed at its destination tick is skipped, and a
// repeated id is filed once, at the position of its first copy, so the
// result does not depend on the schedule.
//
// It runs in two parallel passes over blocks of ids. The first computes each
// id's destination and claims cur[id] with a CAS, counting the claims per
// block and destination. A scan of the counts, in destination-major order,
// then gives every block its offsets in each destination, and the second
// pass scatters the ids straight into the bucket arrays: a stable counting
// sort on the destination, so each bucket receives ids in input order. If
// the first pass saw a repeated id, a sequential pass between the two hands
// every claim to the first copy.
func (b *Buckets) file(ids []uint32) {
	if len(ids) == 0 {
		return
	}
	const slots = numOpen + 1
	bounds := b.sched.Blocks(len(ids), fileGrain)
	nb := len(bounds) - 1
	if cap(b.dest) < len(ids) {
		b.dest = make([]uint8, len(ids))
	}
	dest := b.dest[:len(ids)]
	b.counts = slices.Grow(b.counts[:0], nb*slots)[:nb*slots]
	counts := b.counts
	clear(counts)
	low := b.base + uint32(b.iter)
	var repeated atomic.Bool
	b.sched.ForBlocks(bounds, func(blk, lo, hi int) {
		c := counts[blk*slots : (blk+1)*slots]
		for i := lo; i < hi; i++ {
			id := ids[i]
			bkt := b.fn(id)
			if bkt == Nil {
				b.cur[id].Store(uint64(Nil))
				dest[i] = skip
				continue
			}
			t := max(b.tick(bkt), low)
			claim := claimed | uint64(t)
			for {
				old := b.cur[id].Load()
				if old == claim {
					dest[i] = lost
					repeated.Store(true)
					break
				}
				if old == uint64(t) {
					dest[i] = skip
					break
				}
				if b.cur[id].CompareAndSwap(old, claim) {
					slot := b.slotOf(t)
					dest[i] = slot
					c[slot]++
					break
				}
			}
		}
	})
	if repeated.Load() {
		// Reassign each claim to the id's first copy in input order.
		clear(counts)
		for blk := 0; blk < nb; blk++ {
			c := counts[blk*slots : (blk+1)*slots]
			for i := bounds[blk]; i < bounds[blk+1]; i++ {
				if dest[i] == skip {
					continue
				}
				id := ids[i]
				e := b.cur[id].Load()
				if e&claimed == 0 {
					dest[i] = skip // a later copy
					continue
				}
				b.cur[id].Store(e &^ claimed)
				slot := b.slotOf(uint32(e))
				dest[i] = slot
				c[slot]++
			}
		}
	}
	// Destination-major scan: turn counts into each block's write offset in
	// each bucket array, and grow the arrays to their new lengths.
	for j := 0; j < slots; j++ {
		end := len(b.open[j])
		start := end
		for blk := 0; blk < nb; blk++ {
			k := blk*slots + j
			c := counts[k]
			counts[k] = end
			end += c
		}
		if end > start {
			b.open[j] = slices.Grow(b.open[j], end-start)[:end]
		}
	}
	b.sched.ForBlocks(bounds, func(blk, lo, hi int) {
		c := counts[blk*slots : (blk+1)*slots]
		for i := lo; i < hi; i++ {
			slot := dest[i]
			if slot == skip {
				continue
			}
			id := ids[i]
			b.open[slot][c[slot]] = id
			c[slot]++
			// Release the claim: only this copy writes cur[id] here.
			b.cur[id].Store(b.cur[id].Load() &^ claimed)
		}
	})
}

// NextBucket extracts the next non-empty bucket in processing order,
// returning its bucket ID and member identifiers; extracted identifiers are
// removed from the structure. It returns (Nil, nil) when no identifiers
// remain. Identifiers come out in the order they were filed into the
// bucket.
//
// The processing pointer does not advance past a bucket until the bucket is
// verified empty: identifiers refiled into the bucket being processed (e.g.
// k-core vertices whose degree is clamped to the current core number) are
// extracted by subsequent NextBucket calls at the same bucket ID, matching
// Julienne's semantics.
func (b *Buckets) NextBucket() (uint32, []uint32) {
	for {
		for b.iter < numOpen {
			slot := b.iter
			entries := b.open[slot]
			if len(entries) == 0 {
				b.iter++
				continue
			}
			tick := b.base + uint32(slot)
			live := prims.Filter(b.sched, entries, func(id uint32) bool {
				return uint32(b.cur[id].Load()) == tick
			})
			// The drained array backs later refiles into this slot.
			b.open[slot] = entries[:0]
			if len(live) == 0 {
				continue // slot drained of live entries; recheck before advancing
			}
			b.sched.ForRange(len(live), 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					b.cur[live[i]].Store(uint64(Nil))
				}
			})
			return b.bucketOf(tick), live
		}
		// Window exhausted: advance it over the overflow bucket.
		pending := b.open[numOpen]
		if len(pending) == 0 {
			return Nil, nil
		}
		b.base += numOpen
		b.iter = 0
		// Re-file only identifiers still claiming an overflow tick; mark
		// them unfiled first so file does not skip them (their only live
		// copy was just pulled out of the overflow array). Repeated copies
		// of one id in the overflow are filed once by file.
		live := prims.Filter(b.sched, pending, func(id uint32) bool {
			t := uint32(b.cur[id].Load())
			return t != Nil && t >= b.base
		})
		b.open[numOpen] = pending[:0]
		b.sched.ForRange(len(live), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				b.cur[live[i]].Store(uint64(Nil))
			}
		})
		b.file(live)
	}
}

// Update re-files the given identifiers according to the current bucket
// function (the paper's UpdateBuckets). Identifiers whose function now
// returns Nil are removed; identifiers extracted earlier stay removed unless
// the function maps them to a bucket again. ids may repeat and are not
// retained.
func (b *Buckets) Update(ids []uint32) {
	b.file(ids)
}
