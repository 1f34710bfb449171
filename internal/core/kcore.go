package core

import (
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/bucket"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// KCore computes the coreness of every vertex (Algorithm 13, Julienne's
// work-efficient peeling): vertices live in buckets indexed by induced
// degree; each step peels the minimum bucket, counts the edges removed from
// each remaining neighbor with the work-efficient histogram (§5), and moves
// affected vertices to new buckets. Runs in O(m + n) expected work and
// O(ρ log n) depth w.h.p. on the FA-MT-RAM, where ρ is the graph's peeling
// complexity. Returns the coreness array and ρ (the number of peeling
// rounds, reported in Table 3).
//
// A round gathers the still-alive neighbors of the peeled vertices straight
// into one key array: it counts each peeled vertex's alive neighbors from
// its DecodeOut slice (a compressed graph decodes into per-worker buffers),
// scans the counts into offsets, and writes the neighbors at them. Sorting
// the keys and reducing equal runs is the histogram; each run applies one
// DecrementCoreness. The gather's offsets and keys and the list of moved
// vertices live in arrays reused across rounds.
//
// g must be symmetric.
func KCore(s *parallel.Scheduler, g graph.Graph) (coreness []uint32, rho int) {
	return kcore(s, g, true)
}

// KCoreFetchAndAdd is KCore using direct fetch-and-add counters instead of
// the histogram — the contended baseline of the paper's Table 6 ablation
// ("k-core (fetch-and-add)" vs "k-core (histogram)"). It shares KCore's
// neighbor gather.
func KCoreFetchAndAdd(s *parallel.Scheduler, g graph.Graph) (coreness []uint32, rho int) {
	return kcore(s, g, false)
}

// gatherEdges is the number of edges a block of the neighbor gather aims
// for: rounds with fewer edges run as one block, with no dispatch.
const gatherEdges = 4096

func kcore(s *parallel.Scheduler, g graph.Graph, useHistogram bool) ([]uint32, int) {
	n := g.N()
	deg := make([]uint32, n)
	finishedFlag := make([]bool, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = uint32(g.OutDeg(uint32(v)))
		}
	})
	b := bucket.New(s, n, bucket.Increasing, 0, func(v uint32) uint32 {
		if finishedFlag[v] {
			return bucket.Nil
		}
		return atomic.LoadUint32(&deg[v])
	})
	keyBits := prims.BitsFor(uint64(max(n, 1) - 1)) // keys are vertex IDs < n
	// Scratch for the fetch-and-add variant.
	var faDelta []uint32
	var faTouched []uint32
	if !useHistogram {
		faDelta = make([]uint32, n)
		faTouched = make([]uint32, n)
	}
	// Decode buffers, one per worker: a block takes one and puts it back.
	bufs := make(chan []uint32, s.Workers())
	for range cap(bufs) {
		bufs <- nil
	}
	finished := 0
	rounds := 0
	// Scratch reused across the ρ peeling rounds.
	var offsets []int64
	var keys []uint64
	var mv movedPacker
	for finished < n {
		s.Poll()
		k, ids := b.NextBucket()
		if k == bucket.Nil {
			break
		}
		rounds++
		finished += len(ids)
		var edges atomic.Int64
		s.ForRange(len(ids), 0, func(lo, hi int) {
			d := 0
			for _, v := range ids[lo:hi] {
				finishedFlag[v] = true
				deg[v] = k // coreness value
				d += g.OutDeg(v)
			}
			edges.Add(int64(d))
		})
		grain := len(ids)
		if e := int(edges.Load()); e > gatherEdges {
			grain = max(1, len(ids)*gatherEdges/e)
		}
		// Gather the alive neighbors of the peeled vertices: count, scan,
		// then write them at their offsets.
		offsets = grow(offsets, len(ids))
		s.ForRange(len(ids), grain, func(lo, hi int) {
			buf := <-bufs
			for i := lo; i < hi; i++ {
				buf = g.DecodeOut(ids[i], buf)
				c := int64(0)
				for _, u := range buf {
					if !finishedFlag[u] {
						c++
					}
				}
				offsets[i] = c
			}
			bufs <- buf
		})
		total := prims.Scan(s, offsets, offsets)
		keys = grow(keys, int(total))
		s.ForRange(len(ids), grain, func(lo, hi int) {
			buf := <-bufs
			for i := lo; i < hi; i++ {
				buf = g.DecodeOut(ids[i], buf)
				o := offsets[i]
				for _, u := range buf {
					if !finishedFlag[u] {
						keys[o] = uint64(u)
						o++
					}
				}
			}
			bufs <- buf
		})
		var moved []uint32
		if useHistogram {
			// Work-efficient histogram: sort the keys and reduce each run
			// of equal keys into one counter touch, with no contention
			// (§5). A block handles the runs that start in it.
			prims.RadixSortU64(s, keys, keyBits)
			moved = mv.pack(s, len(keys), func(lo, hi int, out []uint32) int {
				m := 0
				i := lo
				for i > 0 && i < hi && keys[i] == keys[lo-1] {
					i++ // the run continues from the previous block
				}
				for i < hi {
					j := i + 1
					for j < len(keys) && keys[j] == keys[i] {
						j++
					}
					if u := uint32(keys[i]); decrementCoreness(deg, u, uint32(j-i), k) {
						out[m] = u
						m++
					}
					i = j
				}
				return m
			})
		} else {
			// Contended baseline: fetch-and-add a per-vertex counter.
			var cnt atomic.Int64
			s.ForRange(len(keys), 2048, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					u := uint32(keys[i])
					if atomics.FetchAndAdd32(&faDelta[u], 1) == 0 {
						faTouched[cnt.Add(1)-1] = u
					}
				}
			})
			touched := faTouched[:cnt.Load()]
			moved = mv.pack(s, len(touched), func(lo, hi int, out []uint32) int {
				m := 0
				for _, u := range touched[lo:hi] {
					d := faDelta[u]
					faDelta[u] = 0
					if decrementCoreness(deg, u, d, k) {
						out[m] = u
						m++
					}
				}
				return m
			})
		}
		b.Update(moved)
	}
	return deg, rounds
}

// movedPacker collects the vertices whose bucket changed in a peeling
// round. Applying a decrement has a side effect, so it must run exactly
// once per vertex: each block writes its moved vertices into its own region
// of a scratch array, and a second pass packs the regions in block order.
// The arrays are reused across rounds.
type movedPacker struct {
	region, moved []uint32
	counts        []int
}

// pack runs apply over the blocks of [0, n); apply writes the moved
// vertices of [lo, hi) into out, which has room for hi-lo, and returns how
// many it wrote. pack returns the moved vertices of all blocks, valid until
// the next call.
func (p *movedPacker) pack(s *parallel.Scheduler, n int, apply func(lo, hi int, out []uint32) int) []uint32 {
	bounds := s.Blocks(n, 0)
	nb := len(bounds) - 1
	p.region = grow(p.region, n)
	p.counts = grow(p.counts, nb)
	s.ForBlocks(bounds, func(blk, lo, hi int) {
		p.counts[blk] = apply(lo, hi, p.region[lo:hi])
	})
	total := prims.Scan(s, p.counts, p.counts)
	p.moved = grow(p.moved, total)
	s.ForBlocks(bounds, func(blk, lo, hi int) {
		end := total
		if blk+1 < nb {
			end = p.counts[blk+1]
		}
		copy(p.moved[p.counts[blk]:end], p.region[lo:])
	})
	return p.moved
}

// grow returns buf resized to n, reallocating only when its capacity is
// short; the contents are not preserved.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// decrementCoreness applies Algorithm 13's DecrementCoreness: reduce v's
// induced degree by removed edges, clamped below at the current core k.
// Reports whether v's bucket changed.
func decrementCoreness(deg []uint32, v, removed, k uint32) bool {
	induced := deg[v]
	if induced <= k {
		return false
	}
	newDeg := k
	if induced-removed > k {
		newDeg = induced - removed
	}
	deg[v] = newDeg
	return newDeg != induced
}

// Degeneracy returns k_max, the largest non-empty core, from a coreness
// array.
func Degeneracy(s *parallel.Scheduler, coreness []uint32) int {
	if len(coreness) == 0 {
		return 0
	}
	return int(prims.Max(s, coreness))
}
