package prims

import (
	"math/bits"

	"repro/internal/parallel"
)

// The radix sorts below are parallel LSD counting sorts with 8-bit digits,
// modeled on the PBBS radix sort the paper's histogram builds on: each pass
// counts digit occurrences per block, computes per-(digit, block) offsets
// with a scan in digit-major order (which makes the pass stable), and
// scatters. Sorting k bits costs ceil(k/8) passes of O(n) work each.

const radixBits = 8
const radixBuckets = 1 << radixBits

// RadixSortU64 sorts a in place by its low `bitsWanted` bits (pass 64 for a
// full sort). Stable across passes, deterministic, parallel.
func RadixSortU64(s *parallel.Scheduler, a []uint64, bitsWanted int) {
	n := len(a)
	if n <= 1 {
		return
	}
	if bitsWanted <= 0 || bitsWanted > 64 {
		bitsWanted = 64
	}
	if n < 256 {
		insertionSortMasked(a, bitsWanted)
		return
	}
	passes := (bitsWanted + radixBits - 1) / radixBits
	buf := make([]uint64, n)
	src, dst := a, buf
	if n < 16384 {
		// Mid-size inputs sort sequentially: a counting-sort pass is ~4n
		// memory ops and parallel dispatch would dominate (round-based
		// algorithms like k-core sort one small batch per round).
		for p := 0; p < passes; p++ {
			radixPassSeq(src, dst, uint(p*radixBits))
			src, dst = dst, src
		}
	} else {
		for p := 0; p < passes; p++ {
			radixPassU64(s, src, dst, uint(p*radixBits))
			src, dst = dst, src
		}
	}
	if passes%2 == 1 {
		copy(a, buf)
	}
}

func radixPassSeq(src, dst []uint64, shift uint) {
	var counts [radixBuckets]int
	for _, v := range src {
		counts[(v>>shift)&(radixBuckets-1)]++
	}
	total := 0
	for r := 0; r < radixBuckets; r++ {
		c := counts[r]
		counts[r] = total
		total += c
	}
	for _, v := range src {
		r := (v >> shift) & (radixBuckets - 1)
		dst[counts[r]] = v
		counts[r]++
	}
}

func insertionSortMasked(a []uint64, bitsWanted int) {
	mask := ^uint64(0)
	if bitsWanted < 64 {
		mask = (uint64(1) << uint(bitsWanted)) - 1
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		k := v & mask
		j := i - 1
		for j >= 0 && a[j]&mask > k {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func radixPassU64(s *parallel.Scheduler, src, dst []uint64, shift uint) {
	n := len(src)
	bounds := s.Blocks(n, 4096)
	nb := len(bounds) - 1
	counts := make([]int, nb*radixBuckets)
	s.ForBlocks(bounds, func(b, lo, hi int) {
		c := counts[b*radixBuckets : (b+1)*radixBuckets]
		for i := lo; i < hi; i++ {
			c[(src[i]>>shift)&(radixBuckets-1)]++
		}
	})
	// Digit-major scan: offsets for digit r precede digit r+1; within a
	// digit, earlier blocks precede later blocks, preserving stability.
	total := 0
	for r := 0; r < radixBuckets; r++ {
		for b := 0; b < nb; b++ {
			c := counts[b*radixBuckets+r]
			counts[b*radixBuckets+r] = total
			total += c
		}
	}
	s.ForBlocks(bounds, func(b, lo, hi int) {
		c := counts[b*radixBuckets : (b+1)*radixBuckets]
		for i := lo; i < hi; i++ {
			r := (src[i] >> shift) & (radixBuckets - 1)
			dst[c[r]] = src[i]
			c[r]++
		}
	})
}

// BitsFor returns the number of bits needed to represent values in [0, n].
func BitsFor(n uint64) int {
	if n == 0 {
		return 1
	}
	return bits.Len64(n)
}
