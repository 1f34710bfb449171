package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// rmatDigest is the FNV-64a digest of an RMAT edge list's U column followed
// by its V column, each value little-endian.
func rmatDigest(s *parallel.Scheduler, scale, factor int, seed uint64) uint64 {
	el := RMAT(s, scale, factor, seed)
	h := fnv.New64a()
	var b [4]byte
	for _, col := range [][]uint32{el.U, el.V} {
		for _, x := range col {
			binary.LittleEndian.PutUint32(b[:], x)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestRMATGolden pins the generator's output: the benchmark inputs and every
// recorded figure depend on RMAT drawing exactly these edges, so a change to
// the quadrant selection must leave the digests as they are.
func TestRMATGolden(t *testing.T) {
	cases := []struct {
		scale, factor int
		seed          uint64
		want          uint64
	}{
		{10, 8, 1, 0xd2dbb925a365b071},
		{10, 8, 7, 0x7d0a2706fff96dca},
		{12, 4, 1, 0xce293d128b449a4a},
		{12, 4, 7, 0x14fdbd6616d27b49},
	}
	for _, p := range []int{1, 4} {
		s := parallel.New(p)
		for _, c := range cases {
			if got := rmatDigest(s, c.scale, c.factor, c.seed); got != c.want {
				t.Errorf("RMAT(%d, %d, seed %d) on p=%d: digest %#x, want %#x", c.scale, c.factor, c.seed, p, got, c.want)
			}
		}
		s.Close()
	}
}

// BenchmarkRMAT times drawing the suite's RMAT 16/8 edge list at one thread
// and at NumCPU.
func BenchmarkRMAT(b *testing.B) {
	for _, p := range []int{1, runtime.NumCPU()} {
		s := parallel.New(p)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for b.Loop() {
				RMAT(s, 16, 8, 1)
			}
		})
		s.Close()
	}
}
