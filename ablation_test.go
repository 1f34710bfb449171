package repro

// Ablation benchmarks for the design choices DESIGN.md calls out, beyond the
// paper's own Table 6: LDD's β parameter (cluster size vs. rounds), SCC's
// batch growth rate β, the edgeMap direction threshold, compression block
// size, and the two histogram implementations.

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
	"repro/internal/xrand"
)

func BenchmarkAblationLDDBeta(b *testing.B) {
	inputs()
	g := ablationG
	for _, beta := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.LDD(parallel.Default, g, beta, uint64(i))
			}
		})
	}
}

func BenchmarkAblationConnectivityBeta(b *testing.B) {
	inputs()
	g := ablationG
	for _, beta := range []float64{0.1, 0.2, 0.5} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Connectivity(parallel.Default, g, beta, uint64(i))
			}
		})
	}
}

func BenchmarkAblationSCCBeta(b *testing.B) {
	inputs()
	g := table2In.Dir
	for _, beta := range []float64{1.1, 1.5, 2.0, 4.0} {
		b.Run(fmt.Sprintf("beta=%.1f", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SCC(parallel.Default, g, uint64(i), core.SCCOpts{Beta: beta})
			}
		})
	}
}

func BenchmarkAblationSCCTrim(b *testing.B) {
	// Trimming disabled is pathological on larger RMAT inputs: the many
	// zero-degree vertices stay active as centers and flood the giant
	// subproblem's reachability tables (which is precisely why the paper
	// trims), so this ablation runs on a small graph.
	g := gen.BuildRMAT(parallel.Default, 10, 8, false, false, 44)
	for _, trim := range []int{-1, 1, 3} {
		b.Run(fmt.Sprintf("trim=%d", trim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SCC(parallel.Default, g, uint64(i), core.SCCOpts{TrimRounds: trim})
			}
		})
	}
}

func BenchmarkAblationCompressionBlockSize(b *testing.B) {
	inputs()
	g := ablationG
	for _, bs := range []int{16, 64, 256, 1024} {
		cg := compress.FromCSR(parallel.Default, g, bs)
		b.Run(fmt.Sprintf("bs=%d/BFS", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BFS(parallel.Default, cg, 0)
			}
		})
	}
	// Ratio report as a sub-benchmark metric.
	for _, bs := range []int{16, 64, 256, 1024} {
		cg := compress.FromCSR(parallel.Default, g, bs)
		b.Run(fmt.Sprintf("bs=%d/decode", bs), func(b *testing.B) {
			var buf []uint32
			for i := 0; i < b.N; i++ {
				for v := 0; v < cg.N(); v++ {
					buf = cg.DecodeOut(uint32(v), buf)
				}
			}
			b.ReportMetric(cg.BytesPerEdge(), "bytes/edge")
			b.SetBytes(int64(cg.M()))
		})
	}
}

func BenchmarkAblationHistogram(b *testing.B) {
	// The §5 primitive in isolation: counting occurrences of skewed keys
	// (power-law-distributed, like the high-degree endpoints of k-core).
	n := 1 << 20
	keys := make([]uint32, n)
	numKeys := 1 << 16
	for i := range keys {
		// Skewed: half the mass on a few hot keys.
		h := xrand.Hash64(1, uint64(i))
		if h%2 == 0 {
			keys[i] = uint32(h % 64)
		} else {
			keys[i] = uint32(h % uint64(numKeys))
		}
	}
	bits := prims.BitsFor(uint64(numKeys))
	b.Run("sorted-work-efficient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prims.Histogram(parallel.Default, keys, bits)
		}
	})
	b.Run("fetch-and-add", func(b *testing.B) {
		counts := make([]uint32, numKeys)
		for i := 0; i < b.N; i++ {
			for j := range counts {
				counts[j] = 0
			}
			prims.HistogramAtomic(parallel.Default, keys, counts)
		}
	})
}

func BenchmarkAblationRadixSort(b *testing.B) {
	n := 1 << 20
	src := make([]uint64, n)
	for i := range src {
		src[i] = xrand.Hash64(2, uint64(i))
	}
	buf := make([]uint64, n)
	for _, bits := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				prims.RadixSortU64(parallel.Default, buf, bits)
			}
			b.SetBytes(int64(n * 8))
		})
	}
}

// The paper's own baseline comparisons (§6): rootset vs. prefix MIS, wBFS
// vs. Δ-stepping, and exact vs. approximate k-core.

func BenchmarkBaselineMIS(b *testing.B) {
	inputs()
	g := ablationG
	b.Run("rootset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MIS(parallel.Default, g, uint64(i))
		}
	})
	b.Run("prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MISPrefix(parallel.Default, g, uint64(i))
		}
	})
}

func BenchmarkBaselineSSSP(b *testing.B) {
	inputs()
	g := ablationG
	b.Run("wBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.WeightedBFS(parallel.Default, g, 0)
		}
	})
	b.Run("delta-stepping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DeltaStepping(parallel.Default, g, 0, 0)
		}
	})
	b.Run("bellman-ford", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BellmanFord(parallel.Default, g, 0)
		}
	})
}

func BenchmarkBaselineKCore(b *testing.B) {
	inputs()
	g := ablationG
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.KCore(parallel.Default, g)
		}
	})
	b.Run("approx-pow2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ApproxKCore(parallel.Default, g)
		}
	})
}

func BenchmarkBaselineColoring(b *testing.B) {
	inputs()
	g := ablationG
	b.Run("LLF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Coloring(parallel.Default, g, uint64(i))
		}
	})
	b.Run("LF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ColoringLF(parallel.Default, g, uint64(i))
		}
	})
}

func BenchmarkAblationGraphBuild(b *testing.B) {
	el := gen.RMAT(parallel.Default, benchScale, 16, 3)
	b.Run("directed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.FromEdgeList(parallel.Default, el.N, el, graph.BuildOptions{})
		}
		b.SetBytes(int64(el.Len() * 8))
	})
	b.Run("symmetrized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.FromEdgeList(parallel.Default, el.N, el, graph.BuildOptions{Symmetrize: true})
		}
		b.SetBytes(int64(el.Len() * 16))
	})
	b.Run("compress", func(b *testing.B) {
		g := graph.FromEdgeList(parallel.Default, el.N, el, graph.BuildOptions{Symmetrize: true})
		for i := 0; i < b.N; i++ {
			compress.FromCSR(parallel.Default, g, 0)
		}
		b.SetBytes(int64(g.M() * 4))
	})
}
