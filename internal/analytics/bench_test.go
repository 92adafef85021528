package analytics

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkDetectorStep measures one detector observation (one Observe plus
// Fit for OLS) at a small and a large window: each is an O(window) rescan of
// its ring with no allocation. The cross-sectional MADOutliers scan is
// measured against the sort-based reference it replaced.
func BenchmarkDetectorStep(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	data := make([]float64, 1<<16)
	for i := range data {
		data[i] = 100 + rng.NormFloat64()*5
	}
	for _, w := range []int{64, 1024} {
		b.Run(fmt.Sprintf("zscore/w=%d", w), func(b *testing.B) {
			d := NewZScore(w, 3, 5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Step(data[i&(len(data)-1)])
			}
		})
		b.Run(fmt.Sprintf("mad/w=%d", w), func(b *testing.B) {
			d := NewMAD(w, 4, 5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Step(data[i&(len(data)-1)])
			}
		})
		b.Run(fmt.Sprintf("ols/w=%d", w), func(b *testing.B) {
			d := NewWindowOLS(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Observe(float64(i), data[i&(len(data)-1)])
				d.Fit()
			}
		})
	}
	// The cross-sectional scan every fleet loop runs per tick.
	fleet := make([]float64, 64)
	for i := range fleet {
		fleet[i] = 100 + rng.NormFloat64()
	}
	b.Run("madoutliers/n=64/quickselect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MADOutliers(fleet, 50, 0)
		}
	})
	b.Run("madoutliers/n=64/sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveMADOutliers(fleet, 50, 0)
		}
	})
}
