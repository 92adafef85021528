// BenchmarkExperiments runs every registered experiment (the reproduced
// tables pinned in internal/experiments/testdata/*.golden, printed by
// cmd/modaloop) end to end on its quick scenario, one sub-benchmark per ID;
// per-op time is the cost of one full scenario simulation.
package autoloop_test

import (
	"testing"

	"autoloop"
)

func BenchmarkExperiments(b *testing.B) {
	for _, id := range autoloop.ExperimentIDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := autoloop.RunExperiment(id, 1, true)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatalf("%s produced no rows", id)
				}
			}
		})
	}
}
