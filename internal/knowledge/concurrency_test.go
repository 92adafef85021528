package knowledge

import (
	"io"
	"strconv"
	"sync"
	"testing"
	"time"

	"autoloop/internal/analytics"
)

// TestBaseConcurrentAccess hammers every Base method from many goroutines at
// once — the access pattern a fleet coordinator produces, where worker
// goroutines read the shared base during the plan phase while the serial
// execute phase (and a snapshot exporter) writes it. Run under -race this
// verifies the base's locking, including that Save's snapshot does not alias
// mutable state.
func TestBaseConcurrentAccess(t *testing.T) {
	b := NewBase()
	apps := []string{"lammps", "gromacs", "vasp"}
	var wg sync.WaitGroup
	const writers, readers, rounds = 4, 4, 200

	var planIdx sync.Map // writer -> last plan index, resolved by the same writer
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			app := apps[w%len(apps)]
			for i := 0; i < rounds; i++ {
				b.AddRun(RunRecord{
					App: app, User: "u" + strconv.Itoa(w), Nodes: w + 1,
					Runtime: time.Duration(i) * time.Second, Completed: i%2 == 0,
					Signature: analytics.Signature{"iter_ms": float64(i)},
				})
				idx := b.RecordPlan(PlanRecord{Loop: "loop" + strconv.Itoa(w), Action: "extend", Predicted: float64(i)})
				planIdx.Store(w, idx)
				if err := b.ResolvePlan(idx, float64(i)+0.5, i%3 == 0); err != nil {
					t.Error(err)
					return
				}
				b.ResolveCorrection(app, 100, 90+float64(i%20))
				b.SetFact(app+".cap", float64(i))
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			app := apps[r%len(apps)]
			for i := 0; i < rounds; i++ {
				_ = b.RunsFor(app)
				_, _ = b.TypicalRuntime(app)
				_ = b.Plans()
				_ = b.Assess("")
				_ = b.Correction(app)
				_, _ = b.Fact(app + ".cap")
				if i%10 == 0 {
					if err := b.Save(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := len(b.runs); got != writers*rounds {
		t.Errorf("runs = %d, want %d", got, writers*rounds)
	}
	if got := len(b.Plans()); got != writers*rounds {
		t.Errorf("plans = %d, want %d", got, writers*rounds)
	}
	eff := b.Assess("")
	if eff.Resolved != writers*rounds {
		t.Errorf("resolved = %d, want %d", eff.Resolved, writers*rounds)
	}
}
