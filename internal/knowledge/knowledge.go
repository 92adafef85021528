// Package knowledge implements the K of MAPE-K: a store of historical
// application run records with behavioral signatures, plan/outcome records
// for assessing the effectiveness of past decisions, and per-application
// correction factors learned from realized forecast errors.
//
// The paper's Scheduler case requires "representative historical application
// run times, which would need to be collected and stored along with
// appropriate metadata", plus the Assess step that "refine[s] the Knowledge
// through subsequent Monitoring". Base implements both, and its JSON
// persistence doubles as the open-dataset format promised in §III(iii).
package knowledge

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"autoloop/internal/analytics"
)

// RunRecord captures one completed (or killed) application run.
type RunRecord struct {
	App       string              `json:"app"`
	User      string              `json:"user"`
	Nodes     int                 `json:"nodes"`
	Runtime   time.Duration       `json:"runtime"`
	Walltime  time.Duration       `json:"walltime"`
	Completed bool                `json:"completed"`
	Signature analytics.Signature `json:"signature,omitempty"`
	At        time.Duration       `json:"at"`
}

// PlanRecord captures one executed plan and, once resolved, its outcome —
// the raw material for effectiveness assessment and confidence.
type PlanRecord struct {
	Loop      string        `json:"loop"`
	Action    string        `json:"action"`
	At        time.Duration `json:"at"`
	Predicted float64       `json:"predicted"`
	Actual    float64       `json:"actual"`
	Honored   bool          `json:"honored"`
	Resolved  bool          `json:"resolved"`
	Note      string        `json:"note,omitempty"`
}

// Effectiveness summarizes resolved plans of one loop: how often the managed
// system honored the action and how accurate the predictions behind it were.
type Effectiveness struct {
	Plans      int
	Honored    int
	Resolved   int
	MeanAbsErr float64 // mean |predicted-actual| over resolved plans
	MeanRelErr float64 // mean |predicted-actual|/|actual|
	OverCount  int     // predicted > actual (over-estimation)
	UnderCount int     // predicted < actual
}

// Base is the in-memory knowledge base. It is safe for concurrent use.
type Base struct {
	mu    sync.RWMutex
	runs  []RunRecord
	plans []PlanRecord

	// corr holds learned multiplicative correction factors per app, updated
	// by ResolveCorrection (e.g. "this app's forecasts run 10% short");
	// corrN counts the resolutions behind each factor so Correction can
	// shrink low-evidence factors toward 1.
	corr  map[string]float64
	corrN map[string]int
	// facts is a small typed blackboard for loop-specific knowledge.
	facts map[string]float64

	// journal, when non-nil, receives every mutation as a WAL record (see
	// journal.go); walSeq is the sequence of the last journaled or replayed
	// op, carried in snapshots so tail replay skips covered records. jerr is
	// the sticky first journal failure.
	journal Journaler
	walSeq  uint64
	jerr    error
}

// NewBase returns an empty knowledge base.
func NewBase() *Base {
	return &Base{
		corr:  make(map[string]float64),
		corrN: make(map[string]int),
		facts: make(map[string]float64),
	}
}

// AddRun records a completed run.
func (b *Base) AddRun(r RunRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.runs = append(b.runs, r)
	b.journalLocked(&walOp{Op: "run", Run: &r})
}

// RunsFor returns the run records of one application (copy).
func (b *Base) RunsFor(app string) []RunRecord {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []RunRecord
	for _, r := range b.runs {
		if r.App == app {
			out = append(out, r)
		}
	}
	return out
}

// TypicalRuntime estimates an application's runtime from completed history:
// the median of completed runs (robust to stragglers). ok is false without
// history.
func (b *Base) TypicalRuntime(app string) (time.Duration, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var durs []time.Duration
	for _, r := range b.runs {
		if r.App == app && r.Completed {
			durs = append(durs, r.Runtime)
		}
	}
	if len(durs) == 0 {
		return 0, false
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], true
}

// RecordPlan appends an executed plan and returns its index for resolution.
func (b *Base) RecordPlan(p PlanRecord) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.plans = append(b.plans, p)
	b.journalLocked(&walOp{Op: "plan", Plan: &p})
	return len(b.plans) - 1
}

// ResolvePlan fills in the realized outcome of plan idx.
func (b *Base) ResolvePlan(idx int, actual float64, honored bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= len(b.plans) {
		return fmt.Errorf("knowledge: plan index %d out of range", idx)
	}
	b.plans[idx].Actual = actual
	b.plans[idx].Honored = honored
	b.plans[idx].Resolved = true
	b.journalLocked(&walOp{Op: "resolve_plan", Idx: idx, Actual: actual, Honored: honored})
	return nil
}

// Plans returns all plan records (copy).
func (b *Base) Plans() []PlanRecord {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]PlanRecord(nil), b.plans...)
}

// Assess summarizes the effectiveness of a loop's resolved plans ("" matches
// every loop).
func (b *Base) Assess(loop string) Effectiveness {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var eff Effectiveness
	var absSum, relSum float64
	for _, p := range b.plans {
		if loop != "" && p.Loop != loop {
			continue
		}
		eff.Plans++
		if !p.Resolved {
			continue
		}
		eff.Resolved++
		if p.Honored {
			eff.Honored++
		}
		diff := p.Predicted - p.Actual
		if diff > 0 {
			eff.OverCount++
		} else if diff < 0 {
			eff.UnderCount++
		}
		abs := diff
		if abs < 0 {
			abs = -abs
		}
		absSum += abs
		denom := p.Actual
		if denom < 0 {
			denom = -denom
		}
		if denom > 1e-12 {
			relSum += abs / denom
		}
	}
	if eff.Resolved > 0 {
		eff.MeanAbsErr = absSum / float64(eff.Resolved)
		eff.MeanRelErr = relSum / float64(eff.Resolved)
	}
	return eff
}

// Correction returns the learned multiplicative correction for an app's
// forecasts (1.0 when nothing has been learned). Low-evidence factors are
// shrunk toward 1 — a single resolved run must not steer the loop hard —
// with weight n/(n+2) for n resolutions.
func (b *Base) Correction(app string) float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c, ok := b.corr[app]
	if !ok {
		return 1.0
	}
	n := float64(b.corrN[app])
	w := n / (n + 2)
	return 1 + (c-1)*w
}

// ResolveCorrection updates the app's correction factor toward
// actual/predicted with an exponential weight, the Assess-phase learning
// that makes the loop's next forecast better than its last.
func (b *Base) ResolveCorrection(app string, predicted, actual float64) {
	if predicted <= 0 || actual <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.resolveCorrectionLocked(app, predicted, actual)
	b.journalLocked(&walOp{Op: "resolve_corr", App: app, Predicted: predicted, Actual: actual})
}

// resolveCorrectionLocked is the correction update shared by the live path
// and WAL replay. Callers hold the write lock.
func (b *Base) resolveCorrectionLocked(app string, predicted, actual float64) {
	if predicted <= 0 || actual <= 0 {
		return
	}
	ratio := actual / predicted
	// Clamp single-shot updates: one pathological run must not poison K.
	if ratio > 3 {
		ratio = 3
	}
	if ratio < 1.0/3 {
		ratio = 1.0 / 3
	}
	b.corrN[app]++
	cur, ok := b.corr[app]
	if !ok {
		b.corr[app] = ratio
		return
	}
	const alpha = 0.3
	b.corr[app] = (1-alpha)*cur + alpha*ratio
}

// SetFact stores a named scalar fact on the blackboard.
func (b *Base) SetFact(key string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.facts[key] = v
	b.journalLocked(&walOp{Op: "fact", Key: key, Value: v})
}

// Fact retrieves a named scalar fact.
func (b *Base) Fact(key string) (float64, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v, ok := b.facts[key]
	return v, ok
}

// snapshot is the JSON persistence form.
type snapshot struct {
	Runs  []RunRecord        `json:"runs"`
	Plans []PlanRecord       `json:"plans"`
	Corr  map[string]float64 `json:"corrections"`
	CorrN map[string]int     `json:"correction_counts"`
	Facts map[string]float64 `json:"facts"`
	// WalSeq is the WAL sequence of the last journaled op this snapshot
	// reflects; ApplyWAL skips records at or below it during tail replay.
	WalSeq uint64 `json:"wal_seq,omitempty"`
}

// Save writes the knowledge base as JSON (the open-dataset export). The
// state is copied under the read lock before encoding: the encoder must not
// observe ResolvePlan rewriting a plan record or ResolveCorrection growing a
// map while another goroutine holds the base — under a concurrent fleet
// coordinator the base is shared across worker goroutines.
func (b *Base) Save(w io.Writer) error {
	b.mu.RLock()
	snap := snapshot{
		Runs:   append([]RunRecord(nil), b.runs...),
		Plans:  append([]PlanRecord(nil), b.plans...),
		Corr:   make(map[string]float64, len(b.corr)),
		CorrN:  make(map[string]int, len(b.corrN)),
		Facts:  make(map[string]float64, len(b.facts)),
		WalSeq: b.walSeq,
	}
	for i, r := range snap.Runs {
		if r.Signature != nil {
			sig := make(analytics.Signature, len(r.Signature))
			for k, v := range r.Signature {
				sig[k] = v
			}
			snap.Runs[i].Signature = sig
		}
	}
	for k, v := range b.corr {
		snap.Corr[k] = v
	}
	for k, v := range b.corrN {
		snap.CorrN[k] = v
	}
	for k, v := range b.facts {
		snap.Facts[k] = v
	}
	b.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load replaces the knowledge base content from JSON produced by Save.
func (b *Base) Load(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("knowledge: load: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.runs = snap.Runs
	b.plans = snap.Plans
	b.corr = snap.Corr
	if b.corr == nil {
		b.corr = make(map[string]float64)
	}
	b.corrN = snap.CorrN
	if b.corrN == nil {
		b.corrN = make(map[string]int)
	}
	b.facts = snap.Facts
	if b.facts == nil {
		b.facts = make(map[string]float64)
	}
	b.walSeq = snap.WalSeq
	return nil
}
