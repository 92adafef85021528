package knowledge

import (
	"encoding/json"
	"fmt"

	"autoloop/internal/bus"
	"autoloop/internal/wal"
)

// Durability rides the bus. Every mutation — AddRun, RecordPlan,
// ResolvePlan, ResolveCorrection, SetFact — is published as one walOp on
// topicLearn while the base's write lock is held, so the publish order
// equals the apply order (RecordPlan's returned index, for instance, is
// implied by that order). A daemon's bus journal records the topic like any
// other, operators stream it, and recovery folds the journaled envelopes
// back through ApplyWAL.

// topicLearn carries every knowledge write. The base owns it rather than a
// loop's trail because some writes happen outside any loop tick (a case's
// spawn-time SetFact), and such a write cannot wait in a loop's batch.
const topicLearn = "knowledge.learn"

// walOp is the JSON form of one mutation. Op selects the variant; only that
// variant's fields are populated.
type walOp struct {
	Op        string      `json:"op"` // "run" | "plan" | "resolve_plan" | "resolve_corr" | "fact"
	Run       *RunRecord  `json:"run,omitempty"`
	Plan      *PlanRecord `json:"plan,omitempty"`
	Idx       int         `json:"idx,omitempty"`
	Actual    float64     `json:"actual,omitempty"`
	Honored   bool        `json:"honored,omitempty"`
	App       string      `json:"app,omitempty"`
	Predicted float64     `json:"predicted,omitempty"`
	Key       string      `json:"key,omitempty"`
	Value     float64     `json:"value,omitempty"`
}

// PublishTo publishes every later mutation on b's "knowledge.learn" topic.
// An envelope is built only while the topic has a receiver. Receivers run
// under the base's write lock, so they must not call back into the base.
func (b *Base) PublishTo(bb *bus.Bus) {
	b.mu.Lock()
	b.bus = bb
	b.mu.Unlock()
}

// heardLocked reports whether topicLearn has a receiver. A mutation builds
// its op only then, so a base nobody listens to allocates nothing per write.
func (b *Base) heardLocked() bool { return b.bus != nil && b.bus.HasReceiver(topicLearn) }

// publishLocked emits one op. Callers hold the write lock, which orders the
// envelopes exactly like the mutations they describe.
func (b *Base) publishLocked(op *walOp) {
	b.bus.Publish(bus.Envelope{Topic: topicLearn, Source: "knowledge", Payload: op})
}

// ApplyWAL folds one WAL record into the base during recovery, reporting
// whether the record was the base's: a wal.KindBusEnvelope on
// "knowledge.learn", or a wal.KindKnowledgeOp written before knowledge
// writes rode the bus. Any other envelope is the audit trail's and is never
// re-published. A wal.KindKnowledgeOp at or below the sequence its
// snapshot carried is skipped, being already reflected there. A record of
// the base's that does not decode or apply is an error, never skipped.
func (b *Base) ApplyWAL(rec wal.Record) (bool, error) {
	var op walOp
	switch rec.Kind {
	case wal.KindBusEnvelope:
		env, err := bus.Decode(rec.Payload)
		if err != nil || env.Topic != topicLearn {
			return false, nil
		}
		if err := bus.DecodePayload(env, &op); err != nil {
			return true, fmt.Errorf("knowledge: learn decode: %w", err)
		}
	case wal.KindKnowledgeOp:
		if err := json.Unmarshal(rec.Payload, &op); err != nil {
			return true, fmt.Errorf("knowledge: journal decode: %w", err)
		}
	default:
		return false, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if rec.Kind == wal.KindKnowledgeOp && rec.Seq <= b.legacySeq {
		return true, nil
	}
	return true, b.applyOpLocked(&op)
}

// applyOpLocked replays one decoded op under the write lock, without
// re-publishing it.
func (b *Base) applyOpLocked(op *walOp) error {
	switch op.Op {
	case "run":
		if op.Run == nil {
			return fmt.Errorf("knowledge: journal run op without record")
		}
		b.runs = append(b.runs, *op.Run)
	case "plan":
		if op.Plan == nil {
			return fmt.Errorf("knowledge: journal plan op without record")
		}
		b.plans = append(b.plans, *op.Plan)
	case "resolve_plan":
		if op.Idx < 0 || op.Idx >= len(b.plans) {
			return fmt.Errorf("knowledge: journal resolves plan %d of %d", op.Idx, len(b.plans))
		}
		b.plans[op.Idx].Actual = op.Actual
		b.plans[op.Idx].Honored = op.Honored
		b.plans[op.Idx].Resolved = true
	case "resolve_corr":
		b.resolveCorrectionLocked(op.App, op.Predicted, op.Actual)
	case "fact":
		b.facts[op.Key] = op.Value
	default:
		return fmt.Errorf("knowledge: unknown journal op %q", op.Op)
	}
	return nil
}
