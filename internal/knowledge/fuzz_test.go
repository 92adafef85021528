package knowledge

import (
	"encoding/json"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/wal"
)

// FuzzKnowledgeFold feeds arbitrary bytes to ApplyWAL, as a parent-format
// wal.KindKnowledgeOp record or as a journaled bus envelope. ApplyWAL must
// never panic; it must return an error, never skip silently, for an op of
// the base's that names no known variant, lacks its run or plan record, or
// resolves a plan out of range; and an op it accepts must leave the base as
// the live mutation it describes would.
func FuzzKnowledgeFold(f *testing.F) {
	ops := []string{
		`{"op":"run","run":{"app":"lmp","user":"u","nodes":4,"runtime":60000000000,"completed":true,"signature":{"k":1}}}`,
		`{"op":"plan","plan":{"loop":"sched","action":"extend","predicted":10}}`,
		`{"op":"resolve_plan","idx":1,"actual":9,"honored":true}`,
		`{"op":"resolve_corr","app":"lmp","predicted":10,"actual":12}`,
		`{"op":"fact","key":"k","value":3}`,
		`{"op":"run"}`,
		`{"op":"plan"}`,
		`{"op":"resolve_plan","idx":7}`,
		`{"op":"resolve_plan","idx":-1}`,
		`{"op":"warp"}`,
		`{}`,
		`null`,
		`not json`,
	}
	for _, op := range ops {
		f.Add(false, []byte(op))
		f.Add(true, []byte(`{"topic":"knowledge.learn","source":"knowledge","payload":`+op+"}\n"))
	}
	f.Add(true, []byte(`{"topic":"loop.a.plan","payload":{"op":"warp"}}`))
	f.Add(true, []byte(`{"topic":"knowledge.learn"}`))
	f.Fuzz(func(t *testing.T, envelope bool, payload []byte) {
		kind := wal.KindKnowledgeOp
		if envelope {
			kind = wal.KindBusEnvelope
		}
		folded := seeded()
		handled, err := folded.ApplyWAL(wal.Record{Kind: kind, Seq: 1, Payload: payload})

		// What the record says, decoded independently.
		var op walOp
		ours := false
		if envelope {
			env, derr := bus.Decode(payload)
			ours = derr == nil && env.Topic == topicLearn
			if ours && bus.DecodePayload(env, &op) != nil {
				op.Op = "undecodable"
			}
		} else {
			ours = true
			if json.Unmarshal(payload, &op) != nil {
				op.Op = "undecodable"
			}
		}
		if handled != ours {
			t.Fatalf("handled = %v, want %v", handled, ours)
		}
		if !ours {
			if err != nil {
				t.Fatalf("a record not the base's errs: %v", err)
			}
			return
		}
		live := seeded()
		valid := true
		switch op.Op {
		case "run":
			if valid = op.Run != nil; valid {
				live.AddRun(*op.Run)
			}
		case "plan":
			if valid = op.Plan != nil; valid {
				live.RecordPlan(*op.Plan)
			}
		case "resolve_plan":
			valid = live.ResolvePlan(op.Idx, op.Actual, op.Honored) == nil
		case "resolve_corr":
			live.ResolveCorrection(op.App, op.Predicted, op.Actual)
		case "fact":
			live.SetFact(op.Key, op.Value)
		default:
			valid = false
		}
		if !valid {
			if err == nil {
				t.Fatalf("op %q accepted silently", op.Op)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid op %q rejected: %v", op.Op, err)
		}
		if a, b := dumpBase(live), dumpBase(folded); a != b {
			t.Fatalf("fold diverges from the live mutation:\n live: %s\n fold: %s", a, b)
		}
	})
}

// seeded is a base with two plans, so a resolve can land in range.
func seeded() *Base {
	b := NewBase()
	b.AddRun(RunRecord{App: "lmp", Runtime: time.Hour, Completed: true})
	b.RecordPlan(PlanRecord{Loop: "sched", Action: "extend", Predicted: 5})
	b.RecordPlan(PlanRecord{Loop: "sched", Action: "extend", Predicted: 6})
	b.SetFact("k", 1)
	return b
}
