package cases

import (
	"testing"

	"autoloop/internal/scenario"
)

// templates maps every registered case through scenario.TemplateFor, in
// registry order.
func templates(t *testing.T) []scenario.Loop {
	t.Helper()
	infos := NewRegistry().CaseInfos()
	out := make([]scenario.Loop, len(infos))
	for i, info := range infos {
		tpl, ok := scenario.TemplateFor(info.Case)
		if !ok {
			t.Fatalf("case %q has no scenario template", info.Case)
		}
		out[i] = tpl
	}
	return out
}

// TestScenarioTemplatesMatchFactories enforces the contribution rule: every
// registered case ships a scenario template naming it.
func TestScenarioTemplatesMatchFactories(t *testing.T) {
	for _, tpl := range templates(t) {
		// A responder template must carry a full attribution triple; an
		// optimizer template (no domain) must not claim findings or actions.
		if tpl.Domain != "" && (len(tpl.Findings) == 0 || len(tpl.Actions) == 0) {
			t.Fatalf("case %q template has domain %q but no attribution: %+v", tpl.Case, tpl.Domain, tpl)
		}
		if tpl.Domain == "" && (len(tpl.Findings) != 0 || len(tpl.Actions) != 0) {
			t.Fatalf("case %q template has attribution but no domain: %+v", tpl.Case, tpl)
		}
	}
}

// TestTemplatesSpawn spawns every template against a registry-compatible
// spec to catch template/factory drift.
func TestTemplatesSpawn(t *testing.T) {
	for _, tpl := range templates(t) {
		if err := tpl.LoopSpec.Validate(); err != nil {
			t.Fatalf("template %q does not validate: %v", tpl.Case, err)
		}
	}
}
