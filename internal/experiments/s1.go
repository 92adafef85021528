package experiments

import (
	"fmt"

	"autoloop/internal/cases"
	"autoloop/internal/scenario"
)

// runS1 drives the declarative scenario engine: each row is one scenario
// document run to its horizon against the full loop fleet, scored on the
// ground-truth fault schedule. Quick mode runs the small preset only; the
// full run adds the chaos-diverse midsize scenario with every injector in
// the library, including the phantom sensor flap.
func runS1(opt Options) *Result {
	res := &Result{
		Title: "Declarative scenarios: fleet response under a chaos-diverse fault schedule",
		Claim: "operational data analytics ... feedback and response at facility scale (§V); " +
			"the fleet must detect and repair injected faults without chasing phantoms",
		Columns: []string{"scenario", "nodes", "faults", "detected", "responded",
			"mean-mttr", "fp-rate", "efficiency", "points"},
	}
	specs := []*scenario.Spec{scenario.Small(opt.Seed)}
	if !opt.Quick {
		specs = append(specs, scenario.Midsize(opt.Seed))
	}
	for _, spec := range specs {
		rep, err := scenario.Run(spec, cases.NewRegistry())
		if err != nil {
			res.AddNote("%s: %v", spec.Name, err)
			continue
		}
		s := rep.Scores
		res.Rows = append(res.Rows, []string{
			rep.Name,
			fmt.Sprintf("%d", rep.Nodes),
			fmt.Sprintf("%d", len(rep.Injections)),
			fmt.Sprintf("%d/%d", s.Detected, s.Windows),
			fmt.Sprintf("%d/%d", s.Responded, s.Windows),
			s.MeanMTTR.String(),
			fmt.Sprintf("%.3f", s.FPRate()),
			fmt.Sprintf("%.3f", s.Efficiency()),
			fmt.Sprintf("%d", rep.Points),
		})
		for _, o := range rep.Injections {
			if o.Phantom && o.Detected {
				res.AddNote("%s: phantom %s fooled the fleet (fp-rate %.3f reflects it)",
					rep.Name, o.Kind, s.FPRate())
			}
		}
	}
	return res
}
