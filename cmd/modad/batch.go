// The batch subcommands run on virtual time, print a table and exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"autoloop/internal/cases"
	"autoloop/internal/experiments"
	"autoloop/internal/scenario"
)

// experimentCmd runs `experiment list` or
// `experiment run <EXP-ID|all> [-quick] [-csv] [-seed N]`.
func experimentCmd(args []string, stdout, stderr io.Writer) int {
	switch {
	case len(args) == 1 && args[0] == "list":
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Fprintf(stdout, "%-9s %s\n", id, title)
		}
		return 0
	case len(args) > 1 && args[0] == "run":
		fs := flag.NewFlagSet("experiment run", flag.ContinueOnError)
		fs.SetOutput(stderr)
		quick := fs.Bool("quick", false, "shrink the scenario for a fast run")
		csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
		seed := fs.Int64("seed", 1, "deterministic seed")
		if err := fs.Parse(args[2:]); err != nil {
			return 2
		}
		opt := experiments.Options{Seed: *seed, Quick: *quick}
		var results []*experiments.Result
		if args[1] == "all" {
			results = experiments.RunAll(opt)
		} else if res, err := experiments.Run(args[1], opt); err != nil {
			fmt.Fprintln(stderr, "modad:", err)
			return 1
		} else {
			results = append(results, res)
		}
		for _, res := range results {
			if *csv {
				fmt.Fprint(stdout, res.CSV())
			} else {
				fmt.Fprintln(stdout, res.Table())
			}
		}
		return 0
	}
	return usage(stderr)
}

// presets are the scenario documents `scenario gen` writes, by name.
var presets = map[string]func(seed int64) *scenario.Spec{
	"small": scenario.Small, "midsize": scenario.Midsize, "stress10k": scenario.Stress10k,
}

// scenarioCmd runs `scenario gen [-preset P] [-seed N]`, which prints a
// preset's document, or `scenario run <file>`, which prints the score table
// of the document in file.
func scenarioCmd(args []string, stdout, stderr io.Writer) int {
	switch {
	case len(args) > 0 && args[0] == "gen":
		fs := flag.NewFlagSet("scenario gen", flag.ContinueOnError)
		fs.SetOutput(stderr)
		preset := fs.String("preset", "small", "scenario preset: small, midsize, or stress10k")
		seed := fs.Int64("seed", 1, "deterministic seed")
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		data, err := generate(*preset, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "modad:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	case len(args) == 2 && args[0] == "run":
		rep, err := runScenario(args[1])
		if err != nil {
			fmt.Fprintln(stderr, "modad:", err)
			return 1
		}
		fmt.Fprint(stdout, rep.Table())
		return 0
	}
	return usage(stderr)
}

// generate returns the preset's document, round-tripped through the decoder
// so the output is guaranteed to be a valid file for `scenario run`.
func generate(preset string, seed int64) ([]byte, error) {
	spec, ok := presets[preset]
	if !ok {
		return nil, fmt.Errorf("unknown preset %q (have small, midsize, stress10k)", preset)
	}
	data, err := json.MarshalIndent(spec(seed), "", "  ")
	if err != nil {
		return nil, err
	}
	if _, err := scenario.Decode(data); err != nil {
		return nil, fmt.Errorf("generated scenario does not decode: %w", err)
	}
	return data, nil
}

// runScenario runs the scenario document in file to its horizon.
func runScenario(file string) (*scenario.Report, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		return nil, err
	}
	return scenario.Run(spec, cases.NewRegistry())
}
