// Command modagen emits the reproducible artifact behind every scored run:
// a scenario-engine document (see internal/scenario) for one of the
// built-in presets. The document plus its seed fixes everything modad
// -scenario simulates — facility, workload, faults and fleet — so the same
// pair always yields the same score table.
//
// Usage:
//
//	modagen scenario -preset midsize -seed 1 > midsize.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"autoloop/internal/scenario"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "scenario" {
		usage()
		os.Exit(2)
	}
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	preset := fs.String("preset", "small", "scenario preset: small, midsize, or stress10k")
	seed := fs.Int64("seed", 1, "deterministic seed")
	_ = fs.Parse(os.Args[2:])

	data, err := generate(*preset, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "modagen: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(data))
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: modagen scenario [-preset small|midsize|stress10k] [-seed N]")
}

// generate returns the preset's document, round-tripped through the decoder
// so the output is guaranteed to be a valid scenario file for modad
// -scenario.
func generate(preset string, seed int64) ([]byte, error) {
	var spec *scenario.Spec
	switch preset {
	case "small":
		spec = scenario.Small(seed)
	case "midsize":
		spec = scenario.Midsize(seed)
	case "stress10k":
		spec = scenario.Stress10k(seed)
	default:
		return nil, fmt.Errorf("unknown preset %q (have small, midsize, stress10k)", preset)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	if _, err := scenario.Decode(data); err != nil {
		return nil, fmt.Errorf("generated scenario does not decode: %w", err)
	}
	return data, nil
}
