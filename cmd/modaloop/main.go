// Command modaloop runs the paper-reproduction experiments and prints their
// tables.
//
// Usage:
//
//	modaloop list                 # list experiment IDs and titles
//	modaloop run EXP-F3           # run one experiment (full scale)
//	modaloop run all              # run every experiment
//	modaloop run EXP-F3 -quick    # shrunken scenario
//	modaloop run EXP-F3 -csv      # CSV instead of a table
//	modaloop run EXP-F3 -seed 42  # alternate deterministic seed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"autoloop/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one modaloop command line and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "list":
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Fprintf(stdout, "%-9s %s\n", id, title)
		}
		return 0
	case "run":
		return runCmd(args[1:], stdout, stderr)
	}
	return usage(stderr)
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: modaloop list | modaloop run <EXP-ID|all> [-quick] [-csv] [-seed N]")
	return 2
}

func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink the scenario for a fast run")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	seed := fs.Int64("seed", 1, "deterministic seed")
	if len(args) == 0 {
		return usage(stderr)
	}
	id := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	opt := experiments.Options{Seed: *seed, Quick: *quick}

	emit := func(res *experiments.Result) {
		if *csv {
			fmt.Fprint(stdout, res.CSV())
		} else {
			fmt.Fprintln(stdout, res.Table())
		}
	}
	if id == "all" {
		for _, res := range experiments.RunAll(opt) {
			emit(res)
		}
		return 0
	}
	res, err := experiments.Run(id, opt)
	if err != nil {
		fmt.Fprintln(stderr, "modaloop:", err)
		return 1
	}
	emit(res)
	return 0
}
