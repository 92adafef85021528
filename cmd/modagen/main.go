// Command modagen generates the open datasets the paper promises in
// §III(iii): reproducible JSON traces of application progress markers and of
// batch workloads with user walltime-estimation error, suitable for
// offline analysis or for replaying against other MODA stacks.
//
// Usage:
//
//	modagen progress -apps 8 -seed 1 > progress.json
//	modagen workload -jobs 240 -seed 1 > workload.json
//	modagen scenario -preset midsize -seed 1 > midsize.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/scenario"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

// progressTrace is one application's marker stream.
type progressTrace struct {
	App        string    `json:"app"`
	TotalIters int       `json:"total_iters"`
	MeanIterS  float64   `json:"mean_iter_s"`
	Drift      float64   `json:"drift_per_iter"`
	TimesS     []float64 `json:"times_s"`
	Iters      []int     `json:"iters"`
}

// workloadEntry is one batch job with its (mis)estimated walltime.
type workloadEntry struct {
	Name          string  `json:"name"`
	Nodes         int     `json:"nodes"`
	SubmitS       float64 `json:"submit_s"`
	TrueRuntimeS  float64 `json:"true_runtime_s"`
	WalltimeReqS  float64 `json:"walltime_req_s"`
	Underestimate bool    `json:"underestimate"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "progress":
		progressCmd(os.Args[2:])
	case "workload":
		workloadCmd(os.Args[2:])
	case "scenario":
		scenarioCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: modagen progress [-apps N] [-seed N] | modagen workload [-jobs N] [-seed N] | modagen scenario [-preset small|midsize|stress10k] [-seed N]")
}

// scenarioCmd emits a scenario-engine document (see internal/scenario) for
// one of the built-in presets, round-tripped through the decoder so the
// output is guaranteed to be a valid scenario file for modad -scenario.
func scenarioCmd(args []string) {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	preset := fs.String("preset", "small", "scenario preset: small, midsize, or stress10k")
	seed := fs.Int64("seed", 1, "deterministic seed")
	_ = fs.Parse(args)

	var spec *scenario.Spec
	switch *preset {
	case "small":
		spec = scenario.Small(*seed)
	case "midsize":
		spec = scenario.Midsize(*seed)
	case "stress10k":
		spec = scenario.Stress10k(*seed)
	default:
		fmt.Fprintf(os.Stderr, "modagen: unknown preset %q (have small, midsize, stress10k)\n", *preset)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "modagen: %v\n", err)
		os.Exit(1)
	}
	if _, err := scenario.Decode(data); err != nil {
		fmt.Fprintf(os.Stderr, "modagen: generated scenario does not decode: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

func progressCmd(args []string) {
	fs := flag.NewFlagSet("progress", flag.ExitOnError)
	apps := fs.Int("apps", 8, "number of applications to trace")
	seed := fs.Int64("seed", 1, "deterministic seed")
	_ = fs.Parse(args)

	rng := rand.New(rand.NewSource(*seed))
	engine := sim.NewEngine(*seed)
	db := tsdb.New(0)
	runtime := app.NewRuntime(engine, db, nil, nil)

	var traces []progressTrace
	for i := 0; i < *apps; i++ {
		name := fmt.Sprintf("app%02d", i)
		iters := 60 + rng.Intn(180)
		mean := time.Duration(20+rng.Intn(60)) * time.Second
		drift := 0.0
		if rng.Intn(3) == 0 {
			drift = 0.001 + rng.Float64()*0.003
		}
		spec := app.Spec{
			Name: name, TotalIters: iters,
			IterTime:     sim.LogNormal{MeanV: mean, CV: 0.2},
			DriftPerIter: drift,
		}
		runtime.RegisterSpec(name, spec)
		traces = append(traces, progressTrace{
			App: name, TotalIters: iters, MeanIterS: mean.Seconds(), Drift: drift,
		})
	}
	// Execute the apps on a dedicated one-node-per-app scheduler and read
	// their marker streams back from the TSDB.
	nodes := make([]string, *apps)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%03d", i)
	}
	scheduler := sched.New(engine, nodes, sched.DefaultExtensionPolicy())
	runtime.Serve(scheduler)
	for i := range traces {
		if _, err := scheduler.Submit(traces[i].App, "gen", 1, 1000*time.Hour, 0); err != nil {
			fmt.Fprintln(os.Stderr, "modagen:", err)
			os.Exit(1)
		}
	}
	engine.Run()
	for i := range traces {
		series := db.Query("app.progress", map[string]string{"app": traces[i].App}, 0, engine.Now())
		for _, s := range series {
			for _, smp := range s.Samples {
				traces[i].TimesS = append(traces[i].TimesS, smp.Time.Seconds())
				traces[i].Iters = append(traces[i].Iters, int(smp.Value))
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(traces); err != nil {
		fmt.Fprintln(os.Stderr, "modagen:", err)
		os.Exit(1)
	}
}

func workloadCmd(args []string) {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	jobs := fs.Int("jobs", 240, "number of jobs")
	seed := fs.Int64("seed", 1, "deterministic seed")
	underFrac := fs.Float64("underestimate", 0.4, "fraction of users underestimating walltime")
	_ = fs.Parse(args)

	rng := rand.New(rand.NewSource(*seed))
	var entries []workloadEntry
	var at float64
	for i := 0; i < *jobs; i++ {
		at += rng.ExpFloat64() * 360
		iters := 40 + rng.Intn(160)
		iterMean := float64(20 + rng.Intn(70))
		trueRuntime := float64(iters) * iterMean
		under := rng.Float64() < *underFrac
		var factor float64
		if under {
			factor = 0.55 + rng.Float64()*0.4
		} else {
			factor = 1.1 + rng.Float64()*0.9
		}
		entries = append(entries, workloadEntry{
			Name:          fmt.Sprintf("job%04d", i),
			Nodes:         1 + rng.Intn(4),
			SubmitS:       at,
			TrueRuntimeS:  trueRuntime,
			WalltimeReqS:  trueRuntime * factor,
			Underestimate: under,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(entries); err != nil {
		fmt.Fprintln(os.Stderr, "modagen:", err)
		os.Exit(1)
	}
}
