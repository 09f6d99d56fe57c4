// Command splitquant plans an LLM deployment on a heterogeneous cluster
// and reports the simulated throughput.
//
// Usage:
//
//	splitquant -model opt-30b -cluster 5 -workload summarization -batch 32
//	splitquant -model opt-66b -cluster 7 -method uniform -json
//	splitquant -model qwen2.5-14b -nodes "a:V100-32G:2,b:A100-40G:1" -workload chat
//	splitquant -model opt-30b -cluster 5 -o plan.json          # save the plan
//	splitquant -model opt-30b -cluster 5 -warm plan.json       # re-plan warm from it
//
// Clusters come from the paper's Table III presets (-cluster 1..10) or a
// custom -nodes spec of comma-separated name:gpu:count triples.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	splitquant "repro"
)

func main() {
	var (
		modelName = flag.String("model", "opt-30b", "model architecture (see -models)")
		clusterN  = flag.Int("cluster", 5, "Table III cluster preset 1-10 (ignored when -nodes is set)")
		nodes     = flag.String("nodes", "", "custom cluster: name:gpu:count,... (gpu in T4-16G,P100-12G,V100-32G,A100-40G)")
		gbps      = flag.Float64("gbps", 800, "inter-node fabric speed (Gbps) for -nodes clusters")
		wk        = flag.String("workload", "fixed", "workload: summarization | longcontext | chat | fixed")
		batch     = flag.Int("batch", 32, "concurrent requests B")
		prompt    = flag.Int("prompt", 512, "prompt length for -workload fixed")
		out       = flag.Int("out", 32, "output tokens for -workload fixed")
		method    = flag.String("method", "heuristic", "planner: ilp | heuristic | adabits | uniform | het")
		theta     = flag.Float64("theta", 10, "quality scalar θ (larger = favor quality)")
		qcap      = flag.Float64("quality-floor", 0, "max allowed quality penalty Σω (0 = unconstrained)")
		seed      = flag.Uint64("seed", 1, "workload sampling seed")
		parallel  = flag.Int("parallel", 0, "planner worker goroutines (0 = all CPUs, 1 = sequential)")
		progress  = flag.Bool("progress", false, "print live planning progress to stderr")
		asJSON    = flag.Bool("json", false, "emit the plan as JSON")
		planOut   = flag.String("o", "", "also write the reloadable plan (planner wire format) to this file")
		warmFrom  = flag.String("warm", "", "warm-start from a previous plan file (written with -o), pruning the search")
		list      = flag.Bool("models", false, "list model architectures and exit")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(splitquant.Models(), "\n"))
		return
	}

	// Ctrl-C cancels planning; an incumbent plan found before the signal
	// is still printed (marked "cancelled").
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cs, err := clusterSpec(*nodes, *clusterN, *gbps)
	if err != nil {
		fatal(err)
	}
	opts := []splitquant.Option{
		splitquant.WithMethod(splitquant.Method(*method)),
		splitquant.WithTheta(*theta),
		splitquant.WithParallelism(*parallel),
	}
	if *qcap > 0 {
		opts = append(opts, splitquant.WithQualityFloor(*qcap))
	}
	if *progress {
		opts = append(opts, splitquant.WithProgress(printProgress))
	}
	sys, err := splitquant.New(*modelName, cs, opts...)
	if err != nil {
		fatal(err)
	}

	var w splitquant.Workload
	switch *wk {
	case "summarization":
		w = splitquant.Summarization(*seed)
	case "longcontext":
		w = splitquant.LongContext(*seed)
	case "chat":
		w = splitquant.Chat(*seed)
	case "fixed":
		w = splitquant.FixedWorkload(*batch, *prompt, *out)
	default:
		fatal(fmt.Errorf("unknown workload %q", *wk))
	}

	var dep *splitquant.Deployment
	if *warmFrom != "" {
		f, err := os.Open(*warmFrom)
		if err != nil {
			fatal(err)
		}
		prev, err := sys.ReadPlanJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		dep, err = sys.Replan(ctx, prev, w, *batch)
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		dep, err = sys.PlanContext(ctx, w, *batch)
		if err != nil {
			fatal(err)
		}
	}
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if *planOut != "" {
		f, err := os.Create(*planOut)
		if err != nil {
			fatal(err)
		}
		if err := dep.WritePlanJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *asJSON {
		if err := dep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	st := dep.Stats()
	fmt.Printf("model:    %s\ncluster:  %s\nworkload: %s (B=%d)\n", sys.Model(), sys.Cluster(), w.Name(), *batch)
	fmt.Printf("plan:     %s\n", dep)
	note := ""
	if st.Cancelled {
		note = "   (cancelled: best incumbent)"
	}
	if st.WarmStarted {
		note += fmt.Sprintf("   (warm: %d cost-cache hits)", st.CostCacheHits)
	}
	fmt.Printf("quality:  Σω = %.4f   planning: %.2fs, %d evaluated, %d pruned%s\n",
		dep.QualityPenalty(), dep.PlanningSeconds(), st.Configs, st.PrunedConfigs, note)
	m, err := dep.Measure()
	if err != nil {
		fatal(fmt.Errorf("simulation: %w", err))
	}
	fmt.Printf("simulated: %.1f tkn/s (prefill %.2fs + decode %.2fs for %d tokens)\n",
		m.Throughput, m.PrefillSeconds, m.DecodeSeconds, m.OutputTokens)
	for i, st := range dep.Stages() {
		fmt.Printf("  stage %d: %-22s layers %d-%d  mem %.1f GiB\n",
			i, st.Device, st.FirstLayer, st.FirstLayer+st.LayerCount-1, m.StageMemoryGiB[i])
	}
}

// printProgress renders one planning progress event as a carriage-return
// status line on stderr.
func printProgress(p splitquant.PlanProgress) {
	best := "-"
	if p.BestObjective < 1e30 {
		best = fmt.Sprintf("%.3f", p.BestObjective)
	}
	fmt.Fprintf(os.Stderr, "\r%s %d/%d configs, best objective %s   ", p.Phase, p.Done, p.Total, best)
}

// clusterSpec parses -nodes or falls back to a preset.
func clusterSpec(nodes string, preset int, gbps float64) (splitquant.ClusterSpec, error) {
	if nodes == "" {
		if preset < 1 || preset > 10 {
			return splitquant.ClusterSpec{}, fmt.Errorf("cluster preset %d out of range 1-10", preset)
		}
		return splitquant.Preset(preset), nil
	}
	cs := splitquant.ClusterSpec{Name: "custom", InterconnectGbps: gbps}
	for _, part := range strings.Split(nodes, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return cs, fmt.Errorf("bad node spec %q (want name:gpu:count)", part)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return cs, fmt.Errorf("bad count in %q: %w", part, err)
		}
		cs.Nodes = append(cs.Nodes, splitquant.Node{
			Name: fields[0], GPU: splitquant.GPU(fields[1]), Count: count,
		})
	}
	return cs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "splitquant:", err)
	os.Exit(1)
}
