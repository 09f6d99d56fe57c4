// Command benchjson maintains the committed benchmark snapshots listed
// in perf.Snapshots: BENCH_replan.json (replan latency under seeded
// cluster churn, where a Fork family's shared plan and cost caches
// race fresh Systems), BENCH_online.json (the online tier's SLO
// quantities under a fixed seeded scenario), BENCH_capacity.json (the
// capacity planner's recommended fleet, cost, and analytic-vs-simulated
// agreement) and BENCH_obs.json (the telemetry layer's overhead). The
// measurement logic and the gates live in internal/perf.
//
//	benchjson -out .     # regenerate every snapshot in this directory
//	benchjson -check .   # CI gate: staleness + every regression gate
//
// A check fails when a committed snapshot was generated from different
// benchmark scenarios than the checked-out code measures (config
// fingerprint mismatch — regenerate with -out), or when a gate
// regresses past its bound: the Fork family's replan speedup over
// fresh Systems, the online tier's goodput and TTFT p50, and the
// capacity planner's fleet cost and simulated queue-wait p95 may each
// degrade at most 25% against the committed value; the telemetry
// overhead on the warm serve path must stay under the absolute
// perf.ObsOverheadCeiling (5%) no matter what was committed. Every gate
// is evaluated and every failure reported before the exit status is
// set.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"repro/internal/perf"
)

func main() {
	out := flag.String("out", "", "write fresh BENCH_*.json snapshots into this directory")
	check := flag.String("check", "", "gate the committed BENCH_*.json snapshots in this directory: fail on staleness or any regression")
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -out DIR or -check DIR is required")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	failed := 0
	for _, s := range perf.Snapshots {
		if *out != "" {
			fmt.Fprintf(os.Stderr, "benchjson: measuring %s...\n", s.File)
			if err := s.Write(ctx, *out); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", s.File, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", filepath.Join(*out, s.File))
			continue
		}
		fmt.Fprintf(os.Stderr, "benchjson: checking %s...\n", s.File)
		for _, err := range s.Check(ctx, *check, os.Stdout) {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d check(s) failed\n", failed)
		os.Exit(1)
	}
}
