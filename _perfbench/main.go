// Command perfbench is GenDPR's end-to-end benchmark. It assembles the
// always-on assessment service in-process (service.NewInProcessBackend, a
// checkpoint.MemStore and Server.Handler on loopback HTTP), drives POST
// /assess under one of three workloads, checks every reply against an oracle,
// and prints one JSON result line.
//
// Usage (from the repository root; _perfbench/run.sh builds and runs it):
//
//	perfbench --workload t4-fresh --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 it carries the per-layer metrics of a traced run,
// which wraps only the public seams a caller can reach (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	res, rec, err := runMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if line, err := json.Marshal(rec); err == nil {
		fmt.Println("run_record " + string(line))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runMain(args []string) (*result, *runRecord, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: t4-fresh, g5-lattice or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed: drives cutoffs, tenants, hot shapes and arrival times")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	root := fs.String("root", ".", "repository root, for the run record's source digest")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	spec, ok := workloadSpec(*workload, false)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return nil, nil, fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		return nil, nil, fmt.Errorf("--root %s is not the repository root: %w", *root, err)
	}
	opts := runOptions{
		spec:   spec,
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
	}
	res, err := run(opts)
	if err != nil {
		return nil, nil, err
	}
	return res, newRunRecord(opts, res, *root), nil
}
