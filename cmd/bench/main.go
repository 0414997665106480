// Command bench is the repository's one benchmark ledger: four
// workloads (crawl-sim, crawl-wire, census-publish, census-serve), the
// end-to-end metrics of BENCHMARK.json measured with tracing off, and
// per-layer attribution from a separate traced run. See
// bench/README.md for what each workload and metric means.
//
// Usage:
//
//	bench                         full pass: every workload, -repeats untraced
//	                              runs and one traced run each, in child
//	                              processes; prints the ledger, writes -out
//	bench -workload W [-trace 1]  one run of one workload in this process;
//	                              the last line of standard output is the
//	                              run's result as one JSON object
//	bench -compare a.json b.json  apply each metric's bound to b against a
//	bench -repeat-check           two full passes back to back, compared
//
// Common flags: -seed N (default 42), -seconds S (default 10).
//
// bench exits non-zero when a workload's output is incorrect, when a
// comparison finds a regression or differing exact counts, or on any
// error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/bench"
)

const outDir = "bench/out"

func main() {
	var (
		workload    = flag.String("workload", "", "run only this workload, in this process")
		seed        = flag.Int64("seed", 42, "workload seed: the only input to world and log generation")
		seconds     = flag.Float64("seconds", bench.RunSeconds, "measuring time per run")
		repeats     = flag.Int("repeats", 3, "untraced runs per workload in a full pass")
		trace       = flag.Int("trace", 0, "1: traced run, reporting per-layer metrics and writing "+outDir+"/trace-<workload>.json")
		out         = flag.String("out", filepath.Join(outDir, "result.json"), "where a full pass writes its report")
		compare     = flag.Bool("compare", false, "compare two reports: bench -compare a.json b.json")
		repeatCheck = flag.Bool("repeat-check", false, "run two full passes and compare them")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *workload != "":
		err = runOne(bench.Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: outDir})
	case *repeatCheck:
		err = runRepeatCheck(*seed, *seconds, *repeats, *out)
	default:
		var r *bench.Report
		if r, err = fullPass(*seed, *seconds, *repeats); err == nil {
			r.Print(os.Stdout)
			err = writeReport(*out, r)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload here and prints its result line last.
func runOne(o bench.Options) error {
	res, err := bench.Run(o)
	if err != nil {
		return err
	}
	line, err := res.Line(o.Trace)
	if err != nil {
		return err
	}
	for _, n := range res.Notes {
		fmt.Println(n)
	}
	for _, f := range res.Failures {
		fmt.Println("FAIL:", f)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if !line.Correct {
		return fmt.Errorf("%s: output incorrect (%d of %d failed)", o.Workload, line.Failed, line.Attempted)
	}
	return nil
}

// child runs one workload in a fresh process (so peak RSS and heap
// state are the workload's own) and parses its result line.
func child(workload string, seed int64, seconds float64, trace int) (bench.Line, error) {
	var line bench.Line
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("   ", l)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	return line, nil // an incorrect run is reported through line.Correct
}

// fullPass runs every workload: repeats untraced runs, then one traced.
func fullPass(seed int64, seconds float64, repeats int) (*bench.Report, error) {
	r := &bench.Report{Env: bench.ThisEnv(), Seed: seed, Seconds: seconds, Repeats: repeats}
	for _, w := range bench.Workloads {
		var untraced []bench.Line
		for i := 0; i < repeats; i++ {
			fmt.Printf("%s: run %d of %d\n", w.Name, i+1, repeats)
			l, err := child(w.Name, seed, seconds, 0)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, l)
		}
		fmt.Printf("%s: traced run\n", w.Name)
		traced, err := child(w.Name, seed, seconds, 1)
		if err != nil {
			return nil, err
		}
		r.Workloads = append(r.Workloads, bench.Fold(w.Name, untraced, &traced))
	}
	return r, nil
}

func writeReport(path string, r *bench.Report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := bench.WriteJSON(path, r); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, w := range r.Workloads {
		if !w.Correct {
			return fmt.Errorf("%s: output incorrect (%d of %d failed)", w.Name, w.Failed, w.Attempted)
		}
	}
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two report files, got %d", len(args))
	}
	a, err := bench.ReadReport(args[0])
	if err != nil {
		return err
	}
	b, err := bench.ReadReport(args[1])
	if err != nil {
		return err
	}
	c := bench.Compare(a, b)
	c.Print(os.Stdout)
	if !c.OK() {
		return fmt.Errorf("%s regresses against %s", args[1], args[0])
	}
	return nil
}

// runRepeatCheck measures the same commit twice and holds the second
// set to the benchmark's own bounds against the first. The two reports
// and the comparison land next to out as <out>-a.json, -b.json and
// -compare.json.
func runRepeatCheck(seed int64, seconds float64, repeats int, out string) error {
	base := strings.TrimSuffix(out, ".json")
	var sets [2]*bench.Report
	for i, suffix := range []string{"-a.json", "-b.json"} {
		r, err := fullPass(seed, seconds, repeats)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		if err := writeReport(base+suffix, r); err != nil {
			return err
		}
		sets[i] = r
	}
	c := bench.Compare(sets[0], sets[1])
	c.Print(os.Stdout)
	if err := bench.WriteJSON(base+"-compare.json", c); err != nil {
		return err
	}
	if !c.OK() {
		return fmt.Errorf("the second set is outside the bounds of the first")
	}
	return nil
}
