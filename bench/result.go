package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the one-line result a single run prints last on standard
// output: the end-to-end metrics with tracing off, the per-layer
// metrics with tracing on.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Line renders the outcome as the run's result line. It fails if the
// run did not produce a finite value for every metric of its mode.
func (o *Outcome) Line(trace bool) (Line, error) {
	list := EndToEnd
	if trace {
		list = PerLayer
	}
	l := Line{Correct: o.Correct(), Attempted: max(o.Attempted, 1), Failed: o.Failed, Metrics: map[string]Value{}}
	for _, m := range list {
		v, ok := o.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return l, fmt.Errorf("bench: metric %s has no finite value (%v)", m.Name, v)
		}
		l.Metrics[m.Name] = Value{v, m.Unit}
	}
	return l, nil
}

// Env records where a report was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Transport states what the numbers do not include.
	Transport string `json:"transport"`
}

// ThisEnv describes the running process.
func ThisEnv() Env {
	return Env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Transport: "in-process only: netpipe connections and direct ServeHTTP calls, no loopback sockets",
	}
}

// Measured is one metric of one workload in a report: the median of
// its runs, and the runs.
type Measured struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Runs  []float64 `json:"runs,omitempty"`
}

// WorkloadReport is one workload's row of the ledger.
type WorkloadReport struct {
	Name      string              `json:"name"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	EndToEnd  map[string]Measured `json:"end_to_end"`
	PerLayer  map[string]Measured `json:"per_layer,omitempty"`
}

// Report is the result of one full pass: every workload, Repeats
// untraced runs each plus one traced run.
type Report struct {
	Env       Env              `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Repeats   int              `json:"repeats"`
	Workloads []WorkloadReport `json:"workloads"`
	// Claim is always null: the benchmark states numbers, not gains.
	Claim *string `json:"claim"`
}

// Fold turns a workload's untraced and traced result lines into its
// report row: every end-to-end metric is the median of the untraced
// runs.
func Fold(name string, untraced []Line, traced *Line) WorkloadReport {
	w := WorkloadReport{Name: name, Correct: true, EndToEnd: map[string]Measured{}}
	for _, l := range untraced {
		w.Correct = w.Correct && l.Correct
		w.Attempted += l.Attempted
		w.Failed += l.Failed
	}
	for _, m := range EndToEnd {
		var runs []float64
		for _, l := range untraced {
			runs = append(runs, l.Metrics[m.Name].Value)
		}
		w.EndToEnd[m.Name] = Measured{Value: Median(runs), Unit: m.Unit, Runs: runs}
	}
	if traced != nil {
		w.Correct = w.Correct && traced.Correct
		w.PerLayer = map[string]Measured{}
		for name, v := range traced.Metrics {
			w.PerLayer[name] = Measured{Value: v.Value, Unit: v.Unit}
		}
	}
	return w
}

// Print writes the ledger as a table: every metric by name and unit.
func (r *Report) Print(out io.Writer) {
	fmt.Fprintf(out, "seed %d, %g s per run, median of %d runs; nproc %d, GOMAXPROCS %d, %s\n%s\n",
		r.Seed, r.Seconds, r.Repeats, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Transport)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, w := range r.Workloads {
		verdict := "correct"
		if !w.Correct {
			verdict = "INCORRECT"
		}
		fmt.Fprintf(tw, "\n%s\t%s, %d attempted, %d failed\t\t\n", w.Name, verdict, w.Attempted, w.Failed)
		for _, m := range EndToEnd {
			v := w.EndToEnd[m.Name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tspread %.3f, bound %.2f\n", m.Name, v.Value, v.Unit, Spread(v.Runs), m.Bound)
		}
		for _, m := range PerLayer {
			if v, ok := w.PerLayer[m.Name]; ok && v.Value != 0 {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", m.Name, v.Value, v.Unit)
			}
		}
	}
	tw.Flush() //nolint:errcheck // a failed write to the terminal has no remedy
	fmt.Fprintln(out, `"claim": null`)
}

// WriteJSON stores v at path.
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadReport loads a report written by WriteJSON.
func ReadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of a comparison row.
const (
	Pass       = "pass"
	Regress    = "regress"
	Unresolved = "unresolved" // the run-to-run spread is wider than the bound
)

// Row is one (workload, end-to-end metric) pairing of a comparison.
type Row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Worse is how much worse b's median is than a's, as a share of a's
	// (negative: better).
	Worse   float64 `json:"worse"`
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	Bound   float64 `json:"bound"`
	// Derived is the bound the issue's rule gives for these two sets:
	// max(0.05, 2 × the wider spread).
	Derived float64 `json:"derived_bound"`
	Verdict string  `json:"verdict"`
}

// Comparison is the outcome of comparing report b against report a.
type Comparison struct {
	Rows []Row `json:"rows"`
	// CountMismatches lists exact counts (conns, log bytes, dials,
	// publishes) on which the two reports disagree; for two sets of one
	// commit and one seed there must be none.
	CountMismatches []string `json:"count_mismatches"`
}

// OK reports whether nothing regressed and every exact count agreed.
func (c *Comparison) OK() bool {
	for _, r := range c.Rows {
		if r.Verdict == Regress {
			return false
		}
	}
	return len(c.CountMismatches) == 0
}

// Compare applies every end-to-end metric's bound to each workload row
// of b against a, and checks the exact counts when both reports used
// one seed.
func Compare(a, b *Report) *Comparison {
	c := &Comparison{CountMismatches: []string{}}
	rows := map[string]WorkloadReport{}
	for _, w := range b.Workloads {
		rows[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := rows[wa.Name]
		if !ok {
			continue
		}
		for _, m := range EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			r := Row{
				Workload: wa.Name, Metric: m.Name, Unit: m.Unit, A: va.Value, B: vb.Value,
				SpreadA: Spread(va.Runs), SpreadB: Spread(vb.Runs), Bound: m.Bound,
			}
			r.Worse = (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				r.Worse = -r.Worse
			}
			r.Derived = BoundFor(r.SpreadA, r.SpreadB)
			switch {
			case r.SpreadA > m.Bound || r.SpreadB > m.Bound:
				r.Verdict = Unresolved
			case r.Worse > m.Bound:
				r.Verdict = Regress
			default:
				r.Verdict = Pass
			}
			// JSON has no NaN; a single-run set has no spread.
			r.SpreadA, r.SpreadB = zeroIfNaN(r.SpreadA), zeroIfNaN(r.SpreadB)
			c.Rows = append(c.Rows, r)
		}
		if a.Seed != b.Seed {
			continue
		}
		for _, m := range PerLayer {
			va, oka := wa.PerLayer[m.Name]
			vb, okb := wb.PerLayer[m.Name]
			if m.Exact && oka && okb && va.Value != vb.Value {
				c.CountMismatches = append(c.CountMismatches,
					fmt.Sprintf("%s %s: %.0f vs %.0f", wa.Name, m.Name, va.Value, vb.Value))
			}
		}
	}
	sort.Strings(c.CountMismatches)
	return c
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// Print writes the comparison, one workload row per line.
func (c *Comparison) Print(out io.Writer) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tworse\tspread a\tspread b\tbound\tverdict")
	for _, r := range c.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.3f\t%.3f\t%.3f\t%.2f\t%s\n",
			r.Workload, r.Metric, r.A, r.B, r.Unit, r.Worse, r.SpreadA, r.SpreadB, r.Bound, r.Verdict)
	}
	tw.Flush() //nolint:errcheck // a failed write to the terminal has no remedy
	for _, m := range c.CountMismatches {
		fmt.Fprintln(out, "exact count differs:", m)
	}
	if len(c.CountMismatches) == 0 {
		fmt.Fprintln(out, "exact counts: identical")
	}
}
