// Command bench is Litmus's end-to-end benchmark: it drives the real
// serving stack in process (serve nodes behind net/http on loopback,
// reached through serve/client or serve/shard.Router) with one of four
// seeded workloads, checks every answer it can against the golden
// fixture and the library path, and prints each metric by name and unit.
// The last line of standard output is the result as one JSON object.
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	cd bench && go run . -workload all -repeat 10
//
// -workload all and -repeat N re-execute the program once per run, so
// peak RSS and GC state belong to one workload. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "nominal length of a timed phase; fixes the amount of work")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run each workload N times (seeds seed..seed+N-1) and print each metric's spread")
	out := flag.String("o", "", "also write every reading of the run(s) to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()

	if *workload == "all" || *repeat > 0 {
		names := []string{*workload}
		if *workload == "all" {
			names = nil
			for _, w := range workloadDefs {
				names = append(names, w.name)
			}
		}
		os.Exit(orchestrate(ctx, names, *seed, *seconds, *trace == 1, max(*repeat, 1), *out))
	}

	opts := options{
		workload: *workload, seed: *seed, trace: *trace == 1,
		golden:   findGolden(),
		traceOut: filepath.Join(".bench_build", "trace-"+*workload+".json"),
		tmp:      os.TempDir(),
		size:     sizeFor(*workload, *seconds),
		warmup:   2 * time.Second,
	}
	// A run is expected to end within 180 s; stop short of it.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	res, rep, err := runWorkload(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printReport(*workload, *seed, opts.trace, rep)
	if *out != "" {
		if err := writeJSON(*out, runFile{Result: res, Readings: rep.values}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(res) // plain data; cannot fail
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// findGolden locates the golden fixture from the repository root (where
// the benchmark is normally run) or from bench/.
func findGolden() string {
	p := filepath.Join("testdata", "golden_assessment.json")
	if _, err := os.Stat(p); err == nil {
		return p
	}
	return filepath.Join("..", p)
}

// runFile is what -o writes for one run.
type runFile struct {
	Result   *result                `json:"result"`
	Readings map[string]metricValue `json:"readings"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printReport(workload string, seed int64, trace bool, rep *report) {
	mode := "untraced"
	if trace {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %s\n", workload, seed, mode)
	for _, name := range rep.order {
		v := rep.values[name]
		fmt.Printf("  %-44s %16s %s\n", name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit)
	}
}

// orchestrate runs each named workload `repeat` times, each run in a
// fresh process, round-robin over the workloads so slow drifts of the
// machine spread evenly. With trace set, every traced run is paired with
// an untraced one so the tracing overhead can be printed. It returns the
// exit code.
func orchestrate(ctx context.Context, names []string, seed int64, seconds int, trace bool, repeat int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "bench-runs-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	code := 0
	runs := map[string][]runFile{}   // workload → untraced runs
	traced := map[string][]runFile{} // workload → traced runs
	for i := 0; i < repeat; i++ {
		for _, name := range names {
			modes := []bool{false}
			if trace {
				modes = append(modes, true)
			}
			for _, tr := range modes {
				rf, err := child(ctx, exe, dir, name, seed+int64(i), seconds, tr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, seed+int64(i), err)
					code = 1
				}
				if rf == nil {
					continue
				}
				if tr {
					traced[name] = append(traced[name], *rf)
				} else {
					runs[name] = append(runs[name], *rf)
				}
			}
		}
	}
	// Untraced runs also print the per-layer readings they take (the
	// end-to-end timings that have no bound).
	all := append(append([]metricDef(nil), endToEnd...), perLayer...)
	summary := map[string]any{}
	for _, name := range names {
		if repeat > 1 {
			summary[name] = printSpread(name, runs[name], all)
			if trace {
				summary[name+"/traced"] = printSpread(name+" (traced)", traced[name], perLayer)
			}
			continue
		}
		for _, rf := range runs[name] {
			summary[name] = rf.Result
		}
		for _, rf := range traced[name] {
			summary[name+"/traced"] = rf.Result
		}
		if len(runs[name]) == 1 && len(traced[name]) == 1 {
			summary[name+"/tracing_overhead"] = printOverhead(name, runs[name][0], traced[name][0], all)
		}
	}
	if out != "" {
		if err := writeJSON(out, summary); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	line, _ := json.Marshal(map[string]any{"ok": code == 0, "runs": summary})
	fmt.Println(string(line))
	return code
}

// child runs one workload in a fresh process, echoing its report, and
// returns its readings. A run that finished but failed its checks
// returns both its readings and an error.
func child(ctx context.Context, exe, dir, name string, seed int64, seconds int, trace bool) (*runFile, error) {
	tag := "0"
	if trace {
		tag = "1"
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", name, seed, tag))
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", tag, "-o", file)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
	for _, l := range lines[:max(len(lines)-1, 0)] {
		fmt.Println(string(l))
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	var rf runFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, err
	}
	return &rf, runErr
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), so spreads printed here match a check written in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
	Bound  float64 `json:"bound,omitempty"`
	Runs   int     `json:"runs"`
}

// printSpread prints, for every catalogue metric, the median over runs,
// the quartiles and the quartile distance as a share of the median
// against the metric's bound.
func printSpread(title string, runs []runFile, defs []metricDef) map[string]spread {
	fmt.Printf("== %s: %d runs\n", title, len(runs))
	fmt.Printf("  %-44s %12s %12s %12s %8s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
	out := map[string]spread{}
	for _, d := range defs {
		var vals []float64
		for _, r := range runs {
			if v, ok := r.Readings[d.name]; ok {
				vals = append(vals, v.Value)
			}
		}
		if len(vals) == 0 {
			continue
		}
		q1, q3 := quartiles(vals)
		sp := spread{Median: median(vals), Q1: q1, Q3: q3, Bound: d.bound, Runs: len(vals)}
		if sp.Median != 0 {
			sp.Spread = (q3 - q1) / math.Abs(sp.Median)
		}
		out[d.name] = sp
		verdict := ""
		switch {
		case d.bound == 0:
		case sp.Spread > d.bound:
			verdict = "  WIDER THAN BOUND"
		case sp.Spread > d.bound/3:
			verdict = "  above a third of the bound"
		}
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.bound)
		}
		fmt.Printf("  %-44s %12.5g %12.5g %12.5g %7.2f%% %7s%s\n", d.name, sp.Median, q1, q3, 100*sp.Spread, bound, verdict)
	}
	return out
}

// printOverhead prints how the readings both runs took differ between
// the traced run and the untraced one.
func printOverhead(name string, plain, traced runFile, defs []metricDef) map[string]float64 {
	fmt.Printf("== %s: tracing overhead (traced / untraced - 1)\n", name)
	out := map[string]float64{}
	for _, d := range defs {
		a, okA := plain.Readings[d.name]
		b, okB := traced.Readings[d.name]
		if !okA || !okB || a.Value == 0 {
			continue
		}
		out[d.name] = b.Value/a.Value - 1
		fmt.Printf("  %-44s %+8.2f%%\n", d.name, 100*out[d.name])
	}
	return out
}
