// Command perfbench is the repository's benchmark: it drives the eQASM
// stack through two closed-loop workloads, checks every output
// against a lone-Simulator reference, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as one JSON
// object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fresh --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 8 --trace 1
//	bash perfbench/run.sh --compare a.json b.json
//
// --out FILE also writes the full result (host fingerprint included) to
// FILE; --compare refuses two results whose hosts differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// callers is the number of closed-loop callers.
	callers int
	// unit names a request's work in the human report; reportName is
	// the throughput's name there (e.g. requests_per_s) and latName
	// the prefix of its latency lines (default <name>.latency).
	unit, reportName, latName string
	run                       func(rc runConfig) (*outcome, error)
}

var workloads = []*workload{serveWorkload, freshWorkload}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result written by --out.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	result
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 8, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
		workdir = flag.String("workdir", ".bench_build", "scratch directory (WAL, span files)")
		out     = flag.String("out", "", "also write the full result, host fingerprint included, to this file")
		compare = flag.Bool("compare", false, "compare two --out files given as arguments")
		list    = flag.Bool("list", false, "print the workloads and the per-layer metric map")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two result files"))
		}
		fatal(compareFiles(flag.Arg(0), flag.Arg(1)))
		return
	case *list:
		printMap()
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q (valid: all, %s)", *name, workloadNames()))
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	h := fingerprint()
	fmt.Printf("# host %s\n", h)
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		res, err := runOne(w, rc)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	if *out != "" {
		rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: rc.trace, Host: h, result: total}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runOne runs one workload and turns its outcome into the reported
// metrics, printing the human-readable lines on the way.
func runOne(w *workload, rc runConfig) (result, error) {
	o, err := w.run(rc)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, p := range []*phase{o.main, o.traced} {
		if p == nil {
			continue
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d requests failed; first: %v\n",
				w.name, p.failed, p.attempted, p.firstErr)
		}
	}
	res.Correct = res.Failed == 0
	e2e := endToEndValues(o.main, o.setupS)
	fmt.Printf("# %s seed %d: %d requests, failed_share %.4g\n", w.name, rc.seed, res.Attempted,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	fmt.Printf("%-40s %14.6g %s/s\n", w.reportName, e2e["throughput_per_s"], w.unit)
	lat := w.latName
	if lat == "" {
		lat = w.name + ".latency"
	}
	fmt.Printf("%-40s %14.6g ms (p50 of %.0f)\n", lat+"_p50_ms", e2e["latency_p50_ms"], e2e["latency_samples"])
	fmt.Printf("%-40s %14.6g ms (p%.2f)\n", lat+"_tail_ms", e2e["latency_tail_ms"], e2e["latency_tail_pct"])
	fmt.Printf("%-40s %14.6g s\n", w.name+".setup_s", o.setupS)
	if !rc.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
		return res, nil
	}
	layers := o.layers
	if layers == nil {
		layers = map[string]float64{}
	}
	t := endToEndValues(o.traced, o.setupS)
	for name, key := range map[string]string{
		"throughput": "throughput_per_s", "latency_p50": "latency_p50_ms", "latency_tail": "latency_tail_ms",
	} {
		if base := e2e[key]; base != 0 && t[key] != 0 {
			layers["trace.overhead."+name] = t[key]/base - 1
		}
	}
	layers["latency_tail_ms"] = e2e["latency_tail_ms"]
	layers["latency_tail_pct"] = e2e["latency_tail_pct"]
	layers["latency_samples"] = e2e["latency_samples"]
	for _, m := range perLayer {
		v := layers[m.name]
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		if v != 0 {
			fmt.Printf("%-40s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	return res, nil
}

// endToEndValues computes the end-to-end metrics of one phase, plus the
// tail's percentile and the sample count behind the latencies.
func endToEndValues(p *phase, setupS float64) map[string]float64 {
	v := map[string]float64{"setup_s": setupS}
	if p == nil {
		return v
	}
	lat := p.latencies()
	v["throughput_per_s"] = p.throughput()
	v["latency_p50_ms"] = median(lat)
	v["latency_samples"] = float64(len(lat))
	if t, pct, ok := tail(lat); ok {
		v["latency_tail_ms"], v["latency_tail_pct"] = t, pct
	}
	return v
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printMap prints the workloads and, for every per-layer metric, the
// workload that exercises the layer and the end-to-end metric it moves.
func printMap() {
	for _, w := range workloads {
		fmt.Printf("workload %-10s closed loop, %d caller(s): %s\n", w.name, w.callers, w.why)
	}
	for _, m := range perLayer {
		fmt.Printf("%-38s %-6s on %-34s moves %s\n", m.name, m.unit, m.workload, m.moves)
	}
}

// compareFiles prints the relative change of every metric between two
// --out files, refusing results recorded on different hosts.
func compareFiles(a, b string) error {
	ra, err := readRecord(a)
	if err != nil {
		return err
	}
	rb, err := readRecord(b)
	if err != nil {
		return err
	}
	if !ra.Host.sameMachine(rb.Host) {
		return fmt.Errorf("refusing to compare results from different hosts:\n  %s\n  %s", ra.Host, rb.Host)
	}
	if ra.Workload != rb.Workload || ra.Trace != rb.Trace || ra.Seconds != rb.Seconds {
		return fmt.Errorf("refusing to compare different runs (workload, trace or seconds differ)")
	}
	names := make([]string, 0, len(ra.Metrics))
	for k := range ra.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# base %s (rev %s)\n# new  %s (rev %s)\n", a, ra.Host.Rev, b, rb.Host.Rev)
	for _, k := range names {
		va, vb := ra.Metrics[k], rb.Metrics[k]
		delta := "n/a"
		if va.Value != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(vb.Value/va.Value-1))
		}
		fmt.Printf("%-44s %14.6g %14.6g %-6s %s\n", k, va.Value, vb.Value, va.Unit, delta)
	}
	return nil
}

func readRecord(path string) (record, error) {
	var r record
	data, err := os.ReadFile(filepath.Clean(path))
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func fatal(err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
