// Command perfbench is the repository's benchmark. It runs one workload
// of the simulator's library layers (core, sim, topo, traffic) as a
// closed loop — one client goroutine issuing its operations back to
// back, the library keeping its own parallelism — checks every result,
// and prints every metric by name and unit. The last line of stdout is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload designspace --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --list-metrics
//
// --trace 0 reports the end-to-end metrics of untraced passes; --trace 1
// runs one untraced reference pass and then traced passes, and reports
// the per-layer metrics, timed from this package around the calls into
// each layer. Inputs derive from --seed only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commit is stamped at link time by run.sh.
var commit = "unknown"

// setupProbes is how many fresh processes time the workload's setup.
const setupProbes = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	runIndex := fs.Int("run-index", 0, "run index echoed in the provenance block")
	list := fs.Bool("list-metrics", false, "list every metric and exit")
	printDigests := fs.Bool("print-digests", false, "print the op digests of every input variant as digests.json entries and exit")
	setupProbe := fs.Bool("setup-probe", false, "prepare the workload, print \"ready\" and exit (used to time setup)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		if err := printCatalogue(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d (want 0 or 1)\n", *trace)
		return 2
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		fmt.Fprintf(stderr, "perfbench: GOMAXPROCS %d exceeds the %d CPUs available\n", p, n)
		return 2
	}
	if *setupProbe {
		if _, err := w.prepare(*seed, false, &setupTimes{}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	if *printDigests {
		return runPrintDigests(w, *seed, stdout, stderr)
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rc := runConfig{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		pins: pins.lookup(*seed, w.name),
	}
	if !rc.trace {
		rc.setupSamples = func() ([]float64, error) { return timeSetupProcesses(w.name, *seed) }
	}
	prov := provenance(w.name, *seed, *runIndex)
	res, err := measure(rc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, prov, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runConfig is one benchmark run.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	// pins are the pinned op digests for this workload and seed, or nil.
	pins map[string]string
	// setupSamples times the setup in fresh processes; nil uses this
	// process's own setup time as the only sample.
	setupSamples func() ([]float64, error)
}

// result is what a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	passes   int
	walls    []float64 // wall-clock of every pass, in order
	failures []string
	refs     []string
}

// measure prepares the workload, runs passes for rc.seconds and checks
// every op of every pass.
func measure(rc runConfig) (*result, error) {
	var st setupTimes
	t0 := time.Now()
	b, err := rc.workload.prepare(rc.seed, rc.tiny, &st)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := []float64{time.Since(t0).Seconds()}
	if rc.setupSamples != nil {
		if setup, err = rc.setupSamples(); err != nil {
			return nil, fmt.Errorf("setup probes: %w", err)
		}
	}

	var passes [][]opResult
	var walls, allocs []float64
	var proc procSample
	// A pass starts only if, at the median pass time so far, it ends
	// within rc.seconds; the first pass always runs.
	start := time.Now()
	fits := func(walls []float64) bool {
		return len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= rc.seconds
	}
	for fits(walls) {
		p0 := sampleProc()
		a0 := totalAlloc()
		t := time.Now()
		res := b.pass(nil, len(walls)%b.variants)
		walls = append(walls, time.Since(t).Seconds())
		allocs = append(allocs, float64(totalAlloc()-a0)/1e6)
		proc = sampleProc().since(p0)
		passes = append(passes, res)
		if rc.trace {
			break // one untraced reference pass, then traced passes
		}
	}

	out := &result{Metrics: map[string]metricValue{}}
	if rc.trace {
		tr := &tracer{}
		var traced []float64
		for fits(traced) {
			t := time.Now()
			passes = append(passes, b.pass(tr, len(traced)%b.variants))
			traced = append(traced, time.Since(t).Seconds())
		}
		out.Metrics = tr.layerMetrics(len(traced), st, proc, median(traced))
	} else {
		out.Metrics["wall_s"] = metricValue{median(walls), "s"}
		out.Metrics["setup_s"] = metricValue{median(setup), "s"}
		out.Metrics["alloc_mb"] = metricValue{median(allocs), "MB"}
	}
	out.passes = len(passes)
	out.walls = walls
	out.check(passes, rc.pins)
	out.refs = b.refs(passes[0])
	return out, nil
}

// check counts every op of every pass: it fails if it errored, broke an
// invariant, or its digest differs from the pinned one — or, for an
// unpinned seed, from the op's first run in this process, so repeated
// variants and the traced passes must reproduce the untraced passes.
func (r *result) check(passes [][]opResult, pins map[string]string) {
	seen := map[string]string{}
	for i, pass := range passes {
		for _, op := range pass {
			r.Attempted++
			want, ok := pins[op.name]
			if pins == nil {
				want, ok = seen[op.name]
				if !ok {
					want, ok = op.digest, true
					seen[op.name] = op.digest
				}
			}
			var why string
			switch {
			case op.err != nil:
				why = op.err.Error()
			case !ok:
				why = "no pinned digest"
			case op.digest != want:
				why = fmt.Sprintf("digest %s, want %s", op.digest, want)
			default:
				continue
			}
			r.Failed++
			r.failures = append(r.failures, fmt.Sprintf("pass %d %s: %s", i, op.name, why))
		}
	}
	r.Correct = len(r.failures) == 0
}

// timeSetupProcesses starts fresh copies of this binary that prepare the
// workload and report ready, and times each from start to ready: the
// cold setup, route cache empty, as a user's process pays it.
func timeSetupProcesses(workload string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		_, _ = io.Copy(io.Discard, pipe) // drain so Wait cannot block on a full pipe
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("setup probe printed %q (%v)", line, rerr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func runPrintDigests(w workload, seed int64, stdout, stderr io.Writer) int {
	b, err := w.prepare(seed, false, &setupTimes{})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ops := map[string]string{}
	for v := 0; v < b.variants; v++ {
		for _, op := range b.pass(nil, v) {
			if op.err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", op.name, op.err)
				return 1
			}
			ops[op.name] = op.digest
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pinTable{strconv.FormatInt(seed, 10): {w.name: ops}}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// procCounters are cumulative process counters at one instant.
type procCounters struct {
	at              time.Time
	cpu             float64 // user + system seconds
	gcCPU, totalCPU float64 // runtime/metrics CPU-class estimates
	maxRSSMB        float64
}

func sampleProc() procCounters {
	c := procCounters{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		c.maxRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

func (c procCounters) since(p procCounters) procSample {
	s := procSample{wall: c.at.Sub(p.at).Seconds(), cpu: c.cpu - p.cpu, maxRSSMB: c.maxRSSMB}
	if d := c.totalCPU - p.totalCPU; d > 0 {
		s.gcShare = (c.gcCPU - p.gcCPU) / d
	}
	return s
}

// provenance is the host block every result carries.
type provenanceBlock struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	RunIndex   int    `json:"run_index"`
	Started    string `json:"started_utc"`
}

func provenance(workload string, seed int64, runIndex int) provenanceBlock {
	return provenanceBlock{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: commit,
		Seed: seed, Workload: workload, RunIndex: runIndex,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the human-readable result, then the JSON result line.
func report(w io.Writer, prov provenanceBlock, res *result) error {
	pb, _ := json.Marshal(prov) // plain struct: cannot fail
	fmt.Fprintf(w, "host %s\n", pb)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d fail_ratio=%g ratio passes=%d\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.passes)
	fmt.Fprintf(w, "untraced pass wall_s %.4f\n", res.walls)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	for _, l := range res.refs {
		fmt.Fprintf(w, "paper-ref (informational) %s\n", l)
	}
	if len(res.refs) > 0 {
		fmt.Fprintln(w, "paper-ref (informational) the model is compared only against the paper's Booksim-reported numbers and is otherwise unvalidated")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
