// Package expt is the experiment harness: one runner per table and figure
// of the paper's evaluation, each returning the rows/series the paper
// reports. The cmd/wsswitch binary and the benchmark suite drive this
// package; EXPERIMENTS.md records paper-vs-measured values per id.
package expt

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"waferswitch/internal/sim"
)

// Table is the result of one experiment: the rows of a paper table, or
// the series of a paper figure rendered as rows. It is JSON-tagged for
// the wsswitch -json output; Attachments carries machine-readable extras
// (raw sim.Stats series, probe snapshots, sweep summaries) that the text
// Render omits.
type Table struct {
	ID          string                 `json:"id"`
	Title       string                 `json:"title"`
	Headers     []string               `json:"headers"`
	Rows        [][]string             `json:"rows"`
	Notes       []string               `json:"notes,omitempty"`
	Attachments map[string]interface{} `json:"attachments,omitempty"`
}

// Attach records a machine-readable extra under the given key. The value
// must marshal to JSON; it is ignored by the text renderer.
func (t *Table) Attach(key string, v interface{}) {
	if t.Attachments == nil {
		t.Attachments = make(map[string]interface{})
	}
	t.Attachments[key] = v
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tunes experiment execution.
type Options struct {
	// Quick reduces simulation scale and optimizer restarts so the whole
	// suite runs in seconds (used by tests and -short benchmarks).
	Quick bool
	// Seed makes every experiment deterministic.
	Seed int64
	// Logger, when non-nil, receives structured progress events from the
	// experiments and the simulator runs under them (wsswitch -v).
	Logger *slog.Logger
	// SweepOptions runs every simulator sweep point (sim.Sweep and,
	// with Abort set, sim.FindSaturation) and reaches the harness too:
	//   - Workers also bounds the Pool that grids and fabric comparisons
	//     fan across; Progress also receives the Pool's point totals and
	//     each worker's current assignment.
	//   - Probe (wsswitch -json) attaches "<series>_probes" and
	//     "<series>_aggregate" to result tables, TimelineInterval
	//     "<series>_timeline", Attribution "<series>_attribution" plus
	//     the post-mortems of saturated points as table notes.
	//   - Abort (wsswitch -adaptive) also switches saturation-grid
	//     experiments (fig21) from the exhaustive load grid to a
	//     bisection search per cell.
	//   - Ctx and LiveName are set per experiment and per sweep series.
	// Results are bit-identical for every Workers value.
	sim.SweepOptions
}

func (o Options) pool() Pool { return Pool{Workers: o.Workers, ctx: o.Ctx, progress: o.Progress} }

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) restarts() int {
	if o.Quick {
		return 1
	}
	return 3
}

// Runner executes one experiment.
type Runner func(Options) (*Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("expt: duplicate experiment id " + id)
	}
	registry[id] = r
}

// Run executes the experiment with the given id.
func Run(id string, o Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q (see IDs())", id)
	}
	var start time.Time
	if o.Logger != nil {
		start = time.Now()
		o.Logger.Info("expt.start", "id", id, "quick", o.Quick, "seed", o.seed(),
			"probe", o.Probe, "workers", o.Workers)
	}
	var t *Table
	var err error
	// Label the whole experiment so -cpuprofile output groups samples by
	// experiment id (worker/point labels nest inside; see Pool.Each).
	pprof.Do(context.Background(), pprof.Labels("experiment", id),
		func(ctx context.Context) {
			o.Ctx = ctx
			t, err = r(o)
		})
	if err != nil {
		if o.Logger != nil {
			o.Logger.Error("expt.failed", "id", id, "err", err)
		}
		return nil, fmt.Errorf("expt: %s: %w", id, err)
	}
	if o.Logger != nil {
		o.Logger.Info("expt.done", "id", id, "rows", len(t.Rows),
			"attachments", len(t.Attachments), "elapsed", time.Since(start).Round(time.Millisecond))
	}
	return t, nil
}

// IDs lists all registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
