package expt

import (
	"encoding/json"
	"strings"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
)

// TestFig21AdaptiveDeterministic pins that adaptive mode keeps the
// experiment harness's serial==parallel guarantee: the bisection
// searches land in index slots and each search is internally
// sequential, so the whole table — rows, notes and the attached search
// results — is byte-identical for any worker count.
func TestFig21AdaptiveDeterministic(t *testing.T) {
	serial, err := Run("fig21", Options{Quick: true, Seed: 1, SweepOptions: sim.SweepOptions{Abort: &sim.AbortOptions{}, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		par, err := Run("fig21", Options{Quick: true, Seed: 1, SweepOptions: sim.SweepOptions{Abort: &sim.AbortOptions{}, Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: adaptive fig21 diverged from serial", workers)
		}
	}
}

// TestFig21AdaptiveShape pins the adaptive table's contract: same
// headers and row count as the exhaustive run, a search attachment per
// grid cell, and a positive saturation throughput in every cell.
func TestFig21AdaptiveShape(t *testing.T) {
	exhaustive, err := Run("fig21", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Run("fig21", Options{Quick: true, Seed: 1, SweepOptions: sim.SweepOptions{Abort: &sim.AbortOptions{}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Rows) != len(exhaustive.Rows) {
		t.Errorf("adaptive has %d rows, exhaustive %d", len(adaptive.Rows), len(exhaustive.Rows))
	}
	if len(adaptive.Headers) != len(exhaustive.Headers) {
		t.Errorf("adaptive has %d headers, exhaustive %d", len(adaptive.Headers), len(exhaustive.Headers))
	}
	if _, ok := adaptive.Attachments["adaptive_search"]; !ok {
		t.Error("adaptive run missing the adaptive_search attachment")
	}
	if _, ok := exhaustive.Attachments["adaptive_search"]; ok {
		t.Error("exhaustive run carries an adaptive_search attachment")
	}
	for i, row := range adaptive.Rows {
		for j, cell := range row[1:] {
			if cell == "0" {
				t.Errorf("adaptive cell [%d][%d] reports zero saturation throughput", i, j+1)
			}
		}
	}
}

// TestAdaptiveSweepSummariesMatch pins that turning on Abort for a
// sweep-based experiment (fig22 uses plain load sweeps, not bisection)
// leaves the saturation summary identical: the early-abort engine only
// cuts drain budgets, never the measurement the summary is built from.
func TestAdaptiveSweepSummariesMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fig22 runs in short mode")
	}
	def, err := Run("fig22", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Run("fig22", Options{Quick: true, Seed: 1, SweepOptions: sim.SweepOptions{Abort: &sim.AbortOptions{}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"baseline_summary", "proprietary_summary"} {
		d, err := json.Marshal(def.Attachments[key])
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(ad.Attachments[key])
		if err != nil {
			t.Fatal(err)
		}
		if string(d) != string(a) {
			t.Errorf("%s diverged under -adaptive:\ndefault  %s\nadaptive %s", key, d, a)
		}
	}
}

// TestFig21AdaptiveObservers pins that the bisection path carries the
// same observers as the exhaustive grid: with Abort set, every search
// evaluation registers its timeline under the cell's live name, feeds
// the live attribution, and each cell attaches its merged attribution.
func TestFig21AdaptiveObservers(t *testing.T) {
	live := &obs.LiveTimelines{}
	attr := &obs.LiveAttribution{}
	tab, err := Run("fig21", Options{Quick: true, Seed: 1, SweepOptions: sim.SweepOptions{
		Abort: &sim.AbortOptions{}, TimelineInterval: 100, Live: live,
		Attribution: true, LiveAttrib: attr,
	}})
	if err != nil {
		t.Fatal(err)
	}
	names := live.Names()
	if len(names) == 0 {
		t.Fatal("adaptive fig21 registered no live timelines")
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "fig21/buf=") || !strings.Contains(n, "/load=") {
			t.Errorf("live series %q is not a per-point fig21 name", n)
		}
	}
	if s := attr.Snapshot(8); s == nil || s.Packets == 0 {
		t.Errorf("live attribution empty after adaptive fig21: %+v", s)
	}
	cells, ok := tab.Attachments["attribution_cells"]
	if !ok {
		t.Fatal("adaptive fig21 with Attribution attaches no attribution_cells")
	}
	raw, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Attribution *obs.AttributionSnapshot `json:"attribution"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(tab.Rows)*(len(tab.Headers)-1) {
		t.Errorf("%d attribution cells for a %dx%d grid", len(decoded), len(tab.Rows), len(tab.Headers)-1)
	}
	for i, c := range decoded {
		if c.Attribution == nil || c.Attribution.Packets == 0 {
			t.Errorf("cell %d has no attribution", i)
		}
	}
}
