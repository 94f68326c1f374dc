package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"waferswitch/internal/core"
	"waferswitch/internal/sim"
)

// digester hashes result fields bit-for-bit: floats by their IEEE bits,
// strings length-prefixed.
type digester struct{ buf []byte }

func (d *digester) u64(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
func (d *digester) i64(v int64)  { d.u64(uint64(v)) }
func (d *digester) f64(v float64) {
	d.u64(math.Float64bits(v))
}
func (d *digester) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}
func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}

// statsDigest covers every sim.Stats field.
func statsDigest(st sim.Stats) string {
	var d digester
	d.f64(st.Offered)
	d.f64(st.Accepted)
	d.f64(st.AvgLatency)
	d.f64(st.P50Latency)
	d.f64(st.P99Latency)
	d.f64(st.P999Latency)
	d.i64(int64(st.Completed))
	d.flag(st.Drained)
	d.flag(st.Aborted)
	d.flag(st.Converged)
	d.i64(st.Cycles)
	return d.sum()
}

func latencyDigest(v float64) string {
	var d digester
	d.f64(v)
	return d.sum()
}

// designsDigest covers Ports, Feasible, Reasons, MaxChannelLoad and
// PowerDensity of every design an evaluation returned, in order.
func designsDigest(ds []*core.Design) string {
	var d digester
	for _, x := range ds {
		d.i64(int64(x.Ports))
		d.flag(x.Feasible)
		d.u64(uint64(len(x.Reasons)))
		for _, r := range x.Reasons {
			d.str(r)
		}
		d.i64(int64(x.MaxChannelLoad))
		d.f64(x.PowerDensity)
	}
	return d.sum()
}

// pinnedJSON maps seed -> workload -> op -> digest for the shipped seeds.
// Regenerate an entry with --print-digests.
//
//go:embed digests.json
var pinnedJSON []byte

type pinTable map[string]map[string]map[string]string

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("perfbench: digests.json: %w", err)
	}
	return p, nil
}

// lookup returns the pinned digests of one workload at one seed, or nil
// when the seed is not pinned.
func (p pinTable) lookup(seed int64, workload string) map[string]string {
	return p[fmt.Sprint(seed)][workload]
}
