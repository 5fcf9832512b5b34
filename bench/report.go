package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"selfstab/internal/stats"
)

// metricDef names a metric the final JSON line must carry, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run (--trace 0). Each workload says what its "op" is: a
// mutation until its ack (mut-small, mut-large), a membership or snapshot
// read (read-mix), or SMM then SMI converged with the K=1 engine
// (converge-1m). Every run also prints op_p99_ms, which is not listed: on
// a shared machine it follows the disk. Over ten mut-small runs it spread
// 72% (Q3−Q1 over the median), its worst runs those with the slowest
// fsync probe, more than any bound a comparison allows.
var endToEnd = []metricDef{
	{"heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics every traced run (--trace 1)
// reports. They are the layers every workload exercises: graph, the
// disk under the journal, sim (the engine twin's per-mutation epochs and
// the from-random converge sweep at K=1/K=2) and faults. Service-only
// layers (http, service, journal) are printed as text lines, because
// converge-1m runs no daemon.
var perLayer = []metricDef{
	{"disk.fsync_ms.p50", "ms"},
	{"faults.check_ms.p50", "ms"},
	{"graph.gen_s", "s"},
	{"sim.build_ms.k1", "ms"},
	{"sim.build_ms.k2", "ms"},
	{"sim.converge_ms.smi.k1", "ms"},
	{"sim.converge_ms.smi.k2", "ms"},
	{"sim.converge_ms.smm.k1", "ms"},
	{"sim.converge_ms.smm.k2", "ms"},
	{"sim.epoch_moves.mean", "count"},
	{"sim.epoch_ms.p50", "ms"},
	{"sim.epoch_ms.p99", "ms"},
	{"sim.epoch_rounds.mean", "count"},
	{"sim.moves.smi", "count"},
	{"sim.moves.smm", "count"},
	{"sim.round1_ms.smi.k1", "ms"},
	{"sim.round1_ms.smi.k2", "ms"},
	{"sim.round1_ms.smm.k1", "ms"},
	{"sim.round1_ms.smm.k2", "ms"},
	{"sim.rounds.smi", "count"},
	{"sim.rounds.smm", "count"},
	{"sim.setlink_ms.p50", "ms"},
	{"sim.tail_round_us.smi.k1", "us"},
	{"sim.tail_round_us.smi.k2", "us"},
	{"sim.tail_round_us.smm.k1", "us"},
	{"sim.tail_round_us.smm.k2", "us"},
	{"trace.op_p50_ms", "ms"},
}

type metric struct {
	name  string
	value float64
	unit  string
}

// maxErrs caps the failure messages kept per run; the count is exact.
const maxErrs = 20

// result collects one workload run: every metric in print order, and
// the operations and checks attempted and failed.
type result struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	errs      []string
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// addPct adds the p-th percentile of xs; an empty sample adds nothing,
// which the final line reports as a missing metric if it is a listed one.
func (r *result) addPct(name string, xs []float64, p float64, unit string) {
	if len(xs) > 0 {
		r.add(name, pct(xs, p), unit)
	}
}

// addMean is addPct for the arithmetic mean.
func (r *result) addMean(name string, xs []float64, unit string) {
	if len(xs) > 0 {
		r.add(name, stats.Mean(xs), unit)
	}
}

func (r *result) failf(format string, args ...any) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and records it as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failf(format, args...)
	}
}

func (r *result) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// jsonMetric is one entry of the final line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish builds the final JSON line from the listed metrics. A listed
// metric the run did not produce is a failure of the run.
func (r *result) finish(defs []metricDef) ([]byte, error) {
	if r.attempted == 0 {
		r.failf("no operation was attempted")
	}
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		m, ok := r.lookup(d.name)
		if !ok {
			r.failf("metric %s was not measured", d.name)
			continue
		}
		out[d.name] = jsonMetric{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, out})
}

// print writes every metric as a "workload metric value unit" line, the
// failures to errw, and the JSON line last.
func (r *result) print(w, errw io.Writer, defs []metricDef) error {
	line, err := r.finish(defs)
	if err != nil {
		return err
	}
	r.add("fail_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, e := range r.errs {
		fmt.Fprintf(errw, "%s FAIL %s\n", r.workload, e)
	}
	if r.failed > len(r.errs) {
		fmt.Fprintf(errw, "%s FAIL ... %d failures in all\n", r.workload, r.failed)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// timedOp is one timed operation.
type timedOp struct{ start, end time.Time }

// addOps adds <prefix>_p50_ms and _p99_ms for ops, their throughput over
// the window from the first start to the last end as the metric named
// rate, and their count as <prefix>_samples.
func (r *result) addOps(prefix, rate string, ops []timedOp) {
	if len(ops) == 0 {
		return
	}
	lat := make([]float64, len(ops))
	first, last := ops[0].start, ops[0].end
	for i, o := range ops {
		lat[i] = ms(o.end.Sub(o.start))
		if o.start.Before(first) {
			first = o.start
		}
		if o.end.After(last) {
			last = o.end
		}
	}
	r.addPct(prefix+"_p50_ms", lat, 50, "ms")
	r.addPct(prefix+"_p99_ms", lat, 99, "ms")
	if window := last.Sub(first).Seconds(); window > 0 {
		r.add(rate, float64(len(ops))/window, "1/s")
	}
	r.add(prefix+"_samples", float64(len(ops)), "count")
}

// pct returns the p-th percentile (linear interpolation) of xs.
func pct(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
