// Package trace records round-by-round observations of a protocol run —
// state snapshots, SMM type censuses, matching/set sizes — and exports
// them as CSV for the experiment reports. A Trace is protocol
// agnostic: recorders specific to SMM and SMI live alongside it.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"selfstab/internal/core"
)

// Row is one observed round.
type Row struct {
	// Round is the 1-based round index (0 = the initial configuration).
	Round int
	// Moves is the number of nodes that moved in this round (0 for the
	// initial row).
	Moves int
	// Metrics holds named observations (e.g. "matched", "census.M").
	Metrics map[string]float64
}

// Trace is an ordered list of rows sharing a metric schema.
type Trace struct {
	// Protocol names the traced protocol.
	Protocol string
	// Columns fixes the metric order for CSV export.
	Columns []string
	Rows    []Row
}

// New creates a trace for a protocol with the given metric columns.
func New(protocol string, columns ...string) *Trace {
	return &Trace{Protocol: protocol, Columns: columns}
}

// Record appends a row. Metrics not in the schema are rejected so CSV and
// JSON exports always agree; the error names the smallest offending
// metric so the message is independent of map iteration order.
func (t *Trace) Record(round, moves int, metrics map[string]float64) error {
	var unknown []string
	for k := range metrics {
		if !t.hasColumn(k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("trace: metric %q not in schema %v", unknown[0], t.Columns)
	}
	t.Rows = append(t.Rows, Row{Round: round, Moves: moves, Metrics: metrics})
	return nil
}

func (t *Trace) hasColumn(name string) bool {
	for _, c := range t.Columns {
		if c == name {
			return true
		}
	}
	return false
}

// Len returns the number of recorded rows.
func (t *Trace) Len() int { return len(t.Rows) }

// WriteCSV exports the trace with header round,moves,<columns...>.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"round", "moves"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, r := range t.Rows {
		rec[0] = strconv.Itoa(r.Round)
		rec[1] = strconv.Itoa(r.Moves)
		for i, c := range t.Columns {
			rec[2+i] = strconv.FormatFloat(r.Metrics[c], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SMMColumns is the metric schema RecordSMM emits: the matched-node
// count and the six-type census.
var SMMColumns = []string{"matched", "M", "A0", "A1", "PA", "PM", "PP"}

// RecordSMM appends a row describing an SMM configuration.
func RecordSMM(t *Trace, round, moves int, cfg core.Config[core.Pointer]) error {
	types := core.ClassifySMM(cfg)
	census := core.CensusOf(types)
	return t.Record(round, moves, map[string]float64{
		"matched": float64(census[core.TypeM]),
		"M":       float64(census[core.TypeM]),
		"A0":      float64(census[core.TypeA0]),
		"A1":      float64(census[core.TypeA1]),
		"PA":      float64(census[core.TypePA]),
		"PM":      float64(census[core.TypePM]),
		"PP":      float64(census[core.TypePP]),
	})
}

// SMIColumns is the metric schema RecordSMI emits.
var SMIColumns = []string{"inset"}

// RecordSMI appends a row with the independent-set size.
func RecordSMI(t *Trace, round, moves int, cfg core.Config[bool]) error {
	return t.Record(round, moves, map[string]float64{
		"inset": float64(len(core.SetOf(cfg))),
	})
}
