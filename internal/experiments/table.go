// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) as data tables: the same rows and series the paper
// plots, produced by this repository's models and schedulers. The
// cmd/experiments binary renders them as aligned text and CSV; the root
// benchmark suite runs one benchmark per experiment.
package experiments

import (
	"fmt"
	"strings"

	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/store"
)

// Table is one experiment's output: a header and rows of formatted cells.
type Table struct {
	// Name is the experiment id (e.g. "fig11a").
	Name string
	// Title describes what the paper's figure shows.
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold formatted cells.
	Rows [][]string
}

// AddRow appends a row, formatting each value (%v for strings/ints, %.4g
// for floats).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Text renders the table with aligned columns for terminal output.
func (t *Table) Text() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", t.Name, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Options tunes experiment fidelity.
type Options struct {
	// Quick trades fidelity for speed: fewer annealing iterations, fewer
	// seeds, subsampled sweeps. Paper-scale runs use Quick=false.
	Quick bool
	// Observe receives progress events from the schedulers each experiment
	// runs (nil means none); cmd/experiments wires its -progress flag here.
	// Figures 13–16 are dse.Sweep calls, so from them it receives the
	// sweep-level events and the work counts of every point's searches
	// (dse.Options.Observe).
	Observe obs.Observer
	// Mapper selects the loopnest search strategy of every scheduler an
	// experiment builds (zero value: exhaustive); cmd/experiments wires its
	// -guided flag here.
	Mapper mapper.Options
	// Store, when non-nil, is the persistent result tier shared by every
	// scheduler an experiment builds; cmd/experiments wires its -store flag
	// here. Warm reruns of a figure replay schedules from disk.
	Store *store.Store
}

func (o Options) annealIters(full int) int {
	if o.Quick {
		return full / 10
	}
	return full
}

func (o Options) seeds(full int) int {
	if o.Quick {
		return 1
	}
	return full
}
