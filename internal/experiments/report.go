package experiments

import (
	"fmt"
	"strings"
)

// Report is one regenerated table or figure: an identifier, column headers,
// data rows, and summary lines (typically the geometric means the paper
// quotes, next to the paper's own numbers).
type Report struct {
	ID      string
	Title   string
	Header  []string
	Rows    [][]string
	Summary []string
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)

	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	seps := make([]string, len(r.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range r.Rows {
		line(row)
	}
	for _, s := range r.Summary {
		fmt.Fprintf(&b, "%s\n", s)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Runner executes experiments by identifier.
type Runner struct {
	pl *Pipeline
}

// NewRunner creates a runner with a fresh pipeline cache.
func NewRunner() *Runner { return &Runner{pl: NewPipeline()} }

// Pipeline exposes the underlying cache for reuse.
func (r *Runner) Pipeline() *Pipeline { return r.pl }

// All runs every experiment in paper order.
func (r *Runner) All() ([]Report, error) {
	var out []Report
	for _, id := range IDs() {
		rep, err := r.Run(id)
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"table1", "table2", "table3",
		"fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"convergence", "validation", "ablations",
	}
}

// Run executes one experiment by identifier.
func (r *Runner) Run(id string) (Report, error) {
	switch id {
	case "table1":
		return Table1()
	case "table2":
		return Table2(), nil
	case "table3":
		return Table3(r.pl)
	case "fig7":
		return Fig7(r.pl)
	case "fig8":
		return Fig8(r.pl)
	case "fig9":
		return Fig9(r.pl)
	case "fig10":
		return Fig10(r.pl)
	case "fig11":
		return Fig11(r.pl)
	case "fig12":
		return Fig12(r.pl)
	case "fig13":
		return Fig13(r.pl)
	case "fig14":
		return Fig14(r.pl)
	case "fig15":
		return Fig15(r.pl)
	case "fig16":
		return Fig16(r.pl)
	case "fig17":
		return Fig17(r.pl)
	case "convergence":
		return Convergence()
	case "validation":
		return Validation(r.pl)
	case "ablations":
		return Ablations()
	}
	return Report{}, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, IDs())
}
