// Package experiments regenerates every table and figure of the
// SplitQuant paper's evaluation on the simulated substrate. Each
// experiment is a deterministic function returning a formatted text
// table plus headline metrics; cmd/experiments prints them and the
// repository-root benchmarks (bench_test.go) execute them under
// testing.B. Absolute numbers differ from the paper (the hardware is a
// roofline simulator and the models are proxies); the shapes —
// who wins, by roughly what factor, where OOMs appear — are the
// reproduction targets recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the paper artifact id, e.g. "fig9" or "table4".
	ID string
	// Title describes the experiment.
	Title string
	// Text is the formatted table for human consumption.
	Text string
	// Metrics holds headline numbers (speedups, errors, PPLs) keyed by
	// name, for benchmarks and assertions.
	Metrics map[string]float64
}

// table formats rows of columns with aligned widths.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...interface{}) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// registry is every experiment in paper order: the order of
// `cmd/experiments all` and of its -list output.
var registry = []struct {
	id  string
	run func(context.Context) (*Result, error)
}{
	{"fig1", Fig1}, {"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5},
	{"table1", Table1}, {"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9},
	{"fig10", Fig10}, {"table4", Table4}, {"table5", Table5},
	{"table6", Table6}, {"fig11", Fig11}, {"fig12", Fig12},
	{"ablation", Ablations}, {"extensions", Extensions},
}

// IDs returns the experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// ByID dispatches one experiment by id.
func ByID(ctx context.Context, id string) (*Result, error) {
	for _, e := range registry {
		if e.id == strings.ToLower(id) {
			return e.run(ctx)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
