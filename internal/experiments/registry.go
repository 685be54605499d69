package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fabric"
)

// This file is the figure registry: every reproducible table and figure
// of the paper (plus the extensions) by ID, in internal/experiments so
// the sweep daemon (internal/server) can run figures by ID without
// importing the repro facade, which delegates down.

// figure is one registry entry: how to reproduce it, and the facts
// Options.Validate and the daemon's admission control need about it.
type figure struct {
	run func(o Options) ([]*Table, error)
	// runs estimates how many simulations run schedules under default
	// options. Options.Policies or custom ablation lists change the real
	// count, so it is an estimate, not an invariant.
	runs int
}

var registry = map[string]figure{
	// Table 1 builds traffic specs only and simulates nothing.
	"table1":    {run: func(Options) ([]*Table, error) { return oneTable(Table1()) }},
	"2a":        {run: fig2(1, 0, false), runs: 5},
	"2b":        {run: fig2(2, 0, false), runs: 5},
	"2c":        {run: fig2(1, 0, true), runs: 5},
	"2d":        {run: fig2(2, 0, true), runs: 5},
	"3a":        {run: func(o Options) ([]*Table, error) { return figTable(Fig3(20, o)) }, runs: 4},
	"3b":        {run: func(o Options) ([]*Table, error) { return figTable(Fig3(40, o)) }, runs: 4},
	"4a":        {run: func(o Options) ([]*Table, error) { return figTable(Fig4(1, o)) }, runs: 1},
	"4b":        {run: func(o Options) ([]*Table, error) { return figTable(Fig4(2, o)) }, runs: 1},
	"5a":        {run: func(o Options) ([]*Table, error) { return figTable(Fig5(20, o)) }, runs: 1},
	"5b":        {run: func(o Options) ([]*Table, error) { return figTable(Fig5(40, o)) }, runs: 1},
	"6a":        {run: fig6(256), runs: 3},
	"6b":        {run: fig6(512), runs: 3},
	"pkt512a":   {run: fig2(1, 512, false), runs: 5},
	"pkt512b":   {run: fig2(2, 512, false), runs: 5},
	"a1":        {run: func(o Options) ([]*Table, error) { return oneTable(AblationSAQCount(o, nil)) }, runs: 5},
	"a2":        {run: func(o Options) ([]*Table, error) { return oneTable(AblationThreshold(o, nil)) }, runs: 5},
	"a3":        {run: func(o Options) ([]*Table, error) { return oneTable(AblationTokenBoost(o)) }, runs: 2},
	"a4":        {run: func(o Options) ([]*Table, error) { return oneTable(AblationMarkers(o)) }, runs: 2},
	"lat1":      {run: func(o Options) ([]*Table, error) { return oneTable(LatencyFig(1, o)) }, runs: 3},
	"lat2":      {run: func(o Options) ([]*Table, error) { return oneTable(LatencyFig(2, o)) }, runs: 3},
	"shootout":  {run: Shootout, runs: 20},
	"scaling":   {run: func(o Options) ([]*Table, error) { return oneTable(Scaling(4096, o)) }, runs: 4},
	"scaling1k": {run: func(o Options) ([]*Table, error) { return oneTable(Scaling(1024, o)) }, runs: 4},
}

func oneTable(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

func figTable[F interface{ Table() *Table }](fig F, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{fig.Table()}, nil
}

// fig2 runs Figure 2 for a corner case: the full series, or the zoom on
// the congestion-tree window that Figures 2.c/2.d plot; pktSize
// overrides the packet size (the 512-byte variants).
func fig2(corner, pktSize int, zoom bool) func(Options) ([]*Table, error) {
	return func(o Options) ([]*Table, error) {
		if pktSize != 0 {
			o.PacketSize = pktSize
		}
		fig, err := Fig2(corner, o)
		if err != nil {
			return nil, err
		}
		if zoom {
			return []*Table{fig.Zoom(750, 1000, fabric.PolicyVOQnet, fabric.PolicyRECN)}, nil
		}
		return []*Table{fig.Table()}, nil
	}
}

func fig6(hosts int) func(Options) ([]*Table, error) {
	return func(o Options) ([]*Table, error) {
		tput, saq, err := Fig6(hosts, o)
		if err != nil {
			return nil, err
		}
		return []*Table{tput.Table(), saq.Table()}, nil
	}
}

// FigureIDs lists every reproducible experiment, sorted.
func FigureIDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// EstimatedRuns returns how many simulations Reproduce(id) schedules
// under default options; false for unknown IDs.
func EstimatedRuns(id string) (int, bool) {
	f, ok := registry[strings.ToLower(id)]
	return f.runs, ok
}

// Reproduce regenerates one of the paper's tables or figures by ID
// ("table1", "2a"–"2d", "3a"/"3b", "4a"/"4b", "5a"/"5b", "6a"/"6b",
// "pkt512a"/"pkt512b", ablations "a1"–"a4", and the extensions
// "lat1"/"lat2", "shootout", "scaling"/"scaling1k"). Options.Scale
// trades fidelity for speed; 1.0 reproduces the paper's durations.
func Reproduce(id string, o Options) ([]*Table, error) {
	f, ok := registry[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("repro: unknown figure %q (have %s)", id, strings.Join(FigureIDs(), ", "))
	}
	return f.run(o)
}
