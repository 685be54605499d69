package experiments

import (
	"fmt"

	"repro/internal/fabric"
)

// LatencyFig is an extension experiment (not a paper figure): the
// paper's introduction motivates congestion management with packet
// latency "increasing by several orders of magnitude" — this table
// quantifies it on a corner case, splitting each mechanism's latency
// distribution into before/during/after the congestion tree.
func LatencyFig(corner int, o Options) (*Table, error) {
	o = o.withDefaults()
	policies := o.Policies
	if policies == nil {
		policies = []fabric.Policy{fabric.PolicyVOQnet, fabric.Policy1Q, fabric.PolicyRECN}
	}
	workload, until, err := CornerWorkload(corner, 64, o.PacketSize, o.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Extension: packet latency, corner case %d (windows in paper time)", corner),
		Header: []string{"policy", "window", "mean", "p50", "p99", "max"},
		Notes: []string{
			"paper intro: without congestion management, latency grows by orders of magnitude",
		},
	}
	names := []string{"before", "during", "after"}
	windows := []Window{{0, o.t(790)}, {o.t(800), o.t(980)}, {o.t(1100), o.t(1600)}}
	runs := make([]Run, len(policies))
	labels := make([]string, len(policies))
	for i, p := range policies {
		labels[i] = p.String()
		runs[i] = Run{Hosts: 64, Policy: p, Key: cornerKey(corner), Workload: workload, Until: until, LatencyWindows: windows}
	}
	results, err := o.sweep(runs, labels)
	if err != nil {
		return nil, err
	}
	for pi, p := range policies {
		for i, name := range names {
			l := results[pi].Windows[i]
			t.AddRow(p.String(), name, l.Mean().String(), l.Quantile(0.5).String(),
				l.Quantile(0.99).String(), l.Max().String())
		}
	}
	return t, nil
}
