package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LatencyFig is an extension experiment (not a paper figure): the
// paper's introduction motivates congestion management with packet
// latency "increasing by several orders of magnitude" — this table
// quantifies it on a corner case, splitting each mechanism's latency
// distribution into before/during/after the congestion tree.
func LatencyFig(corner int, o Options) (*Table, error) {
	o = o.withDefaults()
	// The latency split needs the serial per-packet Observe path:
	// sharded deliveries run concurrently on shard goroutines and the
	// windowed schedule would change the samples. Reject up front
	// rather than silently ignoring the setting (or failing deep in
	// the run).
	if o.Shards > 0 {
		return nil, fmt.Errorf("experiments: latency figures need the serial per-packet Observe path; run without shards (got Shards=%d)", o.Shards)
	}
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
	windows := []struct {
		name     string
		from, to sim.Time
	}{
		{"before", 0, o.t(790)},
		{"during", o.t(800), o.t(980)},
		{"after", o.t(1100), o.t(1600)},
	}
	// One run per policy, fanned across the sweep workers. Each run's
	// Observe writes only its own window summaries, so the runs stay
	// independent; the rows render in policy order afterwards. (Shards
	// was rejected above: Observe needs the serial engine.)
	runs := make([]Run, len(policies))
	labels := make([]string, len(policies))
	perPolicy := make([][]*stats.Latency, len(policies))
	for pi, p := range policies {
		lats := make([]*stats.Latency, len(windows))
		for i := range lats {
			lats[i] = stats.NewLatency()
		}
		perPolicy[pi] = lats
		labels[pi] = p.String()
		runs[pi] = Run{
			Hosts:    64,
			Policy:   p,
			Workload: workload,
			Until:    until,
			Observe: func(now sim.Time, pk *pkt.Packet) {
				for i, w := range windows {
					if now >= w.from && now < w.to {
						lats[i].Add(now - pk.CreatedAt)
					}
				}
			},
		}
	}
	if _, err := o.sweep(runs, labels); err != nil {
		return nil, err
	}
	for pi, p := range policies {
		for i, w := range windows {
			l := perPolicy[pi][i]
			t.AddRow(p.String(), w.name, l.Mean().String(), l.Quantile(0.5).String(),
				l.Quantile(0.99).String(), l.Max().String())
		}
	}
	return t, nil
}
