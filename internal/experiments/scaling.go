package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/traffic"
)

// This file is the memory-scaling figure the slab/lazy fabric exists
// for: RECN against 1Q, VOQsw and VOQnet on fat trees far beyond the
// paper's 512 hosts, reporting throughput and tail latency alongside
// the materialized control-state footprint and its ratio to the fully
// preallocated (eager) model. The memory columns come from the
// deterministic byte model (fabric.MemStats / EagerMemModel), so the
// table is bit-identical at any shard count; real process RSS is the
// benchmark harness's job (go run ./bench), not the figure's.

// scalingPolicies is the comparison set: the paper's best case
// (VOQnet), worst case (1Q), the practical middle (VOQsw) and RECN.
var scalingPolicies = []fabric.Policy{
	fabric.PolicyVOQnet, fabric.Policy1Q, fabric.PolicyVOQsw, fabric.PolicyRECN,
}

// scalingWorkload is the large-network hotspot: a strided subset of
// hosts sweeps background traffic at 10% load for the whole run, and a
// second disjoint strided subset hammers one destination between 100 µs
// and 400 µs (paper-time; Options.Scale compresses). The stride keeps
// both groups spread across every leaf switch, so the congestion tree
// overlaps the background traffic the way the paper's corner cases do.
func scalingWorkload(hosts, msgSize int, o Options) (traffic.CornerCase, error) {
	if hosts < 16 {
		return traffic.CornerCase{}, fmt.Errorf("experiments: scaling workload wants ≥16 hosts, got %d", hosts)
	}
	nSrc := 128
	if hosts < 4*nSrc {
		nSrc = hosts / 4
	}
	stride := hosts / nSrc
	var random, hot []int
	for h := 0; h < hosts; h++ {
		switch h % stride {
		case 0:
			if h != hosts/2 {
				random = append(random, h)
			}
		case stride - 1:
			hot = append(hot, h)
		}
	}
	return traffic.CornerCase{
		Name:          fmt.Sprintf("scaling-hotspot-%d", hosts),
		Hosts:         hosts,
		RandomSources: random,
		RandomRate:    0.1,
		HotSources:    hot,
		HotDest:       hosts / 2,
		HotStart:      o.t(100),
		HotEnd:        o.t(400),
		SimEnd:        o.t(600),
		MsgSize:       msgSize,
		Seed:          7,
	}, nil
}

// scalingKey names the workload closure for the run cache; the host
// count and horizon are already part of the spec key.
func scalingKey() string { return "scaling|v1|seed=7" }

// ScalingRun assembles the scaling figure's run for one policy at one
// network size. The benchmark harness executes it directly — outside
// the figure pipeline — to time fabric construction and measure raw
// event rates with the exact workload the figure uses.
func ScalingRun(hosts int, p fabric.Policy, o Options) (Run, error) {
	o = o.withDefaults()
	if o.Topo == "" {
		o.Topo = "fattree"
	}
	c, err := scalingWorkload(hosts, o.PacketSize, o)
	if err != nil {
		return Run{}, err
	}
	return o.stamp(Run{Hosts: hosts, Policy: p, Key: scalingKey(), Workload: c.Install, Until: c.SimEnd}), nil
}

// Config exposes the run's resolved fabric configuration (buildConfig
// without the tunable-spec layering), so harnesses can time fabric
// construction for exactly the network a run would simulate.
func (r Run) Config() (fabric.Config, error) { return r.buildConfig() }

// Scaling runs the memory-scaling comparison at one network size and
// renders the table. The topology defaults to the adaptive fat tree
// (Options.Topo overrides).
func Scaling(hosts int, o Options) (*Table, error) {
	o = o.withDefaults()
	if o.Topo == "" {
		o.Topo = "fattree"
	}
	policies := o.Policies
	if policies == nil {
		policies = scalingPolicies
	}
	c, err := scalingWorkload(hosts, o.PacketSize, o)
	if err != nil {
		return nil, err
	}
	results, bin, err := runPolicies(hosts, policies, o, scalingKey(), c.Install, c.SimEnd, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Scaling: %d hosts, %s topology, %d-byte packets (lazy state)",
			hosts, o.Topo, o.PacketSize),
		Header: []string{"policy", "tput_hot_B/ns", "tput_after_B/ns", "p99_lat_us",
			"state_KB", "B/port", "eager_B/port", "lazy/eager"},
	}
	for i, p := range policies {
		res := results[i]
		window := func(fromUs, toUs float64) float64 {
			from := int(o.t(fromUs) / bin)
			to := int(o.t(toUs) / bin)
			return res.Throughput.MeanRate(from, to)
		}
		eager, err := o.stamp(Run{Hosts: hosts, Policy: p}).EagerMemModel()
		if err != nil {
			return nil, err
		}
		stateKB, perPort, ratio := "n/a", "n/a", "n/a"
		if m := res.Mem; m != nil {
			stateKB = fmt.Sprintf("%.1f", float64(m.StateBytes)/1024)
			perPort = fmt.Sprintf("%.0f", m.BytesPerPort())
			if eager.StateBytes > 0 {
				ratio = fmt.Sprintf("%.3f", float64(m.StateBytes)/float64(eager.StateBytes))
			}
		}
		t.AddRow(p.String(), window(150, 400), window(450, 600),
			fmt.Sprintf("%.1f", res.Latency.Quantile(0.99).Micros()),
			stateKB, perPort, fmt.Sprintf("%.0f", eager.BytesPerPort()), ratio)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("hotspot: %d sources → host %d during %v–%v; %d background sources at 10%%",
			len(c.HotSources), c.HotDest, c.HotStart, c.HotEnd, len(c.RandomSources)),
		"state columns are the modeled materialized control state (deterministic); eager_B/port is the analytic fully-preallocated model",
	)
	return t, nil
}
