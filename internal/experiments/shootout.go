package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/throttle"
	"repro/internal/traffic"
)

// shootoutPolicies is the default head-to-head lineup: the baseline
// with no congestion management, the paper's mechanism, and the two
// challengers (end-to-end injection throttling and adaptive-routing
// notifications).
var shootoutPolicies = []fabric.Policy{
	fabric.Policy1Q,
	fabric.PolicyRECN,
	fabric.PolicyThrottle,
	fabric.PolicyARN,
}

// shootoutScenario is one workload in the shoot-out battery.
type shootoutScenario struct {
	key      string // run-cache key component (stable across releases)
	name     string // table row label
	workload func(traffic.Network) error
	until    sim.Time
	faults   string // overrides Options.FaultSpec when non-empty
}

// shootoutFaultSpec builds the compound fault plan for the final
// scenario: lossy notification and credit channels plus a mid-hotspot
// link flap on a leaf switch's up port. Times are scale-adjusted so the
// flap always lands inside the hotspot window; seed=auto derives the
// per-run seed from the run spec, keeping the plan identical across
// -shards and -j settings.
func shootoutFaultSpec(o Options) string {
	return fmt.Sprintf("seed=auto,droprate=notify:0.02,droprate=credit:0.002,flap=0:4:%v:%v",
		o.t(850), o.t(920))
}

// hotDegreeCase builds a corner-case-2 variant with a custom hotspot
// degree: full-rate background from every non-hot host plus `degree`
// hot sources scattered one-per-stride across the leaves (the same
// scatter traffic.Corner uses, so every leaf up-link carries both hot
// and background flows). Degree is how many sources gang up on the hot
// destination — the knob that separates mechanisms that attack the
// congestion tree (RECN, arn) from ones that attack the sources
// (throttle).
func hotDegreeCase(hosts, degree, msgSize int, scale float64) (traffic.CornerCase, error) {
	if degree <= 0 || degree >= hosts || hosts%degree != 0 {
		return traffic.CornerCase{}, fmt.Errorf("experiments: hot degree %d must divide %d hosts", degree, hosts)
	}
	t := func(us float64) sim.Time { return sim.Time(us * scale * float64(sim.Microsecond)) }
	var random, hot []int
	stride := hosts / degree
	for h := 0; h < hosts; h++ {
		if h%stride == stride-1 {
			hot = append(hot, h)
		} else {
			random = append(random, h)
		}
	}
	return traffic.CornerCase{
		Name:          fmt.Sprintf("hot-spot degree %d (%d hosts)", degree, hosts),
		Hosts:         hosts,
		RandomSources: random,
		RandomRate:    1.0,
		HotSources:    hot,
		HotDest:       32,
		HotStart:      t(800),
		HotEnd:        t(970),
		SimEnd:        t(1600),
		MsgSize:       msgSize,
		Seed:          1,
	}, nil
}

// ValidatePolicyOptions resolves a policy-name list and the throttle /
// arn tunable specs up front, so the CLIs and the daemon can reject a
// bad request with a structured error before any simulation starts.
// Empty names return the nil slice (caller applies its default lineup);
// empty specs are valid (package defaults).
func ValidatePolicyOptions(names []string, throttleSpec, arnSpec string) ([]fabric.Policy, error) {
	var policies []fabric.Policy
	for _, name := range names {
		p, err := fabric.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		policies = append(policies, p)
	}
	if throttleSpec != "" {
		if _, err := throttle.ParseSpec(throttleSpec); err != nil {
			return nil, fmt.Errorf("experiments: throttle spec: %w", err)
		}
	}
	if arnSpec != "" {
		if _, err := fabric.ParseARNSpec(arnSpec); err != nil {
			return nil, fmt.Errorf("experiments: arn spec: %w", err)
		}
	}
	return policies, nil
}

// Shootout runs the cross-policy comparison battery: both paper corner
// cases, two hot-spot-degree variants (a narrow tree and a wide one),
// and corner case 2 under a compound fault plan. Every cell comes from
// shard-invariant data (delivered counts, barrier-consistent window
// rates, latency quantiles), so the rendered table is byte-identical
// across -shards and -j settings.
func Shootout(o Options) ([]*Table, error) {
	o = o.withDefaults()
	policies := o.Policies
	if policies == nil {
		policies = shootoutPolicies
	}
	scenarios, err := shootoutScenarios(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Shoot-out: congestion-management policies head to head (64 hosts)",
		Header: []string{
			"scenario", "policy", "delivered",
			"hot_B/ns", "post_B/ns", "p99_us", "reorder",
		},
	}
	for _, sc := range scenarios {
		so := o
		if sc.faults != "" {
			so.FaultSpec = sc.faults
		}
		results, bin, err := runPolicies(64, policies, so, sc.key, sc.workload, sc.until, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: shootout %s: %w", sc.key, err)
		}
		// The hotspot is active in [800, 970) paper-µs and the run ends
		// at 1600; the post window shows how fast each policy restores
		// full throughput after the tree drains.
		hotFrom, hotTo := int(o.t(800)/bin), int(o.t(970)/bin)
		postTo := int(o.t(1600) / bin)
		for i, p := range policies {
			r := results[i]
			t.AddRow(
				sc.name, p.String(), r.Delivered,
				r.Throughput.MeanRate(hotFrom, hotTo),
				r.Throughput.MeanRate(hotTo, postTo),
				r.Latency.Quantile(0.99).Micros(),
				r.OrderViolations,
			)
			if fr := r.Faults; fr != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("faults[%s/%s]: %s", sc.key, p, fr))
			}
		}
	}
	t.Notes = append(t.Notes,
		"hot window 800-970 paper-us (scale-adjusted); post window 970-1600",
		"reorder counts out-of-order deliveries: arn trades packet order for path diversity",
	)
	return []*Table{t}, nil
}

func shootoutScenarios(o Options) ([]shootoutScenario, error) {
	var scenarios []shootoutScenario
	for _, corner := range []int{1, 2} {
		workload, until, err := CornerWorkload(corner, 64, o.PacketSize, o.Scale)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, shootoutScenario{
			key:      cornerKey(corner),
			name:     fmt.Sprintf("corner%d", corner),
			workload: workload,
			until:    until,
		})
	}
	for _, degree := range []int{8, 32} {
		c, err := hotDegreeCase(64, degree, o.PacketSize, o.Scale)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, shootoutScenario{
			key:      fmt.Sprintf("hotdeg%d", degree),
			name:     fmt.Sprintf("hot-degree %d", degree),
			workload: c.Install,
			until:    c.SimEnd,
		})
	}
	workload, until, err := CornerWorkload(2, 64, o.PacketSize, o.Scale)
	if err != nil {
		return nil, err
	}
	scenarios = append(scenarios, shootoutScenario{
		key:      cornerKey(2) + "|compound-faults",
		name:     "corner2+faults",
		workload: workload,
		until:    until,
		faults:   shootoutFaultSpec(o),
	})
	return scenarios, nil
}
