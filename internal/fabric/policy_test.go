package fabric

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/throttle"
	"repro/internal/topology"
)

// TestPolicyTraits pins the trait table (queuing.go) against the
// exported policy surface: every listed policy has a row whose name
// round-trips by name and as text, exactly 4Q and arn reorder, and
// values outside the table neither panic nor build.
func TestPolicyTraits(t *testing.T) {
	if len(queuings) != len(Policies) {
		t.Fatalf("%d table rows for %d policies", len(queuings), len(Policies))
	}
	reorders := map[Policy]bool{Policy4Q: true, PolicyARN: true}
	for _, p := range Policies {
		q, ok := p.queuing()
		if !ok || q.name == "" {
			t.Fatalf("policy %d has no row", int(p))
		}
		if got, err := ParsePolicy(q.name); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", q.name, got, err)
		}
		text, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Policy
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("%s: text round trip gave %v, %v", p, back, err)
		}
		if p.PreservesOrder() == reorders[p] {
			t.Errorf("%s: PreservesOrder() = %v", p, p.PreservesOrder())
		}
	}
	topo, err := topology.ForHosts(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{-1, 99} {
		if s := p.String(); !strings.HasPrefix(s, "Policy(") {
			t.Errorf("Policy(%d).String() = %q", int(p), s)
		}
		_ = p.PreservesOrder()
		cfg := DefaultConfig(topo)
		cfg.Policy = p
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("New with policy %d: %v", int(p), err)
		}
	}
}

// blast drives a hotspot: each of srcs injects 64-byte packets at full
// rate toward dst until `until`.
func blast(t *testing.T, n *Network, srcs []int, dst int, until sim.Time) {
	t.Helper()
	for _, src := range srcs {
		src := src
		var gen func()
		gen = func() {
			if n.Engine.Now() > until {
				return
			}
			if err := n.InjectMessage(src, dst, 64); err != nil {
				t.Fatal(err)
			}
			n.Engine.After(64*sim.Nanosecond, gen)
		}
		n.Engine.Schedule(0, gen)
	}
}

// Under a hotspot, throttle must mark packets, cut the hot sources'
// injection rate below full, and restore every source to full rate once
// the network quiesces (the recovery half is also asserted by
// CheckQuiesced, but the mid-run rate cut is only visible here).
func TestThrottleHotspotCutsRateAndRecovers(t *testing.T) {
	n := newNet(t, 64, PolicyThrottle)
	srcs := []int{8, 9, 10, 11, 12, 13, 14, 15}
	blast(t, n, srcs, 7, 40*sim.Microsecond)
	minRate := throttle.FullRateMilli
	var poll func()
	poll = func() {
		for _, src := range srcs {
			if r := n.nics[src].thr.state.RateMilli; r < minRate {
				minRate = r
			}
		}
		if n.Engine.Now() < 60*sim.Microsecond {
			n.Engine.After(sim.Microsecond, poll)
		}
	}
	n.Engine.Schedule(0, poll)
	n.Engine.Drain()
	if minRate == throttle.FullRateMilli {
		t.Fatal("hotspot never throttled any source")
	}
	cfg := n.Config().Throttle
	if minRate < cfg.MinRateMilli {
		t.Fatalf("rate %d fell below floor %d", minRate, cfg.MinRateMilli)
	}
	for _, src := range srcs {
		if !n.nics[src].thr.state.Full() {
			t.Fatalf("source %d stuck at rate %d after drain", src, n.nics[src].thr.state.RateMilli)
		}
	}
	if n.OrderViolations != 0 {
		t.Fatalf("order violations: %d", n.OrderViolations)
	}
	if err := n.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// Under a hotspot, arn must raise congestion hints somewhere and steer
// at least one packet off its deterministic up port; hints must clear
// once the network drains (also asserted by CheckQuiesced).
func TestARNHotspotSteersAndClears(t *testing.T) {
	n := newNet(t, 64, PolicyARN)
	blast(t, n, []int{8, 9, 10, 11, 12, 13, 14, 15}, 7, 40*sim.Microsecond)
	hinted, steered := false, false
	var poll func()
	poll = func() {
		for sw := 0; sw < n.Topology().NumSwitches(); sw++ {
			if n.Switch(sw).congOut > 0 {
				hinted = true
			}
			for _, out := range n.Switch(sw).out {
				if out != nil && out.hintStop {
					steered = true // a hint arrived upstream and armed steering
				}
			}
		}
		if n.Engine.Now() < 60*sim.Microsecond {
			n.Engine.After(sim.Microsecond, poll)
		}
	}
	n.Engine.Schedule(0, poll)
	n.Engine.Drain()
	if !hinted {
		t.Fatal("hotspot never raised a congestion hint")
	}
	if !steered {
		t.Fatal("no upstream port ever saw a hint")
	}
	for sw := 0; sw < n.Topology().NumSwitches(); sw++ {
		if n.Switch(sw).congOut != 0 {
			t.Fatalf("switch %d still has %d congested outputs after drain", sw, n.Switch(sw).congOut)
		}
	}
	if err := n.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}
