package experiments

// Tests for the policy shoot-out battery: the new policies must honor
// the same determinism contract as the originals (bit-identical tables
// across shard counts and worker counts), their dispatch order is
// pinned against goldens, and the shared policy-options validator is
// fuzzed as the single parsing surface behind recnsim, recnsweep and
// the sweep daemon.

import (
	"strings"
	"testing"

	"repro/internal/fabric"
)

// TestShootoutPolicyShardIdentity: a corner-case-2 run under each new
// policy, drained to empty under the invariant checker, reports
// identically at shard counts 1, 2 and 4. Scale 0.05 is large enough
// that both mechanisms demonstrably engage (throttle sources take CNPs,
// arn ports raise hints) — determinism of an idle mechanism would prove
// nothing.
func TestShootoutPolicyShardIdentity(t *testing.T) {
	t.Parallel()
	for _, policy := range []fabric.Policy{fabric.PolicyThrottle, fabric.PolicyARN} {
		t.Run(policy.String(), func(t *testing.T) {
			workload, until, err := CornerWorkload(2, 64, 64, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			base := ""
			for _, k := range []int{1, 2, 4} {
				r := Run{
					Hosts: 64, Policy: policy, Key: "shootout-shard-" + policy.String(),
					Workload: workload, Until: until, Shards: k,
					DrainAll: true, Check: true,
				}
				rep := shardReport(t, r)
				if base == "" {
					base = rep
				} else if rep != base {
					t.Fatalf("shards=%d report differs from shards=1", k)
				}
			}
		})
	}
}

// TestShootoutFigureIdentity renders the full shoot-out table at shard
// counts 1 and 4 and at 1 vs 8 sweep workers: all four byte streams
// must be identical (sharding changes results deterministically versus
// serial, so the serial table is a separate fixture, not compared
// here).
func TestShootoutFigureIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("20-run figure reproduction")
	}
	t.Parallel()
	base := ""
	for _, c := range []struct{ shards, j int }{{1, 1}, {1, 8}, {4, 1}, {4, 8}} {
		o := Options{Scale: 0.02, Shards: c.shards, Parallelism: c.j}
		tables, err := Shootout(o)
		if err != nil {
			t.Fatalf("shards=%d j=%d: %v", c.shards, c.j, err)
		}
		if len(tables) != 1 {
			t.Fatalf("want 1 table, got %d", len(tables))
		}
		got := tables[0].String()
		if base == "" {
			base = got
		} else if got != base {
			t.Fatalf("shootout table bytes differ at shards=%d j=%d", c.shards, c.j)
		}
	}
	for _, policy := range []string{"1Q", "RECN", "throttle", "arn"} {
		if !strings.Contains(base, policy) {
			t.Fatalf("shootout table missing policy %q:\n%s", policy, base)
		}
	}
}

// TestDispatchGoldenThrottle / ...ARN pin the serial dispatch order of
// the shoot-out's corner-case-2 seed under each new policy, exactly as
// the fig2/fig3 rows do for RECN: the CNP ScheduleRemote path and
// the hint broadcast path both inject events, and their order is part
// of the reproduction contract.
func TestDispatchGoldenThrottle(t *testing.T) {
	workload, until, err := CornerWorkload(2, 64, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pinDispatch(t, "shootout/throttle", captureDispatch(t, min64(t), fabric.PolicyThrottle, nil, workload, until))
}

func TestDispatchGoldenARN(t *testing.T) {
	workload, until, err := CornerWorkload(2, 64, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pinDispatch(t, "shootout/arn", captureDispatch(t, min64(t), fabric.PolicyARN, nil, workload, until))
}

func TestValidatePolicyOptions(t *testing.T) {
	ps, err := ValidatePolicyOptions([]string{"RECN", "throttle", "arn"}, "mark=8192", "on=8192,off=2048")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 || ps[1] != fabric.PolicyThrottle || ps[2] != fabric.PolicyARN {
		t.Fatalf("parsed %v", ps)
	}
	for _, bad := range [][3]string{
		{"NOPE", "", ""},
		{"", "mark=-1", ""},
		{"", "bogus=1", ""},
		{"", "", "on=1024,off=4096"}, // inverted hysteresis
		{"", "", "off=0"},
	} {
		var names []string
		if bad[0] != "" {
			names = []string{bad[0]}
		}
		if _, err := ValidatePolicyOptions(names, bad[1], bad[2]); err == nil {
			t.Errorf("ValidatePolicyOptions(%v, %q, %q): expected error", names, bad[1], bad[2])
		}
	}
}

// FuzzPolicyConfig fuzzes the shared policy/threshold parsing surface:
// any input must produce either a valid policy list or a structured
// error — never a panic, and never a config that fails Validate.
func FuzzPolicyConfig(f *testing.F) {
	f.Add("RECN", "mark=16384,min=100,dec=500,inc=50,period=5us,delay=500ns,cnp=1us", "on=16384,off=4096")
	f.Add("1Q,4Q,VOQsw,VOQnet,throttle,arn", "", "")
	f.Add("recn", "mark=0", "on=0")
	f.Add("", "min=2000,inc=-5", "off=999999999999999999999")
	f.Add("Throttle", "period=xyzus,delay=1try", "on=16384,off=16384")
	f.Fuzz(func(t *testing.T, names, thrSpec, arnSpec string) {
		var list []string
		if names != "" {
			list = strings.Split(names, ",")
		}
		ps, err := ValidatePolicyOptions(list, thrSpec, arnSpec)
		if err != nil {
			return
		}
		if len(ps) != len(list) {
			t.Fatalf("parsed %d policies from %d names", len(ps), len(list))
		}
		// Accepted specs must round-trip through the real config
		// builders without tripping validation.
		r := Run{Hosts: 64, Policy: fabric.PolicyThrottle, Until: 1, Bin: 1,
			ThrottleSpec: thrSpec, ARNSpec: arnSpec}
		if _, err := r.Execute(); err != nil {
			t.Fatalf("validated spec rejected by Execute: %v", err)
		}
	})
}
