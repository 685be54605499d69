package fault

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestScriptedDropsConsumeFirst(t *testing.T) {
	p := NewPlan(1).Drop(Token, 2)
	var rep stats.FaultReport
	if err := p.Bind(&rep); err != nil {
		t.Fatal(err)
	}
	if v := p.CtlVerdict(Token); !v.Drop {
		t.Fatal("first token not dropped")
	}
	if v := p.CtlVerdict(Token); !v.Drop {
		t.Fatal("second token not dropped")
	}
	if v := p.CtlVerdict(Token); v.Drop {
		t.Fatal("third token dropped (script exhausted)")
	}
	if v := p.CtlVerdict(Credit); v.Drop || v.Dup || v.Delay != 0 {
		t.Fatal("credit affected by token script")
	}
	if rep.Dropped[Token] != 2 {
		t.Fatalf("Dropped[Token] = %d, want 2", rep.Dropped[Token])
	}
}

func TestDeterministicVerdicts(t *testing.T) {
	run := func() []Verdict {
		p := NewPlan(42).
			Rule(Xoff, Rule{DropProb: 0.3}).
			Rule(Credit, Rule{DropProb: 0.1, DelayProb: 0.2, Delay: sim.Microsecond})
		var rep stats.FaultReport
		if err := p.Bind(&rep); err != nil {
			t.Fatal(err)
		}
		var out []Verdict
		for i := 0; i < 200; i++ {
			out = append(out, p.CtlVerdict(Xoff), p.CtlVerdict(Credit))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestValidateRejectsUnsafeFaults(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"data drop", NewPlan(1).Rule(Data, Rule{DropProb: 0.1}), "lossless"},
		{"data dup", NewPlan(1).Rule(Data, Rule{DupProb: 0.1}), "lossless"},
		{"credit dup", NewPlan(1).Rule(Credit, Rule{DupProb: 0.1}), "credits cannot be duplicated"},
		{"bad prob", NewPlan(1).Rule(Token, Rule{DropProb: 1.5}), "outside [0, 1]"},
		{"bad flap", NewPlan(1).Flap(LinkFlap{Down: 5, Up: 5}), "not ordered"},
		{"neg corrupt", NewPlan(1).Corrupt(-1), "CorruptEvery"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateFirstErrorDeterministic: a plan with several invalid
// entries spread across both kind maps must report the same error on
// every call. Validate used to iterate the maps directly, so the first
// error depended on Go's randomized map order and the same broken
// config produced different messages run to run — useless for error
// goldens and confusing in CI logs. Rules are checked before scripted
// drops, each map in ascending kind order, so the lowest-kind rule
// error always wins.
func TestValidateFirstErrorDeterministic(t *testing.T) {
	build := func() *Plan {
		return NewPlan(1).
			Rule(Token, Rule{DropProb: 1.5}).
			Rule(Xoff, Rule{DelayProb: -2}).
			Rule(Notify, Rule{Delay: -1}).
			Drop(Xon, -4).
			Drop(Credit, -1)
	}
	first := build().Validate()
	if first == nil {
		t.Fatal("plan should be invalid")
	}
	// Token is the lowest kind with a broken rule, and rules outrank
	// scripted drops.
	if !strings.Contains(first.Error(), "token") || !strings.Contains(first.Error(), "outside [0, 1]") {
		t.Fatalf("first error should be the token rule's probability, got %v", first)
	}
	for i := 0; i < 50; i++ {
		if err := build().Validate(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: Validate() = %v, want stable %v", i, err, first)
		}
	}
}

func TestBindIsSingleUse(t *testing.T) {
	p := NewPlan(1)
	var rep stats.FaultReport
	if err := p.Bind(&rep); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(&rep); err == nil {
		t.Fatal("second Bind succeeded; plans must be single-use")
	}
}

func TestCorruptEvery(t *testing.T) {
	p := NewPlan(1).Corrupt(3)
	var rep stats.FaultReport
	if err := p.Bind(&rep); err != nil {
		t.Fatal(err)
	}
	var hits int
	for i := 0; i < 9; i++ {
		if p.CorruptData() {
			hits++
		}
	}
	if hits != 3 || rep.Corrupted != 3 {
		t.Fatalf("hits = %d, report = %d, want 3", hits, rep.Corrupted)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7, drop=token:3, droprate=xoff:0.25, delayrate=credit:0.5:2us, corrupt=100, flap=1:2:100us:400us, flaphost=5:10us:20us")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 {
		t.Errorf("Seed = %d", p.Seed)
	}
	if p.DropNext[Token] != 3 {
		t.Errorf("DropNext[Token] = %d", p.DropNext[Token])
	}
	if r := p.Rules[Xoff]; r.DropProb != 0.25 {
		t.Errorf("Xoff rule = %+v", r)
	}
	if r := p.Rules[Credit]; r.DelayProb != 0.5 || r.Delay != 2*sim.Microsecond {
		t.Errorf("Credit rule = %+v", r)
	}
	if p.CorruptEvery != 100 {
		t.Errorf("CorruptEvery = %d", p.CorruptEvery)
	}
	if len(p.Flaps) != 2 {
		t.Fatalf("Flaps = %+v", p.Flaps)
	}
	if f := p.Flaps[0]; f.Switch != 1 || f.Port != 2 || f.Host != -1 || f.Down != 100*sim.Microsecond || f.Up != 400*sim.Microsecond {
		t.Errorf("flap = %+v", f)
	}
	if f := p.Flaps[1]; f.Host != 5 || f.Down != 10*sim.Microsecond || f.Up != 20*sim.Microsecond {
		t.Errorf("flaphost = %+v", f)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",
		"drop=token",
		"drop=frob:3",
		"droprate=data:0.5",
		"flap=1:2:400us:100us",
		"delayrate=credit:0.5",
		"seed",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", spec)
		}
	}
}

// A bad flap field names its cause: the duration parser's own error,
// not just "bad field".
func TestParsePlanFieldErrorKeepsCause(t *testing.T) {
	for _, spec := range []string{"flap=0:4:1e14ms:1e15ms", "flaphost=3:1e14ms:1e15ms"} {
		_, err := ParsePlan(spec)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("ParsePlan(%q) = %v, want the duration's out-of-range error", spec, err)
		}
	}
}

func TestRecoveryDefaults(t *testing.T) {
	r := Recovery{Enabled: true, Period: 5 * sim.Microsecond}.WithDefaults()
	if r.Period != 5*sim.Microsecond {
		t.Errorf("Period overwritten: %v", r.Period)
	}
	if r.TokenTimeout != DefaultRecovery().TokenTimeout {
		t.Errorf("TokenTimeout not defaulted: %v", r.TokenTimeout)
	}
	if got := r.Ticks(12 * sim.Microsecond); got != 3 {
		t.Errorf("Ticks(12us) with 5us period = %d, want 3", got)
	}
	if got := r.Ticks(sim.Microsecond); got != 1 {
		t.Errorf("Ticks(1us) = %d, want 1", got)
	}
}

func TestParseTime(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.Time
	}{
		{"250ns", 250 * sim.Nanosecond},
		{"1.5us", 1500 * sim.Nanosecond},
		{"2ms", 2 * sim.Millisecond},
		{"800ps", 800 * sim.Picosecond},
	} {
		got, err := sim.ParseTime(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTime(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "5", "5s", "abcus"} {
		if _, err := sim.ParseTime(bad); err == nil {
			t.Errorf("ParseTime(%q) succeeded, want error", bad)
		}
	}
}
