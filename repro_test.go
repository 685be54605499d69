package repro

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewNetworkAndDelivery(t *testing.T) {
	net, err := NewNetwork(64, PolicyRECN)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.InjectMessage(1, 2, 640); err != nil {
		t.Fatal(err)
	}
	net.Engine.Drain()
	if net.DeliveredPackets != 10 {
		t.Fatalf("delivered %d packets, want 10", net.DeliveredPackets)
	}
	if err := net.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

func TestNewNetworkErrors(t *testing.T) {
	if _, err := NewNetwork(63, PolicyRECN); err == nil {
		t.Error("NewNetwork(63) succeeded")
	}
	topo, _ := NewTopology(64)
	cfg := DefaultConfig(topo)
	cfg.PacketSize = -1
	if _, err := NewNetworkConfig(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
}

func TestFigureIDsComplete(t *testing.T) {
	ids := FigureIDs()
	want := []string{"2a", "2b", "2c", "2d", "3a", "3b", "4a", "4b", "5a", "5b",
		"6a", "6b", "a1", "a2", "a3", "a4", "lat1", "lat2", "pkt512a", "pkt512b",
		"scaling", "scaling1k", "shootout", "table1"}
	if len(ids) != len(want) {
		t.Fatalf("FigureIDs() = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("FigureIDs() = %v, want %v", ids, want)
		}
	}
}

func TestReproduceTable1(t *testing.T) {
	tables, err := Reproduce("TABLE1", Options{})
	if err != nil || len(tables) != 1 {
		t.Fatalf("Reproduce(table1) = %v, %v", tables, err)
	}
	if !strings.Contains(tables[0].String(), "corner cases") {
		t.Errorf("table1 content:\n%s", tables[0])
	}
	if _, err := Reproduce("nope", Options{}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestReproduceSmallFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed figure")
	}
	tables, err := Reproduce("4b", Options{Scale: 0.1, MaxRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("4b tables: %+v", tables)
	}
}

func TestGenerateAndReplayCelloTrace(t *testing.T) {
	tr, err := GenerateCelloTrace(64, 40*Microsecond, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Skip("no records in the small window (sparse workload)")
	}
	if !tr.Sorted() {
		t.Fatal("generated trace not sorted")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("round trip %d != %d", len(back), len(tr))
	}
	net, err := NewNetwork(64, PolicyRECN)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayTrace(net, back, 20); err != nil {
		t.Fatal(err)
	}
	net.Engine.Drain()
	if net.DeliveredPackets == 0 {
		t.Fatal("replay delivered nothing")
	}
	if net.OrderViolations != 0 {
		t.Fatalf("order violations: %d", net.OrderViolations)
	}
}

func TestGenerateCelloTraceNeverEmpty(t *testing.T) {
	// The full duration always produces a workload.
	tr, err := GenerateCelloTrace(64, 800*Microsecond, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("800 µs cello trace empty")
	}
}

func TestInstallCornerFacade(t *testing.T) {
	net, err := NewNetwork(64, Policy1Q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Corner(1, 64, 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallCorner(net, c); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(c.SimEnd)
	if net.DeliveredPackets == 0 {
		t.Fatal("corner workload delivered nothing")
	}
}

func TestInstallCelloFacade(t *testing.T) {
	net, err := NewNetwork(64, PolicyRECN)
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallCello(net, 40); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(100 * Microsecond)
	if net.InjectedPackets == 0 {
		t.Fatal("cello injected nothing")
	}
}

func TestSweepFacades(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed sweep")
	}
	tables, err := SweepSAQs(Options{Scale: 0.05}, []int{8})
	if err != nil || len(tables) != 1 || len(tables[0].Rows) != 1 {
		t.Fatalf("SweepSAQs: %v %v", tables, err)
	}
	tables, err = SweepThresholds(Options{Scale: 0.05}, []int{8192})
	if err != nil || len(tables) != 1 || len(tables[0].Rows) != 1 {
		t.Fatalf("SweepThresholds: %v %v", tables, err)
	}
}

// shardedFacadeNet builds a 64-host RECN network sharded k ways
// (k = 0 leaves it on the serial engine).
func shardedFacadeNet(t *testing.T, k int) *Network {
	t.Helper()
	net, err := NewNetwork(64, PolicyRECN)
	if err != nil {
		t.Fatal(err)
	}
	if k > 0 {
		if _, err := net.Shard(k); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// The facade's install functions bind each source to its host's shard
// engine: a drained trace replay and the first 100 µs of the cello
// model deliver the same packets and bytes at every shard count, in
// order.
func TestFacadeInstallsShardIdentity(t *testing.T) {
	tr, err := GenerateCelloTrace(64, 200*Microsecond, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	installs := []struct {
		name    string
		install func(*Network) error
		until   Time // 0 drains
	}{
		{"replay", func(net *Network) error { return ReplayTrace(net, tr, 40) }, 0},
		{"cello", func(net *Network) error { return InstallCello(net, 40) }, 100 * Microsecond},
	}
	for _, in := range installs {
		var base [2]uint64
		for _, k := range []int{1, 4} {
			net := shardedFacadeNet(t, k)
			if err := in.install(net); err != nil {
				t.Fatal(err)
			}
			if in.until == 0 {
				net.DrainWindowed()
			} else {
				net.RunWindowed(in.until)
				net.FinishWindowed()
			}
			if err := net.InjectErr(); err != nil {
				t.Fatalf("%s shards=%d: %v", in.name, k, err)
			}
			if net.OrderViolations != 0 {
				t.Fatalf("%s shards=%d: %d order violations", in.name, k, net.OrderViolations)
			}
			got := [2]uint64{net.DeliveredPackets, net.DeliveredBytes}
			if got[0] == 0 {
				t.Fatalf("%s shards=%d delivered nothing", in.name, k)
			}
			if k == 1 {
				base = got
			} else if got != base {
				t.Errorf("%s shards=%d delivered %v packets/bytes, shards=1 %v", in.name, k, got, base)
			}
		}
	}
}

// An injection error is reported after the run, not panicked mid-run,
// and it is the same error on both runtimes.
func TestInstallCornerInjectErr(t *testing.T) {
	c, err := Corner(2, 64, 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	c.HotDest = 69
	want := ""
	for _, k := range []int{0, 2} {
		net := shardedFacadeNet(t, k)
		if err := InstallCorner(net, c); err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			net.DrainWindowed()
		} else {
			net.Engine.Drain()
		}
		err := net.InjectErr()
		if err == nil {
			t.Fatalf("shards=%d: no injection error for hot destination 69", k)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("shards=%d: %q, serial reported %q", k, err, want)
		}
	}
}
