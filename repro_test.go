package repro

import (
	"bytes"
	"errors"
	"os"
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

// The facade's Options entry points run Options.Validate first: a
// negative scale is rejected as recnsim and the daemon reject it,
// instead of being defaulted into a paper-length run. The cache
// directory shows that nothing ran.
func TestFacadeValidatesOptions(t *testing.T) {
	dir := t.TempDir()
	o := Options{Scale: -1, CacheDir: dir}
	for name, call := range map[string]func() ([]*Table, error){
		"Reproduce":       func() ([]*Table, error) { return Reproduce("2a", o) },
		"SweepSAQs":       func() ([]*Table, error) { return SweepSAQs(o, []int{8}) },
		"SweepThresholds": func() ([]*Table, error) { return SweepThresholds(o, []int{8192}) },
	} {
		tables, err := call()
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Field != "scale" {
			t.Errorf("%s(scale -1) = %v, want an *OptionError on scale", name, err)
		}
		if tables != nil {
			t.Errorf("%s(scale -1) returned tables", name)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("rejected options left %d cache entries (%v)", len(entries), err)
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
	if err := c.Install(net.Traffic()); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(c.SimEnd)
	if net.DeliveredPackets == 0 {
		t.Fatal("corner workload delivered nothing")
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

// ReplayTrace binds each source to its host's shard engine: a drained
// trace replay delivers the same packets and bytes at every shard
// count, in order. (The cello model installed directly is pinned the
// same way by experiments.TestShardReportIdentityCello.)
func TestFacadeInstallsShardIdentity(t *testing.T) {
	tr, err := GenerateCelloTrace(64, 200*Microsecond, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	var base [2]uint64
	for _, k := range []int{1, 4} {
		net := shardedFacadeNet(t, k)
		if err := ReplayTrace(net, tr, 40); err != nil {
			t.Fatal(err)
		}
		net.DrainWindowed()
		if err := net.InjectErr(); err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if net.OrderViolations != 0 {
			t.Fatalf("shards=%d: %d order violations", k, net.OrderViolations)
		}
		got := [2]uint64{net.DeliveredPackets, net.DeliveredBytes}
		if got[0] == 0 {
			t.Fatalf("shards=%d delivered nothing", k)
		}
		if k == 1 {
			base = got
		} else if got != base {
			t.Errorf("shards=%d delivered %v packets/bytes, shards=1 %v", k, got, base)
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
		if err := c.Install(net.Traffic()); err != nil {
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
