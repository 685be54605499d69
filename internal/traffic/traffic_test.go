package traffic

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fakeNet records injections against a real event engine.
type fakeNet struct {
	eng   *sim.Engine
	hosts int
	msgs  []Record
}

func newFakeNet(hosts int) *fakeNet {
	return &fakeNet{eng: sim.NewEngine(), hosts: hosts}
}

func (f *fakeNet) Hosts() int                      { return f.hosts }
func (f *fakeNet) Now() sim.Time                   { return f.eng.Now() }
func (f *fakeNet) Schedule(at sim.Time, fn func()) { f.eng.Schedule(at, fn) }
func (f *fakeNet) Inject(src, dst, size int) {
	f.msgs = append(f.msgs, Record{T: f.eng.Now(), Src: src, Dst: dst, Size: size})
}

func TestUniformRateAndDestinations(t *testing.T) {
	net := newFakeNet(64)
	u := Uniform{
		Sources: hostRange(0, 8),
		Rate:    0.5,
		MsgSize: 64,
		End:     100 * sim.Microsecond,
		Seed:    3,
	}
	if err := u.Install(net); err != nil {
		t.Fatal(err)
	}
	net.eng.Drain()
	// 8 sources × 0.5 B/ns × 100 µs = 400 KB total, i.e. 6250 packets;
	// allow a small tolerance for start phases.
	want := 8 * 0.5 * 100_000 / 64.0
	got := float64(len(net.msgs))
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("injected %v messages, want ≈%v", got, want)
	}
	for _, m := range net.msgs {
		if m.Dst == m.Src || m.Dst < 0 || m.Dst >= 64 {
			t.Fatalf("bad destination: %+v", m)
		}
		if m.Size != 64 {
			t.Fatalf("bad size: %+v", m)
		}
	}
	// Destinations cover a broad range.
	seen := map[int]bool{}
	for _, m := range net.msgs {
		seen[m.Dst] = true
	}
	if len(seen) < 50 {
		t.Fatalf("only %d distinct destinations", len(seen))
	}
}

func TestUniformValidation(t *testing.T) {
	net := newFakeNet(8)
	if err := (Uniform{Sources: []int{0}, Rate: 0, MsgSize: 64}).Install(net); err == nil {
		t.Error("rate 0 accepted")
	}
	if err := (Uniform{Sources: []int{0}, Rate: 1.5, MsgSize: 64}).Install(net); err == nil {
		t.Error("rate 1.5 accepted")
	}
	if err := (Uniform{Sources: []int{0}, Rate: 1, MsgSize: 0}).Install(net); err == nil {
		t.Error("size 0 accepted")
	}
	if err := (Uniform{Sources: []int{0, 8}, Rate: 1, MsgSize: 64}).Install(net); err == nil {
		t.Error("source 8 on an 8-host network accepted")
	}
	if err := (Uniform{Sources: []int{-1}, Rate: 1, MsgSize: 64}).Install(net); err == nil {
		t.Error("source -1 accepted")
	}
	if net.eng.Pending() != 0 {
		t.Errorf("rejected generators left %d events scheduled", net.eng.Pending())
	}
}

func TestHotspotWindow(t *testing.T) {
	net := newFakeNet(64)
	h := Hotspot{
		Sources: hostRange(48, 64),
		Dest:    32,
		Rate:    1.0,
		MsgSize: 64,
		Start:   800 * sim.Microsecond,
		End:     970 * sim.Microsecond,
		Seed:    1,
	}
	if err := h.Install(net); err != nil {
		t.Fatal(err)
	}
	net.eng.Drain()
	if len(net.msgs) == 0 {
		t.Fatal("no hotspot messages")
	}
	for _, m := range net.msgs {
		if m.Dst != 32 {
			t.Fatalf("hotspot message to %d", m.Dst)
		}
		if m.T < 800*sim.Microsecond || m.T >= 970*sim.Microsecond+64*sim.Nanosecond {
			t.Fatalf("message outside window: %v", m.T)
		}
	}
	// 16 sources × 1 B/ns × 170 µs / 64 B ≈ 42500 messages.
	want := 16.0 * 170_000 / 64
	got := float64(len(net.msgs))
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("injected %v, want ≈%v", got, want)
	}
	// Source equal to destination is rejected.
	bad := Hotspot{Sources: []int{32}, Dest: 32, Rate: 1, MsgSize: 64}
	if err := bad.Install(newFakeNet(64)); err == nil {
		t.Error("hotspot with source == dest accepted")
	}
	// A source outside the network is rejected before anything is
	// scheduled; a bad destination is left to the injection path.
	small := newFakeNet(8)
	for _, srcs := range [][]int{{1, 8}, {-1}} {
		bad := Hotspot{Sources: srcs, Dest: 0, Rate: 1, MsgSize: 64}
		if err := bad.Install(small); err == nil {
			t.Errorf("hotspot sources %v on 8 hosts accepted", srcs)
		}
	}
	if small.eng.Pending() != 0 {
		t.Errorf("rejected hotspots left %d events scheduled", small.eng.Pending())
	}
	if err := (Hotspot{Sources: []int{1}, Dest: 9, Rate: 1, MsgSize: 64}).Install(small); err != nil {
		t.Errorf("out-of-range destination rejected at install: %v", err)
	}
}

func TestCornerConfigs(t *testing.T) {
	for _, tc := range []struct {
		number, hosts    int
		wantRate         float64
		wantRnd, wantHot int
	}{
		{1, 64, 0.5, 48, 16},
		{2, 64, 1.0, 48, 16},
		{2, 256, 1.0, 192, 64},
		{2, 512, 1.0, 384, 128},
	} {
		c, err := Corner(tc.number, tc.hosts, 64, 1.0)
		if err != nil {
			t.Fatalf("Corner(%d,%d): %v", tc.number, tc.hosts, err)
		}
		if c.RandomRate != tc.wantRate {
			t.Errorf("case %d/%d: rate %v", tc.number, tc.hosts, c.RandomRate)
		}
		if len(c.RandomSources) != tc.wantRnd || len(c.HotSources) != tc.wantHot {
			t.Errorf("case %d/%d: %d random, %d hot", tc.number, tc.hosts, len(c.RandomSources), len(c.HotSources))
		}
		if c.HotStart != 800*sim.Microsecond || c.HotEnd != 970*sim.Microsecond {
			t.Errorf("case %d/%d: window %v–%v", tc.number, tc.hosts, c.HotStart, c.HotEnd)
		}
		for _, s := range c.HotSources {
			if s == c.HotDest {
				t.Errorf("hot dest among sources")
			}
		}
	}
	if _, err := Corner(3, 64, 64, 1); err == nil {
		t.Error("corner case 3 accepted")
	}
	if _, err := Corner(1, 100, 64, 1); err == nil {
		t.Error("100-host corner accepted")
	}
	if _, err := Corner(1, 64, 64, 0); err == nil {
		t.Error("zero scale accepted")
	}
	// Scaling compresses times.
	c, _ := Corner(1, 64, 64, 0.1)
	if c.HotStart != 80*sim.Microsecond {
		t.Errorf("scaled start %v", c.HotStart)
	}
}

func TestCornerInstall(t *testing.T) {
	net := newFakeNet(64)
	c, _ := Corner(1, 64, 64, 0.05) // 80 µs run
	if err := c.Install(net); err != nil {
		t.Fatal(err)
	}
	net.eng.Drain()
	hot, rnd := 0, 0
	for _, m := range net.msgs {
		if m.Src%4 == 3 { // hot sources are scattered, one per leaf switch
			hot++
			if m.Dst != 32 {
				t.Fatalf("hot source sent to %d", m.Dst)
			}
		} else {
			rnd++
		}
	}
	if hot == 0 || rnd == 0 {
		t.Fatalf("hot=%d rnd=%d", hot, rnd)
	}
	// Host-count mismatch is rejected.
	if err := c.Install(newFakeNet(256)); err == nil {
		t.Error("mismatched host count accepted")
	}
}

func TestCelloWorkloadShape(t *testing.T) {
	net := newFakeNet(64)
	c := DefaultCello(20)
	c.Duration = 100 * sim.Microsecond
	if err := c.Install(net); err != nil {
		t.Fatal(err)
	}
	net.eng.Drain()
	if len(net.msgs) == 0 {
		t.Fatal("cello generated nothing")
	}
	hosts := 64 - c.Disks
	toDisk, fromDisk := 0, 0
	var bulkToDisk, bulkFromDisk int
	for _, m := range net.msgs {
		switch {
		case m.Src < hosts && m.Dst >= hosts:
			toDisk++
			if m.Size > 512 {
				bulkToDisk++
			}
		case m.Src >= hosts && m.Dst < hosts:
			fromDisk++
			if m.Size > 64 {
				bulkFromDisk++
			}
		default:
			t.Fatalf("host-to-host message: %+v", m)
		}
		if m.Size <= 0 || m.Size > 64*1024 {
			t.Fatalf("bad size %d", m.Size)
		}
	}
	if toDisk == 0 || fromDisk == 0 || bulkToDisk == 0 || bulkFromDisk == 0 {
		t.Fatalf("missing traffic classes: toDisk=%d fromDisk=%d bulkTo=%d bulkFrom=%d",
			toDisk, fromDisk, bulkToDisk, bulkFromDisk)
	}
	// Disk popularity is skewed: the busiest disk sees far more than
	// the average.
	perDisk := make([]int, c.Disks)
	for _, m := range net.msgs {
		if m.Dst >= hosts {
			perDisk[m.Dst-hosts]++
		}
	}
	max, sum := 0, 0
	for _, v := range perDisk {
		sum += v
		if v > max {
			max = v
		}
	}
	if float64(max) < 2*float64(sum)/float64(c.Disks) {
		t.Errorf("disk popularity not skewed: max=%d avg=%v", max, float64(sum)/float64(c.Disks))
	}
}

func TestCelloCompressionScalesLoad(t *testing.T) {
	load := func(cf float64) int {
		net := newFakeNet(64)
		c := DefaultCello(cf)
		c.Duration = 150 * sim.Microsecond
		if err := c.Install(net); err != nil {
			t.Fatal(err)
		}
		net.eng.Drain()
		total := 0
		for _, m := range net.msgs {
			total += m.Size
		}
		return total
	}
	l20, l40 := load(20), load(40)
	if float64(l40) < 1.4*float64(l20) {
		t.Errorf("compression 40 load %d not ≫ compression 20 load %d", l40, l20)
	}
}

func TestCelloValidation(t *testing.T) {
	net := newFakeNet(16)
	c := DefaultCello(20)
	c.Disks = 16
	if err := c.Install(net); err == nil {
		t.Error("disks == hosts accepted")
	}
	c = DefaultCello(0)
	if err := c.Install(net); err == nil {
		t.Error("compression 0 accepted")
	}
	c = DefaultCello(20)
	c.Duration = 0
	if err := c.Install(net); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := Trace{
		{T: 0, Src: 1, Dst: 2, Size: 64},
		{T: 1500 * sim.Nanosecond, Src: 2, Dst: 3, Size: 4096},
		{T: 2 * sim.Microsecond, Src: 0, Dst: 1, Size: 512},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip %d records, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], tr[i])
		}
	}
}

func TestTraceParseErrors(t *testing.T) {
	for _, text := range []string{
		"1 2 3",     // missing field
		"x 1 2 64",  // non-numeric
		"-5 1 2 64", // negative time
		"5 1 2 0",   // zero size
	} {
		if _, err := ReadTrace(strings.NewReader(traceHeader + "\n" + text + "\n")); err == nil {
			t.Errorf("parse accepted %q", text)
		}
	}
	// Comments and blanks are fine.
	tr, err := ReadTrace(strings.NewReader("# hi\n\n10 1 2 64\n"))
	if err != nil || len(tr) != 1 {
		t.Fatalf("comment handling: %v %v", tr, err)
	}
}

func TestReplay(t *testing.T) {
	tr := Trace{
		{T: 100 * sim.Nanosecond, Src: 0, Dst: 1, Size: 64},
		{T: 200 * sim.Nanosecond, Src: 1, Dst: 0, Size: 64},
	}
	net := newFakeNet(4)
	if err := (Replay{Trace: tr, Compression: 2}).Install(net); err != nil {
		t.Fatal(err)
	}
	net.eng.Drain()
	if len(net.msgs) != 2 {
		t.Fatalf("replayed %d", len(net.msgs))
	}
	if net.msgs[0].T != 50*sim.Nanosecond || net.msgs[1].T != 100*sim.Nanosecond {
		t.Fatalf("compression not applied: %+v", net.msgs)
	}
	// Unsorted traces are rejected; Sort fixes them.
	bad := Trace{{T: 10, Src: 0, Dst: 1, Size: 1}, {T: 5, Src: 0, Dst: 1, Size: 1}}
	if err := (Replay{Trace: bad, Compression: 1}).Install(newFakeNet(4)); err == nil {
		t.Error("unsorted trace accepted")
	}
	bad.Sort()
	if !bad.Sorted() {
		t.Error("Sort did not sort")
	}
	// Invalid records rejected.
	oob := Trace{{T: 1, Src: 0, Dst: 9, Size: 1}}
	if err := (Replay{Trace: oob, Compression: 1}).Install(newFakeNet(4)); err == nil {
		t.Error("out-of-range record accepted")
	}
	if err := (Replay{Trace: tr, Compression: 0}).Install(newFakeNet(4)); err == nil {
		t.Error("zero compression accepted")
	}
}
