package stats

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestThroughputDumpRestoreRoundTrip(t *testing.T) {
	m, err := NewThroughput(sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(0, 64)
	m.Add(2500*sim.Nanosecond, 128)
	m.Add(-1, 10) // counted in Dropped
	d := m.Dump()
	back, err := d.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if back.Total() != m.Total() || back.Bins() != m.Bins() || back.Dropped() != m.Dropped() {
		t.Fatalf("restore: total %d/%d bins %d/%d dropped %d/%d",
			back.Total(), m.Total(), back.Bins(), m.Bins(), back.Dropped(), m.Dropped())
	}
	if _, err := (ThroughputDump{Bin: 0}).Restore(); err == nil {
		t.Error("zero-bin dump restored")
	}
}

func TestThroughputMerge(t *testing.T) {
	a, _ := NewThroughput(sim.Microsecond)
	b, _ := NewThroughput(sim.Microsecond)
	a.Add(0, 10)
	b.Add(0, 5)
	b.Add(3*sim.Microsecond, 7) // longer series extends the target
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 22 || a.Bins() != 4 {
		t.Fatalf("merged total %d bins %d", a.Total(), a.Bins())
	}
	c, _ := NewThroughput(2 * sim.Microsecond)
	if err := a.Merge(c); err == nil {
		t.Error("bin-width mismatch merged")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestSAQSeriesDumpMerge(t *testing.T) {
	a, _ := NewSAQSeries(sim.Microsecond)
	b, _ := NewSAQSeries(sim.Microsecond)
	a.Observe(0, SAQSample{Total: 3, MaxIngress: 2, MaxEgress: 1})
	b.Observe(0, SAQSample{Total: 1, MaxIngress: 4, MaxEgress: 0})
	b.Observe(sim.Microsecond, SAQSample{Total: 7, MaxIngress: 1, MaxEgress: 5})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Merging keeps bin-wise maxima, exactly like Observe.
	if got := a.At(0); got != (SAQSample{Total: 3, MaxIngress: 4, MaxEgress: 1}) {
		t.Fatalf("bin 0 = %+v", got)
	}
	if p := a.Peak(); p != (SAQSample{Total: 7, MaxIngress: 4, MaxEgress: 5}) {
		t.Fatalf("peak = %+v", p)
	}
	back, err := a.Dump().Restore()
	if err != nil {
		t.Fatal(err)
	}
	if back.Peak() != a.Peak() || back.Bins() != a.Bins() {
		t.Fatal("SAQ dump round trip")
	}
	c, _ := NewSAQSeries(2 * sim.Microsecond)
	if err := a.Merge(c); err == nil {
		t.Error("bin-width mismatch merged")
	}
}

// Merged latency summaries answer exactly what one summary fed both
// streams would: the bucket histograms add.
func TestLatencyMergeMatchesSingleStream(t *testing.T) {
	all := NewLatency()
	a, b := NewLatency(), NewLatency()
	for i, d := range []sim.Time{10, 100, 1000, 10000, 55, 320, 9999, 1} {
		all.Add(d)
		if i%2 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Mean() != all.Mean() || a.Max() != all.Max() {
		t.Fatalf("merge: count %d/%d mean %v/%v max %v/%v",
			a.Count(), all.Count(), a.Mean(), all.Mean(), a.Max(), all.Max())
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("q%.2f: merged %v, single %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
	back := a.Dump().Restore()
	if back.Quantile(0.5) != a.Quantile(0.5) || back.Mean() != a.Mean() {
		t.Error("latency dump round trip")
	}
}

// A Report survives a JSON round trip bit-exactly — the property the
// on-disk run cache depends on (float64 values included).
func TestReportJSONRoundTrip(t *testing.T) {
	tp, _ := NewThroughput(500 * sim.Nanosecond)
	tp.Add(0, 64)
	tp.Add(1700*sim.Nanosecond, 192)
	saq, _ := NewSAQSeries(500 * sim.Nanosecond)
	saq.Observe(0, SAQSample{Total: 5, MaxIngress: 3, MaxEgress: 2})
	lat := NewLatency()
	lat.Add(123 * sim.Nanosecond)
	lat.Add(7 * sim.Microsecond)
	rep := Report{
		Throughput:      tp.Dump(),
		SAQ:             saq.Dump(),
		Latency:         lat.Dump(),
		Injected:        10,
		Delivered:       9,
		OrderViolations: 1,
		Events:          12345,
		Faults:          &FaultReport{Corrupted: 2, LastStallAt: 3 * sim.Microsecond},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip:\nin:  %+v\nout: %+v", rep, back)
	}
}

func TestReportMerge(t *testing.T) {
	mk := func(bytes uint64, injected uint64) Report {
		tp, _ := NewThroughput(sim.Microsecond)
		tp.Add(0, int(bytes))
		saq, _ := NewSAQSeries(sim.Microsecond)
		saq.Observe(0, SAQSample{Total: int(injected)})
		lat := NewLatency()
		lat.Add(sim.Time(bytes))
		return Report{
			Throughput: tp.Dump(),
			SAQ:        saq.Dump(),
			Latency:    lat.Dump(),
			Injected:   injected,
			Delivered:  injected,
			Events:     injected * 3,
		}
	}
	a, b := mk(100, 4), mk(50, 9)
	b.Faults = &FaultReport{LinkDowns: 1}
	a.Windows = []LatencyDump{a.Latency}
	b.Windows = []LatencyDump{b.Latency, b.Latency}
	if err := a.Merge(&b); err != nil {
		t.Fatal(err)
	}
	if a.Injected != 13 || a.Events != 39 {
		t.Fatalf("merged counters: %+v", a)
	}
	tp, err := a.Throughput.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if tp.Total() != 150 {
		t.Fatalf("merged throughput %d", tp.Total())
	}
	saq, err := a.SAQ.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if saq.Peak().Total != 9 {
		t.Fatalf("merged SAQ peak %+v", saq.Peak())
	}
	if a.Latency.Restore().Count() != 2 {
		t.Fatal("merged latency count")
	}
	if len(a.Windows) != 2 || a.Windows[0].Restore().Count() != 2 || a.Windows[1].Restore().Count() != 1 {
		t.Fatalf("merged latency windows: %+v", a.Windows)
	}
	if a.Faults == nil || a.Faults.LinkDowns != 1 {
		t.Fatalf("merged faults: %+v", a.Faults)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestFaultReportMerge(t *testing.T) {
	a := &FaultReport{StallEvents: 1, LastStallAt: 5}
	a.Dropped[FaultToken] = 2
	b := &FaultReport{StallEvents: 2, LastStallAt: 3, CreditResyncs: 4}
	b.Dropped[FaultToken] = 1
	a.Merge(b)
	if a.Dropped[FaultToken] != 3 || a.StallEvents != 3 || a.CreditResyncs != 4 {
		t.Fatalf("merged: %+v", a)
	}
	if a.LastStallAt != 5 {
		t.Fatalf("LastStallAt = %v, want the later stall (5)", a.LastStallAt)
	}
	a.Merge(nil)
}
