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

func TestSAQSeriesDumpRoundTrip(t *testing.T) {
	a, _ := NewSAQSeries(sim.Microsecond)
	a.Observe(0, SAQSample{Total: 3, MaxIngress: 2, MaxEgress: 1})
	a.Observe(0, SAQSample{Total: 1, MaxIngress: 4, MaxEgress: 0})
	a.Observe(sim.Microsecond, SAQSample{Total: 7, MaxIngress: 1, MaxEgress: 5})
	back, err := a.Dump().Restore()
	if err != nil {
		t.Fatal(err)
	}
	if back.Peak() != a.Peak() || back.Bins() != a.Bins() || back.At(0) != a.At(0) {
		t.Fatal("SAQ dump round trip")
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
