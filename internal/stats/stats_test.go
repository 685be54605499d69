package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestThroughputBinning(t *testing.T) {
	m, err := NewThroughput(10 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(0, 1000)
	m.Add(9*sim.Microsecond, 2000)
	m.Add(10*sim.Microsecond, 500)
	m.Add(35*sim.Microsecond, 4000)
	if m.Bins() != 4 {
		t.Fatalf("Bins() = %d, want 4", m.Bins())
	}
	// Bin 0: 3000 bytes over 10000 ns = 0.3 B/ns.
	if got := m.Rate(0); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Rate(0) = %v", got)
	}
	if got := m.Rate(1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("Rate(1) = %v", got)
	}
	if got := m.Rate(2); got != 0 {
		t.Errorf("Rate(2) = %v", got)
	}
	if got := m.Rate(99); got != 0 {
		t.Errorf("out-of-range Rate = %v", got)
	}
	if m.Total() != 7500 {
		t.Errorf("Total() = %d", m.Total())
	}
	rates := m.Rates()
	if len(rates) != 4 || rates[3] != 0.4 {
		t.Errorf("Rates() = %v", rates)
	}
	// Mean over bins 0..3: 7500 bytes / 40000 ns.
	if got := m.MeanRate(0, 4); math.Abs(got-0.1875) > 1e-12 {
		t.Errorf("MeanRate = %v", got)
	}
	if got := m.MeanRate(2, 2); got != 0 {
		t.Errorf("empty MeanRate = %v", got)
	}
	if got := m.MeanRate(-5, 100); math.Abs(got-0.1875) > 1e-12 {
		t.Errorf("clamped MeanRate = %v", got)
	}
	if m.Bin() != 10*sim.Microsecond {
		t.Errorf("Bin() = %v", m.Bin())
	}
}

func TestThroughputBadBin(t *testing.T) {
	if _, err := NewThroughput(0); err == nil {
		t.Error("NewThroughput(0) did not error")
	}
	if _, err := NewThroughput(-sim.Microsecond); err == nil {
		t.Error("NewThroughput(-1us) did not error")
	}
}

// Property: Total equals the sum of all added sizes regardless of
// times.
func TestQuickThroughputTotal(t *testing.T) {
	f := func(sizes []uint16, times []uint32) bool {
		m, err := NewThroughput(sim.Microsecond)
		if err != nil {
			return false
		}
		var want uint64
		for i, s := range sizes {
			tm := sim.Time(0)
			if len(times) > 0 {
				tm = sim.Time(times[i%len(times)])
			}
			m.Add(tm, int(s))
			want += uint64(s)
		}
		return m.Total() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSAQSeriesMaxima(t *testing.T) {
	s, err := NewSAQSeries(10 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(sim.Microsecond, SAQSample{Total: 5, MaxIngress: 2, MaxEgress: 1})
	s.Observe(2*sim.Microsecond, SAQSample{Total: 3, MaxIngress: 4, MaxEgress: 0})
	s.Observe(15*sim.Microsecond, SAQSample{Total: 7, MaxIngress: 1, MaxEgress: 6})
	if s.Bins() != 2 {
		t.Fatalf("Bins() = %d", s.Bins())
	}
	b0 := s.At(0)
	if b0.Total != 5 || b0.MaxIngress != 4 || b0.MaxEgress != 1 {
		t.Errorf("bin 0 = %+v (component-wise maxima expected)", b0)
	}
	if got := s.At(9); got != (SAQSample{}) {
		t.Errorf("out-of-range At = %+v", got)
	}
	p := s.Peak()
	if p.Total != 7 || p.MaxIngress != 4 || p.MaxEgress != 6 {
		t.Errorf("Peak = %+v", p)
	}
}

func TestSAQSeriesBadBin(t *testing.T) {
	if _, err := NewSAQSeries(0); err == nil {
		t.Error("NewSAQSeries(0) did not error")
	}
}

func TestLatencyExactStats(t *testing.T) {
	l := NewLatency()
	if l.Mean() != 0 || l.Max() != 0 || l.Quantile(0.5) != 0 {
		t.Error("empty latency summary not zero")
	}
	for _, d := range []sim.Time{100, 200, 300, 400} {
		l.Add(d * sim.Nanosecond)
	}
	if l.Count() != 4 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.Mean() != 250*sim.Nanosecond {
		t.Errorf("Mean = %v", l.Mean())
	}
	if l.Max() != 400*sim.Nanosecond {
		t.Errorf("Max = %v", l.Max())
	}
}

// Quantiles are approximate but must stay within the bucket resolution
// of the exact value.
func TestLatencyQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLatency()
	var all []float64
	for i := 0; i < 20000; i++ {
		d := sim.Time(math.Exp(rng.NormFloat64()*1.5+10)) + 1
		l.Add(d)
		all = append(all, float64(d))
	}
	sort.Float64s(all)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := all[int(q*float64(len(all)))-1]
		got := float64(l.Quantile(q))
		if math.Abs(got-exact)/exact > 0.10 {
			t.Errorf("q%.2f: got %v, exact %v", q, got, exact)
		}
	}
	// Quantile(1) never exceeds the exact max.
	if l.Quantile(1) > l.Max() {
		t.Error("Quantile(1) above Max")
	}
	if l.Quantile(-1) <= 0 {
		t.Error("clamped low quantile")
	}
	if l.Quantile(2) != l.Quantile(1) {
		t.Error("clamped high quantile")
	}
}

// The histogram covers every sim.Time, and its dump holds only the
// occupied buckets; an index outside it (a hand-edited dump) restores
// into the nearest end bucket instead of panicking.
func TestLatencyFullRange(t *testing.T) {
	l := NewLatency()
	l.Add(1)
	l.Add(math.MaxInt64)
	if l.Quantile(1) != math.MaxInt64 || l.Quantile(0.5) > 2 {
		t.Errorf("quantiles %v / %v over {1, MaxInt64}", l.Quantile(0.5), l.Quantile(1))
	}
	d := l.Dump()
	if len(d.Buckets) != 2 {
		t.Errorf("dump holds %d buckets, want the 2 occupied ones", len(d.Buckets))
	}
	d.Buckets = map[int]uint64{-5: 1, 1 << 20: 1}
	if r := d.Restore(); r.Quantile(0.5) > 1 || r.Quantile(1) != math.MaxInt64 {
		t.Errorf("out-of-range buckets restored to %v / %v", r.Quantile(0.5), r.Quantile(1))
	}
}

func TestLatencyZeroDuration(t *testing.T) {
	l := NewLatency()
	l.Add(0)
	if l.Count() != 1 || l.Max() != 0 {
		t.Error("zero-duration observation mishandled")
	}
}

// TestNegativeTimeRejected checks that the meters survive observations
// with negative timestamps (a caller bug that used to index-panic):
// the sample is counted in Dropped and the series is unaffected.
func TestNegativeTimeRejected(t *testing.T) {
	m, err := NewThroughput(100)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(-1, 64)
	m.Add(50, 64)
	if m.Dropped() != 1 {
		t.Fatalf("Throughput.Dropped = %d, want 1", m.Dropped())
	}
	if m.Total() != 64 || m.Bins() != 1 {
		t.Fatalf("negative Add leaked into the series: total %d, bins %d", m.Total(), m.Bins())
	}

	s, err := NewSAQSeries(100)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(-5, SAQSample{Total: 9})
	s.Observe(50, SAQSample{Total: 2})
	if s.Dropped() != 1 {
		t.Fatalf("SAQSeries.Dropped = %d, want 1", s.Dropped())
	}
	if p := s.Peak(); p.Total != 2 {
		t.Fatalf("negative Observe leaked into the series: peak %+v", p)
	}
}

// TestThroughputSeries checks *Throughput satisfies Series and that
// Summarize matches its own accounting.
func TestThroughputSeries(t *testing.T) {
	var _ Series = (*Throughput)(nil)
	m, err := NewThroughput(1000)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(0, 500)
	m.Add(1500, 1500)
	sum := Summarize(m)
	if sum.Bins != 2 || sum.Max != 1500 || sum.PeakAt != 1000 || sum.Mean != 1000 {
		t.Fatalf("summary %+v, want 2 bins, mean 1000, max 1500 B/ns at bin 1", sum)
	}
}
