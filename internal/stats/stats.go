// Package stats collects the measurements the paper reports: network
// throughput over time (bytes/ns), SAQ utilization over time (total,
// max per ingress port, max per egress port) and packet latency
// summaries.
package stats

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Series is any fixed-bin time series (implemented by Throughput's
// rate view, trace.TimeSeries, ...). It lets Summarize and plotting
// code consume metrics from any producer.
type Series interface {
	// Bin returns the bin width.
	Bin() sim.Time
	// Bins returns the number of bins recorded.
	Bins() int
	// At returns bin i's value (0 outside the recorded range).
	At(i int) float64
}

// SeriesSummary condenses a Series for reports.
type SeriesSummary struct {
	Bins      int
	Mean, Max float64
	// PeakAt is the start time of the bin holding the maximum.
	PeakAt sim.Time
}

// Summarize scans a Series once and returns its summary.
func Summarize(s Series) SeriesSummary {
	out := SeriesSummary{Bins: s.Bins()}
	if out.Bins == 0 {
		return out
	}
	sum := 0.0
	for i := 0; i < out.Bins; i++ {
		v := s.At(i)
		sum += v
		if v > out.Max {
			out.Max = v
			out.PeakAt = s.Bin() * sim.Time(i)
		}
	}
	out.Mean = sum / float64(out.Bins)
	return out
}

// Throughput bins delivered bytes over time. Rates are reported in
// bytes per nanosecond, the paper's unit.
type Throughput struct {
	bin   sim.Time
	bytes []uint64
	// negDropped counts observations rejected for negative timestamps
	// (a caller bug — but one the meter must survive, not panic on).
	negDropped uint64
}

// NewThroughput creates a meter with the given bin width. A
// non-positive width is a caller error, reported rather than panicking
// (library code must not crash on bad input).
func NewThroughput(bin sim.Time) (*Throughput, error) {
	if bin <= 0 {
		return nil, fmt.Errorf("stats: bin width %v (must be positive)", bin)
	}
	return &Throughput{bin: bin}, nil
}

// Add records size bytes delivered at time t. Negative times would
// index out of bounds; they are counted in Dropped and ignored.
func (m *Throughput) Add(t sim.Time, size int) {
	if t < 0 {
		m.negDropped++
		return
	}
	idx := int(t / m.bin)
	for len(m.bytes) <= idx {
		m.bytes = append(m.bytes, 0)
	}
	m.bytes[idx] += uint64(size)
}

// Dropped returns how many observations were rejected for negative
// timestamps.
func (m *Throughput) Dropped() uint64 { return m.negDropped }

// Bin returns the bin width.
func (m *Throughput) Bin() sim.Time { return m.bin }

// Bins returns the number of bins recorded.
func (m *Throughput) Bins() int { return len(m.bytes) }

// Rate returns the throughput of bin i in bytes/ns.
func (m *Throughput) Rate(i int) float64 {
	if i < 0 || i >= len(m.bytes) {
		return 0
	}
	return float64(m.bytes[i]) / m.bin.Nanos()
}

// At returns the throughput of bin i in bytes/ns; with Bin and Bins it
// makes *Throughput satisfy Series.
func (m *Throughput) At(i int) float64 { return m.Rate(i) }

// Rates returns the whole series in bytes/ns.
func (m *Throughput) Rates() []float64 {
	out := make([]float64, len(m.bytes))
	for i := range out {
		out[i] = m.Rate(i)
	}
	return out
}

// Total returns all delivered bytes.
func (m *Throughput) Total() uint64 {
	var sum uint64
	for _, b := range m.bytes {
		sum += b
	}
	return sum
}

// MeanRate returns the average rate over [from, to) bins in bytes/ns.
func (m *Throughput) MeanRate(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(m.bytes) {
		to = len(m.bytes)
	}
	if to <= from {
		return 0
	}
	var sum uint64
	for _, b := range m.bytes[from:to] {
		sum += b
	}
	return float64(sum) / (float64(to-from) * m.bin.Nanos())
}

// SAQSample is one observation of network-wide SAQ usage.
type SAQSample struct {
	Total      int
	MaxIngress int
	MaxEgress  int
}

// SAQSeries records the maximum SAQ usage observed within each time
// bin (the paper's Figures 4–6 plot these maxima over time).
type SAQSeries struct {
	bin        sim.Time
	maxs       []SAQSample
	negDropped uint64
}

// NewSAQSeries creates a series with the given bin width. A
// non-positive width is a caller error, reported rather than panicking.
func NewSAQSeries(bin sim.Time) (*SAQSeries, error) {
	if bin <= 0 {
		return nil, fmt.Errorf("stats: bin width %v (must be positive)", bin)
	}
	return &SAQSeries{bin: bin}, nil
}

// Observe folds a sample taken at time t into its bin (keeping maxima).
// Negative times would index out of bounds; they are counted in
// Dropped and ignored.
func (s *SAQSeries) Observe(t sim.Time, sample SAQSample) {
	if t < 0 {
		s.negDropped++
		return
	}
	idx := int(t / s.bin)
	for len(s.maxs) <= idx {
		s.maxs = append(s.maxs, SAQSample{})
	}
	m := &s.maxs[idx]
	if sample.Total > m.Total {
		m.Total = sample.Total
	}
	if sample.MaxIngress > m.MaxIngress {
		m.MaxIngress = sample.MaxIngress
	}
	if sample.MaxEgress > m.MaxEgress {
		m.MaxEgress = sample.MaxEgress
	}
}

// Dropped returns how many samples were rejected for negative
// timestamps.
func (s *SAQSeries) Dropped() uint64 { return s.negDropped }

// Bins returns the number of bins recorded.
func (s *SAQSeries) Bins() int { return len(s.maxs) }

// At returns the bin-i maxima.
func (s *SAQSeries) At(i int) SAQSample {
	if i < 0 || i >= len(s.maxs) {
		return SAQSample{}
	}
	return s.maxs[i]
}

// Peak returns the maxima over the whole run.
func (s *SAQSeries) Peak() SAQSample {
	var p SAQSample
	for _, m := range s.maxs {
		if m.Total > p.Total {
			p.Total = m.Total
		}
		if m.MaxIngress > p.MaxIngress {
			p.MaxIngress = m.MaxIngress
		}
		if m.MaxEgress > p.MaxEgress {
			p.MaxEgress = m.MaxEgress
		}
	}
	return p
}

// Latency summarizes packet latencies with logarithmic buckets: exact
// count/mean/max plus approximate quantiles (16 sub-buckets per octave
// keeps the relative quantile error under ~5%). The histogram is a
// fixed array covering every positive sim.Time, so Add neither hashes
// nor allocates.
type Latency struct {
	count   uint64
	sum     float64
	max     sim.Time
	buckets [latencyBuckets]uint64
}

// NewLatency creates an empty summary.
func NewLatency() *Latency { return &Latency{} }

const (
	latencySubBuckets = 16
	// latencyBuckets spans log2 of the largest sim.Time: 63 octaves, plus
	// the 64th that float64 rounding of MaxInt64 up to 2^63 reaches.
	latencyBuckets = 64 * latencySubBuckets
)

// bucketOf maps a latency to a log-scale bucket index.
func bucketOf(d sim.Time) int {
	if d <= 0 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(d)) * latencySubBuckets))
}

// bucketValue returns a representative latency for a bucket, in float64:
// the top buckets' values exceed the largest sim.Time.
func bucketValue(b int) float64 {
	return math.Exp2(float64(b)/latencySubBuckets) * 1.022 // mid-bucket
}

// Add records one latency observation.
func (l *Latency) Add(d sim.Time) {
	l.count++
	l.sum += float64(d)
	if d > l.max {
		l.max = d
	}
	l.buckets[bucketOf(d)]++
}

// Count returns the number of observations.
func (l *Latency) Count() uint64 { return l.count }

// Mean returns the exact mean latency.
func (l *Latency) Mean() sim.Time {
	if l.count == 0 {
		return 0
	}
	return sim.Time(l.sum / float64(l.count))
}

// Max returns the exact maximum latency.
func (l *Latency) Max() sim.Time { return l.max }

// Quantile returns the approximate q-quantile (0 < q ≤ 1).
func (l *Latency) Quantile(q float64) sim.Time {
	if l.count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(l.count)))
	var seen uint64
	for k, n := range &l.buckets {
		seen += n
		if seen >= target {
			if v := bucketValue(k); v < float64(l.max) {
				return sim.Time(v)
			}
			return l.max
		}
	}
	return l.max
}
