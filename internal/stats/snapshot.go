package stats

import (
	"fmt"

	"repro/internal/sim"
)

// This file makes every meter serializable (Dump/Restore) and
// mergeable (Merge), so run results can be cached on disk and sharded
// runs can be combined into one report. Dumps use only exported scalar
// fields and encode/decode losslessly through encoding/json (float64
// values round-trip exactly).

// ThroughputDump is the serializable form of a Throughput meter.
type ThroughputDump struct {
	Bin     sim.Time
	Bytes   []uint64
	Dropped uint64
}

// Dump snapshots the meter.
func (m *Throughput) Dump() ThroughputDump {
	return ThroughputDump{
		Bin:     m.bin,
		Bytes:   append([]uint64(nil), m.bytes...),
		Dropped: m.negDropped,
	}
}

// Restore rebuilds a meter from a dump.
func (d ThroughputDump) Restore() (*Throughput, error) {
	m, err := NewThroughput(d.Bin)
	if err != nil {
		return nil, err
	}
	m.bytes = append([]uint64(nil), d.Bytes...)
	m.negDropped = d.Dropped
	return m, nil
}

// Merge folds another meter with the same bin width into this one
// (bin-wise byte sums), so shards of a partitioned workload combine
// into one throughput series.
func (m *Throughput) Merge(o *Throughput) error {
	if o == nil {
		return nil
	}
	if m.bin != o.bin {
		return fmt.Errorf("stats: merging throughput bins %v and %v", m.bin, o.bin)
	}
	for len(m.bytes) < len(o.bytes) {
		m.bytes = append(m.bytes, 0)
	}
	for i, b := range o.bytes {
		m.bytes[i] += b
	}
	m.negDropped += o.negDropped
	return nil
}

// SAQDump is the serializable form of a SAQSeries.
type SAQDump struct {
	Bin     sim.Time
	Maxs    []SAQSample
	Dropped uint64
}

// Dump snapshots the series.
func (s *SAQSeries) Dump() SAQDump {
	return SAQDump{
		Bin:     s.bin,
		Maxs:    append([]SAQSample(nil), s.maxs...),
		Dropped: s.negDropped,
	}
}

// Restore rebuilds a series from a dump.
func (d SAQDump) Restore() (*SAQSeries, error) {
	s, err := NewSAQSeries(d.Bin)
	if err != nil {
		return nil, err
	}
	s.maxs = append([]SAQSample(nil), d.Maxs...)
	s.negDropped = d.Dropped
	return s, nil
}

// Bin returns the bin width.
func (s *SAQSeries) Bin() sim.Time { return s.bin }

// Merge folds another series with the same bin width into this one
// (bin-wise maxima, matching what Observe keeps).
func (s *SAQSeries) Merge(o *SAQSeries) error {
	if o == nil {
		return nil
	}
	if s.bin != o.bin {
		return fmt.Errorf("stats: merging SAQ series bins %v and %v", s.bin, o.bin)
	}
	for len(s.maxs) < len(o.maxs) {
		s.maxs = append(s.maxs, SAQSample{})
	}
	for i, m := range o.maxs {
		dst := &s.maxs[i]
		if m.Total > dst.Total {
			dst.Total = m.Total
		}
		if m.MaxIngress > dst.MaxIngress {
			dst.MaxIngress = m.MaxIngress
		}
		if m.MaxEgress > dst.MaxEgress {
			dst.MaxEgress = m.MaxEgress
		}
	}
	s.negDropped += o.negDropped
	return nil
}

// LatencyDump is the serializable form of a Latency summary: only the
// occupied buckets, keyed by index.
type LatencyDump struct {
	Count   uint64
	Sum     float64
	Max     sim.Time
	Buckets map[int]uint64
}

// Dump snapshots the summary.
func (l *Latency) Dump() LatencyDump {
	buckets := make(map[int]uint64)
	for k, v := range &l.buckets {
		if v > 0 {
			buckets[k] = v
		}
	}
	return LatencyDump{Count: l.count, Sum: l.sum, Max: l.max, Buckets: buckets}
}

// Restore rebuilds a summary from a dump. An index outside the
// histogram, which only a hand-edited dump holds, lands in the nearest
// end bucket.
func (d LatencyDump) Restore() *Latency {
	l := &Latency{count: d.Count, sum: d.Sum, max: d.Max}
	for k, v := range d.Buckets {
		l.buckets[min(max(k, 0), latencyBuckets-1)] += v
	}
	return l
}

// Merge folds another summary into this one. Quantiles of the merged
// summary are exactly what a single summary fed both observation
// streams would report (the bucket histograms add).
func (l *Latency) Merge(o *Latency) {
	if o == nil {
		return
	}
	l.count += o.count
	l.sum += o.sum
	if o.max > l.max {
		l.max = o.max
	}
	for k, v := range &o.buckets {
		l.buckets[k] += v
	}
}

// Report bundles every measurement of one simulation run in a
// serializable, mergeable form. The experiments package converts its
// live Result to and from a Report for the on-disk run cache; sharded
// workloads combine shard Reports with Merge.
type Report struct {
	Throughput ThroughputDump
	SAQ        SAQDump
	Latency    LatencyDump
	// Windows holds one latency summary per declared latency window
	// (experiments.Run.LatencyWindows); absent when a run declared none,
	// so every other report keeps its encoding.
	Windows []LatencyDump `json:",omitempty"`

	Injected        uint64
	Delivered       uint64
	OrderViolations uint64
	Events          uint64

	// Faults is nil when the run had no fault injection or recovery.
	Faults *FaultReport `json:",omitempty"`

	// Mem is the end-of-run materialized-state accounting (nil on
	// reports from before the memory model existed — old cache entries
	// load unchanged).
	Mem *MemReport `json:",omitempty"`
}

// Merge folds another report into this one: series merge bin-wise,
// counters add, fault accounting adds field-wise.
func (r *Report) Merge(o *Report) error {
	if o == nil {
		return nil
	}
	tp, err := r.Throughput.Restore()
	if err != nil {
		return err
	}
	otp, err := o.Throughput.Restore()
	if err != nil {
		return err
	}
	if err := tp.Merge(otp); err != nil {
		return err
	}
	r.Throughput = tp.Dump()

	saq, err := r.SAQ.Restore()
	if err != nil {
		return err
	}
	osaq, err := o.SAQ.Restore()
	if err != nil {
		return err
	}
	if err := saq.Merge(osaq); err != nil {
		return err
	}
	r.SAQ = saq.Dump()

	lat := r.Latency.Restore()
	lat.Merge(o.Latency.Restore())
	r.Latency = lat.Dump()
	for i, w := range o.Windows {
		if i == len(r.Windows) {
			r.Windows = append(r.Windows, LatencyDump{})
		}
		lat := r.Windows[i].Restore()
		lat.Merge(w.Restore())
		r.Windows[i] = lat.Dump()
	}

	r.Injected += o.Injected
	r.Delivered += o.Delivered
	r.OrderViolations += o.OrderViolations
	r.Events += o.Events
	if o.Faults != nil {
		if r.Faults == nil {
			r.Faults = &FaultReport{}
		}
		r.Faults.Merge(o.Faults)
	}
	if o.Mem != nil {
		if r.Mem == nil {
			r.Mem = &MemReport{}
		}
		r.Mem.Add(*o.Mem)
	}
	return nil
}

// Merge adds another report's accounting field-wise. LastStallAt keeps
// the later of the two stall timestamps.
func (r *FaultReport) Merge(o *FaultReport) {
	if o == nil {
		return
	}
	for k := 0; k < int(NumFaultKinds); k++ {
		r.Dropped[k] += o.Dropped[k]
		r.Duplicated[k] += o.Duplicated[k]
		r.Delayed[k] += o.Delayed[k]
	}
	r.Corrupted += o.Corrupted
	r.CorruptedDelivered += o.CorruptedDelivered
	r.LinkDowns += o.LinkDowns
	r.LinkUps += o.LinkUps
	r.StallEvents += o.StallEvents
	if o.LastStallAt > r.LastStallAt {
		r.LastStallAt = o.LastStallAt
	}
	r.SAQsReclaimed += o.SAQsReclaimed
	r.XoffResent += o.XoffResent
	r.XonOverridden += o.XonOverridden
	r.CreditViolations += o.CreditViolations
	r.CreditResyncs += o.CreditResyncs
	r.CreditsRestored += o.CreditsRestored
}
