package stats

// MemReport tallies the per-port control state a fabric instance has
// actually materialized: queue descriptors, ring slots, page-table and
// queue pointers, credit counters, NIC destination slots and RECN
// CAM/SAQ tables. Counts are exact (walked from the live structures);
// StateBytes converts them through the fabric's modeled per-record
// sizes, so the figure output is deterministic across platforms and
// shard counts — unlike process RSS, which the benchmark harness
// reports separately.
type MemReport struct {
	// Ports is the number of port-state units walked (switch ingress +
	// switch egress + NIC injection ports; the NIC admittance state is
	// attributed to its injection port).
	Ports int

	// Queues is the number of materialized policy queues and RingSlots
	// the total capacity of their entry rings.
	Queues    int
	RingSlots int
	// PtrSlots counts queue-pointer and page-table slots.
	PtrSlots int
	// CreditSlots counts materialized credit counters plus other
	// per-host scalar slots (the throttle policy's CNP clocks).
	CreditSlots int
	// ActiveSlots counts active-list membership and stack slots.
	ActiveSlots int
	// DestSlots counts materialized NIC admittance destination records.
	DestSlots int
	// CAMLines and SAQSlots count RECN controller state (zero until a
	// controller sees its first congestion event).
	CAMLines int
	SAQSlots int

	// StateBytes is the modeled control-state total over the counts
	// above.
	StateBytes int64
	// PoolPeakBytes sums the data-RAM high-water marks over all port
	// pools (bounded by ports × PortMemory; reported to show how little
	// of the nominal RAM a run actually touched).
	PoolPeakBytes int64
}

// BytesPerPort returns the modeled control-state bytes per port unit.
func (r MemReport) BytesPerPort() float64 {
	if r.Ports == 0 {
		return 0
	}
	return float64(r.StateBytes) / float64(r.Ports)
}
