package fabric

import (
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file implements the watchdog/recovery layer (Config.Recovery):
// a periodic audit tick that detects global no-delivery stalls, reclaims
// SAQs whose token was lost, re-sends lost Xoffs, overrides remote
// stops whose Xon was lost, and resyncs credit counters on quiet links.
// Everything it finds is reported into the network's FaultReport — the
// layer repairs, it never panics.
//
// The tick is a periodic driver (periodic.go): it recurs only while the
// network still has work the watchdog might need to repair (pending
// packets, live SAQs, or credit counters away from their initial
// values), so Engine.Drain terminates on a healthy network.

// watchdogState is the audit tick's bookkeeping.
type watchdogState struct {
	ticks         uint64 // ticks executed; drives the Xoff resend cadence
	lastDelivered uint64
	stallTicks    int
}

func (n *Network) watchdogTick() bool {
	w := &n.watchdog
	w.ticks++
	now := n.Engine.Now()
	rec := n.recovery

	// Progress stall: packets are in flight but none has been delivered
	// for StallTimeout. Counted once per elapsed timeout window.
	if n.PendingPackets() > 0 && n.DeliveredPackets == w.lastDelivered {
		w.stallTicks++
		if w.stallTicks >= rec.Ticks(rec.StallTimeout) {
			n.report.StallEvents++
			n.report.LastStallAt = now
			w.stallTicks = 0
			if n.rec != nil {
				n.rec.Record(trace.EvWatchdog, trace.NetLoc, "", trace.WatchStall, int64(n.PendingPackets()), 0)
			}
		}
	} else {
		w.stallTicks = 0
	}
	w.lastDelivered = n.DeliveredPackets

	if n.q.saqs {
		tokenTicks := rec.Ticks(rec.TokenTimeout)
		xonTicks := rec.Ticks(rec.XonTimeout)
		resend := w.ticks%uint64(rec.Ticks(rec.XoffResend)) == 0
		for _, sw := range n.switches {
			for _, in := range sw.in {
				if in == nil || in.rc == nil {
					continue
				}
				if c := in.rc.AuditTokens(tokenTicks); c > 0 {
					n.report.SAQsReclaimed += uint64(c)
					if n.rec != nil {
						n.rec.Record(trace.EvWatchdog, in.loc(), "", trace.WatchSAQReclaim, int64(c), 0)
					}
				}
				if resend {
					if c := in.rc.ResendStops(); c > 0 {
						n.report.XoffResent += uint64(c)
						if n.rec != nil {
							n.rec.Record(trace.EvWatchdog, in.loc(), "", trace.WatchXoffResend, int64(c), 0)
						}
					}
				}
			}
			for _, out := range sw.out {
				if out == nil || out.rc == nil {
					continue
				}
				if c := out.rc.AuditRemoteStops(xonTicks); c > 0 {
					n.report.XonOverridden += uint64(c)
					if n.rec != nil {
						n.rec.Record(trace.EvWatchdog, out.loc(), "", trace.WatchXonOverride, int64(c), 0)
					}
					out.ch.kick() // the un-stopped SAQ may transmit again
				}
			}
		}
		for _, nic := range n.nics {
			if nic.inj.rc == nil {
				continue
			}
			if c := nic.inj.rc.AuditRemoteStops(xonTicks); c > 0 {
				n.report.XonOverridden += uint64(c)
				if n.rec != nil {
					n.rec.Record(trace.EvWatchdog, nic.inj.loc(), "", trace.WatchXonOverride, int64(c), 0)
				}
				nic.inj.ch.kick()
			}
		}
	}

	// Credit resync: on links that have been completely quiet for
	// CreditQuiet, the sender's outstanding credits must equal the
	// receiver's resident bytes exactly (residency release and credit
	// return are atomic at the receiver); any shortfall is a lost credit
	// and is restored.
	for _, sw := range n.switches {
		for _, out := range sw.out {
			if out != nil && out.creditQuiet(now, rec.CreditQuiet) {
				out.auditCredits(n.report)
			}
		}
	}
	for _, nic := range n.nics {
		if nic.inj.creditQuiet(now, rec.CreditQuiet) {
			nic.inj.auditCredits(n.report)
		}
	}

	return n.PendingPackets() > 0 || n.saqsLive() || n.creditsDirty()
}

func (n *Network) saqsLive() bool {
	if !n.q.saqs {
		return false
	}
	total, _, _ := n.SAQUsage()
	return total > 0
}

func (n *Network) creditsDirty() bool {
	for _, sw := range n.switches {
		for _, out := range sw.out {
			if out != nil && out.checkCredits() != nil {
				return true
			}
		}
	}
	for _, nic := range n.nics {
		if nic.inj.checkCredits() != nil {
			return true
		}
	}
	return false
}

// creditQuiet reports whether this link has seen no credit movement for
// `quiet` and both directions are silent, making the credit/residency
// comparison exact.
func (u *egressUnit) creditQuiet(now, quiet sim.Time) bool {
	return now-u.lastCreditAt >= quiet && u.ch.quiet(now) && u.ch.sink.reverseQuiet(now)
}

// auditCredits compares outstanding credits against the receiver's
// resident bytes and repairs the counters. Only valid on a quiet link.
// A shortfall (outstanding > resident) is credit loss and is restored; a
// surplus would mean forged credits — the overflow hazard — and is
// clamped and reported as a violation.
func (u *egressUnit) auditCredits(report *stats.FaultReport) {
	sink := u.ch.sink
	if !u.queueCredits.enabled() {
		u.resyncCredit(&u.portCredits, u.initPort-sink.auditResident(-1), report)
		return
	}
	// Untouched lazy slots are exact no-ops here (credit still at its
	// initial value, receiver residency zero), so skipping them loses
	// nothing.
	u.queueCredits.forEachSlot(func(i int, slot *int) {
		u.resyncCredit(slot, u.initQueue-sink.auditResident(i), report)
	})
}

func (u *egressUnit) resyncCredit(counter *int, expected int, report *stats.FaultReport) {
	diff := expected - *counter
	if diff == 0 {
		return
	}
	if diff > 0 {
		report.CreditResyncs++
		report.CreditsRestored += uint64(diff)
		if u.sc.rec != nil {
			u.sc.rec.Record(trace.EvWatchdog, u.loc(), "", trace.WatchCreditResync, int64(diff), 0)
		}
	} else {
		report.CreditViolations++
		if u.sc.rec != nil {
			u.sc.rec.Record(trace.EvWatchdog, u.loc(), "", trace.WatchCreditViolation, int64(-diff), 0)
		}
	}
	*counter = expected
	u.lastCreditAt = u.sc.eng.Now()
	u.ch.kick()
}
