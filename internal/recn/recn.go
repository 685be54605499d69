// Package recn implements the paper's core contribution: the Regional
// Explicit Congestion Notification controllers that live at every
// switch port (and NIC injection port).
//
// Two controller types exist, matching the two port roles:
//
//   - Egress: an output port (or a NIC injection port). It detects
//     congestion on its normal queue (becoming a congestion-tree root),
//     hosts SAQs allocated by notifications from the downstream switch,
//     and propagates congestion to the input ports of its own switch.
//   - Ingress: an input port. It hosts SAQs allocated by internal
//     notifications from its switch's output ports, and propagates
//     congestion upstream over the link when a SAQ fills.
//
// Tokens mark the leaves of each congestion tree and drive safe
// deallocation toward the root (paper §3.5). In-order delivery is kept
// with markers placed in the queue for uncongested flows (paper §3.8).
//
// The controllers are pure state machines: the surrounding fabric owns
// time, queues' fill/drain events and message transport, and calls the
// On* methods; controllers react by mutating queue sets and invoking
// the Effects callbacks. This keeps all RECN logic unit-testable
// without a simulator.
package recn

import (
	"fmt"

	"repro/internal/mempool"
	"repro/internal/pkt"
)

// Config holds the RECN tunables. The paper fixes the number of SAQs
// (8 per port in all experiments) but not the thresholds; defaults are
// tuned to reproduce the paper's behavior (see DESIGN.md §3).
type Config struct {
	// MaxSAQs is the number of SAQs (= CAM lines) per port.
	MaxSAQs int
	// DetectBytes is the output-queue occupancy that makes a port the
	// root of a congestion tree (paper §3.3).
	DetectBytes int
	// PropagateBytes is the SAQ occupancy that triggers congestion
	// notification one hop further from the root (paper §3.4).
	PropagateBytes int
	// XoffBytes / XonBytes are the per-SAQ stop/go thresholds
	// (paper §3.7).
	XoffBytes int
	XonBytes  int
	// BoostPackets: a SAQ holding at most this many packets while
	// owning a token is given highest arbitration priority so that it
	// drains and deallocates (paper §3.8). Zero disables the boost
	// (ablation A3).
	BoostPackets int

	// NoInOrderMarkers disables the §3.8 marker mechanism (ablation
	// A4): SAQs start unblocked and in-order delivery is no longer
	// guaranteed. Only for measuring what the markers buy.
	NoInOrderMarkers bool
}

// DefaultConfig returns the configuration used by the experiments.
// The paper does not publish its thresholds; these values keep SAQs
// small (the paper observes post-congestion SAQs holding only a couple
// of packets, which implies small Xon/Xoff windows) while still
// avoiding notifications on sub-transient queue blips.
func DefaultConfig() Config {
	return Config{
		MaxSAQs:        8,
		DetectBytes:    8 * 1024,
		PropagateBytes: 2 * 1024,
		XoffBytes:      4 * 1024,
		XonBytes:       1 * 1024,
		BoostPackets:   2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.MaxSAQs < 1:
		return fmt.Errorf("recn: MaxSAQs %d < 1", c.MaxSAQs)
	case c.DetectBytes <= 0 || c.PropagateBytes <= 0:
		return fmt.Errorf("recn: nonpositive thresholds")
	case c.XonBytes >= c.XoffBytes:
		return fmt.Errorf("recn: XonBytes %d ≥ XoffBytes %d", c.XonBytes, c.XoffBytes)
	case c.BoostPackets < 0:
		return fmt.Errorf("recn: negative BoostPackets")
	}
	return nil
}

// MsgKind enumerates the RECN control messages exchanged over links.
type MsgKind int

const (
	// MsgNotify asks the upstream egress port to allocate a SAQ for
	// Path (always travels ingress → upstream egress).
	MsgNotify MsgKind = iota
	// MsgToken returns a congestion-tree token downstream (always
	// travels egress → downstream ingress), either because the
	// upstream SAQ deallocated or because allocation was refused.
	MsgToken
	// MsgXoff stops the upstream SAQ for Path.
	MsgXoff
	// MsgXon resumes it.
	MsgXon
	// MsgHintOn / MsgHintOff are not RECN messages: they are the
	// adaptive-routing congestion hints of the arn policy (a switch
	// telling every upstream neighbor that at least one of its output
	// queues crossed the hint threshold, and later that the last one
	// fell back below it). They ride the same control-message transport
	// because hints share link bandwidth exactly like RECN control
	// traffic; carrying them in CtlMsg keeps the channel layer to one
	// control payload type. Path is unused (empty).
	MsgHintOn
	MsgHintOff
)

func (k MsgKind) String() string {
	switch k {
	case MsgNotify:
		return "notify"
	case MsgToken:
		return "token"
	case MsgXoff:
		return "xoff"
	case MsgXon:
		return "xon"
	case MsgHintOn:
		return "hint-on"
	case MsgHintOff:
		return "hint-off"
	default:
		return fmt.Sprintf("msg(%d)", int(k))
	}
}

// CtlMsg is a RECN control message. Control messages share link
// bandwidth with data (paper §4.1); Size is their wire size.
type CtlMsg struct {
	Kind MsgKind
	Path pkt.Path
	// Refused marks a token that bounced off a full CAM (paper §3.8)
	// rather than returning through deallocation. The receiving SAQ
	// backs off instead of re-notifying immediately.
	Refused bool
}

// Size returns the wire size in bytes. Notifications carry the full
// path; tokens and Xon/Xoff would carry a CAM-line ID in hardware
// (paper §3.8), hence their smaller fixed sizes.
func (m CtlMsg) Size() int {
	switch m.Kind {
	case MsgNotify:
		return 16
	case MsgToken:
		return 12
	default:
		return 8
	}
}

// SAQ is one set-aside queue plus its control state. The embedded
// mempool queue holds the packets; everything else is RECN bookkeeping.
type SAQ struct {
	// ID is the CAM line index; UID is unique across the port's
	// lifetime (markers reference UIDs so stale markers are inert).
	ID  int
	UID int
	// Path leads from this port to the congestion root.
	Path pkt.Path
	// Q holds the set-aside packets.
	Q *mempool.Queue

	// markersPending counts in-order markers not yet resolved. On
	// allocation a marker is placed in the queue for uncongested flows
	// (paper §3.8) and — so that overlapping congestion trees keep
	// in-order delivery — in every SAQ whose path is a proper prefix
	// of the new path (those queues may hold packets that the longer
	// path now captures). The SAQ must not transmit until all markers
	// reach the head of their queues.
	markersPending int

	// leaf: this SAQ currently owns a token (it is a leaf of the
	// tree). Egress SAQs are leaves while branches == 0.
	leaf bool
	// sentUpstream (ingress only): a notification is outstanding and
	// the token moved upstream.
	sentUpstream bool
	// reArm (ingress only): propagation re-arms only after occupancy
	// falls below the threshold again, avoiding notify/refuse storms.
	reArm bool

	// branchOut (egress only): bitmask of local ingress ports holding a
	// token of this subtree. notified dedups recruiting (it includes
	// refused inputs, which hold no token). Bitmasks bound the switch
	// radix at 64 ports — far above the paper's 8-port switches — and
	// make per-notification bookkeeping allocation-free.
	branchOut uint64
	notified  uint64

	// used: the SAQ has held at least one packet. Deallocation waits
	// for this (the paper deallocates when the SAQ "becomes empty");
	// never-used SAQs are collected by the periodic idle sweep.
	used bool

	// watchTicks counts consecutive watchdog audits in which this SAQ
	// was found in a possibly-stuck state (ingress: token outstanding
	// and idle; egress: remote stop held). Counting ticks instead of
	// timestamps keeps the controllers free of any notion of time.
	watchTicks int

	// xoffSent (ingress): we told the upstream SAQ to stop.
	xoffSent bool
	// xoffRemote (egress): the downstream SAQ told us to stop.
	xoffRemote bool
	// gateInternal (egress): occupancy-based stop signal toward the
	// ingress SAQs of the same switch.
	gateInternal bool
}

// portBit returns the bitmask bit for a switch port index.
func portBit(port int) uint64 {
	if port < 0 || port >= 64 {
		panic(fmt.Sprintf("recn: port %d outside the 64-port bitmask range", port))
	}
	return 1 << uint(port)
}

// Leaf reports whether the SAQ currently owns a token.
func (s *SAQ) Leaf() bool { return s.leaf }

// Blocked reports whether the SAQ is still waiting for in-order markers
// and therefore must not transmit (paper §3.8).
func (s *SAQ) Blocked() bool { return s.markersPending > 0 }

// Tracer observes controller events for the flight recorder. The
// fabric installs one per port (carrying the port's location); a nil
// tracer costs one comparison per hook. Implementations must not call
// back into the controller.
type Tracer interface {
	// SAQAlloc / SAQDealloc fire when a CAM line is allocated/released.
	SAQAlloc(camLine, uid int, path pkt.Path)
	SAQDealloc(camLine, uid int, path pkt.Path)
	// CAMLookup fires on every non-trivial CAM classification (the
	// empty-CAM short circuit is not reported).
	CAMLookup(hit bool)
}

// SAQCounter is an optional interface of a controller's effects: the
// fabric implements it to keep a census of live SAQs, so the network
// totals and per-port maxima never need a walk over every port. Each
// allocation and deallocation reports the port's move from `from` to
// `to` live SAQs. Effects without a census (test stubs) simply do not
// implement it.
type SAQCounter interface {
	SAQsChanged(from, to int)
}

// Stats aggregates controller event counters for reporting and tests.
type Stats struct {
	Allocs        uint64 // SAQs allocated
	Deallocs      uint64 // SAQs deallocated
	Refusals      uint64 // notifications refused (CAM full / duplicate)
	NotifySent    uint64 // notifications issued (internal or external)
	TokensSent    uint64 // tokens passed on
	XoffSent      uint64
	XonSent       uint64
	StaleMsgs     uint64 // control messages for paths no longer in the CAM
	MarkersPlaced uint64
}
