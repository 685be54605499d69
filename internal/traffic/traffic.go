// Package traffic generates the workloads of the paper's evaluation
// (Section 4.2): the two synthetic corner cases of Table 1 (uniform
// random background plus a transient hotspot) and a SAN I/O trace
// workload. The HP Labs cello traces the paper used are not publicly
// available; cello.go implements a statistically similar storage-
// system model, and trace.go defines a text trace format so real traces
// can be replayed instead (see DESIGN.md §5).
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// Network is the injection surface a generator drives. The fabric
// provides it (fabric.Network.Traffic); tests can use fakes.
type Network interface {
	// Hosts returns the number of endpoints.
	Hosts() int
	// Now returns the current simulation time.
	Now() sim.Time
	// Schedule runs fn at an absolute simulation time.
	Schedule(at sim.Time, fn func())
	// Inject generates a message at src for dst.
	Inject(src, dst, size int)
}

// HostNetwork is an optional Network extension the fabric implements:
// HostView returns a per-host injection surface whose Now, Schedule
// and Inject run on the engine that simulates the host, and ScheduleOn
// schedules fn on another host's engine (mailboxed at a window
// boundary on a sharded network — for deferred replies like Cello's
// disk responses). Generators resolve the extension through
// hostView/scheduleOn, which fall back to the plain Network.
type HostNetwork interface {
	Network
	HostView(host int) Network
	ScheduleOn(caller, host int, at sim.Time, fn func())
}

// hostView returns the injection surface for one host's stream.
func hostView(net Network, host int) Network {
	if hn, ok := net.(HostNetwork); ok {
		return hn.HostView(host)
	}
	return net
}

// scheduleOn schedules fn on host's engine from caller's stream.
func scheduleOn(net Network, caller, host int, at sim.Time, fn func()) {
	if hn, ok := net.(HostNetwork); ok {
		hn.ScheduleOn(caller, host, at, fn)
		return
	}
	net.Schedule(at, fn)
}

// Uniform injects fixed-size messages from each source to uniformly
// random destinations at a fraction of the link rate. Injection is
// deterministic-rate (back-to-back at Rate 1.0) with a random initial
// phase, matching the paper's "inject at the full link rate".
type Uniform struct {
	// Sources inject; destinations are drawn uniformly from all hosts
	// except the source itself.
	Sources []int
	// Rate is the fraction of the 1 byte/ns link bandwidth.
	Rate float64
	// MsgSize is the message size in bytes (= packet size in the
	// paper's corner cases).
	MsgSize int
	// Start and End bound the injection interval (End 0 = forever).
	Start, End sim.Time
	// Seed makes the run reproducible.
	Seed int64
}

// Install schedules the generator's events on the network.
func (u Uniform) Install(net Network) error {
	if err := validateRate(u.Rate); err != nil {
		return err
	}
	if u.MsgSize <= 0 {
		return fmt.Errorf("traffic: message size %d", u.MsgSize)
	}
	if err := validateSources(u.Sources, net.Hosts()); err != nil {
		return err
	}
	gap := interMessageGap(u.MsgSize, u.Rate)
	for i, src := range u.Sources {
		src := src
		hv := hostView(net, src)
		rng := rand.New(rand.NewSource(u.Seed + int64(i)*7919))
		var gen func()
		gen = func() {
			if u.End != 0 && hv.Now() >= u.End {
				return
			}
			dst := rng.Intn(hv.Hosts() - 1)
			if dst >= src {
				dst++
			}
			hv.Inject(src, dst, u.MsgSize)
			hv.Schedule(hv.Now()+gap, gen)
		}
		phase := sim.Time(rng.Int63n(int64(gap) + 1))
		hv.Schedule(u.Start+phase, gen)
	}
	return nil
}

// Hotspot injects fixed-size messages from each source to a single
// destination at a fraction of link rate during [Start, End).
type Hotspot struct {
	Sources    []int
	Dest       int
	Rate       float64
	MsgSize    int
	Start, End sim.Time
	Seed       int64
}

// Install schedules the generator's events on the network.
func (h Hotspot) Install(net Network) error {
	if err := validateRate(h.Rate); err != nil {
		return err
	}
	if h.MsgSize <= 0 {
		return fmt.Errorf("traffic: message size %d", h.MsgSize)
	}
	if err := validateSources(h.Sources, net.Hosts()); err != nil {
		return err
	}
	for _, src := range h.Sources {
		if src == h.Dest {
			return fmt.Errorf("traffic: hotspot source %d equals destination", src)
		}
	}
	gap := interMessageGap(h.MsgSize, h.Rate)
	for i, src := range h.Sources {
		src := src
		hv := hostView(net, src)
		rng := rand.New(rand.NewSource(h.Seed + int64(i)*104729))
		var gen func()
		gen = func() {
			if h.End != 0 && hv.Now() >= h.End {
				return
			}
			hv.Inject(src, h.Dest, h.MsgSize)
			hv.Schedule(hv.Now()+gap, gen)
		}
		phase := sim.Time(rng.Int63n(int64(gap) + 1))
		hv.Schedule(h.Start+phase, gen)
	}
	return nil
}

// validateSources rejects a source outside the network before any of
// the generator's events are scheduled. (A bad destination is an
// injection error of the run instead.)
func validateSources(sources []int, hosts int) error {
	for _, src := range sources {
		if src < 0 || src >= hosts {
			return fmt.Errorf("traffic: source %d outside the %d hosts", src, hosts)
		}
	}
	return nil
}

func validateRate(r float64) error {
	if r <= 0 || r > 1 {
		return fmt.Errorf("traffic: rate %v outside (0, 1]", r)
	}
	return nil
}

// interMessageGap returns the message period for a size and a fraction
// of the 1 byte/ns link rate.
func interMessageGap(size int, rate float64) sim.Time {
	return sim.Time(float64(size) / rate * float64(sim.Nanosecond))
}

// CornerCase describes one of the paper's Table 1 scenarios plus the
// Figure 6 variants for larger networks: random background traffic for
// the whole run and a hotspot during a window.
type CornerCase struct {
	Name          string
	Hosts         int
	RandomSources []int
	RandomRate    float64
	HotSources    []int
	HotDest       int
	HotStart      sim.Time
	HotEnd        sim.Time
	SimEnd        sim.Time
	MsgSize       int
	Seed          int64
}

// hostRange returns [lo, hi).
func hostRange(lo, hi int) []int {
	r := make([]int, hi-lo)
	for i := range r {
		r[i] = lo + i
	}
	return r
}

// Corner returns the paper's corner case 1 or 2 for a 64-host network
// (Table 1), or the Figure 6 hotspot scenario for 256/512 hosts (which
// follows corner case 2: all background sources at full rate). scale
// compresses all times; 1.0 reproduces the paper's 800 µs onset and
// 170 µs congestion-tree lifetime, with the run ending at 1600 µs.
func Corner(number, hosts, msgSize int, scale float64) (CornerCase, error) {
	if number != 1 && number != 2 {
		return CornerCase{}, fmt.Errorf("traffic: corner case %d (want 1 or 2)", number)
	}
	if scale <= 0 {
		return CornerCase{}, fmt.Errorf("traffic: scale %v", scale)
	}
	rate := 1.0
	if number == 1 && hosts == 64 {
		rate = 0.5 // Figure 6 uses full-rate background
	}
	var dest, hotCount int
	switch hosts {
	case 64:
		// 48 random sources + 16 hotspot sources to destination 32
		// (Table 1).
		hotCount, dest = 16, 32
	case 256:
		// Fig 6.a: 192 random at full rate, 64 hotspot sources.
		hotCount, dest = 64, 128
	case 512:
		// Fig 6.b: 384 random at full rate, 128 hotspot sources.
		hotCount, dest = 128, 256
	default:
		return CornerCase{}, fmt.Errorf("traffic: no corner case defined for %d hosts", hosts)
	}
	// The paper does not say which hosts form the hotspot group. The
	// sources must be scattered across leaf switches — if they were
	// contiguous, destination-based deterministic routing would give
	// the congestion tree a subtree fully disjoint from the background
	// traffic and no HOL blocking could occur. One hotspot source per
	// leaf switch (hosts 3, 7, 11, …) makes every leaf up-link carry
	// both hot and background flows, which is the scenario Figure 2
	// shows.
	var random, hot []int
	stridePick := hosts / hotCount
	for h := 0; h < hosts; h++ {
		if h%stridePick == stridePick-1 {
			hot = append(hot, h)
		} else {
			random = append(random, h)
		}
	}
	t := func(us float64) sim.Time { return sim.Time(us * scale * float64(sim.Microsecond)) }
	return CornerCase{
		Name:          fmt.Sprintf("corner case %d (%d hosts)", number, hosts),
		Hosts:         hosts,
		RandomSources: random,
		RandomRate:    rate,
		HotSources:    hot,
		HotDest:       dest,
		HotStart:      t(800),
		HotEnd:        t(970),
		SimEnd:        t(1600),
		MsgSize:       msgSize,
		Seed:          1,
	}, nil
}

// Install schedules both traffic components.
func (c CornerCase) Install(net Network) error {
	if net.Hosts() != c.Hosts {
		return fmt.Errorf("traffic: corner case for %d hosts on a %d-host network", c.Hosts, net.Hosts())
	}
	if err := (Uniform{
		Sources: c.RandomSources,
		Rate:    c.RandomRate,
		MsgSize: c.MsgSize,
		End:     c.SimEnd,
		Seed:    c.Seed,
	}).Install(net); err != nil {
		return err
	}
	return Hotspot{
		Sources: c.HotSources,
		Dest:    c.HotDest,
		Rate:    1.0,
		MsgSize: c.MsgSize,
		Start:   c.HotStart,
		End:     c.HotEnd,
		Seed:    c.Seed + 1,
	}.Install(net)
}
