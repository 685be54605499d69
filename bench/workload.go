package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// A workload is one set of inputs the benchmark runs. The four
// simulator workloads are {64-host MIN, 4096-host fat tree} × {serial,
// windowed with two shards}: the dense and the sparse regime, each on
// both runtimes, so a gain for one runtime that costs the other shows
// as a pair diverging. served is the daemon's cold and warm request
// path. README.md records why each exists and which layer it stresses.
type workload struct {
	name string
	// sim is nil for the served workload.
	sim *simShape
}

// simShape is what distinguishes the simulator workloads from one
// another; everything else is derived from the seed by spec().
type simShape struct {
	hosts  int
	topo   string // experiments.BuildTopology name
	shards int    // 0 = the serial engine
	// scale compresses simulated time against the figure the workload
	// is taken from (the contract's run budget forces horizons shorter
	// than the paper's; README.md records the sizes).
	scale float64
	// figureSeed is the seed the figure itself uses: the -seed default.
	figureSeed int64
}

// paperCorner reports whether the shape is the paper's own experiment,
// whose horizon leaves the fabric time to recover after the hotspot;
// the scaling hotspot's run ends while its tree is still draining.
func (s *simShape) paperCorner() bool { return s.topo != "fattree" }

// Horizon scales. corner64 at scale 1 is the paper-length 1600 µs run
// (four times these 9.4 M events and 3 s); fat4k at scale 1 is the
// scaling figure's 600 µs run (at scale 0.4 it is already 11 M events
// and 9 s on the 2-vCPU reference box). One benchmark run repeats each
// workload at least three times inside the driver's per-run budget, so
// both are shrunk.
const (
	cornerScale  = 0.25
	scalingScale = 0.15
)

var workloads = []workload{
	{name: "corner64", sim: &simShape{hosts: 64, topo: "min", scale: cornerScale, figureSeed: 1}},
	{name: "corner64-win", sim: &simShape{hosts: 64, topo: "min", shards: 2, scale: cornerScale, figureSeed: 1}},
	{name: "fat4k", sim: &simShape{hosts: 4096, topo: "fattree", scale: scalingScale, figureSeed: 7}},
	{name: "fat4k-win", sim: &simShape{hosts: 4096, topo: "fattree", shards: 2, scale: scalingScale, figureSeed: 7}},
	{name: "served"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// simSpec is one fully resolved simulator run: the fabric to build, the
// traffic to install, and where the harness cuts simulated time.
type simSpec struct {
	hosts  int
	topo   string
	shards int
	corner traffic.CornerCase
	// warm is the end of the warm-up slice: simulated time before it
	// belongs to set-up (congestion-free steady state reached, hot pages
	// touched), after it to the timed region.
	warm sim.Time
	// recovers asks for the paper's claim to be checked: the delivered
	// rate after the hotspot is back at the rate before it.
	recovers bool
}

// spec resolves a simulator workload for a seed (0 = the figure's own).
// The bench builds the traffic description itself and the program sees
// only the generated inputs; the seed reseeds every generator.
func (s *simShape) spec(seed int64) (simSpec, error) {
	if seed == 0 {
		seed = s.figureSeed
	}
	var c traffic.CornerCase
	var err error
	if s.paperCorner() {
		c, err = traffic.Corner(2, s.hosts, 64, s.scale)
	} else {
		c, err = scalingCorner(s.hosts, 64, s.scale)
	}
	if err != nil {
		return simSpec{}, err
	}
	c.Seed = seed
	return simSpec{
		hosts: s.hosts, topo: s.topo, shards: s.shards, corner: c,
		warm:     warmup(c),
		recovers: s.paperCorner(),
	}, nil
}

// warmup places the warm-up boundary: a tenth of the horizon on the
// corner case (the fabric fills in a few µs), a quarter on the scaling
// hotspot, where it lands half way into the hotspot so the tree has
// formed and its pages are touched before timing starts.
func warmup(c traffic.CornerCase) sim.Time {
	if c.HotStart < c.SimEnd/4 {
		return c.SimEnd / 4
	}
	return c.SimEnd / 10
}

// scalingCorner is the bench's own statement of the scaling figure's
// hotspot (experiments.scalingWorkload): a strided 128-host subset
// sweeps 10 % background load for the whole run and a disjoint strided
// subset hammers host hosts/2 during 100–400 µs of a 600 µs run, all
// times × scale. equiv_test.go proves it equal to
// experiments.ScalingRun at the figure's seed.
func scalingCorner(hosts, msgSize int, scale float64) (traffic.CornerCase, error) {
	if hosts < 16 {
		return traffic.CornerCase{}, fmt.Errorf("scaling workload wants ≥ 16 hosts, got %d", hosts)
	}
	nSrc := 128
	if hosts < 4*nSrc {
		nSrc = hosts / 4
	}
	stride := hosts / nSrc
	var random, hot []int
	for h := 0; h < hosts; h++ {
		switch h % stride {
		case 0:
			if h != hosts/2 {
				random = append(random, h)
			}
		case stride - 1:
			hot = append(hot, h)
		}
	}
	t := func(us float64) sim.Time { return sim.Time(us * scale * float64(sim.Microsecond)) }
	return traffic.CornerCase{
		Name:          fmt.Sprintf("scaling-hotspot-%d", hosts),
		Hosts:         hosts,
		RandomSources: random,
		RandomRate:    0.1,
		HotSources:    hot,
		HotDest:       hosts / 2,
		HotStart:      t(100),
		HotEnd:        t(400),
		SimEnd:        t(600),
		MsgSize:       msgSize,
		Seed:          7,
	}, nil
}

// run is the experiments.Run the spec corresponds to: what a figure
// would execute for the same inputs. The harness takes the fabric
// configuration from it, and equiv_test.go executes it as the
// reference the hand-wired run must equal event for event.
func (s simSpec) run() experiments.Run {
	return experiments.Run{
		Hosts: s.hosts, Policy: fabric.PolicyRECN, PacketSize: s.corner.MsgSize,
		Topo: s.topo, Shards: s.shards,
		Workload: s.corner.Install, Until: s.corner.SimEnd, Bin: s.corner.SimEnd / 160,
	}
}
