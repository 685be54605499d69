package fabric

import "repro/internal/sim"

// Periodic drivers: the idle-SAQ sweep, the recovery watchdog, the
// trace metrics sampler and the invariant checker are rows of one table
// and share one protocol. A driver is armed (at most one tick pending)
// by whatever may give it work — every injection, and for the sweep
// every SAQ allocation site — and re-arms itself only while its tick
// reports that the network still needs it, so Engine.Drain terminates
// on a quiescent network. All of them run on Network.Engine: the only
// engine in legacy mode, the coordinator in windowed mode, where shards
// record arm requests as due times and the barrier folds them (see
// collectDues).

// driverID names a row of the driver table. The order is the barrier's
// arming order.
type driverID int

const (
	drvSweep    driverID = iota // idle-SAQ sweep: tokens return, trees collapse
	drvWatchdog                 // recovery audit tick (Config.Recovery)
	drvSampler                  // trace metrics sampler (trace.Config.MetricsBin)
	drvChecker                  // invariant checker audits (Config.Checker)
	numDrivers
)

// driver is one periodic job.
type driver struct {
	// period is the tick interval, set once in New; 0 = off. The
	// checker also turns itself off after a collected livelock.
	period  sim.Time
	pending bool
	// tick runs the job and reports whether the network still needs it.
	tick func() bool
	// onArm, when set, runs when an idle driver is armed, with the
	// instant of the arm request.
	onArm func(at sim.Time)
	// fire is the prebound event: tick, then re-arm.
	fire func()
}

// initDrivers fills the driver table from the installed features.
// Called last in New.
func (n *Network) initDrivers() {
	d := &n.drivers
	d[drvSweep].tick = n.runSweep
	if n.q.saqs {
		d[drvSweep].period = idleSweepPeriod
	}
	d[drvWatchdog].tick = n.watchdogTick
	if n.recovery.Enabled {
		d[drvWatchdog].period = n.recovery.Period
	}
	d[drvSampler].tick = n.traceSample
	if n.rec != nil && len(n.probes) > 0 {
		d[drvSampler].period = n.rec.MetricsBin()
	}
	d[drvChecker].tick = n.checkTick
	d[drvChecker].onArm = n.checkBaseline
	if n.check != nil {
		d[drvChecker].period = n.check.Period()
	}
	for i := range d {
		dr := &d[i]
		dr.fire = func() {
			dr.pending = false
			if dr.tick() && dr.period != 0 {
				n.schedule(dr, n.Engine.Now()+dr.period)
			}
		}
	}
}

// arm requests driver id's tick one period from now, from a unit's
// event context: every injection arms the watchdog, sampler and
// checker, every SAQ allocation site the sweep. Legacy mode arms the
// driver on the spot; windowed mode records the due time for the
// barrier. The coordinator writes the driver table only at barriers,
// so reading it here is race-free and shard-count-invariant.
func (sc *shardCtx) arm(id driverID) {
	d := &sc.n.drivers[id]
	if d.period == 0 || d.pending {
		return
	}
	at := sc.eng.Now() + d.period
	if !sc.sharded {
		sc.n.armAt(id, at)
	} else if sc.due[id] == 0 {
		sc.due[id] = at
	}
}

// armAt schedules an enabled, idle driver's tick at `at`.
func (n *Network) armAt(id driverID, at sim.Time) {
	d := &n.drivers[id]
	if d.period == 0 || d.pending {
		return
	}
	if d.onArm != nil {
		d.onArm(at - d.period)
	}
	n.schedule(d, at)
}

func (n *Network) schedule(d *driver, at sim.Time) {
	d.pending = true
	n.Engine.Schedule(at, d.fire)
}
