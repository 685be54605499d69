package fabric

import (
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Traffic returns the network's injection surface for the workload
// generators. Each host's view (HostView) runs Now and Schedule on the
// engine that simulates the host — its shard engine once the network is
// sharded, so shard before installing a workload — and ScheduleOn is
// ScheduleRemote. Inject never panics: the first injection error of a
// host's stream is kept in that host's slot (the network-wide view has
// one slot of its own, after the hosts'), and InjectErr folds the slots
// after the run.
func (n *Network) Traffic() traffic.HostNetwork {
	if n.injectErr == nil {
		n.injectErr = make([]error, len(n.nics)+1)
	}
	return trafficView{n: n, eng: n.Engine, slot: len(n.nics)}
}

// InjectErr returns the first injection error recorded through Traffic,
// lowest host first and the network-wide view's last, so the error a
// workload reports does not depend on the runtime, the shard count or
// goroutine timing. Call it after the run.
func (n *Network) InjectErr() error {
	for _, err := range n.injectErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// trafficView is one injection stream over the network: the engine its
// callbacks run on and the error slot its injections fail into. Each
// slot is written only by its stream's engine, so sharded streams never
// share one.
type trafficView struct {
	n    *Network
	eng  *sim.Engine
	slot int
}

func (v trafficView) Hosts() int                      { return len(v.n.nics) }
func (v trafficView) Now() sim.Time                   { return v.eng.Now() }
func (v trafficView) Schedule(at sim.Time, fn func()) { v.eng.Schedule(at, fn) }
func (v trafficView) Inject(src, dst, size int) {
	if err := v.n.InjectMessage(src, dst, size); err != nil && v.n.injectErr[v.slot] == nil {
		v.n.injectErr[v.slot] = err
	}
}

// HostView returns host's stream; a host outside the network gets the
// network-wide view.
func (v trafficView) HostView(host int) traffic.Network {
	if host < 0 || host >= len(v.n.nics) {
		return v.n.Traffic()
	}
	eng := v.n.Engine
	if v.n.shards != nil {
		eng = v.n.shards[v.n.hostShard[host]].eng
	}
	return trafficView{n: v.n, eng: eng, slot: host}
}

func (v trafficView) ScheduleOn(caller, host int, at sim.Time, fn func()) {
	v.n.ScheduleRemote(caller, host, at, fn)
}
