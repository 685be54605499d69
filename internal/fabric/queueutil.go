package fabric

import (
	"repro/internal/mempool"
	"repro/internal/pkt"
)

// queueHandle pairs a queue with its index in the owning unit's policy
// queue array (-1 for SAQs, which are owned by the RECN controllers).
type queueHandle struct {
	q   *mempool.Queue
	idx int
}

// activeList tracks which of a unit's policy queues are non-empty so
// arbiters do not scan hundreds of empty VOQnet queues. Membership is
// O(1) both ways; iteration order is insertion order, with round-robin
// fairness coming from the caller's rotating cursor. The membership
// slots (index+1 into items, 0 = absent) are flat for small index
// spaces and demand-paged from lazyPosThreshold up, so a 4k-host unit
// pays only for the pages its traffic touches.
type activeList struct {
	items []int
	pos   slots[int]
}

func (a *activeList) init(n int) {
	a.items = nil
	a.pos.init(n, n >= lazyPosThreshold, 0)
}

func (a *activeList) add(idx int) {
	if a.pos.at(idx, 0) != 0 {
		return
	}
	a.items = append(a.items, idx)
	*a.pos.get(idx, 0) = len(a.items)
}

func (a *activeList) remove(idx int) {
	p := a.pos.at(idx, 0)
	if p == 0 {
		return
	}
	last := a.items[len(a.items)-1]
	a.items[p-1] = last
	*a.pos.get(last, 0) = p
	a.items = a.items[:len(a.items)-1]
	*a.pos.get(idx, 0) = 0
}

func (a *activeList) len() int { return len(a.items) }

// memCount reports allocated membership slots plus the item stack's
// capacity, for the memory model.
func (a *activeList) memCount() int { return cap(a.items) + a.pos.memCount() }

func (a *activeList) at(i int) int { return a.items[i] }

// peelHead returns the head packet of a queue, first popping and
// resolving any in-order markers that reached the head (paper §3.8).
func peelHead(q *mempool.Queue, resolve func(uid int)) (*pkt.Packet, bool) {
	for {
		e, ok := q.Head()
		if !ok {
			return nil, false
		}
		if e.IsMarker() {
			q.Pop()
			if resolve != nil {
				resolve(e.MarkerSAQ())
			}
			continue
		}
		return e.Data.(*pkt.Packet), true
	}
}
