package fabric

import "repro/internal/mempool"

// This file holds the per-port state containers and their one page
// layout.
//
// Under VOQnet every port keeps one queue and one credit counter per
// destination host — O(hosts) state per port, O(hosts · ports) for the
// fabric — yet a real workload touches only the destinations its
// traffic actually crosses. slots[T] therefore has two bodies chosen
// by size, not by any setting: a flat array for the small per-port
// arrays (1Q/4Q/VOQsw/RECN classes) and demand-paged storage for the
// O(hosts) arrays. A paged set allocates nothing until an index is
// first touched, and an untouched slot reads exactly like a freshly
// built one, so which body a set uses never shows in a run.
//
// Pages are visited in index order, so iteration over materialized
// slots is a strict subsequence of the flat iteration — never a
// reordering — keeping every walk (audits, wait graphs, probes)
// deterministic and shard-count-invariant.

const (
	statePageBits = 6
	statePageLen  = 1 << statePageBits
	// lazyPosThreshold: active lists switch from a flat membership
	// array to demand-paged slots at this size (the flat array is
	// cheaper below it and O(hosts) per unit above it).
	lazyPosThreshold = 1024
)

// slots is a fixed-size array of n values, flat or demand-paged. Every
// slot starts as its owner's fill value; a paged set materializes a
// page (filled with fill) on the first get into it. Pages give stable
// interior pointers, so a *T stays valid across later
// materializations. The owner passes fill to init, at and get rather
// than the set storing it: a field per set costs every port unit, and
// most sets fill with the zero value.
type slots[T any] struct {
	n     int
	flat  []T   // flat body (nil when paged)
	pages [][]T // page table (nil until first touch)
}

func (s *slots[T]) init(n int, paged bool, fill T) {
	*s = slots[T]{n: n}
	if !paged {
		s.flat = make([]T, n)
		for i := range s.flat {
			s.flat[i] = fill
		}
	}
}

// at returns slot i's value without materializing it: a slot whose
// page is untouched reads as fill.
func (s *slots[T]) at(i int, fill T) T {
	if s.flat != nil {
		return s.flat[i]
	}
	if s.pages != nil {
		if pg := s.pages[i>>statePageBits]; pg != nil {
			return pg[i&(statePageLen-1)]
		}
	}
	return fill
}

// get returns a stable pointer to slot i, materializing its page (and
// the page table) on first touch. Small enough to inline, page-in
// included, so the per-packet credit and active-list writes pay no
// call.
func (s *slots[T]) get(i int, fill T) *T {
	if s.flat != nil {
		return &s.flat[i]
	}
	if s.pages == nil {
		s.pages = make([][]T, (s.n+statePageLen-1)>>statePageBits)
	}
	pg := s.pages[i>>statePageBits]
	if pg == nil {
		pg = make([]T, statePageLen)
		for j := range pg {
			pg[j] = fill
		}
		s.pages[i>>statePageBits] = pg
	}
	return &pg[i&(statePageLen-1)]
}

// forEach visits materialized slots in index order (every slot of a
// flat set; the slots of touched pages, i < n, of a paged one).
func (s *slots[T]) forEach(fn func(i int, v *T)) {
	if s.flat != nil {
		for i := range s.flat {
			fn(i, &s.flat[i])
		}
		return
	}
	for pi, pg := range s.pages {
		if pg == nil {
			continue
		}
		base := pi << statePageBits
		for j := range pg {
			if i := base + j; i < s.n {
				fn(i, &pg[j])
			}
		}
	}
}

// memCount reports allocated slots — the flat array, or the page table
// plus every materialized page — for the memory model.
func (s *slots[T]) memCount() int {
	if s.flat != nil {
		return len(s.flat)
	}
	c := len(s.pages)
	for _, pg := range s.pages {
		if pg != nil {
			c += statePageLen
		}
	}
	return c
}

// queueSet is a fixed-size array of policy queues sharing one pool.
// kind is the port side's class kind (see initSide). A flat set builds
// every queue up front; a paged one creates each on its first get.
type queueSet struct {
	pool *mempool.Pool
	qcap int
	kind classKind
	q    slots[*mempool.Queue]
}

func (s *queueSet) init(pool *mempool.Pool, n, qcap int, paged bool) {
	*s = queueSet{pool: pool, qcap: qcap}
	s.q.init(n, paged, nil)
	for i := range s.q.flat {
		s.q.flat[i] = mempool.NewQueue(pool, qcap)
	}
}

func (s *queueSet) len() int { return s.q.n }

// at returns the queue at i, or nil when it has not materialized (an
// untouched queue holds nothing — callers treat nil as empty).
func (s *queueSet) at(i int) *mempool.Queue { return s.q.at(i, nil) }

// get returns the queue at i, creating it on first touch.
func (s *queueSet) get(i int) *mempool.Queue {
	p := s.q.get(i, nil)
	if *p == nil {
		*p = mempool.NewQueue(s.pool, s.qcap)
	}
	return *p
}

// canAccept reports whether queue i could accept n bytes right now,
// without materializing it: an untouched queue is empty, so only the
// pool headroom and the private cap bound admission — exactly
// mempool.Queue.CanAccept at zero residency.
func (s *queueSet) canAccept(i, n int) bool {
	if q := s.at(i); q != nil {
		return q.CanAccept(n)
	}
	if s.pool.Free() < n {
		return false
	}
	return s.qcap == 0 || n <= s.qcap
}

// queuedBytes returns queue i's queued bytes without materializing it
// (an untouched queue holds zero bytes).
func (s *queueSet) queuedBytes(i int) int {
	if q := s.at(i); q != nil {
		return q.QueuedBytes()
	}
	return 0
}

// forEach visits materialized queues in index order (the flat order
// with untouched queues skipped — they hold nothing).
func (s *queueSet) forEach(fn func(i int, q *mempool.Queue)) {
	s.q.forEach(func(i int, q **mempool.Queue) {
		if *q != nil {
			fn(i, *q)
		}
	})
}

// denseSlice returns the backing slice of a flat set (the RECN
// traffic-class queues handed to the controllers; RECN sets are always
// flat).
func (s *queueSet) denseSlice() []*mempool.Queue { return s.q.flat }

// memCount reports materialized queues, total ring slots and page-table
// pointer slots, for the memory model.
func (s *queueSet) memCount() (queues, ringSlots, ptrSlots int) {
	s.forEach(func(_ int, q *mempool.Queue) {
		queues++
		ringSlots += q.RingCap()
	})
	return queues, ringSlots, s.q.memCount()
}

// creditSet is a fixed-size array of credit counters all starting at
// the same initial value. An untouched counter reads as the initial
// value; taking its address materializes the page (pages give stable
// interior pointers for the watchdog's resync).
type creditSet struct {
	c     slots[int]
	start int
}

func (s *creditSet) init(n, start int, paged bool) {
	s.c.init(n, paged, start)
	s.start = start
}

// enabled reports whether queue-level credits are configured at all.
func (s *creditSet) enabled() bool { return s.c.n > 0 }

func (s *creditSet) value(i int) int { return s.c.at(i, s.start) }

// slot returns a stable pointer to counter i, materializing its page
// (filled with the initial value) on first touch.
func (s *creditSet) slot(i int) *int { return s.c.get(i, s.start) }

// forEachSlot visits materialized counters in index order. Untouched
// counters hold exactly the initial value, so audits that compare
// against it lose nothing by skipping them.
func (s *creditSet) forEachSlot(fn func(i int, slot *int)) { s.c.forEach(fn) }

// memCount reports materialized counter slots, for the memory model.
func (s *creditSet) memCount() int { return s.c.memCount() }
