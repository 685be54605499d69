package fabric

import "repro/internal/mempool"

// This file holds the lazily materialized per-port state containers.
//
// Under VOQnet every port keeps one queue and one credit counter per
// destination host — O(hosts) state per port, O(hosts · ports) for the
// fabric — yet a real workload touches only the destinations its
// traffic actually crosses. queueSet and creditSet keep the legacy
// dense layout for the small per-port arrays (1Q/4Q/VOQsw/RECN classes)
// and switch to demand-paged storage for the O(hosts) VOQnet arrays:
// nothing is allocated until a destination is first touched, and an
// untouched entry behaves exactly like a freshly built empty one, so
// lazy and eager runs are bit-identical (the golden tests assert it).
//
// Pages are visited in index order, so iteration over materialized
// entries is a strict subsequence of the dense iteration — never a
// reordering — keeping every walk (audits, wait graphs, probes)
// deterministic and shard-count-invariant.

const (
	statePageBits = 6
	statePageLen  = 1 << statePageBits
	// lazyPosThreshold: active lists switch from a dense membership
	// array to demand-paged slots at this size (the dense array is
	// cheaper below it and O(hosts) per unit above it).
	lazyPosThreshold = 1024
)

// queueSet is a fixed-size array of policy queues sharing one pool,
// dense or demand-paged. kind is the port side's class kind (see
// initSide).
type queueSet struct {
	pool   *mempool.Pool
	n      int
	qcap   int
	lazy   bool
	kind   classKind
	queues []*mempool.Queue   // dense backing (nil in lazy mode)
	pages  [][]*mempool.Queue // lazy page table (nil until first touch)
}

func (s *queueSet) init(pool *mempool.Pool, n, qcap int, lazy bool) {
	*s = queueSet{pool: pool, n: n, qcap: qcap, lazy: lazy}
	if !lazy {
		s.queues = make([]*mempool.Queue, n)
		for i := range s.queues {
			s.queues[i] = mempool.NewQueue(pool, qcap)
		}
	}
}

func (s *queueSet) len() int { return s.n }

// at returns the queue at i, or nil when it has not materialized (an
// untouched queue holds nothing — callers treat nil as empty).
func (s *queueSet) at(i int) *mempool.Queue {
	if !s.lazy {
		return s.queues[i]
	}
	if s.pages == nil {
		return nil
	}
	pg := s.pages[i>>statePageBits]
	if pg == nil {
		return nil
	}
	return pg[i&(statePageLen-1)]
}

// get returns the queue at i, materializing it (and its page, and the
// page table) on first touch.
func (s *queueSet) get(i int) *mempool.Queue {
	if !s.lazy {
		return s.queues[i]
	}
	if s.pages == nil {
		s.pages = make([][]*mempool.Queue, (s.n+statePageLen-1)>>statePageBits)
	}
	pi := i >> statePageBits
	pg := s.pages[pi]
	if pg == nil {
		pg = make([]*mempool.Queue, statePageLen)
		s.pages[pi] = pg
	}
	q := pg[i&(statePageLen-1)]
	if q == nil {
		q = mempool.NewQueue(s.pool, s.qcap)
		pg[i&(statePageLen-1)] = q
	}
	return q
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

// forEach visits materialized queues in index order (the dense order
// with untouched queues skipped — they hold nothing).
func (s *queueSet) forEach(fn func(i int, q *mempool.Queue)) {
	if !s.lazy {
		for i, q := range s.queues {
			fn(i, q)
		}
		return
	}
	for pi, pg := range s.pages {
		if pg == nil {
			continue
		}
		base := pi << statePageBits
		for j, q := range pg {
			if q != nil {
				fn(base+j, q)
			}
		}
	}
}

// denseSlice returns the backing slice of a dense set (the RECN
// traffic-class queues handed to the controllers; RECN sets are always
// dense).
func (s *queueSet) denseSlice() []*mempool.Queue { return s.queues }

// memCount reports materialized queues, total ring slots and page-table
// pointer slots, for the memory model.
func (s *queueSet) memCount() (queues, ringSlots, ptrSlots int) {
	s.forEach(func(_ int, q *mempool.Queue) {
		queues++
		ringSlots += q.RingCap()
	})
	if !s.lazy {
		ptrSlots = len(s.queues)
		return
	}
	ptrSlots = len(s.pages)
	for _, pg := range s.pages {
		if pg != nil {
			ptrSlots += statePageLen
		}
	}
	return
}

// creditSet is a fixed-size array of credit counters all starting at
// the same initial value, dense or demand-paged. An untouched counter
// reads as the initial value; taking its address materializes the page
// (pages give stable interior pointers for the watchdog's resync).
type creditSet struct {
	n     int
	start int
	lazy  bool
	dense []int
	pages [][]int
}

func (s *creditSet) init(n, start int, lazy bool) {
	*s = creditSet{n: n, start: start, lazy: lazy}
	if !lazy && n > 0 {
		s.dense = make([]int, n)
		for i := range s.dense {
			s.dense[i] = start
		}
	}
}

// enabled reports whether queue-level credits are configured at all.
func (s *creditSet) enabled() bool { return s.n > 0 }

func (s *creditSet) value(i int) int {
	if !s.lazy {
		return s.dense[i]
	}
	if s.pages == nil {
		return s.start
	}
	pg := s.pages[i>>statePageBits]
	if pg == nil {
		return s.start
	}
	return pg[i&(statePageLen-1)]
}

// slot returns a stable pointer to counter i, materializing its page
// (filled with the initial value) on first touch.
func (s *creditSet) slot(i int) *int {
	if !s.lazy {
		return &s.dense[i]
	}
	if s.pages == nil {
		s.pages = make([][]int, (s.n+statePageLen-1)>>statePageBits)
	}
	pi := i >> statePageBits
	pg := s.pages[pi]
	if pg == nil {
		pg = make([]int, statePageLen)
		for j := range pg {
			pg[j] = s.start
		}
		s.pages[pi] = pg
	}
	return &pg[i&(statePageLen-1)]
}

// forEachSlot visits materialized counters in index order. Untouched
// counters hold exactly the initial value, so audits that compare
// against it lose nothing by skipping them.
func (s *creditSet) forEachSlot(fn func(i int, slot *int)) {
	if !s.lazy {
		for i := range s.dense {
			fn(i, &s.dense[i])
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

// memCount reports materialized counter slots, for the memory model.
func (s *creditSet) memCount() (slots int) {
	if !s.lazy {
		return len(s.dense)
	}
	slots = len(s.pages)
	for _, pg := range s.pages {
		if pg != nil {
			slots += statePageLen
		}
	}
	return
}
