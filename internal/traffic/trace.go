package traffic

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Record is one message of a trace file.
type Record struct {
	T    sim.Time // generation time
	Src  int
	Dst  int
	Size int // bytes
}

// Trace is a time-ordered message list. Real I/O traces (such as the
// HP cello traces the paper used) can be converted to this format and
// replayed with a compression factor.
type Trace []Record

// The text format: one record per line, `<time_ns> <src> <dst> <bytes>`,
// '#' comments and blank lines ignored.
const traceHeader = "# recn-trace v1"

// WriteTrace writes the trace in the text format.
func WriteTrace(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, traceHeader); err != nil {
		return err
	}
	for _, r := range tr {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", int64(r.T)/int64(sim.Nanosecond), r.Src, r.Dst, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the text format.
func ReadTrace(r io.Reader) (Trace, error) {
	var tr Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var tNanos int64
		var rec Record
		if _, err := fmt.Sscanf(text, "%d %d %d %d", &tNanos, &rec.Src, &rec.Dst, &rec.Size); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %w", line, err)
		}
		if tNanos < 0 || rec.Size <= 0 {
			return nil, fmt.Errorf("traffic: trace line %d: invalid record %q", line, text)
		}
		rec.T = sim.Time(tNanos) * sim.Nanosecond
		tr = append(tr, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Sorted reports whether the trace is in nondecreasing time order.
func (tr Trace) Sorted() bool {
	return sort.SliceIsSorted(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Sort orders the trace by time (stable, preserving same-time order).
func (tr Trace) Sort() {
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Replay installs the trace on a network, dividing timestamps by the
// compression factor (the paper's mechanism for modeling faster
// devices).
type Replay struct {
	Trace       Trace
	Compression float64
}

// Install schedules every record.
func (rp Replay) Install(net Network) error {
	if rp.Compression <= 0 {
		return fmt.Errorf("traffic: compression factor %v", rp.Compression)
	}
	if !rp.Trace.Sorted() {
		return fmt.Errorf("traffic: trace not time-ordered (call Sort first)")
	}
	hosts := net.Hosts()
	for _, r := range rp.Trace {
		if r.Src < 0 || r.Src >= hosts || r.Dst < 0 || r.Dst >= hosts || r.Src == r.Dst {
			return fmt.Errorf("traffic: record %+v invalid for %d hosts", r, hosts)
		}
	}
	for _, r := range rp.Trace {
		r := r
		hv := hostView(net, r.Src)
		hv.Schedule(sim.Time(float64(r.T)/rp.Compression), func() {
			hv.Inject(r.Src, r.Dst, r.Size)
		})
	}
	return nil
}
