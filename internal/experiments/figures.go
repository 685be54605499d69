package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// FigThroughput is a reproduced throughput-over-time figure.
type FigThroughput struct {
	Title     string
	Bin       sim.Time
	Policies  []fabric.Policy
	Results   []*Result
	maxRows   int
	scale     float64
	notesList []string
}

// Result returns the run for one mechanism.
func (f *FigThroughput) Result(p fabric.Policy) *Result {
	for i, q := range f.Policies {
		if q == p {
			return f.Results[i]
		}
	}
	return nil
}

// MeanWindow returns a mechanism's mean throughput (bytes/ns) over a
// paper-time window in µs (already scale-adjusted by the figure).
func (f *FigThroughput) MeanWindow(p fabric.Policy, fromUs, toUs float64) float64 {
	r := f.Result(p)
	if r == nil {
		return 0
	}
	from := int(sim.Time(fromUs*f.scale*float64(sim.Microsecond)) / f.Bin)
	to := int(sim.Time(toUs*f.scale*float64(sim.Microsecond)) / f.Bin)
	return r.Throughput.MeanRate(from, to)
}

// Table renders the full series.
func (f *FigThroughput) Table() *Table {
	return f.window(0, -1)
}

// Zoom renders a window in paper-µs (Figures 2.c / 2.d).
func (f *FigThroughput) Zoom(fromUs, toUs float64, policies ...fabric.Policy) *Table {
	from := int(sim.Time(fromUs*f.scale*float64(sim.Microsecond)) / f.Bin)
	to := int(sim.Time(toUs*f.scale*float64(sim.Microsecond)) / f.Bin)
	t := f.window(from, to)
	if len(policies) > 0 {
		t = f.subset(t, policies)
	}
	t.Title = fmt.Sprintf("%s [zoom %.0f–%.0f µs]", f.Title, fromUs, toUs)
	return t
}

func (f *FigThroughput) subset(full *Table, policies []fabric.Policy) *Table {
	keep := []int{0}
	header := []string{full.Header[0]}
	for i, p := range f.Policies {
		for _, want := range policies {
			if p == want {
				keep = append(keep, i+1)
				header = append(header, full.Header[i+1])
			}
		}
	}
	out := &Table{Title: full.Title, Header: header, Notes: full.Notes}
	for _, row := range full.Rows {
		cells := make([]string, len(keep))
		for j, k := range keep {
			cells[j] = row[k]
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

func (f *FigThroughput) window(from, to int) *Table {
	bins := 0
	for _, r := range f.Results {
		if r.Throughput.Bins() > bins {
			bins = r.Throughput.Bins()
		}
	}
	if to < 0 || to > bins {
		to = bins
	}
	if from < 0 {
		from = 0
	}
	t := &Table{Title: f.Title, Notes: append([]string(nil), f.notesList...)}
	for i, p := range f.Policies {
		if fr := f.Results[i].Faults; fr != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("faults[%s]: %s", p, fr))
		}
	}
	t.Header = []string{"time_us"}
	for _, p := range f.Policies {
		t.Header = append(t.Header, p.String()+"_B/ns")
	}
	step := stride(to-from, f.maxRows)
	for i := from; i < to; i += step {
		cells := []interface{}{fmt.Sprintf("%.1f", float64(i)*f.Bin.Micros())}
		for _, r := range f.Results {
			cells = append(cells, r.Throughput.MeanRate(i, i+step))
		}
		t.AddRow(cells...)
	}
	return t
}

// FigSAQ is a reproduced SAQ-utilization figure (RECN only).
type FigSAQ struct {
	Title   string
	Bin     sim.Time
	Result  *Result
	maxRows int
}

// Table renders the series the paper plots: maximum SAQs at any
// ingress port, at any egress port, and the network-wide total.
func (f *FigSAQ) Table() *Table {
	t := &Table{
		Title:  f.Title,
		Header: []string{"time_us", "max_ingress", "max_egress", "total"},
	}
	bins := f.Result.SAQ.Bins()
	step := stride(bins, f.maxRows)
	for i := 0; i < bins; i += step {
		// Take maxima across the stride window, as the paper's plots do.
		var agg struct{ tot, in, eg int }
		for j := i; j < i+step && j < bins; j++ {
			s := f.Result.SAQ.At(j)
			if s.Total > agg.tot {
				agg.tot = s.Total
			}
			if s.MaxIngress > agg.in {
				agg.in = s.MaxIngress
			}
			if s.MaxEgress > agg.eg {
				agg.eg = s.MaxEgress
			}
		}
		t.AddRow(fmt.Sprintf("%.1f", float64(i)*f.Bin.Micros()), agg.in, agg.eg, agg.tot)
	}
	p := f.Result.SAQ.Peak()
	t.Notes = append(t.Notes, fmt.Sprintf("peak: max_ingress=%d max_egress=%d total=%d", p.MaxIngress, p.MaxEgress, p.Total))
	if fr := f.Result.Faults; fr != nil {
		t.Notes = append(t.Notes, "faults: "+fr.String())
	}
	return t
}

// Table1 reproduces the paper's Table 1 (corner-case traffic
// parameters). A bad corner spec is reported, not panicked, so a sweep
// loses one table instead of the whole process.
func Table1() (*Table, error) {
	t := &Table{
		Title:  "Table 1: traffic parameters for corner cases (64 hosts)",
		Header: []string{"case", "#srcs", "dst", "inj_rate", "start", "end"},
	}
	for _, n := range []int{1, 2} {
		c, err := traffic.Corner(n, 64, 64, 1.0)
		if err != nil {
			return nil, fmt.Errorf("experiments: corner case %d: %w", n, err)
		}
		t.AddRow(n, len(c.RandomSources), "random", fmt.Sprintf("%.0f%%", c.RandomRate*100), "0", "sim end")
		t.AddRow(n, len(c.HotSources), c.HotDest, "100%", c.HotStart.String(), c.HotEnd.String())
	}
	return t, nil
}

// defaultPolicies is the order the paper presents mechanisms in
// Figure 2.
var defaultPolicies = []fabric.Policy{
	fabric.PolicyVOQnet, fabric.Policy1Q, fabric.PolicyVOQsw, fabric.Policy4Q, fabric.PolicyRECN,
}

// runPolicies executes one workload under several mechanisms via the
// sweep engine. key names the workload+mutate pair for the run cache
// (see Run.Key); the per-policy runs fan across Options.Parallelism
// workers and come back in the policies' order.
func runPolicies(hosts int, policies []fabric.Policy, o Options, key string,
	workload func(traffic.Network) error, until sim.Time,
	mutate func(*fabric.Config)) ([]*Result, sim.Time, error) {
	bin := until / 160
	if bin <= 0 {
		bin = sim.Microsecond
	}
	runs := make([]Run, len(policies))
	labels := make([]string, len(policies))
	for i, p := range policies {
		runs[i] = Run{Hosts: hosts, Policy: p, Key: key, Workload: workload, Until: until, Bin: bin, Mutate: mutate}
		labels[i] = p.String()
	}
	results, err := o.sweep(runs, labels)
	if err != nil {
		return nil, 0, err
	}
	return results, bin, nil
}

// Fig2 reproduces Figure 2.a (corner case 1) or 2.b (corner case 2):
// network throughput over time for the five mechanisms on the 64-host
// network. Figures 2.c/2.d are the Zoom of the result.
func Fig2(corner int, o Options) (*FigThroughput, error) {
	o = o.withDefaults()
	policies := o.Policies
	if policies == nil {
		policies = defaultPolicies
	}
	workload, until, err := CornerWorkload(corner, 64, o.PacketSize, o.Scale)
	if err != nil {
		return nil, err
	}
	results, bin, err := runPolicies(64, policies, o, cornerKey(corner), workload, until, nil)
	if err != nil {
		return nil, err
	}
	sub := "a"
	if corner == 2 {
		sub = "b"
	}
	return &FigThroughput{
		Title:    fmt.Sprintf("Figure 2.%s: throughput, corner case %d, %d-byte packets", sub, corner, o.PacketSize),
		Bin:      bin,
		Policies: policies,
		Results:  results,
		maxRows:  o.MaxRows,
		scale:    o.Scale,
		notesList: []string{
			"paper: VOQnet unaffected; 1Q/4Q collapse during the tree; VOQsw degrades (2nd-order HOL); RECN ≈ VOQnet",
		},
	}, nil
}

// Fig3 reproduces Figure 3: throughput over time for the SAN (cello
// model) traffic at a given time-compression factor.
func Fig3(compression float64, o Options) (*FigThroughput, error) {
	o = o.withDefaults()
	policies := o.Policies
	if policies == nil {
		policies = []fabric.Policy{fabric.PolicyVOQnet, fabric.Policy1Q, fabric.PolicyVOQsw, fabric.PolicyRECN}
	}
	workload, until := CelloWorkload(compression, o.Scale)
	results, bin, err := runPolicies(64, policies, o, celloKey(compression), workload, until, celloMutate)
	if err != nil {
		return nil, err
	}
	return &FigThroughput{
		Title:    fmt.Sprintf("Figure 3: throughput, SAN traces (cello model), compression %.0f", compression),
		Bin:      bin,
		Policies: policies,
		Results:  results,
		maxRows:  o.MaxRows,
		scale:    o.Scale,
		notesList: []string{
			"paper: RECN ≈ VOQnet; VOQsw loses throughput to second-order HOL blocking",
		},
	}, nil
}

// Fig4 reproduces Figure 4: SAQ utilization over time for a corner
// case (RECN run of Figure 2).
func Fig4(corner int, o Options) (*FigSAQ, error) {
	o = o.withDefaults()
	workload, until, err := CornerWorkload(corner, 64, o.PacketSize, o.Scale)
	if err != nil {
		return nil, err
	}
	results, bin, err := runPolicies(64, []fabric.Policy{fabric.PolicyRECN}, o, cornerKey(corner), workload, until, nil)
	if err != nil {
		return nil, err
	}
	return &FigSAQ{
		Title:   fmt.Sprintf("Figure 4: SAQ utilization, corner case %d, %d-byte packets", corner, o.PacketSize),
		Bin:     bin,
		Result:  results[0],
		maxRows: o.MaxRows,
	}, nil
}

// Fig5 reproduces Figure 5: SAQ utilization for the SAN traffic.
func Fig5(compression float64, o Options) (*FigSAQ, error) {
	o = o.withDefaults()
	workload, until := CelloWorkload(compression, o.Scale)
	results, bin, err := runPolicies(64, []fabric.Policy{fabric.PolicyRECN}, o, celloKey(compression), workload, until, celloMutate)
	if err != nil {
		return nil, err
	}
	return &FigSAQ{
		Title:   fmt.Sprintf("Figure 5: SAQ utilization, SAN traces, compression %.0f", compression),
		Bin:     bin,
		Result:  results[0],
		maxRows: o.MaxRows,
	}, nil
}

// Fig6 reproduces Figure 6: throughput and SAQ utilization on the
// larger networks (256 or 512 hosts) under the corner-case-2 hotspot.
func Fig6(hosts int, o Options) (*FigThroughput, *FigSAQ, error) {
	o = o.withDefaults()
	if hosts != 256 && hosts != 512 {
		return nil, nil, fmt.Errorf("experiments: Fig6 wants 256 or 512 hosts, got %d", hosts)
	}
	policies := o.Policies
	if policies == nil {
		policies = []fabric.Policy{fabric.PolicyVOQnet, fabric.PolicyVOQsw, fabric.PolicyRECN}
	}
	workload, until, err := CornerWorkload(2, hosts, o.PacketSize, o.Scale)
	if err != nil {
		return nil, nil, err
	}
	results, bin, err := runPolicies(hosts, policies, o, cornerKey(2), workload, until, nil)
	if err != nil {
		return nil, nil, err
	}
	sub := "a"
	if hosts == 512 {
		sub = "b"
	}
	fig := &FigThroughput{
		Title:    fmt.Sprintf("Figure 6.%s: throughput, %d hosts, corner case 2", sub, hosts),
		Bin:      bin,
		Policies: policies,
		Results:  results,
		maxRows:  o.MaxRows,
		scale:    o.Scale,
		notesList: []string{
			"paper: RECN tracks VOQnet with ≤8 SAQs; VOQsw degrades and does not recover",
		},
	}
	var saq *FigSAQ
	for i, p := range policies {
		if p == fabric.PolicyRECN {
			saq = &FigSAQ{
				Title:   fmt.Sprintf("Figure 6.%s (right): SAQ utilization, %d hosts", sub, hosts),
				Bin:     bin,
				Result:  results[i],
				maxRows: o.MaxRows,
			}
		}
	}
	return fig, saq, nil
}

// AblationResult is one row of an ablation sweep.
type AblationResult struct {
	Label           string
	MeanCongested   float64 // bytes/ns during the hotspot window
	MeanAfter       float64 // bytes/ns after the tree should collapse
	PeakSAQTotal    int
	PeakSAQPort     int
	OrderViolations uint64
}

// ablationTable renders a sweep.
func ablationTable(title, labelHdr string, rows []AblationResult) *Table {
	t := &Table{
		Title:  title,
		Header: []string{labelHdr, "tput_congested_B/ns", "tput_after_B/ns", "peak_SAQ_total", "peak_SAQ_port", "order_violations"},
	}
	for _, r := range rows {
		t.AddRow(r.Label, r.MeanCongested, r.MeanAfter, r.PeakSAQTotal, r.PeakSAQPort, r.OrderViolations)
	}
	return t
}

// cornerKey names a corner-case workload for the run cache. Together
// with the declarative Run fields (Hosts, PacketSize, Until — which
// pins the scale) it identifies the workload closure exactly.
func cornerKey(corner int) string { return fmt.Sprintf("corner%d", corner) }

// celloKey names the cello workload (plus the AdmitCap mutation every
// cello run applies). Compression changes injection times without
// changing the horizon, so it must be part of the key.
func celloKey(compression float64) string {
	return fmt.Sprintf("cello|cf=%g|admitcap=0", compression)
}

// ablationCase is one point of an ablation sweep: a label, a stable
// cache-key fragment for the mutation, and the mutation itself.
type ablationCase struct {
	label  string
	keyFor string
	mutate func(*fabric.Config)
}

// runAblations executes corner case 2 on 64 hosts under RECN once per
// case — fanned across the sweep workers — and summarizes each run.
func runAblations(o Options, cases []ablationCase) ([]AblationResult, error) {
	workload, until, err := CornerWorkload(2, 64, o.PacketSize, o.Scale)
	if err != nil {
		return nil, err
	}
	bin := until / 160
	runs := make([]Run, len(cases))
	labels := make([]string, len(cases))
	for i, c := range cases {
		runs[i] = Run{
			Hosts: 64, Policy: fabric.PolicyRECN, Key: cornerKey(2) + "|" + c.keyFor,
			Workload: workload, Until: until, Bin: bin, Mutate: c.mutate,
		}
		labels[i] = c.keyFor
	}
	results, err := o.sweep(runs, labels)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationResult, len(cases))
	for i, res := range results {
		window := func(fromUs, toUs float64) float64 {
			from := int(o.t(fromUs) / bin)
			to := int(o.t(toUs) / bin)
			return res.Throughput.MeanRate(from, to)
		}
		peak := res.SAQ.Peak()
		port := peak.MaxIngress
		if peak.MaxEgress > port {
			port = peak.MaxEgress
		}
		rows[i] = AblationResult{
			Label:           cases[i].label,
			MeanCongested:   window(850, 970),
			MeanAfter:       window(1100, 1500),
			PeakSAQTotal:    peak.Total,
			PeakSAQPort:     port,
			OrderViolations: res.OrderViolations,
		}
	}
	return rows, nil
}

// AblationSAQCount sweeps the number of SAQs/CAM lines per port (A1).
func AblationSAQCount(o Options, counts []int) (*Table, error) {
	o = o.withDefaults()
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	cases := make([]ablationCase, len(counts))
	for i, c := range counts {
		c := c
		cases[i] = ablationCase{
			label:  fmt.Sprint(c),
			keyFor: fmt.Sprintf("saqs=%d", c),
			mutate: func(cfg *fabric.Config) { cfg.RECN.MaxSAQs = c },
		}
	}
	rows, err := runAblations(o, cases)
	if err != nil {
		return nil, err
	}
	return ablationTable("Ablation A1: SAQs per port (corner case 2)", "saqs", rows), nil
}

// AblationThreshold sweeps the congestion detection threshold (A2).
func AblationThreshold(o Options, detectBytes []int) (*Table, error) {
	o = o.withDefaults()
	if len(detectBytes) == 0 {
		detectBytes = []int{4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024}
	}
	cases := make([]ablationCase, len(detectBytes))
	for i, d := range detectBytes {
		d := d
		cases[i] = ablationCase{
			label:  fmt.Sprintf("%dKB", d/1024),
			keyFor: fmt.Sprintf("detect=%d", d),
			mutate: func(cfg *fabric.Config) { cfg.RECN.DetectBytes = d },
		}
	}
	rows, err := runAblations(o, cases)
	if err != nil {
		return nil, err
	}
	return ablationTable("Ablation A2: detection threshold (corner case 2)", "detect", rows), nil
}

// AblationTokenBoost compares the paper's §3.8 arbiter priority boost
// for near-empty token-owning SAQs against no boost (A3).
func AblationTokenBoost(o Options) (*Table, error) {
	o = o.withDefaults()
	var cases []ablationCase
	for _, boost := range []bool{true, false} {
		boost := boost
		label := "on"
		if !boost {
			label = "off"
		}
		cases = append(cases, ablationCase{
			label:  label,
			keyFor: fmt.Sprintf("boost=%t", boost),
			mutate: func(cfg *fabric.Config) {
				if !boost {
					cfg.RECN.BoostPackets = 0
				}
			},
		})
	}
	rows, err := runAblations(o, cases)
	if err != nil {
		return nil, err
	}
	return ablationTable("Ablation A3: token priority boost (corner case 2)", "boost", rows), nil
}

// AblationMarkers compares the §3.8 in-order markers against disabling
// them (A4): without markers RECN reorders packets.
func AblationMarkers(o Options) (*Table, error) {
	o = o.withDefaults()
	var cases []ablationCase
	for _, markers := range []bool{true, false} {
		markers := markers
		label := "on"
		if !markers {
			label = "off"
		}
		cases = append(cases, ablationCase{
			label:  label,
			keyFor: fmt.Sprintf("markers=%t", markers),
			mutate: func(cfg *fabric.Config) { cfg.RECN.NoInOrderMarkers = !markers },
		})
	}
	rows, err := runAblations(o, cases)
	if err != nil {
		return nil, err
	}
	return ablationTable("Ablation A4: in-order markers (corner case 2)", "markers", rows), nil
}
