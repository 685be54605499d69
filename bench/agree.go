package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// agreeFiles compares two result sets written with -out: bench -agree
// A.json B.json. B agrees with A when no end-to-end metric is worse
// than A's by more than its bound, every digest and exact-repeat count
// is identical, and neither set has a failed operation. It prints one
// row per (workload, metric) and fails on any disagreement.
func agreeFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-agree wants two result-set files, got %d", len(paths))
	}
	a, err := readSet(paths[0])
	if err != nil {
		return err
	}
	b, err := readSet(paths[1])
	if err != nil {
		return err
	}
	if n := agree(os.Stdout, a, b); n > 0 {
		return fmt.Errorf("%d disagreements between %s and %s", n, paths[0], paths[1])
	}
	return nil
}

func readSet(path string) ([]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []result
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: empty result set", path)
	}
	return set, nil
}

// agree writes the comparison and returns the number of disagreements.
func agree(w io.Writer, a, b []result) int {
	type key struct {
		workload string
		trace    int
	}
	other := map[key]result{}
	for _, r := range b {
		other[key{r.Workload, r.Trace}] = r
	}
	bad := 0
	row := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "DISAGREE"
			bad++
		}
		fmt.Fprintf(w, "%-8s "+format+"\n", append([]any{verdict}, args...)...)
	}
	for _, ra := range a {
		rb, ok := other[key{ra.Workload, ra.Trace}]
		if !ok {
			row(false, "%-13s trace %d: missing from the second set", ra.Workload, ra.Trace)
			continue
		}
		delete(other, key{ra.Workload, ra.Trace})
		id := fmt.Sprintf("%-13s trace %d", ra.Workload, ra.Trace)
		row(ra.Failed == 0 && rb.Failed == 0, "%s failed operations: %d of %d, %d of %d", id, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		row(ra.Seed == rb.Seed, "%s seed: %d, %d", id, ra.Seed, rb.Seed)
		row(ra.Digest == rb.Digest, "%s digest: %.16s, %.16s", id, ra.Digest, rb.Digest)
		row(sameCounts(ra.Counts, rb.Counts), "%s exact-repeat counts: %v, %v", id, ra.Counts, rb.Counts)
		if ra.Trace == 1 {
			continue // per-layer metrics have no bound
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.name].Value, rb.Metrics[d.name].Value
			worse := (vb - va) / va
			if d.better == "higher" {
				worse = (va - vb) / va
			}
			// Agreement is symmetric: neither run may be the worse one
			// by more than the bound.
			if worse < 0 {
				worse = -worse * va / vb
			}
			row(va > 0 && vb > 0 && worse <= d.bound, "%s %-16s %14.6g %14.6g %-5s apart %5.1f%% (bound %.0f%%)",
				id, d.name, va, vb, d.unit, 100*worse, 100*d.bound)
		}
	}
	for k := range other {
		row(false, "%-13s trace %d: missing from the first set", k.workload, k.trace)
	}
	return bad
}
