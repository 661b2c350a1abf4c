package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// judge compares the same metric from two result sets: a is the base, b
// the candidate.
func judge(spec e2eSpec, a, b Series) string {
	switch spec.Kind {
	case boundExact:
		if a.Median != b.Median {
			return verdictWorse
		}
		return verdictOK
	case boundNoRise:
		if b.Median > a.Median {
			return verdictWorse
		}
		return verdictOK
	}
	if quartileSpread(a.Values) > spec.Bound || quartileSpread(b.Values) > spec.Bound {
		return verdictUnresolved
	}
	worseBy := b.Median - a.Median
	if spec.Better == betterHigher {
		worseBy = -worseBy
	}
	if worseBy > spec.Bound*a.Median {
		return verdictWorse
	}
	return verdictOK
}

func readResults(path string) (*Results, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &Results{}
	if err := json.Unmarshal(blob, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles prints, per workload x end-to-end metric, both medians,
// the ratio with its base, the bound and the verdict; it returns 1 when
// any pair is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	worse := compareResults(a, b, stdout)
	if worse > 0 {
		return 1
	}
	return 0
}

// compareResults prints the table and returns how many pairs are worse.
func compareResults(a, b *Results, w io.Writer) int {
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %10s %-8s %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-16s missing from one side\n", wl.Name)
			worse++
			continue
		}
		for _, spec := range endToEnd {
			if !spec.appliesTo(wl.Name) {
				continue
			}
			sa, okA := wa.EndToEnd[spec.Name]
			sb, okB := wb.EndToEnd[spec.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-16s %-22s missing from one side\n", wl.Name, spec.Name)
				worse++
				continue
			}
			verdict := judge(spec, sa, sb)
			if verdict == verdictWorse {
				worse++
			}
			bound := spec.Kind
			if spec.Kind == boundRatio {
				bound = fmt.Sprintf("%.0f%%", spec.Bound*100)
			}
			ratio := "-"
			if sa.Median != 0 {
				ratio = fmt.Sprintf("%.4f", sb.Median/sa.Median)
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %10s %-8s %s\n", wl.Name, spec.Name, sa.Median, sb.Median, ratio, bound, verdict)
		}
	}
	return worse
}
