package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// benchFile is the benchmark's declaration at the root of the checkout: its
// workloads, and the metrics each kind of run must report with their units
// and bounds.
type benchFile struct {
	Workloads []declared `json:"workloads"`
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

// declared is one named entry of the file: a workload or a metric.
type declared struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func has(ds []declared, name string) bool {
	return slices.ContainsFunc(ds, func(d declared) bool { return d.Name == name })
}

// bound returns the declared bound of an end-to-end metric.
func (f *benchFile) bound(name string) (float64, error) {
	for _, d := range f.EndToEnd {
		if d.Name == name {
			return d.Bound, nil
		}
	}
	return 0, fmt.Errorf("no end-to-end metric %q declared", name)
}

// check reports any difference between the metrics a run produced and those
// declared for its kind of run: every declared metric, in its declared unit,
// and nothing else.
func (f *benchFile) check(ms metrics, traced bool) error {
	want := f.EndToEnd
	if traced {
		want = f.PerLayer
	}
	var diffs []string
	for _, d := range want {
		m, ok := ms[d.Name]
		switch {
		case !ok:
			diffs = append(diffs, "missing "+d.Name)
		case m.Unit != d.Unit:
			diffs = append(diffs, fmt.Sprintf("%s in %s, declared %s", d.Name, m.Unit, d.Unit))
		}
	}
	for name := range ms {
		if !has(want, name) {
			diffs = append(diffs, "undeclared "+name)
		}
	}
	if len(diffs) > 0 {
		slices.Sort(diffs)
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(diffs, ", "))
	}
	return nil
}
