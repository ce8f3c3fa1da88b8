package main

import "testing"

// TestBenchFileMatchesWorkloads keeps BENCHMARK.json and the workload table
// in step: every declared workload exists here and every workload here is
// declared.
func TestBenchFileMatchesWorkloads(t *testing.T) {
	f, err := loadBenchFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		if !has(f.Workloads, w.name) {
			t.Errorf("workload %s not declared in BENCHMARK.json", w.name)
		}
	}
	if _, err := f.bound("throughput_ops_s"); err != nil {
		t.Error(err)
	}
}

func TestCheckFlagsMissingAndUndeclaredMetrics(t *testing.T) {
	f := &benchFile{EndToEnd: []declared{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}}
	ok := metrics{"a": {1, "s"}, "b": {2, "ms"}}
	if err := f.check(ok, false); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metrics{
		{"a": {1, "s"}},
		{"a": {1, "s"}, "b": {2, "us"}},
		{"a": {1, "s"}, "b": {2, "ms"}, "c": {3, "s"}},
	} {
		if f.check(bad, false) == nil {
			t.Errorf("check(%v) passed", bad)
		}
	}
}
