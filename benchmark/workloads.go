package main

import (
	"fmt"
	"math/rand"
)

// workloadNames lists the workloads in the order `-workload all` runs
// them. Why each exists is recorded in BENCHMARK.json and README.md.
var workloadNames = []string{"domain_search", "oltp_commit", "mixed_maintain", "analytic_scan"}

// newWorkload generates the named workload's inputs from the seed. scale
// multiplies the data sizes: 1 is the benchmark, tests pass less.
func newWorkload(name string, seed int64, scale float64) (workload, error) {
	switch name {
	case "domain_search":
		return newDomainSearch(seed, scale), nil
	case "oltp_commit":
		return newOLTPCommit(seed, scale), nil
	case "mixed_maintain":
		return newMixedMaintain(seed, scale), nil
	case "analytic_scan":
		return newAnalyticScan(seed, scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

// clientRNG is client i's private operation stream for a workload seed.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client) + 1))
}
