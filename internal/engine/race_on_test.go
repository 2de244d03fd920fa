//go:build race

package engine_test

// raceBuild: the race detector slows the NPS solver about tenfold, so
// TestSharedEqualsUnshared narrows to raceScenarios at the widest pool.
const raceBuild = true
