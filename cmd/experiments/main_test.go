package main

import "testing"

func TestRealMainRejectsUnknownExperiment(t *testing.T) {
	if err := realMain("F99", 1, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRealMainRunsT3Quick(t *testing.T) {
	// T3 is the cheapest experiment: a single iteration per depth.
	if err := realMain("T3", 3, true); err != nil {
		t.Fatal(err)
	}
}
