package server

import "repro/internal/stream"

// StubCheckpointMarshal replaces the periodic checkpoint's marshal
// until the returned restore function runs, so external tests can hold
// a checkpoint mid-marshal on a real server.
func StubCheckpointMarshal(fn func(*stream.Problem) ([]byte, error)) (restore func()) {
	prev := marshalCheckpoint
	marshalCheckpoint = fn
	return func() { marshalCheckpoint = prev }
}

// ToyProblem is the package tests' two-server chain, for its external
// tests.
var ToyProblem = toyProblem
