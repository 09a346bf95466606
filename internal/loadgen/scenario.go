// Package loadgen is the scenario-driven workload generator for the
// admission service: it compiles declarative JSON scenarios — cohorts
// of commodities with arrival/departure processes, per-epoch rate
// trajectories drawn from internal/workload, weighted α-fair priority
// classes, and scripted node/link fault injection — into deterministic
// event streams, drives them against a live server (in-process or over
// HTTP) on a virtual clock, and sweeps offered load to locate the
// saturation knee where admission control starts rejecting.
//
// The paper's premise (§1) is bursty, unpredictable stream rates that
// force admission control; this package is the harness that produces
// those rates reproducibly. Everything is a pure function of the
// scenario (including its seed): the same scenario always compiles to
// a byte-identical event stream, so saturation sweeps and CI smoke
// runs are exactly replayable.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/workload"
)

// Scenario is the declarative workload description. The JSON form is
// what cmd/loadgen loads and what examples/scenarios/*.json hold.
type Scenario struct {
	// Name labels reports and metrics.
	Name string `json:"name"`
	// Seed drives every random draw: member arrival/departure times,
	// seeded rate processes, and the generated network (unless the
	// network declares its own seed). Same seed ⇒ same event stream.
	Seed int64 `json:"seed"`
	// Epochs is the virtual-clock horizon.
	Epochs int `json:"epochs"`
	// EpochMillis paces the driver: one epoch per this many wall-clock
	// milliseconds. 0 means as fast as possible (tests, throughput
	// benchmarks).
	EpochMillis int `json:"epochMillis,omitempty"`
	// Network describes the randnet-generated substrate the scenario
	// runs on. Every cohort member gets its own commodity template
	// (source, sink, DAG, Property-1 shrinkage factors) carved out of
	// this instance, so arrivals always validate.
	Network NetworkSpec `json:"network"`
	// Classes are the admission-priority classes cohorts reference:
	// weighted α-fair utilities (higher weight ⇒ higher priority at
	// the same α; α = 1 is proportional fairness, 0 is throughput).
	Classes []ClassSpec `json:"classes,omitempty"`
	// Cohorts are the commodity populations.
	Cohorts []CohortSpec `json:"cohorts"`
	// Faults are scripted capacity/bandwidth events (the E8 failure-
	// injection idiom, replayed at fixed epochs).
	Faults []FaultSpec `json:"faults,omitempty"`
}

// NetworkSpec parameterizes the randnet instance the scenario runs on.
type NetworkSpec struct {
	Nodes  int `json:"nodes,omitempty"`  // default 24
	Layers int `json:"layers,omitempty"` // default 3
	// Seed for the generated network; 0 means derive from the
	// scenario seed so one seed pins everything.
	Seed int64 `json:"seed,omitempty"`
}

// ClassSpec is one admission-priority class: the weighted α-fair
// utility U(a) = Weight·((a+Shift)^(1−α) − Shift^(1−α))/(1−α)
// (α = 1: Weight·log(1 + a/Shift)) attached to every member of the
// cohorts that reference it.
type ClassSpec struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	Alpha  float64 `json:"alpha,omitempty"` // default 1
	Shift  float64 `json:"shift,omitempty"` // default 1
}

// CohortSpec is one population of commodities sharing an arrival
// process, a rate process, and a priority class.
type CohortSpec struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Class names a ClassSpec; empty keeps the generated template's
	// utility (linear slope 1, the paper's max-throughput objective).
	Class   string      `json:"class,omitempty"`
	Arrival ArrivalSpec `json:"arrival"`
	// Departure is optional; absent means members stay until the
	// horizon ends.
	Departure *DepartureSpec `json:"departure,omitempty"`
	Rate      RateSpec       `json:"rate"`
}

// ArrivalSpec places each cohort member's arrival epoch.
//
//   - "immediate": every member arrives at epoch 0.
//   - "flash":     every member arrives at At, staggered uniformly
//     over [At, At+Spread] — the flash-crowd burst.
//   - "poisson":   members arrive with exponential inter-arrival
//     times at Rate arrivals per epoch.
//   - "uniform":   each member arrives uniformly in [0, Epochs).
type ArrivalSpec struct {
	Type   string  `json:"type"`
	At     int     `json:"at,omitempty"`
	Spread int     `json:"spread,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
}

// DepartureSpec ends a member's session.
//
//   - "never":   the member stays until the horizon (same as omitting
//     the departure spec).
//   - "after":   the member departs exactly Dwell epochs after arrival.
//   - "poisson": the dwell is geometric with mean Dwell epochs.
type DepartureSpec struct {
	Type  string `json:"type"`
	Dwell int    `json:"dwell,omitempty"`
}

// RateSpec selects a workload.Process for the member's offered-rate
// trajectory; Type picks the family and the other fields parameterize
// it (only the fields of the chosen family are read).
type RateSpec struct {
	Type string `json:"type"`
	// constant
	Level float64 `json:"level,omitempty"`
	// steps (Levels, Period), sine reuses Period
	Levels []float64 `json:"levels,omitempty"`
	Period int       `json:"period,omitempty"`
	// onoff
	High   float64 `json:"high,omitempty"`
	Low    float64 `json:"low,omitempty"`
	OnLen  int     `json:"onLen,omitempty"`
	OffLen int     `json:"offLen,omitempty"`
	// mmpp (Rates, MeanDwell)
	Rates     []float64 `json:"rates,omitempty"`
	MeanDwell float64   `json:"meanDwell,omitempty"`
	// sine (Base, Amp, Period)
	Base float64 `json:"base,omitempty"`
	Amp  float64 `json:"amp,omitempty"`
	// spike (Base, Peak, Start, Ramp, Hold, Decay)
	Peak  float64 `json:"peak,omitempty"`
	Start int     `json:"start,omitempty"`
	Ramp  int     `json:"ramp,omitempty"`
	Hold  int     `json:"hold,omitempty"`
	Decay int     `json:"decay,omitempty"`
	// lognormal (Median, Sigma)
	Median float64 `json:"median,omitempty"`
	Sigma  float64 `json:"sigma,omitempty"`
}

// FaultSpec is one scripted capacity/bandwidth event.
//
// Kinds: "scale_capacity" (Node, Factor), "set_capacity" (Node,
// Value), "scale_bandwidth" (From, To, Factor), "set_bandwidth"
// (From, To, Value). Node names follow randnet's n00, n01, ...
// convention.
type FaultSpec struct {
	At     int     `json:"at"`
	Kind   string  `json:"kind"`
	Node   string  `json:"node,omitempty"`
	From   string  `json:"from,omitempty"`
	To     string  `json:"to,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// ParseScenario decodes and validates a scenario. Unknown fields are
// rejected so a typo'd knob fails loudly instead of silently running
// the default.
func ParseScenario(data []byte) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("loadgen: parse scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// setDefaults fills the documented defaults in place.
func (sc *Scenario) setDefaults() {
	if sc.Network.Nodes == 0 {
		sc.Network.Nodes = 24
	}
	if sc.Network.Layers == 0 {
		sc.Network.Layers = 3
	}
}

// Validate checks the scenario for structural problems with actionable
// messages: every error names the cohort/class/fault it comes from and
// what to change.
func (sc *Scenario) Validate() error {
	sc.setDefaults()
	if sc.Name == "" {
		return fmt.Errorf("loadgen: scenario needs a name")
	}
	if sc.Epochs <= 0 {
		return fmt.Errorf("loadgen: scenario %q: epochs must be positive, got %d", sc.Name, sc.Epochs)
	}
	if sc.EpochMillis < 0 {
		return fmt.Errorf("loadgen: scenario %q: epochMillis must be ≥ 0, got %d", sc.Name, sc.EpochMillis)
	}
	if len(sc.Cohorts) == 0 {
		return fmt.Errorf("loadgen: scenario %q: needs at least one cohort", sc.Name)
	}
	classes := map[string]ClassSpec{}
	for i, cl := range sc.Classes {
		if cl.Name == "" {
			return fmt.Errorf("loadgen: scenario %q: class %d needs a name", sc.Name, i)
		}
		if _, dup := classes[cl.Name]; dup {
			return fmt.Errorf("loadgen: scenario %q: duplicate class %q", sc.Name, cl.Name)
		}
		if cl.Weight <= 0 {
			return fmt.Errorf("loadgen: scenario %q: class %q: weight must be positive, got %g", sc.Name, cl.Name, cl.Weight)
		}
		if cl.Alpha < 0 {
			return fmt.Errorf("loadgen: scenario %q: class %q: alpha must be ≥ 0, got %g", sc.Name, cl.Name, cl.Alpha)
		}
		if cl.Shift < 0 {
			return fmt.Errorf("loadgen: scenario %q: class %q: shift must be ≥ 0, got %g", sc.Name, cl.Name, cl.Shift)
		}
		classes[cl.Name] = cl
	}
	total := 0
	seen := map[string]bool{}
	for i, co := range sc.Cohorts {
		if co.Name == "" {
			return fmt.Errorf("loadgen: scenario %q: cohort %d needs a name", sc.Name, i)
		}
		if seen[co.Name] {
			return fmt.Errorf("loadgen: scenario %q: duplicate cohort %q", sc.Name, co.Name)
		}
		seen[co.Name] = true
		if co.Count <= 0 {
			return fmt.Errorf("loadgen: scenario %q: cohort %q: count must be positive, got %d", sc.Name, co.Name, co.Count)
		}
		if co.Class != "" {
			if _, ok := classes[co.Class]; !ok {
				return fmt.Errorf("loadgen: scenario %q: cohort %q references undefined class %q (declare it under \"classes\")",
					sc.Name, co.Name, co.Class)
			}
		}
		if err := co.Arrival.validate(sc.Epochs); err != nil {
			return fmt.Errorf("loadgen: scenario %q: cohort %q: arrival: %w", sc.Name, co.Name, err)
		}
		if co.Departure != nil {
			if err := co.Departure.validate(); err != nil {
				return fmt.Errorf("loadgen: scenario %q: cohort %q: departure: %w", sc.Name, co.Name, err)
			}
		}
		if _, err := co.Rate.process(1); err != nil {
			return fmt.Errorf("loadgen: scenario %q: cohort %q: rate: %w", sc.Name, co.Name, err)
		}
		total += co.Count
	}
	if maxMembers := sc.Network.Nodes / sc.Network.Layers; total > maxMembers {
		return fmt.Errorf("loadgen: scenario %q: %d cohort members need %d first-layer source nodes but the %d-node/%d-layer network has only %d — raise network.nodes or lower counts",
			sc.Name, total, total, sc.Network.Nodes, sc.Network.Layers, maxMembers)
	}
	for i, f := range sc.Faults {
		if f.At < 0 || f.At >= sc.Epochs {
			return fmt.Errorf("loadgen: scenario %q: fault %d: at=%d outside [0,%d)", sc.Name, i, f.At, sc.Epochs)
		}
		switch f.Kind {
		case "scale_capacity":
			if f.Node == "" || f.Factor <= 0 {
				return fmt.Errorf("loadgen: scenario %q: fault %d: scale_capacity needs node and positive factor", sc.Name, i)
			}
		case "set_capacity":
			if f.Node == "" || f.Value <= 0 {
				return fmt.Errorf("loadgen: scenario %q: fault %d: set_capacity needs node and positive value", sc.Name, i)
			}
		case "scale_bandwidth":
			if f.From == "" || f.To == "" || f.Factor <= 0 {
				return fmt.Errorf("loadgen: scenario %q: fault %d: scale_bandwidth needs from, to, and positive factor", sc.Name, i)
			}
		case "set_bandwidth":
			if f.From == "" || f.To == "" || f.Value <= 0 {
				return fmt.Errorf("loadgen: scenario %q: fault %d: set_bandwidth needs from, to, and positive value", sc.Name, i)
			}
		default:
			return fmt.Errorf("loadgen: scenario %q: fault %d: unknown kind %q (want scale_capacity, set_capacity, scale_bandwidth, or set_bandwidth)",
				sc.Name, i, f.Kind)
		}
	}
	return nil
}

// class looks a class spec up by name (must exist — Validate checked).
func (sc *Scenario) class(name string) (ClassSpec, bool) {
	for _, cl := range sc.Classes {
		if cl.Name == name {
			return cl, true
		}
	}
	return ClassSpec{}, false
}

func (a ArrivalSpec) validate(epochs int) error {
	switch a.Type {
	case "immediate":
		return nil
	case "flash":
		if a.At < 0 || a.At >= epochs {
			return fmt.Errorf("flash burst at=%d outside [0,%d)", a.At, epochs)
		}
		if a.Spread < 0 {
			return fmt.Errorf("flash spread must be ≥ 0, got %d", a.Spread)
		}
		return nil
	case "poisson":
		if a.Rate <= 0 {
			return fmt.Errorf("poisson arrivals need rate > 0 (arrivals per epoch), got %g", a.Rate)
		}
		return nil
	case "uniform":
		return nil
	default:
		return fmt.Errorf("unknown type %q (want immediate, flash, poisson, or uniform)", a.Type)
	}
}

func (d DepartureSpec) validate() error {
	switch d.Type {
	case "never":
		return nil
	case "after", "poisson":
		if d.Dwell <= 0 {
			return fmt.Errorf("%s departure needs dwell > 0 epochs, got %d", d.Type, d.Dwell)
		}
		return nil
	default:
		return fmt.Errorf("unknown type %q (want never, after, or poisson)", d.Type)
	}
}

// process builds the workload.Process for one member; seeded families
// use the given seed.
func (r RateSpec) process(seed int64) (workload.Process, error) {
	switch r.Type {
	case "constant":
		if r.Level <= 0 {
			return nil, fmt.Errorf("constant rate needs level > 0, got %g", r.Level)
		}
		return workload.Constant{R: r.Level}, nil
	case "steps":
		if len(r.Levels) == 0 {
			return nil, fmt.Errorf("steps rate needs non-empty levels")
		}
		for _, l := range r.Levels {
			if l <= 0 {
				return nil, fmt.Errorf("steps levels must be positive, got %g", l)
			}
		}
		return workload.Steps{Levels: r.Levels, Period: r.Period}, nil
	case "onoff":
		if r.High <= 0 || r.Low <= 0 {
			return nil, fmt.Errorf("onoff rate needs high > 0 and low > 0 (the solver requires positive offered rates), got high=%g low=%g", r.High, r.Low)
		}
		return workload.OnOff{High: r.High, Low: r.Low, OnLen: r.OnLen, OffLen: r.OffLen}, nil
	case "mmpp":
		if len(r.Rates) == 0 {
			return nil, fmt.Errorf("mmpp rate needs non-empty rates")
		}
		for _, v := range r.Rates {
			if v <= 0 {
				return nil, fmt.Errorf("mmpp rates must be positive, got %g", v)
			}
		}
		return workload.NewMMPP(r.Rates, r.MeanDwell, seed), nil
	case "sine":
		if r.Base <= 0 || r.Amp < 0 || r.Amp >= r.Base {
			return nil, fmt.Errorf("sine rate needs base > 0 and 0 ≤ amp < base (rates must stay positive), got base=%g amp=%g", r.Base, r.Amp)
		}
		return workload.Sine{Base: r.Base, Amp: r.Amp, Period: r.Period}, nil
	case "spike":
		if r.Base <= 0 || r.Peak <= 0 {
			return nil, fmt.Errorf("spike rate needs base > 0 and peak > 0, got base=%g peak=%g", r.Base, r.Peak)
		}
		return workload.Spike{Base: r.Base, Peak: r.Peak, Start: r.Start, Ramp: r.Ramp, Hold: r.Hold, Decay: r.Decay}, nil
	case "lognormal":
		if r.Median <= 0 {
			return nil, fmt.Errorf("lognormal rate needs median > 0, got %g", r.Median)
		}
		return workload.NewLognormal(r.Median, r.Sigma, seed), nil
	default:
		return nil, fmt.Errorf("unknown type %q (want constant, steps, onoff, mmpp, sine, spike, or lognormal)", r.Type)
	}
}
