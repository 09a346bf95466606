package stream

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/utility"
)

// Task describes one operator of a stream: executing it on one unit of
// input consumes Cost resource units and emits Beta units of output.
type Task struct {
	Name string
	Beta float64
	Cost float64
}

// StreamSpec is a pipeline of tasks forming one commodity, as in
// Figure 1 (stream S1 = A→B→C→D).
type StreamSpec struct {
	Name    string
	Tasks   []Task
	MaxRate float64
	Utility utility.Function
}

// ServerSpec is one server with its capacity and assigned task names
// (the paper's T_i sets, e.g. T3 = {B, E}).
type ServerSpec struct {
	Name     string
	Capacity float64
	Tasks    []string
}

// AssemblySpec turns a task→server assignment into a Problem: the
// per-commodity DAG of Figure 1 is derived by connecting every server
// hosting stage p of a stream to every server hosting stage p+1, and
// the last stage to a per-stream sink.
type AssemblySpec struct {
	Servers []ServerSpec
	Streams []StreamSpec
	// DefaultBandwidth is every link's bandwidth; links are created
	// lazily as stream stages require them. Zero or negative means 1e9.
	DefaultBandwidth float64
}

// Assemble builds the Problem. The source of each stream is the server
// hosting its first task; ambiguous first stages (several servers host
// the first task) are rejected because the paper gives each commodity a
// unique source node.
func Assemble(spec AssemblySpec) (*Problem, error) {
	if spec.DefaultBandwidth <= 0 {
		spec.DefaultBandwidth = 1e9
	}

	net := NewNetwork()
	hosts := make(map[string][]graph.NodeID) // task name -> hosting servers
	for _, s := range spec.Servers {
		id, err := net.AddServer(s.Name, s.Capacity)
		if err != nil {
			return nil, err
		}
		for _, task := range s.Tasks {
			hosts[task] = append(hosts[task], id)
		}
	}

	p := NewProblem(net)
	for _, st := range spec.Streams {
		if len(st.Tasks) == 0 {
			return nil, fmt.Errorf("stream: %q has no tasks", st.Name)
		}
		first := hosts[st.Tasks[0].Name]
		if len(first) == 0 {
			return nil, fmt.Errorf("stream: %q: task %q hosted nowhere", st.Name, st.Tasks[0].Name)
		}
		if len(first) > 1 {
			return nil, fmt.Errorf("stream: %q: first task %q hosted on %d servers; the source must be unique",
				st.Name, st.Tasks[0].Name, len(first))
		}
		sink, err := net.AddSink("sink:" + st.Name)
		if err != nil {
			return nil, err
		}
		c, err := p.AddCommodity(st.Name, first[0], sink, st.MaxRate, st.Utility)
		if err != nil {
			return nil, err
		}
		// Connect stage p to stage p+1, and the last stage to the sink.
		prev := first
		for stage := 1; stage <= len(st.Tasks); stage++ {
			var next []graph.NodeID
			if stage == len(st.Tasks) {
				next = []graph.NodeID{sink}
			} else {
				next = hosts[st.Tasks[stage].Name]
				if len(next) == 0 {
					return nil, fmt.Errorf("stream: %q: task %q hosted nowhere", st.Name, st.Tasks[stage].Name)
				}
			}
			task := st.Tasks[stage-1] // task executed at the tail
			for _, from := range prev {
				for _, to := range next {
					e := net.G.EdgeBetween(from, to)
					if e == graph.Invalid {
						e, err = net.AddLink(from, to, spec.DefaultBandwidth)
						if err != nil {
							return nil, err
						}
					}
					if err := p.SetEdge(c, e, EdgeParams{Beta: task.Beta, Cost: task.Cost}); err != nil {
						return nil, err
					}
				}
			}
			prev = next
		}
	}
	return p, nil
}

// Figure1 builds the paper's running example (Figure 1): 8 servers, two
// streams S1 = A→B→C→D and S2 = G→E→F→H with the assignment
// T1={A} T2={B} T3={B,E} T4={C} T5={C,F} T6={D} T7={G} T8={H}.
// Capacities, bandwidths, rates and task parameters are not given in
// the paper; callers pass them in. Utility defaults to throughput.
type Figure1Config struct {
	ServerCapacity float64            // capacity of every server
	Bandwidth      float64            // bandwidth of every link
	MaxRate1       float64            // λ for stream S1
	MaxRate2       float64            // λ for stream S2
	TaskBeta       map[string]float64 // per-task β; missing tasks get 1
	TaskCost       map[string]float64 // per-task cost; missing tasks get 1
}

// Figure1 assembles the Figure-1 problem instance.
func Figure1(cfg Figure1Config) (*Problem, error) {
	beta := func(t string) float64 {
		if v, ok := cfg.TaskBeta[t]; ok {
			return v
		}
		return 1
	}
	cost := func(t string) float64 {
		if v, ok := cfg.TaskCost[t]; ok {
			return v
		}
		return 1
	}
	task := func(name string) Task {
		return Task{Name: name, Beta: beta(name), Cost: cost(name)}
	}
	spec := AssemblySpec{
		DefaultBandwidth: cfg.Bandwidth,
		Servers: []ServerSpec{
			{Name: "server1", Capacity: cfg.ServerCapacity, Tasks: []string{"A"}},
			{Name: "server2", Capacity: cfg.ServerCapacity, Tasks: []string{"B"}},
			{Name: "server3", Capacity: cfg.ServerCapacity, Tasks: []string{"B", "E"}},
			{Name: "server4", Capacity: cfg.ServerCapacity, Tasks: []string{"C"}},
			{Name: "server5", Capacity: cfg.ServerCapacity, Tasks: []string{"C", "F"}},
			{Name: "server6", Capacity: cfg.ServerCapacity, Tasks: []string{"D"}},
			{Name: "server7", Capacity: cfg.ServerCapacity, Tasks: []string{"G"}},
			{Name: "server8", Capacity: cfg.ServerCapacity, Tasks: []string{"H"}},
		},
		Streams: []StreamSpec{
			{
				Name:    "S1",
				Tasks:   []Task{task("A"), task("B"), task("C"), task("D")},
				MaxRate: cfg.MaxRate1,
				Utility: utility.Linear{Slope: 1},
			},
			{
				Name:    "S2",
				Tasks:   []Task{task("G"), task("E"), task("F"), task("H")},
				MaxRate: cfg.MaxRate2,
				Utility: utility.Linear{Slope: 1},
			},
		},
	}
	return Assemble(spec)
}
