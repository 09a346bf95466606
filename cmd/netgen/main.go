// Command netgen emits a random problem instance in the §6 style as
// JSON on stdout (consumed by cmd/streamopt). Defaults reproduce the
// paper's headline configuration: 40 nodes, 3 commodities, capacities
// U[1,100], potentials U[1,10], consumption U[1,5].
//
//	go run ./cmd/netgen -seed 42 > instance.json
//
// With -sparse the generator switches to the chain-over-shared-core
// family (randnet.GenerateSparse): commodity count is no longer bound
// by the node count, and each commodity's member subgraph stays
// O(layers). This is the regime for scale tests:
//
//	go run ./cmd/netgen -sparse -nodes 48 -layers 6 -commodities 10000 > scale.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/randnet"
	"repro/internal/stream"
)

func main() {
	var (
		seed        = flag.Int64("seed", 42, "generator seed")
		nodes       = flag.Int("nodes", 40, "processing nodes")
		commodities = flag.Int("commodities", 3, "commodities (source/sink pairs)")
		layers      = flag.Int("layers", 5, "DAG layers (graph depth)")
		sparse      = flag.Bool("sparse", false, "chain-per-commodity family over a shared core (many-commodity scale)")
	)
	flag.Parse()
	if err := realMain(os.Stdout, *seed, *nodes, *commodities, *layers, *sparse); err != nil {
		fmt.Fprintln(os.Stderr, "netgen:", err)
		os.Exit(1)
	}
}

func realMain(out io.Writer, seed int64, nodes, commodities, layers int, sparse bool) error {
	cfg := randnet.Config{
		Seed:        seed,
		Nodes:       nodes,
		Commodities: commodities,
		Layers:      layers,
	}
	var (
		p   *stream.Problem
		err error
	)
	if sparse {
		p, err = randnet.GenerateSparse(cfg)
	} else {
		p, err = randnet.Generate(cfg)
	}
	if err != nil {
		return err
	}
	data, err := p.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = out.Write(buf.Bytes())
	return err
}
