package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/exp"
	"boundedg/internal/graph"
	"boundedg/internal/pattern"
	"boundedg/internal/server"
	"boundedg/internal/workload"
)

// The dataset every workload runs on: the DBpedia-shaped generator at
// scale 2. Its bounded-query share is close to the paper's DBpedia figure
// and its per-query costs sit in a narrow band, so no handful of outliers
// dominates a run. The generator seed is fixed: across seeds 1-5 its edge
// count ranges from 100k to 121k, which moved set-up time and memory by
// as much. The run's seed draws the read pool and the op streams.
const (
	datasetName  = "dbpedia"
	datasetScale = 2.0
	datasetSeed  = 1
	// simShare is the share of each read pool under simulation; the rest
	// is subgraph. Fixing the split keeps pools of different seeds alike
	// (about 30% of bounded pairs are simulation ones).
	simShare = 0.25
	// queryLimit is the match cap every read asks for (the daemon's
	// default limit, stated explicitly so the oracle uses the same one).
	queryLimit = 100
	// serverMaxSteps is the daemon's default VF2 step budget; the oracle
	// evaluates under the same budget.
	serverMaxSteps = 5_000_000
)

// poolEntry is one read the load can issue: a bounded pattern under one
// semantics, with its pre-encoded request body.
type poolEntry struct {
	text string // canonical pattern text (pattern.Pattern.String)
	sem  core.Semantics
	q    *pattern.Pattern // parsed against the dataset's interner
	body []byte           // POST /query body
}

// dataset holds the generated input files and the benchmark's own view of
// them, read back through the same functions the daemon uses, so node IDs
// and labels agree with the daemon's.
type dataset struct {
	graphPath, schemaPath string

	in     *graph.Interner
	g      *graph.Graph
	schema *access.Schema
	idx    *access.IndexSet
	live   []graph.NodeID
	pool   []poolEntry
}

// makeDataset generates the graph and schema, writes them under dir,
// reads them back, and draws a pool of poolSize bounded reads from seed.
func makeDataset(dir string, seed int64, poolSize int) (*dataset, error) {
	d, err := exp.Gen(datasetName, datasetScale, datasetSeed)
	if err != nil {
		return nil, err
	}
	ds := &dataset{
		graphPath:  filepath.Join(dir, "graph.json"),
		schemaPath: filepath.Join(dir, "schema.json"),
	}
	if err := writeFile(ds.graphPath, func(f *os.File) error { return d.G.WriteJSON(f) }); err != nil {
		return nil, err
	}
	if err := writeFile(ds.schemaPath, func(f *os.File) error { return d.Schema.WriteJSON(f, d.In) }); err != nil {
		return nil, err
	}
	if err := ds.load(); err != nil {
		return nil, err
	}
	pool, err := boundedPool(d, ds.in, ds.schema, seed, poolSize)
	if err != nil {
		return nil, err
	}
	ds.pool = pool
	return ds, nil
}

// load reads the written files back: graph.ReadJSON renumbers node IDs,
// so the benchmark must learn them exactly as the daemon does.
func (ds *dataset) load() error {
	ds.in = graph.NewInterner()
	gf, err := os.Open(ds.graphPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	g, _, err := graph.ReadJSON(gf, ds.in)
	if err != nil {
		return err
	}
	sf, err := os.Open(ds.schemaPath)
	if err != nil {
		return err
	}
	defer sf.Close()
	schema, err := access.ReadJSON(sf, ds.in)
	if err != nil {
		return err
	}
	idx, viols := access.Build(g, schema)
	if viols != nil {
		return fmt.Errorf("generated graph violates its schema: %v", viols[0])
	}
	ds.g, ds.schema, ds.idx, ds.live = g, schema, idx, g.NodeList()
	return nil
}

// fresh returns a private copy of the initial graph and index set, for
// an in-process instance that takes ownership of its inputs.
func (ds *dataset) fresh() (*graph.Graph, *access.IndexSet) {
	return ds.g.Clone(), ds.idx.Clone()
}

// boundedPool draws n distinct reads from the standard query generator,
// keeping only (pattern, semantics) pairs that pass the paper's
// effective-boundedness check (EBChk for subgraph, SEBChk for
// simulation): an unbounded pattern is refused with 422 and would time
// the error path instead of the engine. A simShare of the pool is under
// simulation.
func boundedPool(d *workload.Dataset, in *graph.Interner, schema *access.Schema, seed int64, n int) ([]poolEntry, error) {
	nSim := int(float64(n) * simShare)
	want := map[core.Semantics]int{core.Subgraph: n - nSim, core.Simulation: nSim}
	got := map[core.Semantics][]poolEntry{}
	seen := make(map[string]bool)
	full := func() bool {
		return len(got[core.Subgraph]) == want[core.Subgraph] && len(got[core.Simulation]) == want[core.Simulation]
	}
	for round := int64(0); !full() && round < 8; round++ {
		batch := workload.DefaultQueryGen.Generate(d, 2*n+64, seed*7919+round+1)
		for _, gq := range batch {
			q, err := pattern.Parse(gq.String(), in)
			if err != nil {
				return nil, fmt.Errorf("generated pattern does not parse: %w", err)
			}
			// The daemon answers in the column order of the pattern it
			// parses from the request text, so the pool keeps that parse.
			text := q.String()
			if q, err = pattern.Parse(text, in); err != nil {
				return nil, fmt.Errorf("canonical pattern does not parse: %w", err)
			}
			for _, sem := range []core.Semantics{core.Subgraph, core.Simulation} {
				key := fmt.Sprintf("%d|%s", sem, text)
				if seen[key] || len(got[sem]) == want[sem] {
					continue
				}
				seen[key] = true
				bounded := core.EBChk(q, schema)
				if sem == core.Simulation {
					bounded = core.SEBChk(q, schema)
				}
				if !bounded {
					continue
				}
				body, err := json.Marshal(server.QueryRequest{Pattern: text, Sem: sem.String(), Limit: queryLimit})
				if err != nil {
					return nil, err
				}
				got[sem] = append(got[sem], poolEntry{text: text, sem: sem, q: q, body: body})
			}
		}
	}
	if !full() {
		return nil, fmt.Errorf("found %d subgraph and %d simulation bounded reads, need %d and %d",
			len(got[core.Subgraph]), len(got[core.Simulation]), want[core.Subgraph], want[core.Simulation])
	}
	// Reads draw entries uniformly, so the order does not matter.
	pool := append(got[core.Subgraph], got[core.Simulation]...)
	return pool, nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
