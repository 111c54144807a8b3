package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"boundedg/internal/graph"
)

// workloadSpec is one traffic mix against one daemon configuration. Why
// each exists is recorded in README.md next to this file.
type workloadSpec struct {
	name string
	// poolSize is the number of distinct bounded reads the load draws
	// from, uniformly. On hot_reads, 256 fits the daemon's 512-entry
	// result cache and is large enough that the pool's mean cost barely
	// moves between seeds; 4096 is 8x the cache, so most reads miss. The
	// mixed workload reads a 32-entry pool: each entry is re-read after a
	// few dozen writes, so most reads revalidate and hit. With 256 entries
	// only about 40% hit, and the read median sits on the edge between the
	// hit and the miss latencies, where it jumps with the hit rate.
	poolSize int
	// writeFrac is the share of ops that are writes (0 = read-only
	// daemon, no -mutable).
	writeFrac float64
	// shards > 1 runs the daemon with -shards. The mixed workload is
	// sharded: it is the only one that writes, so it carries the write
	// layers (graph, access, store, wal) and shard.Router at once.
	shards int
}

var workloads = []workloadSpec{
	{name: "hot_reads", poolSize: 256, shards: 1},
	{name: "cold_reads", poolSize: 4096, shards: 1},
	{name: "sharded_mixed", poolSize: 32, writeFrac: 0.5, shards: 2},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func (w workloadSpec) mutable() bool { return w.writeFrac > 0 }

// poolSeed is the seed that draws the workload's read pool. The mixed
// workload reads one fixed pool, for the reason zipfRank gives; its seed
// varies the op streams only.
func (w workloadSpec) poolSeed(seed int64) int64 {
	if w.mutable() {
		return 1
	}
	return seed
}

// daemonArgs are the boundedgd flags for this workload: the generated
// files only (never the seed), plus a fresh WAL directory with the
// default fsync-per-group-commit on the mixed workload.
func (w workloadSpec) daemonArgs(ds *dataset, walDir string) []string {
	args := []string{"-graph", ds.graphPath, "-schema", ds.schemaPath}
	if w.mutable() {
		args = append(args, "-mutable", "-wal", walDir)
	}
	if w.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(w.shards))
	}
	return args
}

// clients is the closed-loop connection count (the runner has two
// cores): each client sends its next request only after the previous
// answer arrived, so one stall delays only that client's next request
// instead of queueing a schedule behind it.
const clients = 2

// zipfS skews write endpoints toward a hot set of nodes.
const zipfS = 1.2

type opKind uint8

const (
	opRead opKind = iota
	opAdd
	opDel
)

// op is one request: a read of pool entry `entry`, or an edge add/delete.
type op struct {
	kind  opKind
	entry int
	edge  [2]graph.NodeID
}

// opGen draws one client's op stream from the workload seed. Reads pick
// a pool entry uniformly. A write adds an edge between two zipf-chosen
// live nodes; once an add is accepted, the client's next write is its
// compensating delete, so the graph orbits its initial state and every
// node ID stays valid. Adds skip edges of the initial graph: the daemon
// accepts a duplicate add as a no-op, so its compensating delete would
// remove an original edge for good.
type opGen struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	initial   *graph.Graph // read-only
	rank      []graph.NodeID
	poolSize  int
	writeFrac float64
	pending   *[2]graph.NodeID
}

// zipfRank orders the live nodes for zipf draws: a fixed shuffle, so the
// hot endpoints are spread over labels instead of being the generator's
// first-created reference nodes. It does not depend on the run's seed:
// whether a hot node lies in the read footprint of a cached pattern
// decides most of the mixed workload's cache misses, and a per-seed
// ranking moved their CPU per op by 30% between seeds. All clients share
// it, so they contend for the same hot nodes.
func zipfRank(live []graph.NodeID) []graph.NodeID {
	rank := append([]graph.NodeID(nil), live...)
	r := rand.New(rand.NewSource(0x5eed))
	r.Shuffle(len(rank), func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })
	return rank
}

func newOpGen(w workloadSpec, initial *graph.Graph, rank []graph.NodeID, seed int64, stream int) *opGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	return &opGen{
		rng:       rng,
		zipf:      rand.NewZipf(rng, zipfS, 1, uint64(len(rank)-1)),
		initial:   initial,
		rank:      rank,
		poolSize:  w.poolSize,
		writeFrac: w.writeFrac,
	}
}

func (g *opGen) next() op {
	if g.writeFrac == 0 || g.rng.Float64() >= g.writeFrac {
		return op{kind: opRead, entry: g.rng.Intn(g.poolSize)}
	}
	if g.pending != nil {
		return op{kind: opDel, edge: *g.pending}
	}
	for {
		u, v := g.rank[g.zipf.Uint64()], g.rank[g.zipf.Uint64()]
		if u != v && !g.initial.HasEdge(u, v) {
			return op{kind: opAdd, edge: [2]graph.NodeID{u, v}}
		}
	}
}

// settle feeds back a write's outcome: an accepted add leaves its delete
// pending; a delete clears it whatever its status (a rejected delete is
// a failure the run reports, not something to retry).
func (g *opGen) settle(o op, accepted bool) {
	switch o.kind {
	case opAdd:
		if accepted {
			e := o.edge
			g.pending = &e
		}
	case opDel:
		g.pending = nil
	}
}

// drain returns the pending compensating delete, if any, so a stopping
// client leaves the graph as it found it.
func (g *opGen) drain() (op, bool) {
	if g.pending == nil {
		return op{}, false
	}
	return op{kind: opDel, edge: *g.pending}, true
}

// delta returns the write's graph delta.
func (o op) delta() *graph.Delta {
	e := [][2]graph.NodeID{o.edge}
	if o.kind == opAdd {
		return &graph.Delta{AddEdges: e}
	}
	return &graph.Delta{DelEdges: e}
}

// updateBody encodes a write's POST /update body with the graph layer's
// own codec.
func (o op) updateBody(in *graph.Interner) ([]byte, error) {
	var buf bytes.Buffer
	if err := o.delta().WriteJSON(&buf, in); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
