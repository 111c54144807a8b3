package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"boundedg/internal/access"
	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/pattern"
	"boundedg/internal/runtime"
	"boundedg/internal/server"
	"boundedg/internal/shard"
	"boundedg/internal/store"
)

// The traced run replays one client's op sequence through a ladder of
// rungs, each an independent in-process instance fed the same ops:
//
//	http     loopback POST to a server.Server       (http.query, http.update)
//	server   Handler().ServeHTTP on a recorder      (server.query, server.update)
//	below    the calls the handler makes, one layer at a time: pattern.Parse,
//	         Engine.Eval, core.NewPlan, Plan.ExecWith, the matchers;
//	         graph.ReadDeltaJSON, durable and in-memory Router.Apply,
//	         in-memory Store.Apply, IndexSet.ApplyDeltaTx
//
// Every call is recorded as a span from the benchmark's own code, so the
// program is measured unmodified. A rung below the handler runs only for
// the ops where the handler would reach it (a result-cache hit never
// evaluates), so its spans exist only for those ops.

// ladderOps is the recorded op count per workload, after ladderWarm
// unrecorded ops that bring caches and the stores' second instances to
// steady state. Fixed counts make the layer counts repeat exactly.
var ladderOps = map[string][2]int{ // name -> {warm, recorded}
	"hot_reads":     {2000, 3000},
	"cold_reads":    {1000, 800},
	"sharded_mixed": {200, 800},
}

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// parentOf names each span's parent layer: the call in the rung above
// that would have made it.
var parentOf = map[string]string{
	"server.query":    "http.query",
	"pattern.parse":   "server.query",
	"runtime.eval":    "server.query",
	"core.plan":       "runtime.eval",
	"core.fetch":      "runtime.eval",
	"match.vf2":       "runtime.eval",
	"match.gsim":      "runtime.eval",
	"server.update":   "http.update",
	"graph.decode":    "server.update",
	"wal.apply":       "server.update",
	"store.apply":     "wal.apply",
	"shard.apply":     "wal.apply",
	"access.apply_tx": "store.apply",
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	on    bool // false while replaying warm-up ops
	spans []span
}

// timed runs fn and records it as a span of op when recording is on.
func (t *tracer) timed(name string, op int, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	if t.on {
		t.spans = append(t.spans, span{Name: name, Op: op, Parent: -1,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	}
}

// link fills in every span's parent index.
func (t *tracer) link() {
	type key struct {
		name string
		op   int
	}
	at := make(map[key]int, len(t.spans))
	for i, s := range t.spans {
		at[key{s.Name, s.Op}] = i
	}
	for i, s := range t.spans {
		if p, ok := at[key{parentOf[s.Name], s.Op}]; ok {
			t.spans[i].Parent = p
		}
	}
}

// ladderCounts are the work counts recorded next to the spans.
type ladderCounts struct {
	fetches, accessed, lookups, answers int
	vf2Runs, vf2Steps                   int
	txApplied, touched                  int
}

// step is one op of the replayed sequence and what the handler rung did
// with it.
type step struct {
	o        op
	recorded bool
	hit      bool // read served from the result cache
	accepted bool // write answered 200
}

// ladder is the traced run's outcome.
type ladder struct {
	metrics  map[string]float64
	spanFile string
	problems []string
}

// instance is one in-process server over a private copy of the dataset,
// configured like the daemon for the workload.
type instance struct {
	srv   *server.Server
	close func()
}

func newInstance(w workloadSpec, ds *dataset, walDir string) (*instance, error) {
	eng, closeSrc, err := newSource(w, ds, walDir)
	if err != nil {
		return nil, err
	}
	srv := server.New(eng, ds.in, server.Config{
		DefaultLimit:  100,
		MaxLimit:      10000,
		Timeout:       5 * time.Second,
		CacheSize:     512,
		EnableUpdates: w.mutable(),
		MaxSubs:       64,
	})
	return &instance{srv: srv, close: func() {
		_ = srv.Shutdown(context.Background())
		eng.Close()
		closeSrc()
	}}, nil
}

// newSource builds the engine a daemon would serve for w: an in-memory
// store on the read-only workloads, a durable sharded router on the
// mixed one.
func newSource(w workloadSpec, ds *dataset, walDir string) (*runtime.Engine, func(), error) {
	g, idx := ds.fresh()
	if w.mutable() {
		r, err := shard.Create(walDir, ds.in, g, idx, w.shards, true)
		if err != nil {
			return nil, nil, err
		}
		eng, err := runtime.NewFromRouter(r, runtime.Config{})
		return eng, func() { r.Close(); _ = r.CloseDirs() }, err
	}
	st := store.New(g, idx)
	eng, err := runtime.NewFromStore(st, runtime.Config{})
	return eng, st.Close, err
}

func (s step) body(ds *dataset) []byte {
	if s.o.kind == opRead {
		return ds.pool[s.o.entry].body
	}
	b, err := s.o.updateBody(ds.in)
	if err != nil {
		panic(err) // an edge delta always encodes
	}
	return b
}

func (s step) path() string {
	if s.o.kind == opRead {
		return "/query"
	}
	return "/update"
}

func spanName(layer string, o op) string {
	if o.kind == opRead {
		return layer + ".query"
	}
	return layer + ".update"
}

// runLadder runs the traced replay for w and derives the per-layer
// metrics from its spans.
func runLadder(ctx context.Context, w workloadSpec, ds *dataset, seed int64, dir string) (*ladder, error) {
	lad := &ladder{metrics: map[string]float64{}}
	tr := &tracer{t0: time.Now()}
	n := ladderOps[w.name]

	// The handler rung goes first: it fixes the op sequence (a write's
	// outcome decides whether its compensating delete follows) and which
	// reads hit the result cache.
	steps, err := handlerRung(w, ds, seed, n[0], n[1], tr, filepath.Join(dir, "ladder-handler"))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Each rung's instance is garbage once it closes; collecting it
	// before the next one starts keeps the replay's memory to one
	// instance's worth.
	goruntime.GC()
	if _, err := loopbackRung(w, ds, steps, tr, filepath.Join(dir, "ladder-loop")); err != nil {
		return nil, err
	}
	goruntime.GC()
	untraced, err := loopbackRung(w, ds, steps, nil, filepath.Join(dir, "ladder-loop-untraced"))
	if err != nil {
		return nil, err
	}
	goruntime.GC()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var counts ladderCounts
	if lad.problems, err = layerRungs(w, ds, steps, tr, &counts, filepath.Join(dir, "ladder-below")); err != nil {
		return nil, err
	}
	tr.link()

	computeLadder(lad.metrics, tr.spans, counts, w.shards > 1, median(untraced))

	lad.spanFile = filepath.Join(dir, "spans.json")
	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(lad.spanFile, raw, 0o644); err != nil {
		return nil, err
	}
	return lad, nil
}

// handlerRung generates the op sequence against an in-process handler
// called through httptest.NewRecorder (no socket) and records
// server.query / server.update spans.
func handlerRung(w workloadSpec, ds *dataset, seed int64, warm, recorded int, tr *tracer, walDir string) ([]step, error) {
	inst, err := newInstance(w, ds, walDir)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	h := inst.srv.Handler()
	gen := newOpGen(w, ds.g, zipfRank(ds.live), seed, clients) // a stream the load clients do not use
	var steps []step
	for i := 0; i < warm+recorded; i++ {
		s := step{o: gen.next(), recorded: i >= warm}
		body := s.body(ds)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, s.path(), bytes.NewReader(body))
		tr.on = s.recorded
		tr.timed(spanName("server", s.o), i, func() { h.ServeHTTP(rec, req) })
		if s.o.kind == opRead {
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("handler rung: read answered HTTP %d: %s", rec.Code, rec.Body)
			}
			s.hit = bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`))
		} else {
			s.accepted = rec.Code == http.StatusOK
			gen.settle(s.o, s.accepted)
		}
		steps = append(steps, s)
	}
	tr.on = false
	return steps, nil
}

// loopbackRung replays steps over loopback HTTP to an in-process server
// and returns the recorded reads' latencies in µs. With a nil tracer it
// is the untraced twin whose read median, against the traced rung's
// spans, gives the tracing overhead.
func loopbackRung(w workloadSpec, ds *dataset, steps []step, tr *tracer, walDir string) ([]float64, error) {
	inst, err := newInstance(w, ds, walDir)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- inst.srv.Serve(l) }()
	defer func() {
		_ = inst.srv.Shutdown(context.Background())
		<-served
	}()
	c := &client{t: loadTarget{url: "http://" + l.Addr().String()}, http: newHTTPClient()}
	defer c.http.CloseIdleConnections()
	var reads []float64
	for i, s := range steps {
		body := s.body(ds)
		var code int
		start := time.Now()
		if tr != nil {
			tr.on = s.recorded
			tr.timed(spanName("http", s.o), i, func() { code, _ = c.post(s.path(), body) })
		} else {
			code, _ = c.post(s.path(), body)
		}
		if s.recorded && s.o.kind == opRead {
			reads = append(reads, float64(time.Since(start).Nanoseconds())/1e3)
		}
		if s.o.kind == opRead && code != http.StatusOK || s.o.kind != opRead && (code == http.StatusOK) != s.accepted {
			return nil, fmt.Errorf("loopback rung: op %d answered HTTP %d, unlike the handler rung", i, code)
		}
	}
	if tr != nil {
		tr.on = false
	}
	return reads, nil
}

// layerRungs replays steps through the layers below the handler, one
// call per layer, each on its own instance: reads through
// pattern.Parse, Engine.Eval, core.NewPlan, Plan.ExecWith and the
// matchers; writes through graph.ReadDeltaJSON, the durable and the
// in-memory Router.Apply, the in-memory Store.Apply and
// IndexSet.ApplyDeltaTx on a private clone. It returns a description of
// every write whose outcome differed from the handler rung's.
func layerRungs(w workloadSpec, ds *dataset, steps []step, tr *tracer, counts *ladderCounts, walDir string) ([]string, error) {
	g, idx := ds.fresh()
	mem := store.New(g, idx)
	defer mem.Close()
	eng, err := runtime.NewFromStore(mem, runtime.Config{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	// Writes: the durable router the handler applies to, and the
	// in-memory router below it.
	var applyDurable, applyMem func(*graph.Delta) error
	var txG *graph.Graph
	var txIdx *access.IndexSet
	if w.mutable() {
		txG, txIdx = ds.fresh()
		g, idx := ds.fresh()
		dr, err := shard.Create(walDir, ds.in, g, idx, w.shards, true)
		if err != nil {
			return nil, err
		}
		defer func() { dr.Close(); _ = dr.CloseDirs() }()
		g, idx = ds.fresh()
		mr, err := shard.New(g, idx, w.shards)
		if err != nil {
			return nil, err
		}
		defer mr.Close()
		// Reads evaluate scatter/gather over the in-memory router, as
		// the sharded daemon does.
		reng, err := runtime.NewFromRouter(mr, runtime.Config{})
		if err != nil {
			return nil, err
		}
		defer reng.Close()
		eng = reng
		applyDurable = func(d *graph.Delta) error { _, err := dr.Apply(d); return err }
		applyMem = func(d *graph.Delta) error { _, err := mr.Apply(d); return err }
	}

	var problems []string
	scratch := core.NewExecScratch()
	for i, s := range steps {
		tr.on = s.recorded
		if s.o.kind == opRead {
			e := ds.pool[s.o.entry]
			tr.timed("pattern.parse", i, func() { _, _ = pattern.Parse(e.text, graph.NewInterner()) })
			if s.hit {
				continue
			}
			q := engineQuery(e)
			q.NeedFootprint = true // the daemon's cache is on
			var res runtime.Result
			tr.timed("runtime.eval", i, func() { res = eng.Eval(context.Background(), q) })
			if res.Err != nil {
				return nil, fmt.Errorf("runtime rung: op %d: %w", i, res.Err)
			}
			if err := fetchAndMatch(tr, i, e, q, mem, scratch, counts); err != nil {
				return nil, err
			}
			continue
		}

		var decodeErr error
		tr.timed("graph.decode", i, func() { _, decodeErr = graph.ReadDeltaJSON(bytes.NewReader(s.body(ds)), ds.in) })
		if decodeErr != nil {
			return nil, fmt.Errorf("graph rung: op %d: %w", i, decodeErr)
		}
		outcomes := map[string]bool{}
		apply := func(name string, fn func(*graph.Delta) error) {
			var err error
			tr.timed(name, i, func() { err = fn(s.o.delta()) })
			outcomes[name] = err == nil
		}
		apply("wal.apply", applyDurable)
		apply("store.apply", func(d *graph.Delta) error { _, err := mem.Apply(d); return err })
		apply("shard.apply", applyMem)
		var tx *access.DeltaResult
		apply("access.apply_tx", func(d *graph.Delta) error {
			var err error
			tx, err = txIdx.ApplyDeltaTx(txG, d)
			return err
		})
		if tx != nil && s.recorded {
			counts.txApplied++
			counts.touched += len(tx.Touched)
		}
		for name, ok := range outcomes {
			if ok != s.accepted {
				problems = append(problems, fmt.Sprintf("ladder op %d: %s accepted=%v but the handler rung's accepted=%v", i, name, ok, s.accepted))
			}
		}
	}
	tr.on = false
	return problems, nil
}

// fetchAndMatch replays a read's evaluation one layer at a time on the
// in-memory store's current snapshot: planning, the bounded fetch, and
// matching inside the fetched subgraph.
func fetchAndMatch(tr *tracer, i int, e poolEntry, q runtime.Query, mem *store.Store, scratch *core.ExecScratch, counts *ladderCounts) error {
	var p *core.Plan
	var err error
	tr.timed("core.plan", i, func() { p, err = core.NewPlan(e.q, mem.Schema(), e.sem) })
	if err != nil {
		return fmt.Errorf("core rung: plan: %w", err)
	}
	snap := mem.Acquire()
	defer snap.Release()
	var bg *core.BoundedGraph
	var st *core.ExecStats
	tr.timed("core.fetch", i, func() {
		bg, st, err = p.ExecWith(snap.G, snap.Idx, &core.ExecConfig{Frozen: snap.Fz, Scratch: scratch, Footprint: core.NewFootprint()})
	})
	if err != nil {
		return fmt.Errorf("core rung: fetch: %w", err)
	}
	answers := 0
	if e.sem == core.Subgraph {
		var sub *match.SubgraphResult
		tr.timed("match.vf2", i, func() { sub = match.VF2WithCandidatesFrozen(p.Q, bg.G, bg.G.Freeze(), bg.Cands, q.Sub) })
		answers = sub.Count
		if tr.on {
			counts.vf2Runs++
			counts.vf2Steps += sub.Steps
		}
	} else {
		var sim *match.SimResult
		tr.timed("match.gsim", i, func() { sim = match.GSimWithCandidates(p.Q, bg.G, bg.Cands) })
		answers = sim.Pairs()
	}
	if tr.on {
		counts.fetches++
		counts.accessed += st.Accessed()
		counts.lookups += st.IndexLookups
		counts.answers += answers
	}
	return nil
}

// computeLadder derives the per-layer metrics from the spans. A layer's
// self time is its rung's median minus the median of the rung below it,
// where a rung's per-op time is the sum of the calls it makes for that
// op (0 for an op that never reaches it). The read rungs form a chain
//
//	http.query ⊃ server.query ⊃ parse+eval ⊃ parse+fetch+match ⊃ parse+fetch ⊃ parse
//
// so the read self times sum to the traced loopback rung's median
// exactly. That median minus untracedQuery, the untraced twin's, is the
// tracing overhead.
func computeLadder(out map[string]float64, spans []span, c ladderCounts, sharded bool, untracedQuery float64) {
	perOp := map[int]map[string]float64{}
	byName := map[string][]float64{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		if perOp[s.Op] == nil {
			perOp[s.Op] = map[string]float64{}
		}
		perOp[s.Op][s.Name] += d
		byName[s.Name] = append(byName[s.Name], d)
	}
	// rung returns the per-op sums of the named spans over the ops that
	// have a span named root.
	rung := func(root string, names ...string) []float64 {
		var xs []float64
		for _, m := range perOp {
			if _, ok := m[root]; !ok {
				continue
			}
			v := 0.0
			for _, n := range names {
				v += m[n]
			}
			xs = append(xs, v)
		}
		return xs
	}
	med := func(root string, names ...string) float64 { return median(rung(root, names...)) }

	out["http.query_self_us"] = med("http.query", "http.query") - med("http.query", "server.query")
	out["server.query_self_us"] = med("http.query", "server.query") - med("http.query", "pattern.parse", "runtime.eval")
	out["runtime.eval_self_us"] = med("http.query", "pattern.parse", "runtime.eval") - med("http.query", "pattern.parse", "core.fetch", "match.vf2", "match.gsim")
	out["match.self_us"] = med("http.query", "pattern.parse", "core.fetch", "match.vf2", "match.gsim") - med("http.query", "pattern.parse", "core.fetch")
	out["core.fetch_us"] = med("http.query", "pattern.parse", "core.fetch") - med("http.query", "pattern.parse")
	out["pattern.parse_us"] = med("http.query", "pattern.parse")
	out["trace.loopback_query_us"] = untracedQuery
	out["trace.overhead_us"] = med("http.query", "http.query") - untracedQuery

	out["http.update_self_us"] = med("http.update", "http.update") - med("http.update", "server.update")
	out["server.update_self_us"] = med("http.update", "server.update") - med("http.update", "graph.decode", "wal.apply")
	out["wal.apply_sync_us"] = med("http.update", "graph.decode", "wal.apply") - med("http.update", "graph.decode", "shard.apply")

	// Single-call medians, over the ops that made the call.
	for metric, name := range map[string]string{
		"core.plan_us":          "core.plan",
		"match.vf2_us":          "match.vf2",
		"match.gsim_us":         "match.gsim",
		"graph.delta_decode_us": "graph.decode",
		"store.apply_us":        "store.apply",
		"access.apply_tx_us":    "access.apply_tx",
		"shard.apply_us":        "shard.apply",
	} {
		out[metric] = median(byName[name])
	}
	out["shard.query_eval_us"] = 0
	if sharded {
		out["shard.query_eval_us"] = median(byName["runtime.eval"])
	}

	per := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out["core.accessed_per_query"] = per(c.accessed, c.fetches)
	out["core.accessed_per_answer"] = per(c.accessed, c.answers)
	out["core.index_lookups_per_query"] = per(c.lookups, c.fetches)
	out["match.vf2_steps_per_query"] = per(c.vf2Steps, c.vf2Runs)
	out["access.touched_rows_per_delta"] = per(c.touched, c.txApplied)
}
