package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"

	"boundedg/internal/core"
	"boundedg/internal/graph"
	"boundedg/internal/match"
	"boundedg/internal/runtime"
	"boundedg/internal/server"
	"boundedg/internal/store"
)

// answer is the comparable part of a /query answer: the match rows or
// the simulation relation, with the count and completeness flags.
type answer struct {
	Vars     []string
	Matches  [][]graph.NodeID
	Count    int
	Complete bool
	Sim      map[string][]graph.NodeID
	Pairs    int
}

// decodeAnswer parses the answer part of a /query body (see answerPart).
func decodeAnswer(part []byte) (answer, error) {
	var r server.QueryResponse
	if err := json.Unmarshal(append(append([]byte(nil), part...), '}'), &r); err != nil {
		return answer{}, fmt.Errorf("decode answer: %w", err)
	}
	return normalize(answer{Vars: r.Vars, Matches: r.Matches, Count: r.Count, Complete: r.Complete, Sim: r.Sim, Pairs: r.Pairs}), nil
}

// engineQuery is the runtime query the daemon runs for a pool entry.
func engineQuery(e poolEntry) runtime.Query {
	limit := queryLimit
	if e.sem == core.Simulation {
		limit = 0 // the server folds the limit out of simulation queries
	}
	return runtime.Query{
		Pattern: e.q,
		Sem:     e.sem,
		Sub:     match.SubgraphOptions{StoreMatches: true, MaxMatches: limit, MaxSteps: serverMaxSteps},
	}
}

// resultAnswer renders an in-process result the way the server does:
// match rows sorted, simulation sets sorted per pattern node.
func resultAnswer(e poolEntry, res runtime.Result) answer {
	a := answer{}
	for _, u := range e.q.Nodes() {
		a.Vars = append(a.Vars, e.q.Name(u))
	}
	switch e.sem {
	case core.Subgraph:
		for _, m := range res.Sub.Matches {
			a.Matches = append(a.Matches, append([]graph.NodeID(nil), m...))
		}
		match.SortMatches(a.Matches)
		a.Count, a.Complete = res.Sub.Count, res.Sub.Completed
	case core.Simulation:
		a.Sim = make(map[string][]graph.NodeID, len(a.Vars))
		for ui, vs := range res.Sim.Sim {
			s := append([]graph.NodeID(nil), vs...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			a.Sim[a.Vars[ui]] = s
		}
		a.Pairs, a.Complete = res.Sim.Pairs(), true
	}
	return normalize(a)
}

// normalize maps empty slices to nil, since JSON omits them.
func normalize(a answer) answer {
	if len(a.Matches) == 0 {
		a.Matches = nil
	}
	for k, v := range a.Sim {
		if len(v) == 0 {
			a.Sim[k] = nil
		}
	}
	if len(a.Sim) == 0 {
		a.Sim = nil
	}
	return a
}

// oracleCheck evaluates each listed pool entry in process on eng and
// compares it with the daemon's answer part. It returns the number of
// entries compared and a description of every mismatch.
func oracleCheck(eng *runtime.Engine, pool []poolEntry, got map[int][]byte) (int, []string) {
	entries := make([]int, 0, len(got))
	for e := range got {
		entries = append(entries, e)
	}
	sort.Ints(entries)
	// Evaluate in small batches: a result holds its fetched subgraph, and
	// thousands of them at once would dwarf the daemon's own footprint.
	const batch = 32
	var bad []string
	for lo := 0; lo < len(entries); lo += batch {
		chunk := entries[lo:min(lo+batch, len(entries))]
		qs := make([]runtime.Query, len(chunk))
		for i, e := range chunk {
			qs[i] = engineQuery(pool[e])
		}
		for i, res := range eng.EvalBatch(context.Background(), qs) {
			if msg := compareAnswer(chunk[i], pool[chunk[i]], got[chunk[i]], res); msg != "" {
				bad = append(bad, msg)
			}
		}
	}
	return len(entries), bad
}

// compareAnswer describes how the daemon's answer part for pool entry e
// differs from the in-process result, or returns "" if they agree.
func compareAnswer(e int, pe poolEntry, part []byte, res runtime.Result) string {
	if res.Err != nil {
		return fmt.Sprintf("entry %d: in-process evaluation failed: %v", e, res.Err)
	}
	have, err := decodeAnswer(part)
	if err != nil {
		return fmt.Sprintf("entry %d: %v", e, err)
	}
	if want := resultAnswer(pe, res); !reflect.DeepEqual(have, want) {
		return fmt.Sprintf("entry %d (%s): daemon answer differs from in-process evaluation (count %d vs %d, complete %v vs %v, pairs %d vs %d)",
			e, pe.sem, have.Count, want.Count, have.Complete, want.Complete, have.Pairs, want.Pairs)
	}
	return ""
}

// checkReadOnly compares every pool entry the load read with an
// in-process evaluation over the same files and limit.
func checkReadOnly(ds *dataset, lr *loadResult) (int, []string, error) {
	g, idx := ds.fresh()
	eng, err := runtime.New(g, idx, runtime.Config{})
	if err != nil {
		return 0, nil, err
	}
	defer eng.Close()
	n, bad := oracleCheck(eng, ds.pool, lr.answers)
	return n, bad, nil
}

// checkMixed verifies a mixed run after the load stopped: replaying the
// accepted writes, in the order the daemon applied them (by epoch, then
// log offset within a group commit), on an
// oracle store over the initial graph must give the daemon's edge count
// (the initial count plus the adds that inserted minus the deletes; the
// daemon accepts a duplicate add as a no-op), and a fresh answer for
// every pool entry must equal an in-process evaluation on the oracle.
func checkMixed(url string, ds *dataset, lr *loadResult) (int, []string, error) {
	var bad []string
	var st server.StatsResponse
	if err := getJSON(url+"/stats", &st); err != nil {
		return 0, nil, err
	}

	writes := append([]acceptedWrite(nil), lr.accepted...)
	sort.Slice(writes, func(i, j int) bool {
		a, b := writes[i], writes[j]
		return a.epoch < b.epoch || a.epoch == b.epoch && a.offset < b.offset
	})
	g, idx := ds.fresh()
	oracle := store.New(g, idx)
	inserted, deleted := 0, 0
	for _, w := range writes {
		snap := oracle.Acquire()
		present := snap.G.HasEdge(w.o.edge[0], w.o.edge[1])
		snap.Release()
		if _, err := oracle.Apply(w.o.delta()); err != nil {
			bad = append(bad, fmt.Sprintf("replaying the write of epoch %d on the oracle: %v", w.epoch, err))
			continue
		}
		switch {
		case w.o.kind == opAdd && !present:
			inserted++
		case w.o.kind == opDel:
			deleted++
		}
	}
	if want := ds.g.NumEdges() + inserted - deleted; st.GraphEdges != want {
		bad = append(bad, fmt.Sprintf("daemon reports %d edges; initial %d + %d inserting adds - %d deletes = %d",
			st.GraphEdges, ds.g.NumEdges(), inserted, deleted, want))
	}
	eng, err := runtime.NewFromStore(oracle, runtime.Config{})
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		eng.Close()
		oracle.Close()
	}()

	got := make(map[int][]byte, len(ds.pool))
	c := &client{t: loadTarget{url: url}, http: newHTTPClient()}
	defer c.http.CloseIdleConnections()
	for i, e := range ds.pool {
		code, raw := c.post("/query", e.body)
		part := answerPart(raw)
		if code != http.StatusOK || part == nil {
			bad = append(bad, fmt.Sprintf("entry %d: post-load read answered HTTP %d", i, code))
			continue
		}
		got[i] = part
	}
	n, more := oracleCheck(eng, ds.pool, got)
	return n, append(bad, more...), nil
}
