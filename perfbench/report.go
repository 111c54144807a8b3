package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"boundedg/internal/core"
	"boundedg/internal/server"
)

// stamp records what two reports must share to be comparable.
type stamp struct {
	Revision         string  `json:"revision"`
	GoVersion        string  `json:"go_version"`
	GOMAXPROCSBench  int     `json:"gomaxprocs_bench"`
	GOMAXPROCSDaemon int     `json:"gomaxprocs_daemon"`
	NProc            int     `json:"nproc"`
	Dataset          string  `json:"dataset"`
	Scale            float64 `json:"scale"`
	Seed             int64   `json:"seed"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Constraints      int     `json:"constraints"`
	PoolSize         int     `json:"pool_size"`
	PoolSubgraph     int     `json:"pool_subgraph"`
	PoolSimulation   int     `json:"pool_simulation"`
	QueryLimit       int     `json:"query_limit"`
	Clients          int     `json:"clients"`
	Loop             string  `json:"loop"`
	WriteFrac        float64 `json:"write_frac"`
	Shards           int     `json:"shards"`
	WALFilesystem    string  `json:"wal_filesystem"`
	Fsync            string  `json:"fsync"`
}

// latency summarizes one op class's client-observed latencies in µs.
// Tail percentiles are diagnostics: with two clients a single stall
// moves them from run to run.
type latency struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_us"`
	P90     float64 `json:"p90_us"`
	P99     float64 `json:"p99_us"`
	P999    float64 `json:"p99_9_us"`
	Max     float64 `json:"max_us"`
	// Beyond counts the samples above each tail percentile; a tail
	// figure with fewer than ten is noise.
	BeyondP99  int `json:"beyond_p99"`
	BeyondP999 int `json:"beyond_p99_9"`
}

func summarize(lat []float64) latency {
	l := latency{Samples: len(lat), P50: quantile(lat, 0.5), P90: quantile(lat, 0.9),
		P99: quantile(lat, 0.99), P999: quantile(lat, 0.999), Max: quantile(lat, 1)}
	for _, v := range lat {
		if v > l.P99 {
			l.BeyondP99++
		}
		if v > l.P999 {
			l.BeyondP999++
		}
	}
	return l
}

// report is everything one run measured. Its JSON is printed before the
// result line.
type report struct {
	Workload string `json:"workload"`
	Seconds  int    `json:"seconds"`
	Stamp    stamp  `json:"stamp"`

	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	// AnswersChecked is how many distinct reads were compared with an
	// in-process evaluation.
	AnswersChecked int `json:"answers_checked"`

	// Status tallies every op by class and status.
	Status       map[string]map[string]uint64 `json:"status"`
	Read         latency                      `json:"read_latency"`
	Write        latency                      `json:"write_latency"`
	SetupSeconds []float64                    `json:"setup_seconds"`
	// SubWindows are the measured window's half-second slices. The
	// end-to-end latency, throughput and CPU figures cover the
	// QuietWindows of them that quietWindows keeps.
	SubWindows   []subWindow `json:"sub_windows"`
	QuietWindows int         `json:"quiet_windows"`

	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	// SpanFile holds the traced run's spans.
	SpanFile string `json:"span_file,omitempty"`
}

func newReport(cfg config, ds *dataset, dir string) *report {
	w := cfg.workload
	st := stamp{
		Revision:         revision(),
		GoVersion:        runtime.Version(),
		GOMAXPROCSBench:  runtime.GOMAXPROCS(0),
		GOMAXPROCSDaemon: runtime.GOMAXPROCS(0),
		NProc:            runtime.NumCPU(),
		Dataset:          datasetName,
		Scale:            datasetScale,
		Seed:             cfg.seed,
		Nodes:            ds.g.NumNodes(),
		Edges:            ds.g.NumEdges(),
		Constraints:      ds.schema.Count(),
		PoolSize:         len(ds.pool),
		QueryLimit:       queryLimit,
		Clients:          clients,
		Loop:             "closed",
		WriteFrac:        w.writeFrac,
		Shards:           w.shards,
		WALFilesystem:    "none",
		Fsync:            "none (read-only daemon)",
	}
	for _, e := range ds.pool {
		if e.sem == core.Subgraph {
			st.PoolSubgraph++
		} else {
			st.PoolSimulation++
		}
	}
	if w.mutable() {
		st.WALFilesystem = fsType(dir)
		st.Fsync = "one fsync per group commit (boundedgd -fsync default)"
	}
	return &report{
		Workload:    w.name,
		Seconds:     cfg.seconds,
		Stamp:       st,
		Correct:     true,
		EndToEnd:    map[string]float64{},
		Diagnostics: map[string]float64{},
	}
}

// revision names the code under test: a hash of the Go sources and
// module files under the working directory, plus the git commit when the
// working directory is a repository's root.
func revision() string {
	rev := "tree-sha256:" + treeHash()
	if _, err := os.Stat(".git"); err != nil {
		return rev
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if parent, err := filepath.Abs(".."); err == nil {
		// Never let git search above the working directory.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+parent)
	}
	if out, err := cmd.Output(); err == nil {
		rev += " git:" + strings.TrimSpace(string(out))
	}
	return rev
}

// treeHash hashes every .go, go.mod and go.sum file under the working
// directory, skipping hidden directories.
func treeHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// subWindow is one slice (subsPerSecond to a second) of the measured
// window.
type subWindow struct {
	Seconds   float64 `json:"seconds"`
	Ops       int     `json:"ops"`
	CPUUs     float64 `json:"cpu_us"` // the daemon's CPU time
	ReadP50   float64 `json:"read_p50_us"`
	RSSMiB    float64 `json:"rss_mb"`
	StealFrac float64 `json:"steal_frac"`
}

// stealQuiet is the share of the host's CPU time the hypervisor may have
// stolen in a sub-window for it to count as quiet.
const stealQuiet = 0.03

// quietWindows returns the indexes of the sub-windows whose steal share
// is at most stealQuiet or, when fewer than half are that quiet, of the
// least-stolen half. On a shared host, a second in which other tenants
// take the CPU slows every layer at once, by more than the stolen share
// itself; keeping those seconds out of the end-to-end figures keeps
// other tenants out of them. A run disturbed from start to end stays
// disturbed.
func quietWindows(sws []subWindow) []int {
	idx := make([]int, len(sws))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sws[idx[a]].StealFrac < sws[idx[b]].StealFrac })
	n := 0
	for n < len(idx) && sws[idx[n]].StealFrac <= stealQuiet {
		n++
	}
	return idx[:max(n, (len(idx)+1)/2)]
}

func (r *report) addLoad(lr *loadResult, marks []windowMark) {
	r.Attempted, r.Failed = lr.attempted(), lr.failed()
	r.Status = map[string]map[string]uint64{}
	for class, t := range map[string]*classTally{"read": &lr.read, "write": &lr.write} {
		if t.Attempted == 0 {
			continue
		}
		m := map[string]uint64{}
		for i, n := range t.Status {
			m[statusNames[i]] = n
		}
		m["wrong_answer"] = t.Wrong
		r.Status[class] = m
	}
	if lr.read.Failed > 0 {
		r.problem("reads failed: every read must answer 200 with the right answer")
	}
	if lr.write.Failed > 0 {
		r.problem("writes failed: transport error, 5xx, a status outside {200, 409, 422}, or an epoch running backwards")
	}
	r.Read, r.Write = summarize(lr.read.latencies()), summarize(lr.write.latencies())

	for k, d := range lr.subWindows {
		reads := lr.read.window(k)
		sw := subWindow{
			Seconds: d.Seconds(),
			Ops:     len(reads) + len(lr.write.window(k)),
			CPUUs:   float64((marks[k+1].cpu - marks[k].cpu).Microseconds()),
			ReadP50: median(reads),
			RSSMiB:  marks[k+1].rssMiB,
		}
		if dt := marks[k+1].hostTotal - marks[k].hostTotal; dt > 0 {
			sw.StealFrac = float64(marks[k+1].steal-marks[k].steal) / float64(dt)
		}
		r.SubWindows = append(r.SubWindows, sw)
	}
	var ops int
	var secs, cpu float64
	var reads []float64
	for _, k := range quietWindows(r.SubWindows) {
		sw := r.SubWindows[k]
		ops, secs, cpu = ops+sw.Ops, secs+sw.Seconds, cpu+sw.CPUUs
		reads = append(reads, lr.read.window(k)...)
		r.QuietWindows++
	}
	first, last := marks[0], marks[len(marks)-1]
	r.EndToEnd["setup_s"] = median(r.SetupSeconds)
	r.EndToEnd["read_p50_us"] = median(reads)
	r.EndToEnd["ops_per_s"] = float64(ops) / secs
	r.EndToEnd["cpu_us_per_op"] = cpu / float64(max(ops, 1))
	r.EndToEnd["rss_peak_mb"] = last.hwmMiB
	r.Diagnostics["window_read_p50_us"] = r.Read.P50
	r.Diagnostics["window_ops_per_s"] = float64(r.Read.Samples+r.Write.Samples) / lr.seconds()
	r.Diagnostics["window_cpu_us_per_op"] = float64((last.cpu - first.cpu).Microseconds()) / float64(max(r.Read.Samples+r.Write.Samples, 1))
	r.Diagnostics["write_p50_us"] = r.Write.P50
	r.Diagnostics["failed_frac"] = float64(r.Failed) / float64(max(r.Attempted, 1))

	r.PerLayer = statsLayer(first, last, lr)
}

// statsLayer derives the per-layer metrics that come from the daemon's
// own /stats counters over the measured window.
func statsLayer(m0, m1 windowMark, lr *loadResult) map[string]float64 {
	s0, s1 := m0.stats, m1.stats
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	hits := s1.Cache.Hits - s0.Cache.Hits
	lookups := hits + s1.Cache.Misses - s0.Cache.Misses
	applied := s1.Updates.Applied - s0.Updates.Applied
	batches := s1.Updates.Batches - s0.Updates.Batches
	rejected := s1.Updates.RejectedViolation + s1.Updates.RejectedError - s0.Updates.RejectedViolation - s0.Updates.RejectedError
	syncs, walBytes := walTotals(s1)
	syncs0, walBytes0 := walTotals(s0)
	syncs -= syncs0
	walBytes -= walBytes0
	steal := 0.0
	if dt := m1.hostTotal - m0.hostTotal; dt > 0 {
		steal = float64(m1.steal-m0.steal) / float64(dt)
	}
	return map[string]float64{
		"server.query_handle_p50_us":       float64(s1.Latency.Query.P50Ns) / 1e3,
		"server.update_handle_p50_us":      float64(s1.Latency.Update.P50Ns) / 1e3,
		"server.cache_hit_rate":            ratio(hits, lookups),
		"server.cache_reval_rate":          ratio(s1.Cache.Revalidated-s0.Cache.Revalidated, hits),
		"server.cache_recomputed_per_read": ratio(s1.Cache.Recomputed-s0.Cache.Recomputed, lookups),
		"runtime.failed_frac":              ratio(s1.Engine.Failed-s0.Engine.Failed, s1.Engine.Completed-s0.Engine.Completed),
		"store.deltas_per_batch":           ratio(applied, batches),
		"store.reject_frac":                ratio(rejected, applied+rejected),
		"wal.syncs_per_delta":              ratio(syncs, applied),
		"wal.bytes_per_delta":              ratio(walBytes, applied),
		"wal.bytes_per_user_byte":          ratio(walBytes, lr.userBytes),
		"shard.txns_per_batch":             ratio(s1.Updates.ShardTxns-s0.Updates.ShardTxns, batches),
		"host.steal_frac":                  steal,
	}
}

// walTotals sums fsyncs and log bytes over the daemon's WAL, or over
// every shard's WAL on a sharded daemon.
func walTotals(s server.StatsResponse) (syncs, bytes uint64) {
	if len(s.Shards) == 0 {
		return s.WAL.Syncs, uint64(s.WAL.Offset)
	}
	for _, sh := range s.Shards {
		syncs += sh.WAL.Syncs
		bytes += uint64(sh.WAL.Offset)
	}
	return syncs, bytes
}

// maxProblems caps the problems a report lists; the count of the rest
// is given instead.
const maxProblems = 20

func (r *report) addChecks(checked int, problems []string) {
	r.AnswersChecked = checked
	for i, p := range problems {
		if i == maxProblems {
			r.problem(fmt.Sprintf("... and %d more", len(problems)-maxProblems))
			break
		}
		r.problem(p)
	}
	if checked == 0 {
		r.problem("no answer was checked against an in-process evaluation")
	}
}

func (r *report) problem(p string) {
	r.Correct = false
	r.Problems = append(r.Problems, p)
}

func (r *report) addLadder(lad *ladder) {
	for k, v := range lad.metrics {
		r.PerLayer[k] = v
	}
	r.SpanFile = lad.spanFile
	for _, p := range lad.problems {
		r.problem(p)
	}
}
