// Command perfbench is the repository benchmark: it generates one
// workload's inputs from a seed, drives a real boundedgd daemon over
// loopback HTTP with closed-loop clients, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced in-process replay). Run it through run.sh, which builds the
// daemon and this command from the checkout first:
//
//	bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// the full report (stamp, status tally, tail percentiles, diagnostics).
// README.md next to this file records why each workload exists and
// which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"boundedg/internal/server"
)

// setupRuns is how many times each run starts the daemon to time its
// set-up; setup_s is their median.
const setupRuns = 5

// warmup runs load before the measured window, so the result cache, the
// plan cache and the store's second instance are in steady state.
const warmup = 2 * time.Second

// subsPerSecond is how many sub-windows each second of the measured
// window is cut into; report.go's quietWindows keeps the ones the
// hypervisor stole the least from. Half-second windows are short enough
// to shed a brief steal burst and long enough that the daemon's CPU time,
// counted in 10 ms ticks, is exact to about 2% in each.
const subsPerSecond = 2

// runBudget bounds a whole run; a run that cannot finish in it fails
// rather than overrunning its caller.
const runBudget = 170 * time.Second

type config struct {
	workload workloadSpec
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	work     string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot_reads, cold_reads or sharded_mixed")
		seed    = flag.Int64("seed", 1, "input seed: dataset, read pool and op streams")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced replay; 0 the end-to-end metrics")
		daemon  = flag.String("daemon", "", "boundedgd binary built from this checkout")
		work    = flag.String("work", ".bench_build/run", "directory for generated inputs, WALs and span files")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && *daemon == "" {
		err = fmt.Errorf("-daemon is required")
	}
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemon, work: *work}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// windowMark is the daemon's state at one sub-window boundary of the
// measured window. stats is read only at the window's two ends.
type windowMark struct {
	cpu              time.Duration
	rssMiB, hwmMiB   float64
	hostTotal, steal uint64
	stats            server.StatsResponse
}

func mark(d *daemon, withStats bool) (windowMark, error) {
	var m windowMark
	var err error
	if m.cpu, err = procCPU(d.pid()); err != nil {
		return m, err
	}
	if m.rssMiB, m.hwmMiB, err = procRSS(d.pid()); err != nil {
		return m, err
	}
	m.hostTotal, m.steal = hostCPU()
	if withStats {
		err = getJSON(d.url+"/stats", &m.stats)
	}
	return m, err
}

func run(cfg config) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	w := cfg.workload
	work, err := filepath.Abs(cfg.work)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(work, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds, err := makeDataset(dir, w.poolSeed(cfg.seed), w.poolSize)
	if err != nil {
		return nil, err
	}
	rep := newReport(cfg, ds, dir)

	// Set-up: start the daemon setupRuns times on fresh state, keep the
	// last one for the load.
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		walDir := filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		nd, took, err := startDaemon(ctx, cfg.daemon, w.daemonArgs(ds, walDir))
		if err != nil {
			return nil, err
		}
		rep.SetupSeconds = append(rep.SetupSeconds, took.Seconds())
		if i < setupRuns-1 {
			nd.kill()
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
			continue
		}
		d = nd
	}
	defer d.kill()

	rank := zipfRank(ds.live)
	gens := make([]*opGen, clients)
	for i := range gens {
		gens[i] = newOpGen(w, ds.g, rank, cfg.seed, i)
	}
	bodies := make([][]byte, len(ds.pool))
	for i, e := range ds.pool {
		bodies[i] = e.body
	}
	target := loadTarget{url: d.url, bodies: bodies, in: ds.in, repeats: !w.mutable()}
	subs := cfg.seconds * subsPerSecond
	marks := make([]windowMark, subs+1)
	lr, err := runLoad(target, gens, warmup, time.Duration(cfg.seconds)*time.Second, subs, func(k int) error {
		var err error
		marks[k], err = mark(d, k == 0 || k == subs)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w\ndaemon log:\n%s", err, d.logText())
	}
	rep.addLoad(lr, marks)

	// The mixed checks query the daemon after the load; the read-only
	// check needs only the answers the load collected.
	var checked int
	var problems []string
	if w.mutable() {
		checked, problems, err = checkMixed(d.url, ds, lr)
	}
	d.stop(30 * time.Second)
	if !w.mutable() && err == nil {
		checked, problems, err = checkReadOnly(ds, lr)
	}
	if err != nil {
		return nil, err
	}
	rep.addChecks(checked, problems)

	if cfg.trace {
		lad, err := runLadder(ctx, w, ds, cfg.seed, dir)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		rep.addLadder(lad)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run exceeded its %s budget", runBudget)
	}
	return rep, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func printReport(w io.Writer, rep *report, trace bool) error {
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	defs := endToEnd
	values := rep.EndToEnd
	if trace {
		defs, values = perLayer, rep.PerLayer
	}
	metrics, err := pick(defs, values)
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}
