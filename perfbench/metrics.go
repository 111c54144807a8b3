package main

import (
	"fmt"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; TestBenchmarkJSONMatchesMetrics keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the daemon sees, measured with
// tracing off over the closed-loop window. Every workload reports every
// one of them, so write latency (absent on the read-only workloads) is a
// diagnostic, not an end-to-end metric; on the mixed workload writes
// show in ops_per_s and cpu_us_per_op.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"read_p50_us", "us", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer are the traced run's layer metrics: ladder self times and
// counts, and /stats deltas of the end-to-end window. A metric reads 0 on
// a workload that never reaches its layer.
var perLayer = []metricDef{
	{"http.query_self_us", "us", "lower"},
	{"http.update_self_us", "us", "lower"},
	{"server.query_self_us", "us", "lower"},
	{"server.update_self_us", "us", "lower"},
	{"server.query_handle_p50_us", "us", "lower"},
	{"server.update_handle_p50_us", "us", "lower"},
	{"server.cache_hit_rate", "ratio", "higher"},
	{"server.cache_reval_rate", "ratio", "higher"},
	{"server.cache_recomputed_per_read", "ratio", "lower"},
	{"pattern.parse_us", "us", "lower"},
	{"runtime.eval_self_us", "us", "lower"},
	{"runtime.failed_frac", "ratio", "lower"},
	{"core.plan_us", "us", "lower"},
	{"core.fetch_us", "us", "lower"},
	{"core.accessed_per_query", "count", "lower"},
	{"core.accessed_per_answer", "ratio", "lower"},
	{"core.index_lookups_per_query", "count", "lower"},
	{"match.self_us", "us", "lower"},
	{"match.vf2_us", "us", "lower"},
	{"match.gsim_us", "us", "lower"},
	{"match.vf2_steps_per_query", "count", "lower"},
	{"graph.delta_decode_us", "us", "lower"},
	{"access.apply_tx_us", "us", "lower"},
	{"access.touched_rows_per_delta", "count", "lower"},
	{"store.apply_us", "us", "lower"},
	{"store.deltas_per_batch", "ratio", "higher"},
	{"store.reject_frac", "ratio", "lower"},
	{"wal.apply_sync_us", "us", "lower"},
	{"wal.syncs_per_delta", "ratio", "lower"},
	{"wal.bytes_per_delta", "B", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"shard.apply_us", "us", "lower"},
	{"shard.txns_per_batch", "ratio", "lower"},
	{"shard.query_eval_us", "us", "lower"},
	{"host.steal_frac", "ratio", "lower"},
	{"trace.loopback_query_us", "us", "lower"},
	{"trace.overhead_us", "us", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the defs' metrics from values, keyed by name. Every def
// must have a value: a layer the workload never reaches reports an
// explicit 0, so a metric the code forgot to compute is an error.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if missing != nil {
		return nil, fmt.Errorf("metrics not computed: %s", strings.Join(missing, ", "))
	}
	return out, nil
}
