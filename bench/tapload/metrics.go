package main

// metricDef is one metric as BENCHMARK.json declares it; a test holds the
// two lists to that file. bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// The same five end-to-end metrics on every workload. The timings carry
// the widest bound the driver allows: their ten-run spreads on the
// two-core shared VM the benchmark was sized on were 2-4% in a quiet hour
// and 6-12% in a noisy one (bench/README.md). op_p90_ms reached 16% and
// is a per-layer metric (client.op_p90_ms) for that reason.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
}

// The per-layer metrics of a traced run; the part of the name before the
// dot is the module measured. "client" is the harness's own view.
var perLayer = []metricDef{
	{"wire.append_frame_ns", "ns", "lower", 0},
	{"wire.parse_frame_ns", "ns", "lower", 0},
	{"wire.overhead_ratio", "ratio", "lower", 0},
	{"procnode.encode_ns", "ns", "lower", 0},
	{"procnode.decode_ns", "ns", "lower", 0},
	{"procnode.decode_allocs", "count", "lower", 0},
	{"procnode.deliver_forward_ns", "ns", "lower", 0},
	{"procnode.peels_per_op", "count", "lower", 0},
	{"procnode.retransmits_per_op", "count", "lower", 0},
	{"procnode.park_retries_per_op", "count", "lower", 0},
	{"procnode.anchors_held_per_op", "count", "lower", 0},
	{"core.build_forward_ns", "ns", "lower", 0},
	{"core.build_reply_ns", "ns", "lower", 0},
	{"core.peel_forward_ns", "ns", "lower", 0},
	{"core.peel_reply_ns", "ns", "lower", 0},
	{"crypt.seal_ns", "ns", "lower", 0},
	{"crypt.open_ns", "ns", "lower", 0},
	{"crypt.seal_allocs", "count", "lower", 0},
	{"crypt.sealer_mb_s", "MB/s", "higher", 0},
	{"tha.generate_ns", "ns", "lower", 0},
	{"tcptransport.hop_us", "us", "lower", 0},
	{"tcptransport.hop_ctl_us", "us", "lower", 0},
	{"tcptransport.hop_allocs", "count", "lower", 0},
	{"tcptransport.frames_per_op", "count", "lower", 0},
	{"tcptransport.wire_bytes_per_op", "B", "lower", 0},
	{"tcptransport.drops_per_op", "count", "lower", 0},
	{"tcptransport.dials_per_setup", "count", "lower", 0},
	{"board.register_us", "us", "lower", 0},
	{"board.wait_quorum_us", "us", "lower", 0},
	{"pastry.build_world_ms", "ms", "lower", 0},
	{"pastry.lookup_ns", "ns", "lower", 0},
	{"simnet.event_ns", "ns", "lower", 0},
	{"experiments.deploy_tunnels_ms", "ms", "lower", 0},
	{"experiments.sim_goodput_mbps", "MB/s", "higher", 0},
	{"experiments.sim_fct_p50_s", "s", "lower", 0},
	{"experiments.sim_retx_ratio", "ratio", "lower", 0},
	{"client.op_p90_ms", "ms", "lower", 0},
	{"client.op_p99_ms", "ms", "lower", 0},
	{"client.op_max_ms", "ms", "lower", 0},
	{"client.round_spread", "ratio", "lower", 0},
	{"client.unattributed_us", "us", "lower", 0},
	{"client.trace_overhead", "ratio", "lower", 0},
}

// overRounds is quantile q of the rounds' own values of f: 0 the lowest
// round, 0.5 the median round, 1 the highest.
func overRounds(rounds []roundStats, q float64, f func(roundStats) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return quantile(vals, q)
}

func (r roundStats) latencyQuantile(q float64) float64 { return quantile(r.latMs, q) }

// endToEndValues reduces the untraced rounds to the five metrics. Each
// timing is its best value over the rounds — the most ops per second, the
// lowest p50 and CPU per op — and set-up time the fastest sample: on the
// pinned CPU nothing but the path's own length bounds these from below,
// while a neighbour on the host can stretch any round, so the quietest
// round repeats from run to run where the median round does not
// (bench/README.md has the measurements). The alloc count is not a
// timing and repeats to the fourth digit; it stays a median.
func endToEndValues(rounds []roundStats, setups []float64) map[string]float64 {
	const lowest, middle, highest = 0, 0.5, 1
	return map[string]float64{
		"setup_s":       quantile(setups, lowest),
		"ops_per_s":     overRounds(rounds, highest, roundStats.opsPerS),
		"op_p50_ms":     overRounds(rounds, lowest, func(r roundStats) float64 { return r.latencyQuantile(0.5) }),
		"cpu_ms_per_op": overRounds(rounds, lowest, func(r roundStats) float64 { return r.cpuMs / float64(r.ops) }),
		"allocs_per_op": overRounds(rounds, middle, func(r roundStats) float64 { return float64(r.mallocs) / float64(r.ops) }),
	}
}
