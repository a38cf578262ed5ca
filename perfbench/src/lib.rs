//! Benchmark of the STATS runtime on real threads.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload and
//! prints, as its last line, one JSON object with the correctness counts
//! and either the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `perfbench/METRICS.md` defines every metric.

#![deny(missing_docs)]

pub mod host;
pub mod probe;
pub mod seed;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// Every workload the benchmark runs.
pub const WORKLOADS: [&str; 3] = ["paper_batch", "fine_grain", "offline_tune"];

/// End-to-end metrics (name, unit), printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("ref_throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), printed by every traced run. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.capacity", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("request.p99_ms", "ms"),
    ("workloads.swaptions.spec_inputs_per_s", "1/s"),
    ("workloads.swaptions.seq_inputs_per_s", "1/s"),
    ("workloads.streamclassifier.spec_inputs_per_s", "1/s"),
    ("workloads.streamclassifier.seq_inputs_per_s", "1/s"),
    ("workloads.streamcluster.spec_inputs_per_s", "1/s"),
    ("workloads.streamcluster.seq_inputs_per_s", "1/s"),
    ("workloads.fluidanimate.spec_inputs_per_s", "1/s"),
    ("workloads.fluidanimate.seq_inputs_per_s", "1/s"),
    ("workloads.bodytrack.spec_inputs_per_s", "1/s"),
    ("workloads.bodytrack.seq_inputs_per_s", "1/s"),
    ("workloads.facedet.spec_inputs_per_s", "1/s"),
    ("workloads.facedet.seq_inputs_per_s", "1/s"),
    ("workloads.kernel_calls", "count"),
    ("workloads.kernel_busy_s", "s"),
    ("protocol.aux_calls", "count"),
    ("protocol.aux_busy_s", "s"),
    ("protocol.validate_calls", "count"),
    ("protocol.validate_busy_s", "s"),
    ("protocol.validate_match_ratio", "ratio"),
    ("protocol.reexecutions", "count"),
    ("protocol.commit_ratio", "ratio"),
    ("protocol.squashed_work_frac", "frac"),
    ("protocol.group_self_frac", "frac"),
    ("protocol.quality_gap", "error"),
    ("runtime.run_us.p50", "us"),
    ("runtime.run_us.tail", "us"),
    ("runtime.dispatch_us", "us"),
    ("runtime.coord_self_frac", "frac"),
    ("resolver.tail_us", "us"),
    ("pool.jobs", "count"),
    ("pool.steals", "count"),
    ("pool.idle_frac", "frac"),
    ("dag.node_validations", "count"),
    ("dag.node_abort_ratio", "ratio"),
    ("dag.windowed_join.pooled_us", "us"),
    ("dag.gameloop.pooled_us", "us"),
    ("dag.ensemble.pooled_us", "us"),
    ("session.push_wait_us", "us"),
    ("session.finish_us", "us"),
    ("replay.record_overhead_frac", "frac"),
    ("replay.log_bytes", "bytes"),
    ("replay.replay_us", "us"),
    ("replay.divergences", "count"),
    ("serve.trace_overhead_frac", "frac"),
    ("serve.saturation_jobs_per_s", "jobs/s"),
    ("serve.lat_lo.p50_ms", "ms"),
    ("serve.lat_lo.p99_ms", "ms"),
    ("serve.lat_hi.p50_ms", "ms"),
    ("serve.lat_hi.p99_ms", "ms"),
    ("serve.push_us.p50", "us"),
    ("serve.push_us.tail", "us"),
    ("serve.finish_wait_ms.p50", "ms"),
    ("serve.finish_wait_ms.tail", "ms"),
    ("serve.fast_path_ratio", "ratio"),
    ("serve.dispatch_rounds", "count"),
    ("serve.spilled_inputs", "count"),
    ("serve.spilled_segments", "count"),
    ("serve.slo_miss_frac", "frac"),
    ("loadgen.lag_ms.p50", "ms"),
    ("loadgen.lag_ms.max", "ms"),
    ("loadgen.max_open_tenants", "count"),
    ("compiler.frontend_us", "us"),
    ("compiler.midend_us", "us"),
    ("compiler.instantiate_us", "us"),
    ("bytecode.lower_us", "us"),
    ("bytecode.call_ns", "ns"),
    ("bytecode.reused_call_ns", "ns"),
    ("profiler.measure_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("autotune.overhead_frac", "frac"),
    ("autotune.tuned_speedup_sim", "ratio"),
];

/// Correctness checks of one run. Every timed operation carries one check
/// (its result against the reference), and each check made after the
/// timed window counts once.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Failed checks over checks made.
    pub fn failure_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metric values by name (see [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (see [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Correctness checks.
    pub checks: Checks,
    /// The workload's own figures under their descriptive names, with
    /// units, printed before the result line.
    pub summary: Vec<(String, f64, String)>,
    /// The host's 2-thread against 1-thread spin rate before the window.
    pub capacity: f64,
}

impl Report {
    /// Set per-layer metric `name`, which must be listed in [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let (listed, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unlisted per-layer metric {name}"));
        self.layers.insert(listed, value);
    }

    /// Add a summary line.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.summary.push((name.into(), value, unit.to_string()));
    }
}

/// Formats a metric value as a JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: correctness counts plus the metrics `list` selects.
pub fn result_json(
    checks: &Checks,
    list: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    )
}
