//! `paper_batch`: the paper's six workloads, each speculated on the pool
//! (`StateDependence::run`) and run through the sequential reference
//! (`SpecConfig::sequential()`) on the same inputs.

use std::sync::Arc;

use perfbench::{seed, stats, Checks, Report};
use stats_core::prelude::*;
use stats_core::GroupResolution;
use stats_workloads::{with_workload, BenchmarkId, Workload, WorkloadSpec};

use crate::common::{self, Args, Batch, Op, ReportTotals, RunStats, Runner};

/// Instance size, group size, and runs of each arm per round, at scale 1.
/// Sized so that each instance takes at most about 120 ms sequentially on
/// a 2-vCPU host and none dominates the wall time; every instance has 16
/// groups. Streamclassifier stays at 2048 inputs because its output-error
/// metric is quadratic in the points classified; it runs more often per
/// round instead, so its median rests on as many samples as its time.
pub const CASES: [(BenchmarkId, usize, usize, usize); 6] = [
    (BenchmarkId::Swaptions, 4096, 256, 1),
    (BenchmarkId::StreamClassifier, 2048, 128, 8),
    (BenchmarkId::StreamCluster, 16384, 1024, 1),
    (BenchmarkId::FluidAnimate, 1024, 64, 1),
    (BenchmarkId::BodyTrack, 512, 32, 1),
    (BenchmarkId::FaceDet, 4096, 256, 1),
];

/// The run seed of the protocol (fixed; the inputs carry the workload seed).
const RUN_SEED: u64 = 0x5747_5453;

/// One workload instance: speculated under the ParStats-shaped
/// configuration against `SpecConfig::sequential()`, with its output error
/// measured against the workload's ground truth.
fn case<W: Workload + 'static>(
    workload: W,
    id: BenchmarkId,
    inputs: usize,
    group: usize,
    seed: u64,
) -> Box<dyn Op>
where
    <W::T as StateTransition>::Output: PartialEq,
{
    let spec = WorkloadSpec {
        inputs,
        seed: seed::derive(seed, id.name()),
        representative: true,
        scale: 1,
    };
    let instance = workload.instance(&spec);
    let defaults = TradeoffBindings::defaults(&workload.tradeoffs());
    let spec_config = SpecConfig {
        group_size: group,
        window: 2,
        max_reexec: 3,
        rollback: 2,
        orig_bindings: defaults.clone(),
        aux_bindings: defaults.clone(),
        ..SpecConfig::default()
    };
    let seq_config = SpecConfig {
        orig_bindings: defaults.clone(),
        aux_bindings: defaults,
        ..SpecConfig::sequential()
    };
    let run = Runner {
        inputs: instance.inputs,
        initial: instance.initial,
        transition: Arc::new(instance.transition),
    };
    Box::new(
        Batch::new(
            id.name(),
            run,
            RunOptions::default().config(spec_config).seed(RUN_SEED),
            RunOptions::default().config(seq_config).seed(RUN_SEED),
        )
        .with_quality(Box::new(move |outputs| {
            workload.output_error(&spec, outputs)
        })),
    )
}

fn build(seed: u64) -> Vec<Box<dyn Op>> {
    CASES
        .iter()
        .map(|&(id, inputs, group, _)| with_workload!(id, |w| case(w, id, inputs, group, seed)))
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut setup, (mut cases, pool)) =
        common::timed_setup(|| Ok((build(args.seed), Arc::new(ThreadPool::new(2)))))?;
    let capacity = perfbench::host::warm_up();

    let mut checks = Checks::default();
    let mut rs = RunStats::default();
    let (plain, traced) = common::rounds(args, &mut setup, |is_traced| {
        for (case, &(.., runs)) in cases.iter_mut().zip(&CASES) {
            for _ in 0..runs {
                case.pooled(&pool, is_traced, &mut rs, &mut checks);
                case.seq(is_traced, &mut checks);
            }
        }
    })?;

    let mut spec_rates = Vec::new();
    let mut seq_rates = Vec::new();
    let mut samples = 0;
    let mut median_ms = Vec::new();
    let mut p90_ms = Vec::new();
    let mut tail_ms = Vec::new();
    let mut gaps = Vec::new();
    let mut totals = ReportTotals::default();
    for case in cases.iter_mut() {
        let inputs = case.inputs() as f64;
        let spec_rate = inputs / stats::median(case.pooled_secs());
        let seq_rate = inputs / stats::median(case.seq_secs());
        let finished = case.finish(&mut checks);
        let (spec_err, seq_err) = finished.errors.expect("paper cases measure quality");
        let spec_report = finished.report;
        let name = case.name();
        let ms: Vec<f64> = case.pooled_secs().iter().map(|s| s * 1e3).collect();
        spec_rates.push(spec_rate);
        seq_rates.push(seq_rate);
        samples += ms.len();
        median_ms.push(stats::median(&ms));
        p90_ms.push(stats::percentile(&ms, 90.0));
        let (tail, tail_p) = stats::tail(&ms);
        tail_ms.push(tail);
        gaps.push(spec_err - seq_err);
        totals.add(&spec_report);
        let committed = spec_report
            .groups
            .iter()
            .filter(|g| matches!(g.resolution, GroupResolution::Committed { .. }))
            .count();
        report.note(format!("{name}.spec_inputs_per_s"), spec_rate, "inputs/s");
        report.note(format!("{name}.seq_inputs_per_s"), seq_rate, "inputs/s");
        report.note(format!("{name}.pooled_run_ms.p{tail_p}"), tail, "ms");
        report.note(format!("{name}.quality_gap"), spec_err - seq_err, "error");
        report.note(
            format!("{name}.committed_groups"),
            committed as f64,
            &format!(
                "of {} (aborted={})",
                spec_report.groups.len(),
                spec_report.aborted
            ),
        );
        if args.trace {
            report.layer(&format!("workloads.{name}.spec_inputs_per_s"), spec_rate);
            report.layer(&format!("workloads.{name}.seq_inputs_per_s"), seq_rate);
        }
    }
    let quality_gap = stats::mean(&gaps);
    report.note("quality_gap", quality_gap, "error");

    report.e2e.insert("setup_s", setup.setup_s());
    report
        .e2e
        .insert("throughput_per_s", stats::geomean(&spec_rates));
    report
        .e2e
        .insert("ref_throughput_per_s", stats::geomean(&seq_rates));
    // The six workloads' run times differ by an order of magnitude, so the
    // typical run is the geometric mean of their medians, and the tail the
    // geometric mean of their own p90s: a slower tail in any one workload
    // moves it.
    report.e2e.insert("p50_ms", stats::geomean(&median_ms));
    report.e2e.insert("p90_ms", stats::geomean(&p90_ms));
    report.note("rounds", plain.len() as f64, "untraced rounds");
    report.note("pooled_runs", samples as f64, "samples");

    if args.trace {
        report.layer(
            "trace.overhead_frac",
            common::overhead_frac(&plain, &traced),
        );
        report.layer("protocol.quality_gap", quality_gap);
        report.layer("request.p99_ms", stats::geomean(&tail_ms));
        totals.report(&mut report);
        rs.report(&mut report);
        common::report_leaves_and_spans(&mut report);
    }
    report.capacity = capacity;
    report.checks = checks;
    Ok(report)
}
