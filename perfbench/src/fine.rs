//! `fine_grain`: small pooled runs whose fixed per-run costs (coordinator
//! spawn, dispatch, wake-up, resolve) dominate their work: the three DAG
//! families through `RunOptions::plan`, a segmented batch run, a
//! tiny-transition batch run, and a streamed `Session` with small groups,
//! half of whose runs are recorded and later replayed.

use std::sync::Arc;
use std::time::Instant;

use perfbench::probe::{Arm, Plain, RunSink, Wrapped};
use perfbench::{seed, stats, trace, Checks, Report};
use stats_core::prelude::*;
use stats_workloads::dag::{ensemble, gameloop, windowed_join};

use crate::common::{
    self, same, Args, Batch, Finished, Op, Outcome, ReportTotals, RunStats, Runner,
};

const RUN_SEED: u64 = 0xF1E5;

/// Last-input state with a few hundred nanoseconds of integer work per
/// input, so speculation validates and groups stay short.
pub struct Spin;

impl StateTransition for Spin {
    type Input = u64;
    type State = ExactState<u64>;
    type Output = u64;
    fn compute_output(
        &self,
        input: &u64,
        state: &mut ExactState<u64>,
        ctx: &mut InvocationCtx,
    ) -> u64 {
        let mut acc = *input;
        for _ in 0..64 {
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(*input | 1);
        }
        ctx.charge(1.0);
        state.0 = *input;
        acc
    }
}

/// The smallest transition: almost no work per input.
pub struct Tiny;

impl StateTransition for Tiny {
    type Input = u64;
    type State = ExactState<u64>;
    type Output = u64;
    fn compute_output(
        &self,
        input: &u64,
        state: &mut ExactState<u64>,
        ctx: &mut InvocationCtx,
    ) -> u64 {
        ctx.charge(1.0);
        let out = *input ^ state.0;
        state.0 = *input;
        out
    }
}

/// A batch run whose reference arm is the single-thread protocol under the
/// same options (for plans, `run_protocol_with_options` with no pool).
fn batch<T: StateTransition + 'static>(
    name: &'static str,
    inputs: Vec<T::Input>,
    initial: T::State,
    transition: T,
    options: RunOptions,
) -> Box<dyn Op>
where
    T::Output: PartialEq,
{
    let options = options.seed(RUN_SEED);
    let run = Runner {
        inputs,
        initial,
        transition: Arc::new(transition),
    };
    Box::new(Batch::new(name, run, options.clone(), options))
}

/// Inputs pushed per `push_batch` call of the streamed session.
const CHUNK: usize = 16;

/// A streamed `Session` of [`Spin`]; every other pooled run is recorded
/// through `SessionRecorder` and its log replayed.
struct Stream {
    run: Runner<Spin>,
    options: RunOptions,
    /// The batch protocol's outcome on the same inputs, made during set-up.
    reference: Outcome<u64>,
    /// Pooled runs so far, untraced and traced: odd ones are recorded.
    runs: [usize; 2],
    replay_us: Vec<f64>,
    log_bytes: Vec<f64>,
    divergences: usize,
    plain_secs: Vec<f64>,
    recorded_secs: Vec<f64>,
    seq_secs: Vec<f64>,
    push_wait_us: Vec<f64>,
    finish_us: Vec<f64>,
}

impl Stream {
    fn pooled_arm<A: Arm<Spin>>(
        &mut self,
        pool: &Arc<ThreadPool>,
        record: bool,
    ) -> (Outcome<u64>, Option<Vec<u8>>) {
        let mut options = self.options.clone().pool(Arc::clone(pool));
        let span = A::TRACED.then(|| {
            let request = trace::now_ns();
            let span = trace::begin("session", request, None);
            options = options
                .clone()
                .sink(Arc::new(RunSink::new(request, span)) as Arc<dyn EventSink>);
            span
        });
        let state = A::state(&self.run.initial);
        let transition = A::transition(&self.run.transition);
        let mut push_s = 0.0;
        let start = Instant::now();
        let (out, log) = if record {
            let recorder = SessionRecorder::new(state, transition, options);
            for chunk in self.run.inputs.chunks(CHUNK) {
                let t = Instant::now();
                recorder.push_batch(chunk.iter().copied());
                push_s += t.elapsed().as_secs_f64();
            }
            let t = Instant::now();
            let (out, log) = recorder.finish();
            self.finish_us.push(t.elapsed().as_secs_f64() * 1e6);
            (out, Some(log.to_bytes()))
        } else {
            let session = Session::new(state, transition, options);
            for chunk in self.run.inputs.chunks(CHUNK) {
                let t = Instant::now();
                session.push_batch(chunk.iter().copied());
                push_s += t.elapsed().as_secs_f64();
            }
            let t = Instant::now();
            let out = session.finish();
            self.finish_us.push(t.elapsed().as_secs_f64() * 1e6);
            (out, None)
        };
        let secs = start.elapsed().as_secs_f64();
        self.push_wait_us.push(push_s * 1e6);
        match span {
            Some(span) => trace::end(span),
            None if record => self.recorded_secs.push(secs),
            None => self.plain_secs.push(secs),
        }
        ((out.outputs, out.report, out.trace), log)
    }
}

impl Stream {
    /// Replays a recorded log (untimed): it must be faithful and give the
    /// reference outputs.
    fn replay(&mut self, bytes: &[u8], pool: &Arc<ThreadPool>, checks: &mut Checks) {
        let start = Instant::now();
        let outcome = SessionLog::from_bytes(bytes)
            .map_err(|e| format!("{e:?}"))
            .and_then(|log| {
                replay(
                    &log,
                    ExactState(0u64),
                    Spin,
                    RunOptions::default().pool(Arc::clone(pool)),
                )
                .map_err(|e| format!("{e:?}"))
            });
        self.replay_us.push(start.elapsed().as_secs_f64() * 1e6);
        self.log_bytes.push(bytes.len() as f64);
        let reference = &self.reference.0;
        match outcome {
            Ok(r) => {
                self.divergences +=
                    r.divergences + usize::from(!r.trace_matched) + usize::from(!r.report_matched);
                checks.check(r.is_faithful() && r.outcome.outputs == *reference, || {
                    format!("replay diverged ({} divergences)", r.divergences)
                });
            }
            Err(e) => checks.check(false, || format!("replay failed: {e}")),
        }
    }
}

impl Op for Stream {
    fn name(&self) -> &'static str {
        "session"
    }
    fn inputs(&self) -> usize {
        self.run.inputs.len()
    }
    fn pooled(
        &mut self,
        pool: &Arc<ThreadPool>,
        traced: bool,
        _rs: &mut RunStats,
        checks: &mut Checks,
    ) {
        let record = self.runs[usize::from(traced)] % 2 == 1;
        self.runs[usize::from(traced)] += 1;
        let (out, log) = if traced {
            self.pooled_arm::<Wrapped>(pool, record)
        } else {
            self.pooled_arm::<Plain>(pool, record)
        };
        checks.check(same(&self.reference, &out), || {
            format!("session: streamed run differs from the batch protocol (traced={traced}, recorded={record})")
        });
        if let Some(bytes) = log {
            self.replay(&bytes, pool, checks);
        }
    }
    fn seq(&mut self, traced: bool, checks: &mut Checks) {
        let (secs, out) = self.run.single(&self.options, traced);
        if !traced {
            self.seq_secs.push(secs);
        }
        checks.check(same(&self.reference, &out), || {
            "session: batch reference runs differ".to_string()
        });
    }
    fn finish(&mut self, _checks: &mut Checks) -> Finished {
        Finished {
            report: self.reference.1.clone(),
            errors: None,
        }
    }
    fn pooled_secs(&self) -> &[f64] {
        &self.plain_secs
    }
    fn seq_secs(&self) -> &[f64] {
        &self.seq_secs
    }
}

fn build(seed: u64) -> (Vec<Box<dyn Op>>, Stream) {
    let s = |name: &str| seed::derive(seed, name);
    let ops: Vec<Box<dyn Op>> = vec![
        batch(
            "windowed_join",
            windowed_join::inputs(s("windowed_join"), 3, 48, 24),
            windowed_join::initial(),
            windowed_join::WindowedJoin,
            RunOptions::default()
                .config(windowed_join::config())
                .plan(windowed_join::plan(3, 48, 24)),
        ),
        batch(
            "gameloop",
            gameloop::inputs(s("gameloop"), 3, 24),
            gameloop::initial(),
            gameloop::GameLoop,
            RunOptions::default()
                .config(gameloop::config())
                .plan(gameloop::plan(3, 24)),
        ),
        batch(
            "ensemble",
            ensemble::inputs(s("ensemble"), 8, 4, 32, 16),
            ensemble::initial(),
            ensemble::Ensemble,
            RunOptions::default()
                .config(ensemble::config(8))
                .plan(ensemble::plan(8, 4, 32, 16)),
        ),
        batch(
            "segmented",
            seed::values(seed, "segmented", 1024),
            ExactState(0),
            Spin,
            RunOptions::default()
                .config(SpecConfig {
                    group_size: 32,
                    window: 1,
                    max_reexec: 1,
                    ..SpecConfig::default()
                })
                .segment(256),
        ),
        batch(
            "tiny",
            seed::values(seed, "tiny", 64),
            ExactState(0),
            Tiny,
            RunOptions::default().config(SpecConfig {
                group_size: 8,
                window: 1,
                max_reexec: 1,
                ..SpecConfig::default()
            }),
        ),
    ];
    let run = Runner {
        inputs: seed::values(seed, "session", 256),
        initial: ExactState(0),
        transition: Arc::new(Spin),
    };
    let options = RunOptions::default()
        .config(SpecConfig {
            group_size: 8,
            window: 1,
            max_reexec: 1,
            ..SpecConfig::default()
        })
        .seed(RUN_SEED);
    let (_, reference) = run.single(&options, false);
    let stream = Stream {
        run,
        options,
        reference,
        runs: [0, 0],
        replay_us: Vec::new(),
        log_bytes: Vec::new(),
        divergences: 0,
        plain_secs: common::samples(),
        recorded_secs: common::samples(),
        seq_secs: common::samples(),
        push_wait_us: common::samples(),
        finish_us: common::samples(),
    };
    (ops, stream)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut setup, ((mut ops, mut stream), pool)) =
        common::timed_setup(|| Ok((build(args.seed), Arc::new(ThreadPool::new(2)))))?;
    let capacity = perfbench::host::warm_up();

    let mut checks = Checks::default();
    let mut rs = RunStats::default();
    let (plain, traced) = common::rounds(args, &mut setup, |is_traced| {
        for op in ops.iter_mut() {
            op.seq(is_traced, &mut checks);
            op.pooled(&pool, is_traced, &mut rs, &mut checks);
        }
        stream.seq(is_traced, &mut checks);
        stream.pooled(&pool, is_traced, &mut rs, &mut checks);
    })?;

    // Per-op medians: the runs last 0.1–0.5 ms, so a few scheduler stalls
    // would dominate plain sums of their times.
    let mut all: Vec<&mut dyn Op> = ops
        .iter_mut()
        .map(|o| &mut **o)
        .chain(std::iter::once(&mut stream as &mut dyn Op))
        .collect();
    let inputs: f64 = all.iter().map(|o| o.inputs() as f64).sum();
    let pooled_s: f64 = all.iter().map(|o| stats::median(o.pooled_secs())).sum();
    let seq_s: f64 = all.iter().map(|o| stats::median(o.seq_secs())).sum();
    let mut medians_ms = Vec::new();
    let mut p90s_ms = Vec::new();
    let mut tails_ms = Vec::new();
    let mut totals = ReportTotals::default();
    let mut samples = 0;
    for op in all.iter_mut() {
        totals.add(&op.finish(&mut checks).report);
        let ms: Vec<f64> = op.pooled_secs().iter().map(|s| s * 1e3).collect();
        samples = samples.max(ms.len());
        medians_ms.push(stats::median(&ms));
        p90s_ms.push(stats::percentile(&ms, 90.0));
        tails_ms.push(stats::tail(&ms).0);
        report.note(
            format!("{}.pooled_us", op.name()),
            stats::median(&ms) * 1e3,
            "us",
        );
        report.note(
            format!("{}.pooled_tail_us", op.name()),
            stats::tail(&ms).0 * 1e3,
            "us",
        );
        report.note(
            format!("{}.seq_us", op.name()),
            stats::median(op.seq_secs()) * 1e6,
            "us",
        );
    }
    let spec_rate = inputs / pooled_s;
    let seq_rate = inputs / seq_s;
    report.note("spec_inputs_per_s", spec_rate, "inputs/s");
    report.note("seq_inputs_per_s", seq_rate, "inputs/s");
    report.note("pooled_runs_per_op", samples as f64, "samples");
    report.note(
        "tail_percentile",
        stats::tail_percentile(samples).unwrap_or(100.0),
        "percentile",
    );
    report.note("replayed_logs", stream.log_bytes.len() as f64, "logs");

    report.e2e.insert("setup_s", setup.setup_s());
    report.e2e.insert("throughput_per_s", spec_rate);
    report.e2e.insert("ref_throughput_per_s", seq_rate);
    report.e2e.insert("p50_ms", stats::geomean(&medians_ms));
    report.e2e.insert("p90_ms", stats::geomean(&p90s_ms));

    if args.trace {
        report.layer(
            "trace.overhead_frac",
            common::overhead_frac(&plain, &traced),
        );
        report.layer("request.p99_ms", stats::geomean(&tails_ms));
        for op in ops.iter().take(3) {
            let us = stats::median(op.pooled_secs()) * 1e6;
            report.layer(&format!("dag.{}.pooled_us", op.name()), us);
        }
        report.layer("session.push_wait_us", stats::median(&stream.push_wait_us));
        report.layer("session.finish_us", stats::median(&stream.finish_us));
        report.layer(
            "replay.record_overhead_frac",
            stats::median(&stream.recorded_secs) / stats::median(&stream.plain_secs) - 1.0,
        );
        report.layer("replay.log_bytes", stats::median(&stream.log_bytes));
        report.layer("replay.replay_us", stats::median(&stream.replay_us));
        report.layer("replay.divergences", stream.divergences as f64);
        totals.report(&mut report);
        rs.report(&mut report);
        common::report_leaves_and_spans(&mut report);
        crate::serve::run_open_loop(args, &mut report, &mut checks)?;
    }
    report.capacity = capacity;
    report.checks = checks;
    Ok(report)
}
