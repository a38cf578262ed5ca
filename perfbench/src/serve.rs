//! Open-loop Poisson tenant jobs against one `SessionServer`, at a low and
//! then a high fixed rate, after a closed-loop phase that measures the
//! server's saturation rate. Part of the traced `fine_grain` run: on a small
//! shared host its latencies move too much between unchanged runs to gate
//! (see METRICS.md), so they are reported per layer.
//!
//! A job opens a tenant, pushes a burst far past the admission window (so
//! inputs spill to disk), and finishes it. Each job is timed from the
//! moment it was due, so a stalled generator shows up as latency, and the
//! generator's own lateness is reported.
//!
//! The generator uses two threads, no more than the host's two cores: the
//! sender, which opens and pushes each job when it is due, and one closer,
//! which finishes jobs in arrival order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use perfbench::probe::{Arm, Plain, RunSink, Wrapped};
use perfbench::{seed, stats, trace, Checks, Report};
use stats_core::prelude::*;

use crate::common::Args;

/// Fixed arrival rates (jobs per second), never derived from the host at
/// run time. They are stated fractions of the server's saturation rate for
/// this job shape, measured on the 2-vCPU host the benchmark was built on:
/// about 2800 jobs/s, the median of seventeen closed-loop runs that
/// ranged from 870 to 4400 jobs/s as the shared host's load changed (every
/// traced run reports its own as `serve.saturation_jobs_per_s`). Open-loop
/// sweeps kept the p99 at 4–13 ms up to 1000 jobs/s on a quiet host, but on
/// a busy one 1000 jobs/s piled tenants up and 600 jobs/s once reached a
/// 19 ms p50. `lo` is 5% of saturation: a lightly loaded server whose
/// workers park between jobs. `hi` is 16%: busy, and below the knee in
/// every sweep.
pub const RATE_LO: f64 = 150.0;
/// See [`RATE_LO`].
pub const RATE_HI: f64 = 450.0;
/// A `hi` job slower than this, failed or refused misses the objective.
/// Four to twelve times the p99 of a server below its knee on the
/// reference host (4–13 ms at 75–1000 jobs/s): a job misses it only when
/// it waits in a backlog, as at 2000 jobs/s, where the p90 was 85 ms.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Sent jobs that may wait for the closer in the saturation phase, which
/// sends every job at once: the server's throughput with this many jobs
/// queued is its saturation rate.
const SATURATION_QUEUE: usize = 8;
/// Jobs per rate: at least 1000, so ten lie beyond the p99.
const MIN_JOBS: usize = 1000;
/// Inputs each job pushes in one burst.
const BURST: usize = 16;

/// Tolerant short-memory state: any value within 0.3 of an original final
/// state validates, so speculation commits and sometimes re-executes.
#[derive(Clone, Debug)]
pub struct ServeState(pub f64);

impl SpecState for ServeState {
    fn matches_any(&self, originals: &[Self]) -> bool {
        originals.iter().any(|o| (o.0 - self.0).abs() < 0.3)
    }
}

/// A noisy last-input transition: cheap, so the server's own costs show.
pub struct ServeLoad;

impl StateTransition for ServeLoad {
    type Input = u64;
    type State = ServeState;
    type Output = f64;
    fn compute_output(&self, input: &u64, state: &mut ServeState, ctx: &mut InvocationCtx) -> f64 {
        ctx.charge(2.0);
        state.0 = *input as f64 + ctx.uniform(-0.1, 0.1);
        state.0
    }
}

fn tenant_options(seed: u64, job: usize) -> RunOptions {
    RunOptions::default()
        .config(SpecConfig {
            group_size: 4,
            window: 1,
            max_reexec: 2,
            ..SpecConfig::default()
        })
        .seed(seed::derive(seed, "tenant") ^ job as u64)
}

/// The jobs of one run, generated from the seed.
struct Jobs {
    /// Due time of each job, seconds after the phase starts.
    due_s: Vec<f64>,
    inputs: Vec<Vec<u64>>,
}

impl Jobs {
    /// Jobs at `rate` for about `seconds` (at least [`MIN_JOBS`]); `name`
    /// keeps the streams of the two rates apart.
    fn new(seed: u64, name: &str, rate: f64, seconds: f64) -> Self {
        let n = MIN_JOBS.max((rate * seconds).ceil() as usize);
        Jobs {
            due_s: seed::poisson_schedule(seed, &format!("{name}.arrivals"), rate, n),
            inputs: (0..n)
                .map(|j| seed::values(seed, &format!("{name}.job{j}"), BURST))
                .collect(),
        }
    }
}

/// A spill directory inside the working directory, one per phase, removed
/// on drop.
struct SpillDir(PathBuf);

static SPILL_DIRS: AtomicU64 = AtomicU64::new(0);

impl SpillDir {
    fn new() -> Result<Self, String> {
        let n = SPILL_DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("spill-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(SpillDir(dir))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn server<X: StateTransition<Input = u64>>(
    pool: &Arc<ThreadPool>,
    dir: &SpillDir,
) -> SessionServer<X> {
    SessionServer::new(
        Arc::clone(pool),
        ServerOptions::default()
            .session_queue_capacity(2)
            .spill_mem_capacity(4)
            .spill_segment(4)
            .spill_dir(dir.0.clone()),
    )
}

/// What one phase (all jobs once) measured.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    outputs: Vec<Option<Vec<f64>>>,
    lag_ms: Vec<f64>,
    push_us: Vec<f64>,
    finish_wait_ms: Vec<f64>,
    max_open: usize,
    failed: usize,
    wall_s: f64,
    pool_busy_s: f64,
    metrics: ServerMetrics,
}

/// Sends every job when due, with at most `max_open + 2` jobs open at
/// once: the sender blocks while `max_open` sent jobs wait for the closer.
fn phase<A: Arm<ServeLoad>>(
    args: &Args,
    jobs: &Jobs,
    pool: &Arc<ThreadPool>,
    dir: &SpillDir,
    max_open: usize,
) -> Phase
where
    A::X: StateTransition<Input = u64, Output = f64>,
{
    let server: SessionServer<A::X> = server(pool, dir);
    let load = Arc::new(ServeLoad);
    let n = jobs.due_s.len();
    let mut out = Phase {
        outputs: vec![None; n],
        ..Phase::default()
    };
    type Msg<X> = (usize, TenantHandle<X>, Instant, Option<usize>);
    let (tx, rx) = mpsc::sync_channel::<Msg<A::X>>(max_open);
    let busy_before = pool.metrics().total_busy();
    let start = Instant::now() + Duration::from_millis(5);
    let start_ns = trace::now_ns() + 5_000_000;
    let mut done = std::thread::scope(|s| {
        let closer = s.spawn(move || {
            let mut done = Vec::with_capacity(n);
            for (job, handle, due, span) in rx {
                let t = Instant::now();
                let result = handle.finish();
                let end = Instant::now();
                if let Some(span) = span {
                    trace::close_detached(span, trace::now_ns());
                }
                let latency_ms = end.duration_since(due).as_secs_f64() * 1e3;
                let wait_ms = end.duration_since(t).as_secs_f64() * 1e3;
                done.push((job, latency_ms, wait_ms, result.ok().map(|o| o.outputs)));
            }
            done
        });
        for (job, (due_s, inputs)) in jobs.due_s.iter().zip(&jobs.inputs).enumerate() {
            let due = start + Duration::from_secs_f64(*due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.lag_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let mut options = tenant_options(args.seed, job);
            let span = A::TRACED.then(|| {
                let due_ns = start_ns + (*due_s * 1e9) as u64;
                let span = trace::open_detached("job", job as u64 + 1, due_ns);
                options = options
                    .clone()
                    .sink(Arc::new(RunSink::new(job as u64 + 1, span)) as Arc<dyn EventSink>);
                span
            });
            let handle = server.open_tenant(
                A::state(&ServeState(job as f64)),
                A::transition(&load),
                options,
            );
            out.max_open = out.max_open.max(server.open_tenants());
            let t = Instant::now();
            let pushed = handle.try_push_batch(inputs.iter().copied());
            out.push_us.push(t.elapsed().as_secs_f64() * 1e6);
            if pushed.is_err() {
                out.failed += 1;
            }
            tx.send((job, handle, due, span))
                .expect("closer thread alive");
        }
        drop(tx);
        closer.join().expect("closer thread")
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out.pool_busy_s = (pool.metrics().total_busy() - busy_before).as_secs_f64();
    out.metrics = server.metrics();
    drop(server);
    done.sort_by_key(|d| d.0);
    for (job, latency_ms, wait_ms, outputs) in done {
        out.latency_ms.push(latency_ms);
        out.finish_wait_ms.push(wait_ms);
        if outputs.is_none() {
            out.failed += 1;
        }
        out.outputs[job] = outputs;
    }
    out
}

/// Every tenant alone, one after another, through the single-thread
/// protocol: the reference outputs (a session's outputs equal the batch
/// protocol's for the same inputs and seed) and the reference throughput
/// of the median job.
fn solo(args: &Args, jobs: &Jobs) -> (Vec<Vec<f64>>, f64) {
    let mut secs = Vec::with_capacity(jobs.inputs.len());
    let outputs: Vec<Vec<f64>> = jobs
        .inputs
        .iter()
        .enumerate()
        .map(|(job, inputs)| {
            let start = Instant::now();
            let options = tenant_options(args.seed, job);
            let out =
                run_protocol_with_options(&ServeLoad, inputs, &ServeState(job as f64), &options);
            secs.push(start.elapsed().as_secs_f64());
            out.outputs
        })
        .collect();
    // Each job lasts microseconds: the median resists preemptions.
    (outputs, BURST as f64 / stats::median(&secs))
}

fn check_phase(checks: &mut Checks, p: &Phase, reference: &[Vec<f64>], traced: bool) {
    for (job, outputs) in p.outputs.iter().enumerate() {
        let same = outputs.as_ref().is_some_and(|o| {
            o.len() == reference[job].len()
                && o.iter()
                    .zip(&reference[job])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        checks.check(same, || {
            format!("tenant {job} differs from its solo run (traced={traced})")
        });
    }
    for (t, m) in p.metrics.open.iter().chain(&p.metrics.retired) {
        checks.check(
            m.spill.spilled_inputs == m.spill.replayed_inputs
                && m.fast_path + m.admitted == m.pushed,
            || format!("tenant {t}: spill or admission counters do not add up"),
        );
    }
}

/// Measures the server's saturation rate on the `hi` jobs, then runs all
/// jobs at [`RATE_LO`], then at [`RATE_HI`] untraced and traced, checks
/// every tenant against its solo run, and writes the serve and
/// load-generator layers into `report`.
pub fn run_open_loop(args: &Args, report: &mut Report, checks: &mut Checks) -> Result<(), String> {
    let lo = Jobs::new(args.seed, "lo", RATE_LO, args.seconds);
    let hi = Jobs::new(args.seed, "hi", RATE_HI, args.seconds);
    let closed = Jobs {
        due_s: vec![0.0; hi.due_s.len()],
        inputs: hi.inputs.clone(),
    };
    let pool = Arc::new(ThreadPool::new(2));
    let dirs = [
        SpillDir::new()?,
        SpillDir::new()?,
        SpillDir::new()?,
        SpillDir::new()?,
    ];
    perfbench::host::warm_up();
    let saturated = phase::<Plain>(args, &closed, &pool, &dirs[0], SATURATION_QUEUE);
    let saturation = closed.due_s.len() as f64 / saturated.wall_s;
    perfbench::host::warm_up();
    let plain_lo = phase::<Plain>(args, &lo, &pool, &dirs[1], lo.due_s.len());
    perfbench::host::warm_up();
    let plain = phase::<Plain>(args, &hi, &pool, &dirs[2], hi.due_s.len());
    perfbench::host::warm_up();
    let traced = phase::<Wrapped>(args, &hi, &pool, &dirs[3], hi.due_s.len());

    let (reference_lo, _) = solo(args, &lo);
    let (reference, solo_rate) = solo(args, &hi);
    check_phase(checks, &saturated, &reference, false);
    check_phase(checks, &plain_lo, &reference_lo, false);
    check_phase(checks, &plain, &reference, false);
    check_phase(checks, &traced, &reference, true);

    report.note("serve.saturation_jobs_per_s", saturation, "jobs/s");
    report.layer("serve.saturation_jobs_per_s", saturation);

    for (name, rate, p) in [("lat_lo", RATE_LO, &plain_lo), ("lat_hi", RATE_HI, &plain)] {
        let (tail, tail_p) = stats::tail(&p.latency_ms);
        let served = (p.latency_ms.len() - p.failed) * BURST;
        report.note(format!("{name}.rate"), rate, "jobs/s");
        report.note(format!("{name}.load"), rate / saturation, "of saturation");
        report.note(format!("{name}.jobs"), p.latency_ms.len() as f64, "jobs");
        report.note(
            format!("{name}.served_inputs_per_s"),
            served as f64 / p.wall_s,
            "inputs/s",
        );
        report.note(format!("{name}.p50_ms"), stats::median(&p.latency_ms), "ms");
        report.note(format!("{name}.p{tail_p}_ms"), tail, "ms");
    }
    report.note("serve.solo_inputs_per_s", solo_rate, "inputs/s");

    let slo_miss = |p: &Phase| {
        let missed = p
            .latency_ms
            .iter()
            .filter(|l| **l > LATENCY_LIMIT_MS)
            .count()
            + p.failed;
        missed as f64 / p.latency_ms.len() as f64
    };
    report.note(
        "slo_miss_frac",
        slo_miss(&plain),
        &format!("of hi jobs over {LATENCY_LIMIT_MS} ms"),
    );
    let per_job = |p: &Phase| p.pool_busy_s / p.latency_ms.len() as f64;
    report.layer(
        "serve.trace_overhead_frac",
        per_job(&traced) / per_job(&plain) - 1.0,
    );
    report.layer("serve.lat_lo.p50_ms", stats::median(&plain_lo.latency_ms));
    report.layer("serve.lat_lo.p99_ms", stats::tail(&plain_lo.latency_ms).0);
    report.layer("serve.lat_hi.p50_ms", stats::median(&plain.latency_ms));
    report.layer("serve.lat_hi.p99_ms", stats::tail(&plain.latency_ms).0);
    report.layer("serve.slo_miss_frac", slo_miss(&plain));
    let t = &traced;
    report.layer("serve.push_us.p50", stats::median(&t.push_us));
    report.layer("serve.push_us.tail", stats::tail(&t.push_us).0);
    report.layer("serve.finish_wait_ms.p50", stats::median(&t.finish_wait_ms));
    report.layer(
        "serve.finish_wait_ms.tail",
        stats::tail(&t.finish_wait_ms).0,
    );
    let tenants = t.metrics.open.iter().chain(&t.metrics.retired);
    let (fast, pushed) = tenants.fold((0, 0), |(f, p), (_, m)| (f + m.fast_path, p + m.pushed));
    report.layer("serve.fast_path_ratio", fast as f64 / pushed.max(1) as f64);
    report.layer("serve.dispatch_rounds", t.metrics.dispatch_rounds as f64);
    report.layer("serve.spilled_inputs", t.metrics.spilled_inputs() as f64);
    report.layer(
        "serve.spilled_segments",
        t.metrics.spilled_segments() as f64,
    );
    report.layer("loadgen.lag_ms.p50", stats::median(&t.lag_ms));
    report.layer("loadgen.lag_ms.max", stats::percentile(&t.lag_ms, 100.0));
    report.layer("loadgen.max_open_tenants", t.max_open as f64);
    Ok(())
}
