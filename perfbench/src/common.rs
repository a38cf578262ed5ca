//! Pieces every workload shares: the timed-window loop, set-up timing,
//! pooled and single-thread runs, and the runtime figures taken from
//! traced runs.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::probe::{Arm, Plain, RunSink, Wrapped};
use perfbench::{stats, trace, Checks, Report};
use stats_core::prelude::*;
use stats_core::{GroupResolution, PoolMetrics, SpecTrace};

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up samples taken before the timed window.
const SETUPS_BEFORE: usize = 3;
/// Set-up samples taken during the timed window, evenly spread over it.
const SETUPS_DURING: usize = 24;
/// The shortest set-up time one sample covers. A faster set-up is
/// repeated within the sample, and the sample is the mean time per
/// set-up, so that the thread spawns and page faults of single
/// sub-millisecond set-ups average out.
const MIN_SAMPLE: Duration = Duration::from_millis(5);

/// Room reserved in each per-operation sample vector. Pages are touched
/// only as samples are written, so the peak RSS grows with the samples
/// themselves and not in the steps a growing vector's reallocations make,
/// which would land on one side or the other of a step depending on how
/// many operations the host fitted into the window.
const SAMPLE_ROOM: usize = 1 << 20;

/// An empty vector for one sample per timed operation.
pub fn samples() -> Vec<f64> {
    Vec::with_capacity(SAMPLE_ROOM)
}

/// Times a workload's set-up: everything before the first timed
/// operation, excluding warm-up. A few samples are taken before the window
/// and the rest are spread over it, between rounds, so they see
/// the same host states as the timed rounds and not only the first moments
/// after a warm-up. Every set-up builds the workload afresh.
pub struct SetupClock<F> {
    build: F,
    secs: Vec<f64>,
}

impl<F> SetupClock<F> {
    /// The set-up time over the samples so far, in seconds: the mean of
    /// their middle half (see [`stats::interquartile_mean`]).
    pub fn setup_s(&self) -> f64 {
        stats::interquartile_mean(&self.secs)
    }

    /// Times one sample and returns the last set-up it built. Each
    /// earlier one is dropped before the next is built, outside the
    /// timed span, so memory holds one set-up at a time.
    fn time<S>(&mut self) -> Result<S, String>
    where
        F: FnMut() -> Result<S, String>,
    {
        let (mut built, mut spent) = (0u32, Duration::ZERO);
        loop {
            let start = Instant::now();
            let s = (self.build)()?;
            spent += start.elapsed();
            built += 1;
            if spent >= MIN_SAMPLE {
                self.secs.push(spent.as_secs_f64() / f64::from(built));
                return Ok(s);
            }
        }
    }
}

/// Warms up, takes [`SETUPS_BEFORE`] set-up samples and returns the clock
/// with the last set-up's result; callers warm up again before their
/// timed window, where [`rounds`] takes the remaining samples.
pub fn timed_setup<S, F>(build: F) -> Result<(SetupClock<F>, S), String>
where
    F: FnMut() -> Result<S, String>,
{
    perfbench::host::warm_up();
    let mut clock = SetupClock {
        build,
        secs: Vec::new(),
    };
    let mut last = None;
    for _ in 0..SETUPS_BEFORE {
        drop(last.take());
        last = Some(clock.time()?);
    }
    Ok((clock, last.expect("at least one set-up")))
}

/// Runs `round(traced)` until `seconds` have passed (at least two rounds).
/// Untraced runs only make untraced rounds. Traced runs alternate an
/// untraced and a traced round, so both see the same host state, and stop
/// on a whole pair. Between rounds it takes [`SETUPS_DURING`] set-up
/// samples on `clock`, evenly spread over the window and outside every
/// round's time. Returns the wall times of untraced and traced rounds.
pub fn rounds<S, F>(
    args: &Args,
    clock: &mut SetupClock<F>,
    mut round: impl FnMut(bool),
) -> Result<(Vec<f64>, Vec<f64>), String>
where
    F: FnMut() -> Result<S, String>,
{
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut setups = 0;
    loop {
        let is_traced = args.trace && plain.len() > traced.len();
        let t = Instant::now();
        round(is_traced);
        let dt = t.elapsed().as_secs_f64();
        if is_traced {
            traced.push(dt)
        } else {
            plain.push(dt)
        };
        let due = window.mul_f64(setups as f64 / SETUPS_DURING as f64);
        if setups < SETUPS_DURING && start.elapsed() >= due {
            drop(clock.time()?);
            setups += 1;
        }
        let whole = !args.trace || plain.len() == traced.len();
        if whole && plain.len() >= 2 && start.elapsed() >= window {
            break;
        }
    }
    for _ in setups..SETUPS_DURING {
        drop(clock.time()?);
    }
    Ok((plain, traced))
}

/// Runtime figures gathered from traced pooled runs.
#[derive(Debug, Default)]
pub struct RunStats {
    pub run_us: Vec<f64>,
    pub dispatch_us: Vec<f64>,
    pub tail_us: Vec<f64>,
    pub node_validations: u64,
    pub node_aborts: u64,
    pub pool_busy_s: f64,
    pub pool_capacity_s: f64,
    pub pool_jobs: u64,
    pub pool_steals: u64,
}

impl RunStats {
    /// Record one traced pooled run that was called at `called_ns` and
    /// returned at `returned_ns` (trace-epoch times).
    pub fn record(&mut self, sink: &RunSink, called_ns: u64, returned_ns: u64) {
        self.run_us.push((returned_ns - called_ns) as f64 / 1e3);
        let first = sink.first_start_ns.load(Ordering::Relaxed);
        if first != u64::MAX {
            self.dispatch_us
                .push(first.saturating_sub(called_ns) as f64 / 1e3);
        }
        let last_group = sink.last_group_end_ns.load(Ordering::Relaxed);
        let run_end = sink.last_run_end_ns.load(Ordering::Relaxed);
        if last_group > 0 && run_end >= last_group {
            self.tail_us.push((run_end - last_group) as f64 / 1e3);
        }
        self.node_validations += sink.node_validations.load(Ordering::Relaxed);
        self.node_aborts += sink.node_aborts.load(Ordering::Relaxed);
    }

    /// Add the pool's activity over a pooled run of `wall` seconds.
    pub fn record_pool(&mut self, before: &PoolMetrics, after: &PoolMetrics, wall: f64) {
        self.pool_busy_s += (after.total_busy() - before.total_busy()).as_secs_f64();
        self.pool_capacity_s += wall * after.busy.len() as f64;
        self.pool_jobs += after.jobs_executed - before.jobs_executed;
        self.pool_steals += after.steals - before.steals;
    }

    /// Write the runtime, resolver, pool, DAG and span metrics.
    pub fn report(&self, report: &mut Report) {
        report.layer("runtime.run_us.p50", stats::median(&self.run_us));
        report.layer("runtime.run_us.tail", stats::tail(&self.run_us).0);
        report.layer("runtime.dispatch_us", stats::median(&self.dispatch_us));
        report.layer("resolver.tail_us", stats::median(&self.tail_us));
        report.layer("pool.jobs", self.pool_jobs as f64);
        report.layer("pool.steals", self.pool_steals as f64);
        if self.pool_capacity_s > 0.0 {
            report.layer(
                "pool.idle_frac",
                1.0 - self.pool_busy_s / self.pool_capacity_s,
            );
        }
        report.layer("dag.node_validations", self.node_validations as f64);
        if self.node_validations > 0 {
            report.layer(
                "dag.node_abort_ratio",
                self.node_aborts as f64 / self.node_validations as f64,
            );
        }
    }
}

/// Leaf, span and self-time metrics common to every traced run.
pub fn report_leaves_and_spans(report: &mut Report) {
    use perfbench::trace::Leaf;
    let kernel = trace::leaf_totals(Leaf::Kernel);
    let aux = trace::leaf_totals(Leaf::Aux);
    let hit = trace::leaf_totals(Leaf::ValidateMatch);
    let miss = trace::leaf_totals(Leaf::ValidateMiss);
    report.layer("workloads.kernel_calls", kernel.calls as f64);
    report.layer("workloads.kernel_busy_s", kernel.ns as f64 / 1e9);
    report.layer("protocol.aux_calls", aux.calls as f64);
    report.layer("protocol.aux_busy_s", aux.ns as f64 / 1e9);
    let validations = hit.calls + miss.calls;
    report.layer("protocol.validate_calls", validations as f64);
    report.layer("protocol.validate_busy_s", (hit.ns + miss.ns) as f64 / 1e9);
    if validations > 0 {
        report.layer(
            "protocol.validate_match_ratio",
            hit.calls as f64 / validations as f64,
        );
    }

    let spans = trace::spans();
    let by_name = trace::by_name(&spans);
    if let Some((_, total, own)) = by_name.get("group") {
        if *total > 0 {
            report.layer("protocol.group_self_frac", *own as f64 / *total as f64);
        }
    }
    if let Some((_, total, own)) = by_name.get("run") {
        if *total > 0 {
            report.layer("runtime.coord_self_frac", *own as f64 / *total as f64);
        }
    }
    for (name, (count, total, own)) in &by_name {
        report.note(
            format!("span.{name}"),
            *own as f64 / 1e6,
            &format!("ms self of {:.3} ms over {count}", *total as f64 / 1e6),
        );
    }
}

/// Protocol figures summed over speculative reports.
#[derive(Debug, Default)]
pub struct ReportTotals {
    pub reexecutions: usize,
    pub speculative_groups: usize,
    pub committed_groups: usize,
    pub squashed_work: f64,
    pub total_work: f64,
}

impl ReportTotals {
    pub fn add(&mut self, r: &SpecReport) {
        self.reexecutions += r.reexecutions;
        self.speculative_groups += r
            .groups
            .iter()
            .filter(|g| g.resolution != GroupResolution::NonSpeculative)
            .count();
        self.committed_groups += r.committed_speculative_groups();
        self.squashed_work += r.squashed_work;
        self.total_work += r.committed_original_work + r.committed_aux_work + r.squashed_work;
    }

    pub fn report(&self, report: &mut Report) {
        report.layer("protocol.reexecutions", self.reexecutions as f64);
        if self.speculative_groups > 0 {
            report.layer(
                "protocol.commit_ratio",
                self.committed_groups as f64 / self.speculative_groups as f64,
            );
        }
        if self.total_work > 0.0 {
            report.layer(
                "protocol.squashed_work_frac",
                self.squashed_work / self.total_work,
            );
        }
    }
}

/// `traced / untraced - 1` over the summed round times.
pub fn overhead_frac(plain: &[f64], traced: &[f64]) -> f64 {
    let p: f64 = plain.iter().sum();
    let t: f64 = traced.iter().sum();
    if p > 0.0 {
        t / p - 1.0
    } else {
        0.0
    }
}

/// Outputs, report and trace of one run: what the equivalence checks
/// compare.
pub type Outcome<O> = (Vec<O>, SpecReport, SpecTrace);

/// Whether two runs agree bit for bit.
pub fn same<O: PartialEq>(a: &Outcome<O>, b: &Outcome<O>) -> bool {
    a.0 == b.0 && a.1 == b.1 && a.2 == b.2
}

/// Allowed output error of a speculative run: the bound of the
/// repository's quality guarantee, three times the sequential program's
/// error plus 0.1. The sequential program is nondeterministic itself, so
/// its error is taken as the median over [`ENVELOPE_SEEDS`] and the
/// reference run's own seed: a single run can be far luckier than the
/// program's envelope on the same inputs.
pub fn quality_ok(spec_err: f64, seq_errs: &[f64]) -> bool {
    spec_err <= 3.0 * stats::median(seq_errs) + 0.1
}

/// Run seeds of the extra reference runs that, with the reference run,
/// give the sequential program's error envelope.
pub const ENVELOPE_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// What one kind of run reports once its checks after the window are made.
pub struct Finished {
    /// The speculative report.
    pub report: SpecReport,
    /// Output error of the speculative and of the reference outputs,
    /// where the run measures quality.
    pub errors: Option<(f64, f64)>,
}

/// What the timed loop needs from one kind of run, whatever its types.
pub trait Op {
    fn name(&self) -> &'static str;
    fn inputs(&self) -> usize;
    /// One pooled run, checked against earlier ones.
    fn pooled(
        &mut self,
        pool: &Arc<ThreadPool>,
        traced: bool,
        rs: &mut RunStats,
        checks: &mut Checks,
    );
    /// One run of the single-thread reference, checked against earlier ones.
    fn seq(&mut self, traced: bool, checks: &mut Checks);
    /// Checks after the window.
    fn finish(&mut self, checks: &mut Checks) -> Finished;
    /// Wall times of the untraced pooled runs.
    fn pooled_secs(&self) -> &[f64];
    /// Wall times of the untraced reference runs.
    fn seq_secs(&self) -> &[f64];
}

/// Output error of a run's outputs.
pub type Quality<O> = Box<dyn Fn(&[O]) -> f64>;

/// A batch run of one transition: pooled `StateDependence::run` against a
/// single-thread reference arm on the same inputs.
pub struct Batch<T: StateTransition> {
    name: &'static str,
    run: Runner<T>,
    /// Options of the pooled runs and of the single-thread protocol run
    /// they must equal.
    spec: RunOptions,
    /// Options of the timed reference arm.
    reference: RunOptions,
    quality: Option<Quality<T::Output>>,
    /// The first untraced outcome of each arm; every later outcome of the
    /// arm, traced or not, must equal it.
    first_pooled: Option<Outcome<T::Output>>,
    first_seq: Option<Outcome<T::Output>>,
    pooled_secs: Vec<f64>,
    seq_secs: Vec<f64>,
}

impl<T: StateTransition> Batch<T> {
    pub fn new(
        name: &'static str,
        run: Runner<T>,
        spec: RunOptions,
        reference: RunOptions,
    ) -> Self {
        Batch {
            name,
            run,
            spec,
            reference,
            quality: None,
            first_pooled: None,
            first_seq: None,
            pooled_secs: samples(),
            seq_secs: samples(),
        }
    }

    /// Also check the speculative outputs' error against the sequential
    /// program's error envelope with [`quality_ok`].
    pub fn with_quality(mut self, quality: Quality<T::Output>) -> Self {
        self.quality = Some(quality);
        self
    }
}

/// Keeps the first untraced outcome of an arm and checks every later one
/// against it.
fn check_against_first<O: PartialEq>(
    first: &mut Option<Outcome<O>>,
    out: Outcome<O>,
    traced: bool,
    checks: &mut Checks,
    what: impl FnOnce() -> String,
) {
    match first {
        None if !traced => *first = Some(out),
        None => checks.check(false, || format!("{}: traced run before untraced", what())),
        Some(first) => checks.check(same(first, &out), || {
            format!("{}: outcome differs between runs (traced={traced})", what())
        }),
    }
}

impl<T: StateTransition> Op for Batch<T>
where
    T::Output: PartialEq,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn inputs(&self) -> usize {
        self.run.inputs.len()
    }

    fn pooled(
        &mut self,
        pool: &Arc<ThreadPool>,
        traced: bool,
        rs: &mut RunStats,
        checks: &mut Checks,
    ) {
        let (secs, out) = self.run.pooled(&self.spec, pool, traced, rs);
        if !traced {
            self.pooled_secs.push(secs);
        }
        let name = self.name;
        check_against_first(&mut self.first_pooled, out, traced, checks, || {
            format!("{name} pooled")
        });
    }

    fn seq(&mut self, traced: bool, checks: &mut Checks) {
        let (secs, out) = self.run.single(&self.reference, traced);
        if !traced {
            self.seq_secs.push(secs);
        }
        let name = self.name;
        check_against_first(&mut self.first_seq, out, traced, checks, || {
            format!("{name} reference")
        });
    }

    fn finish(&mut self, checks: &mut Checks) -> Finished {
        let name = self.name;
        // Pooled must equal the single-thread protocol: outputs, report, trace.
        let (_, protocol) = self.run.single(&self.spec, false);
        let pooled = self.first_pooled.take().expect("an untraced pooled run");
        checks.check(same(&pooled, &protocol), || {
            format!("{name}: pooled run differs from the single-thread protocol")
        });
        let seq = self.first_seq.take().expect("an untraced reference run");
        let errors = self.quality.as_ref().map(|quality| {
            let spec_err = quality(&pooled.0);
            let seq_err = quality(&seq.0);
            checks.check(!seq.1.aborted, || format!("{name}: reference run aborted"));
            let mut seq_errs = vec![seq_err];
            for seed in ENVELOPE_SEEDS {
                let (_, out) = self.run.single(&self.reference.clone().seed(seed), false);
                seq_errs.push(quality(&out.0));
            }
            checks.check(quality_ok(spec_err, &seq_errs), || {
                format!("{name}: output error {spec_err} against reference errors {seq_errs:?}")
            });
            (spec_err, seq_err)
        });
        Finished {
            report: pooled.1,
            errors,
        }
    }

    fn pooled_secs(&self) -> &[f64] {
        &self.pooled_secs
    }

    fn seq_secs(&self) -> &[f64] {
        &self.seq_secs
    }
}

/// One state dependence, run pooled or single-thread, untraced or traced.
pub struct Runner<T: StateTransition> {
    pub inputs: Vec<T::Input>,
    pub initial: T::State,
    pub transition: Arc<T>,
}

impl<T: StateTransition> Runner<T> {
    /// `StateDependence::run` on `pool`, timed from the call to its return.
    /// A traced run is one request: a `run` span with its own sink.
    pub fn pooled(
        &self,
        options: &RunOptions,
        pool: &Arc<ThreadPool>,
        traced: bool,
        rs: &mut RunStats,
    ) -> (f64, Outcome<T::Output>) {
        if traced {
            self.pooled_arm::<Wrapped>(options, pool, rs)
        } else {
            self.pooled_arm::<Plain>(options, pool, rs)
        }
    }

    fn pooled_arm<A: Arm<T>>(
        &self,
        options: &RunOptions,
        pool: &Arc<ThreadPool>,
        rs: &mut RunStats,
    ) -> (f64, Outcome<T::Output>) {
        let mut options = options.clone().pool(Arc::clone(pool));
        let traced = A::TRACED.then(|| {
            let request = trace::now_ns();
            let span = trace::begin("run", request, None);
            let sink = Arc::new(RunSink::new(request, span));
            options = options
                .clone()
                .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
            (span, sink)
        });
        let dep = StateDependence::new(
            self.inputs.clone(),
            A::state(&self.initial),
            A::transition(&self.transition),
        )
        .with_options(options);
        let before = pool.metrics();
        let called = trace::now_ns();
        let start = Instant::now();
        let out = dep.run();
        let secs = start.elapsed().as_secs_f64();
        if let Some((span, sink)) = traced {
            trace::end(span);
            rs.record(&sink, called, trace::now_ns());
            rs.record_pool(&before, &pool.metrics(), secs);
        }
        (secs, (out.outputs, out.report, out.trace))
    }

    /// `run_protocol_with_options` on this thread, timed.
    pub fn single(&self, options: &RunOptions, traced: bool) -> (f64, Outcome<T::Output>) {
        if traced {
            self.single_arm::<Wrapped>(options)
        } else {
            self.single_arm::<Plain>(options)
        }
    }

    fn single_arm<A: Arm<T>>(&self, options: &RunOptions) -> (f64, Outcome<T::Output>) {
        let mut options = options.clone();
        let span = A::TRACED.then(|| {
            let span = trace::begin("seq_run", trace::now_ns(), None);
            options = options
                .clone()
                .sink(Arc::new(RunSink::new(0, span)) as Arc<dyn EventSink>);
            span
        });
        let transition = A::transition(&self.transition);
        let initial = A::state(&self.initial);
        let start = Instant::now();
        let out = run_protocol_with_options(&transition, &self.inputs, &initial, &options);
        let secs = start.elapsed().as_secs_f64();
        if let Some(span) = span {
            trace::end(span);
        }
        (secs, (out.outputs, out.report, out.trace))
    }
}
