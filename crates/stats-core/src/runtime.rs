//! The user-facing runtime object: `StateDependence` (paper Figure 9).
//!
//! `StateDependence::run()` executes the §3.1 execution model on the
//! calling thread, fanning groups of invocations out to a shared
//! [`ThreadPool`]. `start()` instead runs the same coordinator on a
//! parked thread from a process-wide cache — spawning one only when none is
//! idle — in parallel with the invoking thread; `join()` waits until all
//! inputs are correctly processed and returns the committed outputs. All
//! knobs (pool, sink, seed, config, segmenting) come from one
//! [`RunOptions`] value — the same options type the streaming
//! [`Session`](crate::Session) consumes, whose coordinator comes from the
//! same cache.
//!
//! Because every invocation's PRVG stream is derived from coordinates (run
//! seed, group, index, attempt), the parallel execution is *reproducible*
//! and byte-identical to the sequential reference
//! [`run_protocol`](crate::run_protocol) — a property the test suite checks.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;

use crate::sync::{thread, Arc, Condvar, Mutex};

use crate::dag::{assert_plan_matches, node_is_eager, run_node_eager, NodeRun, PlanResolver};
use crate::options::RunOptions;
use crate::pool::{Priority, ThreadPool};
use crate::protocol::{
    execute_group, run_protocol_with, GroupData, ProtocolResult, SegmentAccumulator, SpecReport,
    SpecTrace,
};
use crate::sdi::StateTransition;

/// The result of a completed state-dependence execution.
pub struct SpecOutcome<T: StateTransition> {
    /// Committed outputs, one per input, in input order.
    pub outputs: Vec<T::Output>,
    /// The committed final state.
    pub final_state: T::State,
    /// Speculation statistics (commits, re-executions, aborts, work split).
    pub report: SpecReport,
    /// The recorded task graph of everything that executed.
    pub trace: SpecTrace,
}

impl<T: StateTransition> From<ProtocolResult<T>> for SpecOutcome<T> {
    fn from(result: ProtocolResult<T>) -> Self {
        SpecOutcome {
            outputs: result.outputs,
            final_state: result.final_state,
            report: result.report,
            trace: result.trace,
        }
    }
}

struct Shared<T: StateTransition> {
    inputs: Vec<T::Input>,
    initial: T::State,
    transition: T,
    options: RunOptions,
}

/// A state dependence made explicit (paper Figures 8/9): the inputs, the
/// initial state, and the `compute_output` transition, plus the STATS
/// execution-model configuration carried by [`RunOptions`].
///
/// ```
/// use stats_core::{
///     ExactState, InvocationCtx, RunOptions, SpecConfig, StateDependence, StateTransition,
/// };
///
/// struct Double;
/// impl StateTransition for Double {
///     type Input = u64;
///     type State = ExactState<u64>;
///     type Output = u64;
///     fn compute_output(
///         &self,
///         input: &u64,
///         state: &mut ExactState<u64>,
///         ctx: &mut InvocationCtx,
///     ) -> u64 {
///         ctx.charge(1.0);
///         state.0 = *input; // short-memory state
///         2 * *input
///     }
/// }
///
/// let mut dep = StateDependence::new((0..32).collect(), ExactState(0), Double)
///     .with_options(RunOptions::default()
///         .config(SpecConfig { group_size: 8, window: 1, ..SpecConfig::default() }));
/// dep.start();
/// let outcome = dep.join();
/// assert_eq!(outcome.outputs[5], 10);
/// assert!(!outcome.report.aborted);
/// ```
pub struct StateDependence<T: StateTransition> {
    shared: Option<Arc<Shared<T>>>,
    handle: Option<CoordinatorHandle<ProtocolResult<T>>>,
}

impl<T: StateTransition> StateDependence<T> {
    /// Create a state dependence over `inputs` with the given initial state
    /// and transition, under default [`RunOptions`] (a private pool sized
    /// to the machine's available parallelism is created at `start()`).
    pub fn new(inputs: Vec<T::Input>, initial: T::State, transition: T) -> Self {
        StateDependence {
            shared: Some(Arc::new(Shared {
                inputs,
                initial,
                transition,
                options: RunOptions::default(),
            })),
            handle: None,
        }
    }

    fn map_options(mut self, f: impl FnOnce(&mut RunOptions)) -> Self {
        let mut shared = Arc::try_unwrap(self.shared.take().expect("not started"))
            .unwrap_or_else(|_| panic!("options must be set before start"));
        f(&mut shared.options);
        self.shared = Some(Arc::new(shared));
        self
    }

    /// Replace every runtime knob at once (builder style): pool, sink,
    /// seed, config, segmenting, and DAG plan all come from `options`.
    pub fn with_options(self, options: RunOptions) -> Self {
        self.map_options(|o| *o = options)
    }

    /// Run to completion on the calling thread and return the outcome.
    /// Same result as `start()` followed by `join()`, without handing the
    /// coordinator to another thread; the seed comes from
    /// [`RunOptions::seed`].
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the transition (a pool job's panic surfaces as
    /// the [`ThreadPool::scope`] panic, which carries its message), and
    /// panics if `start()` was already called.
    pub fn run(mut self) -> SpecOutcome<T> {
        assert!(self.handle.is_none(), "run() called after start()");
        let shared = self.shared.take().expect("not consumed");
        let pool = resolve_pool(&shared.options);
        run_pooled(&shared, &pool).into()
    }

    /// Begin the execution model in parallel with the invoking thread, on
    /// a parked coordinator thread (one is spawned only when none is
    /// idle).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        with_coordinators(|cache| self.start_on(cache));
    }

    /// [`start`](StateDependence::start) with the coordinator taken from
    /// `cache` instead of the process-wide one.
    pub(crate) fn start_on(&mut self, cache: &CoordinatorCache) {
        assert!(self.handle.is_none(), "start() called twice");
        let shared = Arc::clone(self.shared.as_ref().expect("not consumed"));
        let pool = resolve_pool(&shared.options);
        self.handle = Some(cache.spawn(move || run_pooled(&shared, &pool)));
    }

    /// Wait until all inputs are correctly processed and return the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `start()` was not called first, and re-raises a panic of
    /// the coordinator with its original payload.
    pub fn join(mut self) -> SpecOutcome<T> {
        let handle = self.handle.take().expect("join() requires start()");
        match handle.join() {
            Ok(result) => result.into(),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// The options' shared pool, or a private one sized to the machine.
pub(crate) fn resolve_pool(options: &RunOptions) -> Arc<ThreadPool> {
    options
        .pool
        .clone()
        .unwrap_or_else(|| Arc::new(ThreadPool::new(thread::available_parallelism())))
}

/// Dropping a started-but-not-joined dependence must not leave its
/// coordinator running unobserved (it would keep pool slots busy with
/// nobody to collect the result) nor swallow its panics: the coordinator
/// is waited for here, and its panic is re-raised unless the drop is itself
/// part of a panic unwind (re-raising then would abort the process).
impl<T: StateTransition> Drop for StateDependence<T> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Err(payload) = handle.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// How many coordinator threads the process-wide cache keeps parked; a
/// thread finishing its job while this many are already idle exits instead.
#[cfg_attr(loom, allow(dead_code))]
const MAX_IDLE_COORDINATORS: usize = 4;

/// Run `f` with the process-wide coordinator cache behind `start()` and
/// `Session::new`.
///
/// Under the model checker a process-wide cache would outlive the model
/// that created its threads, so there every call gets a fresh cache that
/// parks nothing: the job runs on its own thread, which exits after it.
pub(crate) fn with_coordinators<R>(f: impl FnOnce(&CoordinatorCache) -> R) -> R {
    #[cfg(not(loom))]
    {
        static CACHE: std::sync::OnceLock<CoordinatorCache> = std::sync::OnceLock::new();
        f(CACHE.get_or_init(|| CoordinatorCache::new(MAX_IDLE_COORDINATORS)))
    }
    #[cfg(loom)]
    {
        f(&CoordinatorCache::new(0))
    }
}

/// A job handed to a coordinator thread. It runs the user closure and
/// returns the step that delivers the result to the waiting
/// [`CoordinatorHandle`]; the thread parks again *between* the two, so once
/// `join` returns, the thread is already idle and the next job reuses it.
type CoordinatorJob = Box<dyn FnOnce() -> Box<dyn FnOnce() + Send> + Send>;

/// Coordinator threads parked for reuse, so starting a run or opening a
/// [`Session`](crate::Session) costs a handoff instead of an OS thread
/// spawn.
///
/// [`spawn`](CoordinatorCache::spawn) hands its closure to a parked thread
/// when one is idle and spawns a `stats-coordinator` thread only when none
/// is. After a job the thread parks again, unless `max_idle` threads are
/// already parked, in which case it exits. Dropping the cache wakes every
/// parked thread and lets it exit.
pub struct CoordinatorCache {
    inner: Arc<CacheInner>,
}

struct CacheInner {
    state: Mutex<CacheState>,
    /// Signaled when a job is handed to the parked threads, or on drop.
    wake: Condvar,
    max_idle: usize,
}

struct CacheState {
    /// Parked (or parking) threads not yet claimed by a handed-off job.
    idle: usize,
    /// Jobs claimed for a parked thread and not yet picked up by one.
    jobs: VecDeque<CoordinatorJob>,
    /// Set on drop: parked threads exit once `jobs` is empty.
    shutdown: bool,
}

impl CoordinatorCache {
    /// An empty cache that keeps at most `max_idle` threads parked.
    pub fn new(max_idle: usize) -> Self {
        CoordinatorCache {
            inner: Arc::new(CacheInner {
                state: Mutex::new(CacheState {
                    idle: 0,
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                wake: Condvar::new(),
                max_idle,
            }),
        }
    }

    /// Run `f` on a coordinator thread: a parked one when one is idle,
    /// otherwise a newly spawned one. A panic in `f` is caught and handed
    /// to [`CoordinatorHandle::join`]; the thread survives it. `f`'s
    /// captures are dropped before its result is delivered.
    pub fn spawn<R, F>(&self, f: F) -> CoordinatorHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let slot = Arc::new(OneShot {
            value: Mutex::new(None),
            ready: Condvar::new(),
        });
        let tx = Arc::clone(&slot);
        let job: CoordinatorJob = Box::new(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(f));
            Box::new(move || tx.put(result))
        });
        let mut state = self.inner.state.lock();
        if state.idle > 0 {
            state.idle -= 1;
            state.jobs.push_back(job);
            drop(state);
            self.inner.wake.notify_one();
        } else {
            drop(state);
            let cache = Arc::clone(&self.inner);
            // Detached on purpose: the thread outlives this job, and every
            // job's panic is caught above and handed to its handle.
            thread::Builder::new()
                .name("stats-coordinator".into())
                .spawn(move || coordinator_main(&cache, job))
                .expect("failed to spawn coordinator");
        }
        CoordinatorHandle { slot }
    }
}

impl Drop for CoordinatorCache {
    fn drop(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.wake.notify_all();
    }
}

/// A coordinator thread's life: run a job, park (or exit when enough
/// threads are idle), deliver the job's result, then wait for the next.
fn coordinator_main(cache: &CacheInner, mut job: CoordinatorJob) {
    loop {
        let deliver = job();
        let park = {
            let mut state = cache.state.lock();
            let park = !state.shutdown && state.idle < cache.max_idle;
            if park {
                state.idle += 1;
            }
            park
        };
        deliver();
        if !park {
            return;
        }
        let mut state = cache.state.lock();
        job = loop {
            if let Some(next) = state.jobs.pop_front() {
                break next;
            }
            if state.shutdown {
                state.idle -= 1;
                return;
            }
            cache.wake.wait(&mut state);
        };
    }
}

/// One-shot result slot between a coordinator job and its handle.
struct OneShot<R> {
    value: Mutex<Option<thread::Result<R>>>,
    ready: Condvar,
}

impl<R> OneShot<R> {
    fn put(&self, result: thread::Result<R>) {
        *self.value.lock() = Some(result);
        self.ready.notify_all();
    }
}

/// Owned handle to a job running on a [`CoordinatorCache`] thread.
pub struct CoordinatorHandle<R> {
    slot: Arc<OneShot<R>>,
}

impl<R> CoordinatorHandle<R> {
    /// Wait for the job and take its result; `Err` carries the payload of
    /// a panic in the job.
    pub fn join(self) -> thread::Result<R> {
        let mut value = self.slot.value.lock();
        loop {
            if let Some(result) = value.take() {
                return result;
            }
            self.slot.ready.wait(&mut value);
        }
    }
}

/// Execute the protocol with group execution fanned out to the pool,
/// segment by segment when [`RunOptions::segment`] is set, or over the
/// dependency DAG when [`RunOptions::plan`] is set.
fn run_pooled<T: StateTransition>(
    shared: &Arc<Shared<T>>,
    pool: &Arc<ThreadPool>,
) -> ProtocolResult<T> {
    let options = &shared.options;
    if options.plan.is_some() {
        return run_plan_pooled(shared, pool);
    }
    match options.segment {
        None => run_pooled_chunk(
            shared,
            pool,
            options.seed,
            0,
            shared.inputs.len(),
            &shared.initial,
        ),
        Some(segment) => {
            let segment = segment.max(1);
            let n = shared.inputs.len();
            let mut acc: SegmentAccumulator<T> = SegmentAccumulator::new(shared.initial.clone());
            let mut lo = 0usize;
            let mut seg_idx = 0u64;
            while lo < n {
                let hi = (lo + segment).min(n);
                let initial = acc.state().clone();
                let r =
                    run_pooled_chunk(shared, pool, options.seed ^ seg_idx << 32, lo, hi, &initial);
                acc.absorb(r);
                lo = hi;
                seg_idx += 1;
            }
            acc.finish()
        }
    }
}

/// One (sub-)run over `inputs[lo..hi]`, groups fanned out to the pool.
fn run_pooled_chunk<T: StateTransition>(
    shared: &Arc<Shared<T>>,
    pool: &Arc<ThreadPool>,
    seed: u64,
    lo: usize,
    hi: usize,
    initial: &T::State,
) -> ProtocolResult<T> {
    let s = Arc::clone(shared);
    run_protocol_with(
        &shared.transition,
        &shared.inputs[lo..hi],
        initial,
        &shared.options.config,
        seed,
        &*shared.options.sink,
        shared.options.faults.as_ref(),
        move |specs| {
            let slots: Arc<Mutex<Vec<Option<GroupData<T>>>>> =
                Arc::new(Mutex::new((0..specs.len()).map(|_| None).collect()));
            let jobs: Vec<_> = specs
                .iter()
                .map(|&spec| {
                    let s = Arc::clone(&s);
                    let slots = Arc::clone(&slots);
                    let init = initial.clone();
                    move |idx: usize| {
                        let data = execute_group(
                            &s.transition,
                            &s.inputs[lo..hi],
                            0,
                            &init,
                            &s.options.config,
                            seed,
                            spec,
                            &*s.options.sink,
                            s.options.faults.as_ref(),
                        );
                        slots.lock()[idx] = Some(data);
                    }
                })
                .collect();
            pool.scope(jobs);
            Arc::try_unwrap(slots)
                .unwrap_or_else(|_| panic!("pool scope leaked a slot reference"))
                .into_inner()
                .into_iter()
                .map(|d| d.expect("every group executed"))
                .collect()
        },
    )
}

/// One filled slot per eager plan node, shared between pool jobs and the
/// coordinator (a job's panic is carried as the `Err` payload).
type NodeSlots<T> = Arc<(Mutex<Vec<Option<std::thread::Result<NodeRun<T>>>>>, Condvar)>;

/// Execute a [`SpecPlan`](crate::SpecPlan) with every eager node run (roots
/// and speculative non-roots) fanned out to the pool at once — critical-path
/// nodes on the [`Priority::High`] lane so the longest dependence chain is
/// never stuck behind sibling branches. The coordinator ingests finished
/// runs into the [`PlanResolver`], which resolves nodes strictly in the
/// plan's canonical topological order; dataflow nodes and post-abort
/// recovery runs execute inline on the coordinator as their parents settle.
/// While no node run has finished, the coordinator runs queued pool jobs
/// itself rather than parking. Bit-identical to the sequential reference
/// at any worker count.
fn run_plan_pooled<T: StateTransition>(
    shared: &Arc<Shared<T>>,
    pool: &Arc<ThreadPool>,
) -> ProtocolResult<T> {
    let options = &shared.options;
    let plan = Arc::new(options.plan.clone().expect("plan mode"));
    assert_plan_matches(&plan, shared.inputs.len());
    let eager: Vec<usize> = plan
        .topo_order()
        .iter()
        .copied()
        .filter(|&n| node_is_eager(&plan, &options.config, n))
        .collect();
    let critical = plan.critical_path();
    let slots: NodeSlots<T> = Arc::new((
        Mutex::new((0..plan.len()).map(|_| None).collect()),
        Condvar::new(),
    ));
    for &node in &eager {
        let s = Arc::clone(shared);
        let slots = Arc::clone(&slots);
        let plan_job = Arc::clone(&plan);
        let priority = if critical.contains(&node) {
            Priority::High
        } else {
            options.priority
        };
        pool.execute_with_priority(priority, move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_node_eager(
                    &plan_job,
                    node,
                    &s.transition,
                    &s.inputs,
                    &s.initial,
                    &s.options.config,
                    s.options.seed,
                    &*s.options.sink,
                )
            }));
            // Release the Shared/plan clones BEFORE publishing the result:
            // once the slot is filled the coordinator may return and the
            // caller drop its pool handle, and `s.options` holds an
            // `Arc<ThreadPool>` — if this worker's clone were the last one,
            // the pool would be dropped on a worker thread and join itself
            // (EDEADLK). After this point the job owns only `slots`.
            drop(s);
            drop(plan_job);
            let (lock, cv) = &*slots;
            lock.lock()[node] = Some(result);
            cv.notify_all();
        });
    }
    let mut resolver = PlanResolver::new(
        &plan,
        &shared.transition,
        &shared.inputs,
        &options.config,
        options.seed,
        &*options.sink,
        options.faults.as_ref(),
    );
    let mut remaining = eager.len();
    let (lock, cv) = &*slots;
    while remaining > 0 {
        let mut taken = Vec::new();
        {
            let mut may_help = true;
            let mut guard = lock.lock();
            loop {
                for (node, slot) in guard.iter_mut().enumerate() {
                    if slot.is_some() {
                        taken.push((node, slot.take().expect("checked is_some")));
                    }
                }
                if !taken.is_empty() {
                    break;
                }
                // Nothing finished: run one queued job (often one of this
                // plan's own nodes) instead of parking, then re-check under
                // the lock. Wait only after a re-check that found nothing
                // queued, so a completion published meanwhile is never lost.
                if may_help {
                    drop(guard);
                    may_help = pool.help_one();
                    guard = lock.lock();
                    continue;
                }
                cv.wait(&mut guard);
                may_help = true;
            }
        }
        for (node, result) in taken {
            remaining -= 1;
            match result {
                Ok(run) => resolver.ingest(node, run),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    }
    resolver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::protocol::{run_protocol, run_protocol_with_options, SpecConfig};
    use crate::sdi::SpecState;

    /// Nondeterministic short-memory workload: state is the last input plus
    /// bounded noise; matches tolerate the noise.
    #[derive(Clone, Debug)]
    struct Noisy(f64);
    impl SpecState for Noisy {
        fn matches_any(&self, originals: &[Self]) -> bool {
            originals.iter().any(|o| (o.0 - self.0).abs() < 0.5)
        }
    }

    struct NoisyLast;
    impl StateTransition for NoisyLast {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(5.0);
            state.0 = *input + ctx.uniform(-0.1, 0.1);
            state.0
        }
    }

    fn config() -> SpecConfig {
        SpecConfig {
            group_size: 4,
            window: 1,
            max_reexec: 2,
            rollback: 1,
            ..SpecConfig::default()
        }
    }

    fn pooled_options(threads: usize, seed: u64) -> RunOptions {
        RunOptions::default()
            .pool(Arc::new(ThreadPool::new(threads)))
            .config(config())
            .seed(seed)
    }

    #[test]
    fn pooled_matches_sequential_reference() {
        let inputs: Vec<f64> = (0..24).map(|i| i as f64).collect();
        for seed in [0_u64, 1, 7, 42] {
            let reference = run_protocol(&NoisyLast, &inputs, &Noisy(0.0), &config(), seed);
            let dep = StateDependence::new(inputs.clone(), Noisy(0.0), NoisyLast)
                .with_options(pooled_options(4, seed));
            let outcome = dep.run();
            assert_eq!(outcome.outputs, reference.outputs, "seed {seed}");
            assert_eq!(outcome.report.aborted, reference.report.aborted);
            assert_eq!(outcome.report.reexecutions, reference.report.reexecutions);
            assert_eq!(outcome.trace, reference.trace, "seed {seed}");
        }
    }

    #[test]
    fn segmented_pooled_matches_sequential_segmented_reference() {
        let inputs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let options = RunOptions::default().config(config()).seed(5).segment(13);
        let reference =
            crate::protocol::run_protocol_with_options(&NoisyLast, &inputs, &Noisy(0.0), &options);
        let dep = StateDependence::new(inputs, Noisy(0.0), NoisyLast)
            .with_options(options.pool(Arc::new(ThreadPool::new(4))));
        let outcome = dep.run();
        assert_eq!(outcome.outputs, reference.outputs);
        assert_eq!(outcome.report, reference.report);
        assert_eq!(outcome.trace, reference.trace);
    }

    #[test]
    fn start_join_api() {
        let mut dep =
            StateDependence::new((0..16).map(|i| i as f64).collect(), Noisy(0.0), NoisyLast)
                .with_options(pooled_options(2, 3));
        dep.start();
        let outcome = dep.join();
        assert_eq!(outcome.outputs.len(), 16);
    }

    #[test]
    fn plan_pooled_matches_sequential_reference_at_any_worker_count() {
        // A diamond plan over the noisy workload: the pooled DAG driver
        // must reproduce the sequential plan run bit-for-bit regardless of
        // how many workers race the eager node runs.
        let mut b = crate::SpecPlan::builder();
        let src = b.node(8);
        let l = b.node(8);
        let r = b.node(8);
        let j = b.node(8);
        b.edge(src, l).edge(src, r).edge(l, j).edge(r, j);
        let plan = b.build().unwrap();
        let inputs: Vec<f64> = (0..plan.total_inputs()).map(|i| i as f64).collect();
        for seed in [0_u64, 7, 42] {
            let options = RunOptions::default()
                .config(config())
                .seed(seed)
                .plan(plan.clone());
            let reference = run_protocol_with_options(&NoisyLast, &inputs, &Noisy(0.0), &options);
            for threads in [1usize, 2, 4] {
                let dep = StateDependence::new(inputs.clone(), Noisy(0.0), NoisyLast)
                    .with_options(options.clone().pool(Arc::new(ThreadPool::new(threads))));
                let outcome = dep.run();
                assert_eq!(outcome.outputs, reference.outputs, "seed {seed} x{threads}");
                assert_eq!(outcome.report, reference.report, "seed {seed} x{threads}");
                assert_eq!(outcome.trace, reference.trace, "seed {seed} x{threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "start() called twice")]
    fn double_start_panics() {
        let mut dep = StateDependence::new(vec![1.0], Noisy(0.0), NoisyLast)
            .with_options(pooled_options(1, 0));
        dep.start();
        dep.start();
    }

    /// A transition holding a sentinel `Arc`: when the coordinator thread
    /// has truly terminated, its clone of the `Shared` state (and hence of
    /// the sentinel) is gone.
    struct SentinelLast(#[allow(dead_code)] Arc<()>);
    impl StateTransition for SentinelLast {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(5.0);
            state.0 = *input + ctx.uniform(-0.1, 0.1);
            state.0
        }
    }

    #[test]
    fn dropping_started_dependence_joins_coordinator() {
        // Regression: dropping a started-but-not-joined dependence used to
        // leak a detached `stats-coordinator` thread. The sentinel's strong
        // count proves the coordinator (which owns a clone through the
        // shared state) has terminated by the time drop returns — and the
        // test finishing at all proves the process was not aborted.
        let sentinel = Arc::new(());
        {
            let mut dep = StateDependence::new(
                (0..32).map(f64::from).collect(),
                Noisy(0.0),
                SentinelLast(Arc::clone(&sentinel)),
            )
            .with_options(pooled_options(2, 0));
            dep.start();
            // Dropped here without join().
        }
        assert_eq!(
            Arc::strong_count(&sentinel),
            1,
            "coordinator thread still holds the shared state"
        );
    }

    #[test]
    fn dropping_unstarted_dependence_is_inert() {
        let dep = StateDependence::new(vec![1.0, 2.0], Noisy(0.0), NoisyLast);
        drop(dep); // no coordinator was ever spawned
    }

    /// A transition that panics: the coordinator thread dies with it.
    struct Exploding;
    impl StateTransition for Exploding {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, _: &f64, _: &mut Noisy, _: &mut InvocationCtx) -> f64 {
            panic!("transition exploded");
        }
    }

    #[test]
    #[should_panic(expected = "panicked in ThreadPool::scope")]
    fn dropping_dependence_propagates_coordinator_panic() {
        // The old detached handle silently swallowed coordinator panics;
        // now drop re-raises them on the owning thread.
        let mut dep = StateDependence::new(vec![1.0, 2.0, 3.0], Noisy(0.0), Exploding)
            .with_options(pooled_options(1, 0));
        dep.start();
        drop(dep);
    }

    #[test]
    fn pooled_run_emits_events_from_worker_threads() {
        use crate::obs::{EventKind, RecordingSink};
        let sink = Arc::new(RecordingSink::new());
        let dep = StateDependence::new((0..24).map(f64::from).collect(), Noisy(0.0), NoisyLast)
            .with_options(
                pooled_options(4, 7).sink(Arc::clone(&sink) as Arc<dyn crate::obs::EventSink>),
            );
        let outcome = dep.run();
        assert_eq!(outcome.outputs.len(), 24);
        let events = sink.events();
        let starts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GroupStart { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GroupEnd { .. }))
            .count();
        assert_eq!(starts, 6, "one start per group");
        assert_eq!(starts, ends);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RunStart { inputs: 24, .. })));
    }

    #[test]
    #[should_panic(expected = "transition exploded")]
    fn run_reraises_transition_panic() {
        StateDependence::new(vec![1.0, 2.0, 3.0], Noisy(0.0), Exploding)
            .with_options(pooled_options(1, 0))
            .run();
    }

    #[test]
    #[should_panic(expected = "transition exploded")]
    fn join_reraises_transition_panic() {
        let mut dep = StateDependence::new(vec![1.0, 2.0, 3.0], Noisy(0.0), Exploding)
            .with_options(pooled_options(1, 0));
        dep.start();
        dep.join();
    }

    /// Records the thread every `RunStart`/`RunEnd` was emitted on.
    #[derive(Default)]
    struct RunThreads(Mutex<Vec<std::thread::ThreadId>>);
    impl crate::obs::EventSink for RunThreads {
        fn enabled(&self) -> bool {
            true
        }
        fn emit(&self, kind: crate::obs::EventKind) {
            use crate::obs::EventKind;
            if matches!(kind, EventKind::RunStart { .. } | EventKind::RunEnd) {
                self.0.lock().push(std::thread::current().id());
            }
        }
    }

    impl RunThreads {
        /// The single thread all recorded run events came from.
        fn only(&self) -> std::thread::ThreadId {
            let ids = self.0.lock();
            assert!(!ids.is_empty(), "no run events recorded");
            assert!(
                ids.iter().all(|id| *id == ids[0]),
                "run events on several threads"
            );
            ids[0]
        }
    }

    fn recorded_options(sink: &Arc<RunThreads>) -> RunOptions {
        pooled_options(2, 3).sink(Arc::clone(sink) as Arc<dyn crate::obs::EventSink>)
    }

    #[test]
    fn run_executes_on_the_calling_thread() {
        let sink = Arc::new(RunThreads::default());
        let outcome = StateDependence::new((0..16).map(f64::from).collect(), Noisy(0.0), NoisyLast)
            .with_options(recorded_options(&sink))
            .run();
        assert_eq!(outcome.outputs.len(), 16);
        assert_eq!(sink.0.lock().len(), 2, "one RunStart and one RunEnd");
        assert_eq!(sink.only(), std::thread::current().id());
    }

    #[test]
    fn sessions_and_starts_reuse_one_parked_coordinator() {
        let cache = CoordinatorCache::new(MAX_IDLE_COORDINATORS);
        let inputs: Vec<f64> = (0..16).map(f64::from).collect();
        let mut threads = Vec::new();
        for _ in 0..2 {
            let sink = Arc::new(RunThreads::default());
            let session =
                crate::Session::open_on(&cache, Noisy(0.0), NoisyLast, recorded_options(&sink));
            session.push_batch(inputs.clone());
            assert_eq!(session.finish().outputs.len(), 16);
            threads.push(sink.only());
        }
        let sink = Arc::new(RunThreads::default());
        let mut dep = StateDependence::new(inputs, Noisy(0.0), NoisyLast)
            .with_options(recorded_options(&sink));
        dep.start_on(&cache);
        assert_eq!(dep.join().outputs.len(), 16);
        threads.push(sink.only());
        assert_ne!(threads[0], std::thread::current().id());
        assert_eq!(
            threads,
            vec![threads[0]; 3],
            "coordinator thread not reused"
        );
    }

    #[test]
    fn coordinator_survives_a_panicking_job() {
        let cache = CoordinatorCache::new(1);
        let first = cache.spawn(|| std::thread::current().id());
        let first = first.join().expect("no panic");
        let payload = cache
            .spawn::<(), _>(|| panic!("job exploded"))
            .join()
            .expect_err("the panic reaches join");
        assert_eq!(crate::pool::panic_message(&*payload), "job exploded");
        let last = cache.spawn(|| std::thread::current().id());
        assert_eq!(last.join().expect("no panic"), first, "thread not reused");
    }

    #[test]
    fn shared_pool_across_dependences() {
        let pool = Arc::new(ThreadPool::new(4));
        let options = RunOptions::default()
            .pool(Arc::clone(&pool))
            .config(config())
            .seed(1);
        let a = StateDependence::new((0..8).map(f64::from).collect(), Noisy(0.0), NoisyLast)
            .with_options(options.clone());
        let b = StateDependence::new((0..8).map(f64::from).collect(), Noisy(0.0), NoisyLast)
            .with_options(options);
        let oa = a.run();
        let ob = b.run();
        assert_eq!(oa.outputs, ob.outputs);
    }

    #[test]
    fn run_completes_while_the_only_worker_is_held() {
        // A gate job holds the pool's single worker, so every group of the
        // run must be executed by the calling thread while it waits.
        let pool = Arc::new(ThreadPool::new(1));
        let (started_tx, started) = std::sync::mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                let _ = started_tx.send(());
                let (lock, cvar) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cvar.wait(&mut open);
                }
            });
        }
        started.recv().expect("gate job started");
        let inputs: Vec<f64> = (0..24).map(f64::from).collect();
        let outcome = StateDependence::new(inputs.clone(), Noisy(0.0), NoisyLast)
            .with_options(
                RunOptions::default()
                    .pool(Arc::clone(&pool))
                    .config(config())
                    .seed(5),
            )
            .run();
        let helped = pool.metrics().helped_jobs;
        *gate.0.lock() = true;
        gate.1.notify_all();
        let reference = run_protocol(&NoisyLast, &inputs, &Noisy(0.0), &config(), 5);
        assert_eq!(outcome.outputs, reference.outputs);
        assert_eq!(outcome.report.groups.len(), 6);
        assert_eq!(helped, outcome.report.groups.len() as u64);
    }
}
