//! The streaming speculation engine: a long-lived [`Session`] that accepts
//! inputs incrementally and runs the §3.1 execution model over them as they
//! arrive.
//!
//! A `Session` keeps one [`ThreadPool`], one [`EventSink`], and one tuned
//! [`SpecConfig`] alive across an entire input stream instead of paying for
//! them per call. Producers `push`/`push_batch` into a bounded queue
//! (backpressure: a full queue blocks the producer); a coordinator thread —
//! a parked one taken from the same process-wide cache that
//! [`StateDependence::start`](crate::StateDependence::start) uses, spawned
//! only when none is idle — forms speculation groups on the fly, runs
//! group 0 inline while dispatching later groups to the pool, and overlaps
//! validation + commit of group `k` with the auxiliary + original execution
//! of later groups already in flight.
//!
//! **Determinism contract**: for the same seed and the same input order,
//! `Session` is bit-identical — outputs, final state, [`SpecReport`], and
//! [`SpecTrace`](crate::SpecTrace) — to the batch
//! [`run_protocol`](crate::run_protocol) over the concatenated inputs,
//! regardless of how pushes were chunked. The property-based test suite
//! (`tests/streaming_properties.rs`) checks exactly this. See
//! `docs/streaming.md` for lifecycle and backpressure details.

use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

use crate::sync::{thread, Arc, Condvar, Mutex};

use crate::adapt::{AdaptiveController, RetryPolicy, SegmentStats};
use crate::faults::{FaultKind, FaultPlan, InjectedFault};
use crate::obs::{EventKind, EventSink};
use crate::options::RunOptions;
use crate::pool::{panic_message, Priority, ThreadPool};
use crate::protocol::{
    execute_group, run_invocation, GroupData, GroupSpec, ProtocolResult, SegmentAccumulator,
    SpecConfig, SpecReport, SpecTrace,
};
use crate::resolver::Resolver;
use crate::runtime::{
    resolve_pool, with_coordinators, CoordinatorCache, CoordinatorHandle, SpecOutcome,
};
use crate::sdi::StateTransition;

/// Everything shared between producers, the coordinator, and pool jobs.
struct StreamShared<T: StateTransition> {
    inner: Mutex<StreamInner<T>>,
    /// Signaled when queue space frees up (or the coordinator dies).
    producer: Condvar,
    /// Signaled when inputs, completions, or a close arrive.
    coordinator: Condvar,
    capacity: usize,
}

struct StreamInner<T: StateTransition> {
    queue: VecDeque<T::Input>,
    closed: bool,
    /// Finished group executions, keyed by group index within the current
    /// segment (pool jobs may finish out of order).
    completions: Vec<(usize, GroupData<T>)>,
    /// First panic payload from a pool job; re-raised by the coordinator.
    panic: Option<Box<dyn Any + Send>>,
    /// Groups whose pool job was killed by an injected worker-panic fault;
    /// the coordinator retries them under the [`RetryPolicy`].
    lost: Vec<InjectedFault>,
    /// Set when the coordinator finishes (normally or by panic), so
    /// blocked producers fail fast instead of waiting forever.
    coordinator_gone: bool,
    /// Human-readable message of the panic that killed the coordinator,
    /// recorded before `coordinator_gone` is raised so a failing
    /// [`Session::try_push`] can report *why* the front door is closed.
    gone_message: Option<String>,
}

/// Immutable engine context shared with pool jobs.
struct EngineCtx<T: StateTransition> {
    transition: T,
    config: Arc<SpecConfig>,
    sink: Arc<dyn EventSink>,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    priority: Priority,
}

/// A long-lived streaming run of the STATS execution model.
///
/// ```
/// use stats_core::{ExactState, InvocationCtx, RunOptions, Session, SpecConfig, StateTransition};
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
///         state.0 = *input;
///         2 * *input
///     }
/// }
///
/// let session = Session::new(ExactState(0), Double, RunOptions::default()
///     .config(SpecConfig { group_size: 8, window: 1, ..SpecConfig::default() }));
/// for i in 0..32 {
///     session.push(i);
/// }
/// let outcome = session.finish();
/// assert_eq!(outcome.outputs[5], 10);
/// ```
pub struct Session<T: StateTransition> {
    shared: Arc<StreamShared<T>>,
    handle: Option<CoordinatorHandle<ProtocolResult<T>>>,
}

impl<T: StateTransition> Session<T> {
    /// Open a stream from `initial` under `options`, handing its
    /// coordinator to a parked coordinator thread (one is spawned only when
    /// none is idle). The options' pool is shared with other sessions and
    /// dependences; without one, a private pool sized to the machine is
    /// created and kept for the session's whole lifetime.
    pub fn new(initial: T::State, transition: T, options: RunOptions) -> Self {
        with_coordinators(|cache| Self::open_on(cache, initial, transition, options))
    }

    /// [`Session::new`] with the coordinator taken from `cache` instead of
    /// the process-wide one.
    pub(crate) fn open_on(
        cache: &CoordinatorCache,
        initial: T::State,
        transition: T,
        options: RunOptions,
    ) -> Self {
        assert!(
            options.plan.is_none(),
            "RunOptions::plan is batch-only: a Session streams a linear input \
             sequence (run DAG plans through StateDependence or \
             run_protocol_with_options; see docs/dag.md)"
        );
        let pool = resolve_pool(&options);
        let max_inflight = if options.max_inflight_groups == 0 {
            pool.threads() + 2
        } else {
            options.max_inflight_groups
        }
        .max(1);
        let shared = Arc::new(StreamShared {
            inner: Mutex::new(StreamInner {
                queue: VecDeque::new(),
                closed: false,
                completions: Vec::new(),
                panic: None,
                lost: Vec::new(),
                coordinator_gone: false,
                gone_message: None,
            }),
            producer: Condvar::new(),
            coordinator: Condvar::new(),
            capacity: options.queue_capacity.max(1),
        });
        let ctx = Arc::new(EngineCtx {
            transition,
            config: Arc::new(options.config.clone()),
            sink: Arc::clone(&options.sink),
            faults: options.faults,
            retry: options.retry,
            priority: options.priority,
        });
        let thread_shared = Arc::clone(&shared);
        let handle = cache.spawn(move || {
            let _guard = CoordinatorGuard {
                shared: Arc::clone(&thread_shared),
            };
            match std::panic::catch_unwind(AssertUnwindSafe(|| {
                stream_main(&thread_shared, &ctx, &pool, &options, initial, max_inflight)
            })) {
                Ok(result) => result,
                Err(payload) => {
                    // Record the pending panic message *before* the guard
                    // raises `coordinator_gone`, so a producer failing its
                    // `try_push` can report the cause.
                    let mut inner = thread_shared.inner.lock();
                    if inner.gone_message.is_none() {
                        inner.gone_message = Some(panic_message(&*payload));
                    }
                    drop(inner);
                    std::panic::resume_unwind(payload);
                }
            }
        });
        Session {
            shared,
            handle: Some(handle),
        }
    }

    /// Enqueue one input. Blocks while the bounded queue is full
    /// (backpressure) until the engine drains it.
    ///
    /// This is a thin panicking wrapper over [`Session::try_push`] for
    /// callers that treat a dead stream as a programming error; a
    /// tenant-facing front door should call `try_push` instead.
    ///
    /// # Panics
    ///
    /// Panics if the coordinator has terminated (which only happens
    /// when a transition panicked; the payload is re-raised at `finish()`
    /// or drop).
    pub fn push(&self, input: T::Input) {
        if let Err(e) = self.try_push(input) {
            panic!("{e}; cannot accept inputs");
        }
    }

    /// Enqueue one input, blocking while the bounded queue is full
    /// (backpressure), and failing — never panicking — once the
    /// coordinator has terminated. A producer already blocked on a
    /// full queue when the coordinator dies is woken by the coordinator's
    /// exit guard and receives the error instead of hanging.
    ///
    /// The returned [`PushError`] carries the message of the pending panic
    /// that killed the coordinator (the payload itself stays with the
    /// session and is re-raised or reported at
    /// [`finish`](Session::finish)/[`try_finish`](Session::try_finish)).
    pub fn try_push(&self, input: T::Input) -> Result<(), PushError> {
        let mut inner = self.shared.inner.lock();
        loop {
            if inner.coordinator_gone {
                return Err(PushError::coordinator_gone(&inner));
            }
            if inner.queue.len() < self.shared.capacity {
                break;
            }
            self.shared.producer.wait(&mut inner);
        }
        inner.queue.push_back(input);
        drop(inner);
        self.shared.coordinator.notify_all();
        Ok(())
    }

    /// Nonblocking push: `Ok(None)` means the input was enqueued,
    /// `Ok(Some(input))` returns it because the queue is full right now
    /// (try again after the engine drains), and `Err` means the
    /// coordinator has terminated and can never accept it. This is the
    /// primitive the [`serve`](crate::serve) dispatcher multiplexes
    /// tenants with: it must never park on one tenant's full queue while
    /// other tenants have admission budget.
    pub fn offer(&self, input: T::Input) -> Result<Option<T::Input>, PushError> {
        let mut inner = self.shared.inner.lock();
        if inner.coordinator_gone {
            return Err(PushError::coordinator_gone(&inner));
        }
        if inner.queue.len() >= self.shared.capacity {
            return Ok(Some(input));
        }
        inner.queue.push_back(input);
        drop(inner);
        self.shared.coordinator.notify_all();
        Ok(None)
    }

    /// How many inputs are currently waiting in the bounded queue.
    pub fn queued(&self) -> usize {
        self.shared.inner.lock().queue.len()
    }

    /// Enqueue a batch of inputs, blocking as needed (panicking wrapper
    /// over [`Session::try_push_batch`], like [`push`](Session::push)).
    pub fn push_batch(&self, inputs: impl IntoIterator<Item = T::Input>) {
        if let Err(e) = self.try_push_batch(inputs) {
            panic!("{e}; cannot accept inputs");
        }
    }

    /// Enqueue a batch through the bounded queue in capacity-sized chunks:
    /// one lock acquisition and one coordinator notification per *chunk*
    /// instead of per input (the `push_batch` Criterion bench measures the
    /// lock-churn win). Blocks whenever the queue is full mid-batch;
    /// returns how many inputs were enqueued, which is all of them unless
    /// the coordinator terminated partway (the error reports the pending
    /// panic like [`try_push`](Session::try_push)).
    pub fn try_push_batch(
        &self,
        inputs: impl IntoIterator<Item = T::Input>,
    ) -> Result<usize, PushError> {
        let mut iter = inputs.into_iter();
        let mut next = match iter.next() {
            Some(input) => Some(input),
            None => return Ok(0),
        };
        let mut pushed = 0usize;
        loop {
            let mut inner = self.shared.inner.lock();
            loop {
                if inner.coordinator_gone {
                    return Err(PushError::coordinator_gone(&inner));
                }
                if inner.queue.len() < self.shared.capacity {
                    break;
                }
                self.shared.producer.wait(&mut inner);
            }
            while inner.queue.len() < self.shared.capacity {
                let Some(input) = next.take() else { break };
                inner.queue.push_back(input);
                pushed += 1;
                next = iter.next();
            }
            drop(inner);
            self.shared.coordinator.notify_all();
            if next.is_none() {
                return Ok(pushed);
            }
        }
    }

    /// Close the stream, wait for every pushed input to be correctly
    /// processed, and return the outcome.
    ///
    /// # Panics
    ///
    /// Re-raises any panic of the transition on the caller's thread. Use
    /// [`Session::try_finish`] to receive the failure as a
    /// [`SessionError`] instead.
    pub fn finish(mut self) -> SpecOutcome<T> {
        match self.try_finish() {
            Ok(outcome) => outcome,
            Err(SessionError::Panicked { payload, .. }) => std::panic::resume_unwind(payload),
            // `finish` consumes the session, so it can only be the first
            // finishing call.
            Err(SessionError::AlreadyFinished) => unreachable!("finish consumes the session"),
        }
    }

    /// Close the stream and return the outcome, reporting a coordinator
    /// panic as a [`SessionError`] instead of re-raising it.
    ///
    /// Idempotent: every call after the first — whether the first
    /// succeeded or failed — returns [`SessionError::AlreadyFinished`],
    /// and dropping an already-finished session is silent even after a
    /// panic (the payload was handed to the first caller).
    pub fn try_finish(&mut self) -> Result<SpecOutcome<T>, SessionError> {
        let Some(handle) = self.handle.take() else {
            return Err(SessionError::AlreadyFinished);
        };
        self.close();
        match handle.join() {
            Ok(result) => Ok(result.into()),
            Err(payload) => Err(SessionError::Panicked {
                message: panic_message(&*payload),
                payload,
            }),
        }
    }

    fn close(&self) {
        let mut inner = self.shared.inner.lock();
        inner.closed = true;
        drop(inner);
        self.shared.coordinator.notify_all();
    }
}

/// Why a [`Session::try_push`]/[`Session::try_push_batch`] (or a
/// nonblocking [`Session::offer`]) could not accept an input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PushError {
    /// The session's coordinator has terminated, so no input pushed from
    /// now on can ever be processed.
    CoordinatorGone {
        /// Message of the pending panic that killed the coordinator, when
        /// one was recorded (a transition panic); `None` when the
        /// coordinator exited without panicking.
        pending_panic: Option<String>,
    },
}

impl PushError {
    fn coordinator_gone<T: StateTransition>(inner: &StreamInner<T>) -> Self {
        PushError::CoordinatorGone {
            pending_panic: inner.gone_message.clone(),
        }
    }

    /// The pending panic message carried by the error, if any.
    pub fn pending_panic(&self) -> Option<&str> {
        match self {
            PushError::CoordinatorGone { pending_panic } => pending_panic.as_deref(),
        }
    }
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::CoordinatorGone { pending_panic } => {
                write!(f, "Session coordinator has terminated")?;
                if let Some(message) = pending_panic {
                    write!(f, " (pending panic: {message})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PushError {}

/// Why a [`Session`] failed to finish.
pub enum SessionError {
    /// The coordinator panicked (a transition panicked on the
    /// coordinator or a pool worker). The original payload is preserved so
    /// callers can re-raise it with `std::panic::resume_unwind`.
    Panicked {
        /// Human-readable panic message extracted from the payload.
        message: String,
        /// The original panic payload.
        payload: Box<dyn Any + Send>,
    },
    /// The session was already finished by an earlier
    /// [`Session::finish`]/[`Session::try_finish`] call.
    AlreadyFinished,
}

impl fmt::Debug for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Panicked { message, .. } => f
                .debug_struct("Panicked")
                .field("message", message)
                .finish(),
            SessionError::AlreadyFinished => f.write_str("AlreadyFinished"),
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Panicked { message, .. } => {
                write!(f, "stream coordinator panicked: {message}")
            }
            SessionError::AlreadyFinished => f.write_str("session was already finished"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Dropping a session mid-stream must drain and wait for its coordinator —
/// none left running unobserved, mirroring `StateDependence`'s Drop-join —
/// and must not swallow transition panics: they re-raise here unless the
/// drop is itself part of a panic unwind.
impl<T: StateTransition> Drop for Session<T> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.close();
            if let Err(payload) = handle.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// Marks the coordinator as gone on any exit path, so producers blocked on
/// a full queue wake up and fail instead of hanging.
struct CoordinatorGuard<T: StateTransition> {
    shared: Arc<StreamShared<T>>,
}

impl<T: StateTransition> Drop for CoordinatorGuard<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock();
        inner.coordinator_gone = true;
        drop(inner);
        self.shared.producer.notify_all();
    }
}

/// Coordinator entry point: one un-segmented run, or one run per segment
/// with committed state carried across (same semantics as the batch
/// segmented path, same seed derivation per segment).
///
/// When [`RunOptions::adapt`] is set, each segment's configuration comes
/// from the [`AdaptiveController`], which watches the same per-segment
/// abort outcome the event stream reports and walks the degradation ladder
/// (`docs/robustness.md`). Adaptation is segment-granular because the
/// resolver assumes one group cardinality per run; without an explicit
/// `segment`, an adaptive session defaults to four groups per segment.
///
/// When [`RunOptions::retune`] is set, the installed [`Retuner`] observes
/// each finished segment's telemetry and may re-pick the base operating
/// point (group cardinality, auxiliary window, re-execution budget) for
/// the rest of the stream; every applied decision is emitted as
/// [`EventKind::Retune`] and restarts the degradation ladder from the new
/// base (`docs/tuning.md`). The segment *length* stays fixed at its
/// stream-start value so segment boundaries — and therefore per-segment
/// seeds and fault sites — never depend on tuning decisions, which is what
/// keeps tuned runs replayable (`docs/replay.md`).
fn stream_main<T: StateTransition>(
    shared: &Arc<StreamShared<T>>,
    ctx: &Arc<EngineCtx<T>>,
    pool: &Arc<ThreadPool>,
    options: &RunOptions,
    initial: T::State,
    max_inflight: usize,
) -> ProtocolResult<T> {
    let mut base = Arc::clone(&ctx.config);
    let mut controller = options
        .adapt
        .map(|policy| AdaptiveController::new(policy, &base));
    let retuner = options.retune.as_ref();
    let segment = if let Some(s) = options.segment {
        Some(s.max(1))
    } else if controller.is_some() || retuner.is_some() {
        // Segment-granular control without an explicit segment length:
        // default to four groups per segment.
        Some(base.group_size.max(1) * 4)
    } else {
        None
    };
    match segment {
        None => stream_segment(
            shared,
            ctx,
            pool,
            options.seed,
            &initial,
            usize::MAX,
            max_inflight,
            &base,
        ),
        Some(segment) => {
            let mut acc: SegmentAccumulator<T> = SegmentAccumulator::new(initial);
            let mut seg_idx = 0u64;
            while wait_for_input(shared) {
                let seg_config = match &controller {
                    Some(c) => Arc::new(c.apply(&base)),
                    None => Arc::clone(&base),
                };
                let seg_initial = acc.state().clone();
                let r = stream_segment(
                    shared,
                    ctx,
                    pool,
                    options.seed ^ seg_idx << 32,
                    &seg_initial,
                    segment,
                    max_inflight,
                    &seg_config,
                );
                let aborted = r.report.aborted;
                let stats = SegmentStats {
                    segment: seg_idx,
                    inputs: r.outputs.len(),
                    aborted,
                    reexecutions: r.report.reexecutions,
                    validations: r.report.validations,
                    committed_original_work: r.report.committed_original_work,
                    committed_aux_work: r.report.committed_aux_work,
                    squashed_work: r.report.squashed_work,
                    group_size: seg_config.group_size,
                    window: seg_config.window,
                    max_reexec: seg_config.max_reexec,
                };
                acc.absorb(r);
                seg_idx += 1;
                if let Some(c) = controller.as_mut() {
                    if let Some((state, group_size)) = c.observe_segment(aborted) {
                        if ctx.sink.enabled() {
                            ctx.sink
                                .emit(EventKind::AdaptTransition { state, group_size });
                        }
                    }
                }
                if let Some(rt) = retuner {
                    let decision = {
                        let mut rt = rt.lock().unwrap_or_else(|e| e.into_inner());
                        rt.observe(&stats);
                        rt.decide(seg_idx)
                    };
                    if let Some(d) = decision {
                        base = Arc::new(SpecConfig {
                            group_size: d.group_size.max(1),
                            window: d.window,
                            max_reexec: d.max_reexec,
                            ..(*base).clone()
                        });
                        // The degradation ladder restarts from the re-tuned
                        // base: its shrink/grow targets are relative to the
                        // base group size, which just moved.
                        if let Some(policy) = options.adapt {
                            controller = Some(AdaptiveController::new(policy, &base));
                        }
                        if ctx.sink.enabled() {
                            ctx.sink.emit(EventKind::Retune {
                                segment: seg_idx,
                                group_size: base.group_size,
                                window: base.window,
                                max_reexec: base.max_reexec,
                            });
                        }
                    }
                }
            }
            acc.finish()
        }
    }
}

/// Block until at least one input is queued (true) or the stream is closed
/// with nothing left (false).
fn wait_for_input<T: StateTransition>(shared: &StreamShared<T>) -> bool {
    let mut inner = shared.inner.lock();
    loop {
        if !inner.queue.is_empty() {
            return true;
        }
        if inner.closed {
            return false;
        }
        shared.coordinator.wait(&mut inner);
    }
}

/// Run one stream (or one segment of it, `limit` inputs at most): consume
/// admitted inputs, execute group 0 inline on the coordinator, dispatch
/// later groups to the pool as soon as their inputs are complete, and feed
/// finished groups — strictly in order — into the shared [`Resolver`].
/// With nothing to do, the coordinator runs queued pool jobs itself before
/// it parks.
#[allow(clippy::too_many_arguments)] // one parameter per execution-model knob
fn stream_segment<T: StateTransition>(
    shared: &Arc<StreamShared<T>>,
    ctx: &Arc<EngineCtx<T>>,
    pool: &Arc<ThreadPool>,
    seed: u64,
    initial: &T::State,
    limit: usize,
    max_inflight: usize,
    config_arc: &Arc<SpecConfig>,
) -> ProtocolResult<T> {
    let config: &SpecConfig = config_arc;
    let sink: &dyn EventSink = &*ctx.sink;
    // Group cardinality while the input count is unknown: with speculation
    // on, every full `group_size` block becomes a group; the cases where
    // the batch path would collapse to a single group (n <= group_size, or
    // speculation off) fall out naturally because no second group ever
    // forms before the stream closes.
    let group_cap = if config.speculate && config.group_size > 1 {
        Some(config.group_size)
    } else {
        None
    };
    let g_eff = group_cap.unwrap_or(usize::MAX);
    let mut resolver: Resolver<T> = Resolver::new(
        &ctx.transition,
        config,
        seed,
        sink,
        g_eff,
        ctx.faults.as_ref(),
    );

    let mut inputs: Vec<T::Input> = Vec::new();
    let mut consumed = 0usize; // inputs taken off the queue this segment
    let mut intake_done = false;
    let mut run_started = false;

    // Group 0 runs inline on the coordinator thread: it starts from the
    // known initial state, needs no auxiliary code, and computing it here
    // is what makes the bounded queue back-pressure producers.
    let mut g0_state = initial.clone();
    let mut g0_checkpoint = initial.clone();
    let mut g0_outputs: Vec<T::Output> = Vec::new();
    let mut g0_works = Vec::new();
    let mut g0_done = false;
    let g0_checkpoint_at = group_cap.map(|gs| gs - config.rollback.clamp(1, gs));

    let mut dispatched = 1usize; // next speculative group to hand to the pool
    let mut ingested = 0usize; // groups handed to the resolver so far
    let mut pending: BTreeMap<usize, GroupData<T>> = BTreeMap::new();
    let mut total_groups: Option<usize> = None;
    // Retry bookkeeping for groups lost to injected worker panics.
    let mut retries: BTreeMap<usize, u32> = BTreeMap::new();
    let mut ranges: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    // Pool jobs dispatched whose completion (or loss) has not been taken
    // back yet: the coordinator helps the pool only while this is non-zero.
    let in_flight = Cell::new(0usize);

    let dispatch_group =
        |k: usize, start: usize, end: usize, attempt: u32, all_inputs: &[T::Input]| {
            in_flight.set(in_flight.get() + 1);
            let w_start = start.saturating_sub(config.window);
            let slice: Vec<T::Input> = all_inputs[w_start..end].to_vec();
            let spec = GroupSpec {
                k,
                start,
                end,
                speculative: true,
            };
            let job_ctx = Arc::clone(ctx);
            let job_config = Arc::clone(config_arc);
            let job_shared = Arc::clone(shared);
            let job_initial = initial.clone();
            pool.execute_with_priority(ctx.priority, move || {
                // Injected worker panic: the job dies without producing its
                // group. The loss is routed to the coordinator through the
                // same completion channel, which retries under the
                // RetryPolicy; the global panic hook is deliberately not
                // tripped for injected (as opposed to real) failures.
                if let Some(plan) = &job_ctx.faults {
                    if plan.fires(FaultKind::WorkerPanic, seed, k as u64, attempt) {
                        if job_ctx.sink.enabled() {
                            job_ctx.sink.emit(EventKind::FaultInjected {
                                kind: FaultKind::WorkerPanic,
                                site: k,
                                attempt: attempt as usize,
                            });
                        }
                        let mut inner = job_shared.inner.lock();
                        inner.lost.push(InjectedFault { group: k, attempt });
                        drop(inner);
                        job_shared.coordinator.notify_all();
                        return;
                    }
                }
                // The pool contains a job's panic but drops its payload:
                // catch here and hand it to the coordinator, which re-raises
                // it on the session owner.
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    execute_group(
                        &job_ctx.transition,
                        &slice,
                        w_start,
                        &job_initial,
                        &job_config,
                        seed,
                        spec,
                        &*job_ctx.sink,
                        job_ctx.faults.as_ref(),
                    )
                }));
                let mut inner = job_shared.inner.lock();
                match outcome {
                    Ok(data) => inner.completions.push((k, data)),
                    Err(payload) => {
                        if inner.panic.is_none() {
                            inner.panic = Some(payload);
                        }
                    }
                }
                drop(inner);
                job_shared.coordinator.notify_all();
            });
        };

    loop {
        if total_groups.is_some_and(|total| ingested >= total) {
            break;
        }

        // ---- Pull admitted inputs and finished groups under the lock,
        // blocking until something actionable arrives.
        let mut fresh: Vec<T::Input> = Vec::new();
        let mut stalls: Vec<(usize, Duration)> = Vec::new();
        let mut lost: Vec<InjectedFault> = Vec::new();
        {
            let mut may_help = true;
            let mut inner = shared.inner.lock();
            loop {
                if let Some(payload) = inner.panic.take() {
                    drop(inner);
                    std::panic::resume_unwind(payload);
                }
                let mut actionable = false;
                // Admit inputs only a bounded number of groups past the
                // resolved prefix, so an unbounded stream cannot pile up
                // unresolved speculative groups.
                while !intake_done && consumed < limit {
                    let next_index = inputs.len() + fresh.len();
                    let group_of_next = group_cap.map_or(0, |gs| next_index / gs);
                    if group_of_next >= resolver.settled_groups() + max_inflight {
                        break;
                    }
                    match inner.queue.pop_front() {
                        Some(item) => {
                            if let Some(plan) = &ctx.faults {
                                if let Some(d) =
                                    plan.delay(FaultKind::QueueStall, seed, next_index as u64)
                                {
                                    stalls.push((next_index, d));
                                }
                            }
                            fresh.push(item);
                            consumed += 1;
                            actionable = true;
                        }
                        None => break,
                    }
                }
                if actionable {
                    shared.producer.notify_all();
                }
                if !inner.completions.is_empty() {
                    in_flight.set(in_flight.get() - inner.completions.len());
                    for (k, data) in inner.completions.drain(..) {
                        pending.insert(k, data);
                    }
                    actionable = true;
                }
                if !inner.lost.is_empty() {
                    in_flight.set(in_flight.get() - inner.lost.len());
                    lost.append(&mut inner.lost);
                    actionable = true;
                }
                if !intake_done && (consumed == limit || (inner.closed && inner.queue.is_empty())) {
                    intake_done = true;
                    actionable = true;
                }
                if actionable {
                    break;
                }
                // Waiting on this stream's own groups: run one queued pool
                // job (often one of those groups) instead of parking, then
                // re-check under the lock. Wait only after a re-check that
                // found nothing queued, so no notification sent meanwhile is
                // lost. A coordinator waiting only for input does not help:
                // it would take CPU from the pool's workers and react to its
                // producer one job late.
                if may_help && in_flight.get() > 0 {
                    drop(inner);
                    may_help = pool.help_one();
                    inner = shared.inner.lock();
                    continue;
                }
                shared.coordinator.wait(&mut inner);
                may_help = true;
            }
        }

        // ---- Injected queue stalls: the coordinator sleeps outside the
        // lock (producers keep filling the freed queue space meanwhile).
        for (site, delay) in stalls {
            if sink.enabled() {
                sink.emit(EventKind::FaultInjected {
                    kind: FaultKind::QueueStall,
                    site,
                    attempt: 0,
                });
            }
            thread::sleep(delay);
        }

        // ---- Groups lost to injected worker panics: re-dispatch with
        // backoff while the retry budget lasts, then degrade gracefully by
        // executing the group inline on the coordinator (never subject to
        // worker faults), so a lost group can never wedge the stream.
        for fault in lost {
            let attempt = retries.entry(fault.group).or_insert(0);
            *attempt += 1;
            let attempt = *attempt;
            let (start, end) = ranges[&fault.group];
            if attempt <= ctx.retry.max_retries {
                thread::sleep(ctx.retry.delay_for(attempt - 1));
                if sink.enabled() {
                    sink.emit(EventKind::GroupRetry {
                        group: fault.group,
                        attempt: attempt as usize,
                    });
                }
                dispatch_group(fault.group, start, end, attempt, &inputs);
            } else {
                let data = execute_group(
                    &ctx.transition,
                    &inputs,
                    0,
                    initial,
                    config,
                    seed,
                    GroupSpec {
                        k: fault.group,
                        start,
                        end,
                        speculative: true,
                    },
                    sink,
                    ctx.faults.as_ref(),
                );
                pending.insert(fault.group, data);
            }
        }

        // ---- Run the inline group 0 (and, after an abort, the sequential
        // tail) over the freshly admitted inputs.
        for item in fresh {
            let i = inputs.len();
            inputs.push(item);
            if !run_started {
                run_started = true;
                if sink.enabled() {
                    // Input and group counts are unknown for an open
                    // stream; a streamed RunStart reports zeros.
                    sink.emit(EventKind::RunStart {
                        inputs: 0,
                        groups: 0,
                    });
                }
            }
            if resolver.aborted() {
                continue; // swept into process_tail below
            }
            if !g0_done && group_cap.is_none_or(|gs| i < gs) {
                if g0_checkpoint_at == Some(i) {
                    g0_checkpoint = g0_state.clone();
                }
                let (out, m) = run_invocation(
                    &ctx.transition,
                    &inputs[i],
                    &mut g0_state,
                    seed,
                    0,
                    i as u64,
                    0,
                    &config.orig_bindings,
                    false,
                );
                g0_outputs.push(out);
                g0_works.push(m);
                if group_cap == Some(i + 1) {
                    // Group 0 is exactly full: seal it so validation of
                    // group 1 can proceed without waiting for the close.
                    pending.insert(
                        0,
                        seal_group0(
                            i + 1,
                            &g0_checkpoint,
                            &g0_state,
                            std::mem::take(&mut g0_outputs),
                            std::mem::take(&mut g0_works),
                            sink,
                        ),
                    );
                    g0_done = true;
                }
            }
        }
        if resolver.aborted() {
            resolver.process_tail(&inputs);
        }

        // ---- Dispatch every speculative group whose inputs are complete.
        if let Some(gs) = group_cap {
            while (dispatched + 1) * gs <= inputs.len() {
                ranges.insert(dispatched, (dispatched * gs, (dispatched + 1) * gs));
                dispatch_group(
                    dispatched,
                    dispatched * gs,
                    (dispatched + 1) * gs,
                    0,
                    &inputs,
                );
                dispatched += 1;
            }
        }

        // ---- On intake completion, seal the partial group 0 and dispatch
        // the final (possibly partial) speculative group.
        if intake_done && total_groups.is_none() {
            let n = inputs.len();
            if n == 0 {
                total_groups = Some(0);
            } else {
                if !g0_done {
                    pending.insert(
                        0,
                        seal_group0(
                            n.min(g_eff),
                            &g0_checkpoint,
                            &g0_state,
                            std::mem::take(&mut g0_outputs),
                            std::mem::take(&mut g0_works),
                            sink,
                        ),
                    );
                    g0_done = true;
                }
                total_groups = Some(match group_cap {
                    Some(gs) if n > gs => {
                        if dispatched * gs < n {
                            ranges.insert(dispatched, (dispatched * gs, n));
                            dispatch_group(dispatched, dispatched * gs, n, 0, &inputs);
                            dispatched += 1;
                        }
                        n.div_ceil(gs)
                    }
                    _ => 1,
                });
            }
        }

        // ---- Feed finished groups to the resolver, strictly in order.
        while let Some(data) = pending.remove(&ingested) {
            resolver.ingest(data, &inputs);
            ingested += 1;
        }
    }

    if inputs.is_empty() {
        return ProtocolResult {
            outputs: Vec::new(),
            final_state: initial.clone(),
            report: SpecReport::default(),
            trace: SpecTrace::default(),
        };
    }
    let result = resolver.finish(initial);
    if sink.enabled() {
        sink.emit(EventKind::RunEnd);
    }
    result
}

/// Package the coordinator-executed group 0 as [`GroupData`], emitting the
/// GroupStart/GroupEnd pair. The batch path emits GroupStart before running
/// the group; a stream cannot know `end` until the group is complete, so
/// both events are emitted at seal time (see docs/streaming.md).
fn seal_group0<T: StateTransition>(
    end: usize,
    checkpoint: &T::State,
    final_state: &T::State,
    outputs: Vec<T::Output>,
    works: Vec<crate::ctx::WorkMeter>,
    sink: &dyn EventSink,
) -> GroupData<T> {
    if sink.enabled() {
        sink.emit(EventKind::GroupStart {
            group: 0,
            start: 0,
            end,
            speculative: false,
        });
        sink.emit(EventKind::GroupEnd { group: 0 });
    }
    GroupData {
        spec: GroupSpec {
            k: 0,
            start: 0,
            end,
            speculative: false,
        },
        aux_work: None,
        spec_start: None,
        checkpoint: checkpoint.clone(),
        final_state: final_state.clone(),
        outputs,
        works,
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::protocol::run_protocol;
    use crate::sdi::{ExactState, SpecState};
    use crate::sync::atomic::{AtomicUsize, Ordering};

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

    fn options(seed: u64) -> RunOptions {
        RunOptions::default()
            .pool(Arc::new(ThreadPool::new(2)))
            .config(config())
            .seed(seed)
    }

    #[test]
    fn streamed_matches_batch_reference() {
        let inputs: Vec<f64> = (0..26).map(f64::from).collect();
        for seed in [0u64, 3, 11] {
            let reference = run_protocol(&NoisyLast, &inputs, &Noisy(0.0), &config(), seed);
            let session = Session::new(Noisy(0.0), NoisyLast, options(seed));
            session.push_batch(inputs.clone());
            let outcome = session.finish();
            assert_eq!(outcome.outputs, reference.outputs, "seed {seed}");
            assert_eq!(outcome.report, reference.report, "seed {seed}");
            assert_eq!(outcome.trace, reference.trace, "seed {seed}");
        }
    }

    #[test]
    fn empty_session_returns_initial_state() {
        let session = Session::new(Noisy(7.5), NoisyLast, options(0));
        let outcome = session.finish();
        assert!(outcome.outputs.is_empty());
        assert!((outcome.final_state.0 - 7.5).abs() < f64::EPSILON);
        assert!(outcome.trace.nodes.is_empty());
    }

    /// A transition that blocks on a gate until released, so tests can pin
    /// the stream mid-group.
    struct Gated {
        entered: Arc<AtomicUsize>,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }
    impl StateTransition for Gated {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            self.entered.fetch_add(1, Ordering::SeqCst);
            let (lock, cvar) = &*self.gate;
            let mut open = lock.lock();
            while !*open {
                cvar.wait(&mut open);
            }
            ctx.charge(1.0);
            state.0 = state.0.wrapping_add(*input);
            state.0
        }
    }

    #[test]
    fn full_queue_blocks_producer_instead_of_growing() {
        let capacity = 3usize;
        let entered = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let session = Session::new(
            ExactState(0u64),
            Gated {
                entered: Arc::clone(&entered),
                gate: Arc::clone(&gate),
            },
            RunOptions::default()
                .pool(Arc::new(ThreadPool::new(1)))
                .config(config())
                .queue_capacity(capacity),
        );
        // The coordinator consumes the first input and blocks inside the
        // gated transition; wait until it is provably inside.
        session.push(1);
        while entered.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        // A producer can now enqueue at most `capacity` more inputs before
        // blocking. Count successful pushes from a helper thread.
        let pushed = Arc::new(AtomicUsize::new(0));
        let producer = {
            let pushed = Arc::clone(&pushed);
            let session = Arc::new(session);
            let handle_session = Arc::clone(&session);
            let handle = thread::spawn(move || {
                for i in 2..=20u64 {
                    handle_session.push(i);
                    pushed.fetch_add(1, Ordering::SeqCst);
                }
            });
            (handle, session)
        };
        let (handle, session) = producer;
        // Give the producer ample time to push as far as it can.
        thread::sleep(Duration::from_millis(200));
        let stalled_at = pushed.load(Ordering::SeqCst);
        assert!(
            stalled_at <= capacity + 1,
            "producer pushed {stalled_at} inputs past a full queue of {capacity}"
        );
        // Open the gate: the stream drains and every push goes through.
        *gate.0.lock() = true;
        gate.1.notify_all();
        handle.join().expect("producer");
        assert_eq!(pushed.load(Ordering::SeqCst), 19);
        let session = Arc::try_unwrap(session).unwrap_or_else(|_| panic!("session still shared"));
        let outcome = session.finish();
        assert_eq!(outcome.outputs.len(), 20);
    }

    /// A transition holding a sentinel `Arc`: once the coordinator job
    /// (which owns the engine context) has finished, the count drops.
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
    fn dropping_session_mid_stream_drains_and_joins() {
        // The Session counterpart of the StateDependence Drop-join fix:
        // dropping with inputs still queued (mid-group) must drain the
        // stream and join the coordinator, leaking nothing.
        let sentinel = Arc::new(());
        {
            let session = Session::new(Noisy(0.0), SentinelLast(Arc::clone(&sentinel)), options(5));
            session.push_batch((0..13).map(f64::from));
            // Dropped here without finish().
        }
        assert_eq!(
            Arc::strong_count(&sentinel),
            1,
            "stream coordinator still holds the engine context"
        );
    }

    /// A transition that panics on a specific input index.
    struct Exploding;
    impl StateTransition for Exploding {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, _: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(1.0);
            if *input >= 6.0 {
                panic!("transition exploded");
            }
            *input
        }
    }

    #[test]
    #[should_panic(expected = "transition exploded")]
    fn finish_propagates_worker_panics() {
        // Input 6 lands in a pool-executed speculative group; the panic
        // must cross worker -> coordinator -> owner.
        let session = Session::new(Noisy(0.0), Exploding, options(1));
        session.push_batch((0..12).map(f64::from));
        session.finish();
    }

    #[test]
    fn worker_panic_does_not_poison_shared_pool() {
        // A worker panic mid-speculative-group must surface at finish()
        // while leaving the shared pool healthy for subsequent runs.
        let pool = Arc::new(ThreadPool::new(2));
        let opts = |seed| {
            RunOptions::default()
                .pool(Arc::clone(&pool))
                .config(config())
                .seed(seed)
        };
        let mut bad = Session::new(Noisy(0.0), Exploding, opts(1));
        bad.push_batch((0..12).map(f64::from));
        let err = match bad.try_finish() {
            Err(e) => e,
            Ok(_) => panic!("worker panic must surface"),
        };
        assert!(err.to_string().contains("transition exploded"), "{err}");
        drop(bad); // silent: the payload was already handed over
        for seed in [0u64, 7, 13] {
            let good = Session::new(Noisy(0.0), NoisyLast, opts(seed));
            good.push_batch((0..16).map(f64::from));
            let outcome = good.finish();
            assert_eq!(outcome.outputs.len(), 16, "seed {seed}");
        }
    }

    #[test]
    fn healthy_session_after_a_panicked_one_matches_batch() {
        // The panic unwinds through the coordinator job on the cached
        // thread; the thread parks again and runs the next session, whose
        // outcome must not carry anything over from the failed one.
        let cache = CoordinatorCache::new(1);
        let mut bad = Session::open_on(&cache, Noisy(0.0), Exploding, options(1));
        bad.push_batch((0..12).map(f64::from));
        assert!(matches!(
            bad.try_finish(),
            Err(SessionError::Panicked { .. })
        ));
        let inputs: Vec<f64> = (0..26).map(f64::from).collect();
        let reference = run_protocol(&NoisyLast, &inputs, &Noisy(0.0), &config(), 9);
        let good = Session::open_on(&cache, Noisy(0.0), NoisyLast, options(9));
        good.push_batch(inputs);
        let outcome = good.finish();
        assert_eq!(outcome.outputs, reference.outputs);
        assert_eq!(
            outcome.final_state.0.to_bits(),
            reference.final_state.0.to_bits()
        );
        assert_eq!(outcome.report, reference.report);
        assert_eq!(outcome.trace, reference.trace);
    }

    #[test]
    fn finished_session_released_its_captures_on_a_reused_coordinator() {
        // The cached coordinator thread outlives the session, so the
        // engine context must be dropped with the job, before `finish`
        // returns — on a fresh thread and on a reused one alike.
        let cache = CoordinatorCache::new(1);
        for seed in [0u64, 1] {
            let sentinel = Arc::new(());
            let session = Session::open_on(
                &cache,
                Noisy(0.0),
                SentinelLast(Arc::clone(&sentinel)),
                options(seed),
            );
            session.push_batch((0..13).map(f64::from));
            assert_eq!(session.finish().outputs.len(), 13);
            assert_eq!(
                Arc::strong_count(&sentinel),
                1,
                "coordinator job still holds the engine context (seed {seed})"
            );
        }
    }

    #[test]
    fn try_finish_is_idempotent() {
        let mut session = Session::new(Noisy(0.0), NoisyLast, options(2));
        session.push_batch((0..8).map(f64::from));
        let first = session.try_finish().expect("clean run finishes");
        assert_eq!(first.outputs.len(), 8);
        assert!(matches!(
            session.try_finish(),
            Err(SessionError::AlreadyFinished)
        ));
        assert!(matches!(
            session.try_finish(),
            Err(SessionError::AlreadyFinished)
        ));
    }

    #[test]
    fn panicked_session_errors_once_then_reports_already_finished() {
        // The second call path after a coordinator panic is a proper
        // error, not a re-raise.
        let mut session = Session::new(Noisy(0.0), Exploding, options(1));
        session.push_batch((0..12).map(f64::from));
        let err = match session.try_finish() {
            Err(e) => e,
            Ok(_) => panic!("panic must surface as an error"),
        };
        assert!(matches!(err, SessionError::Panicked { .. }));
        assert!(matches!(
            session.try_finish(),
            Err(SessionError::AlreadyFinished)
        ));
    }

    #[test]
    fn streamed_sessions_reuse_one_pool() {
        let pool = Arc::new(ThreadPool::new(2));
        let opts = RunOptions::default()
            .pool(Arc::clone(&pool))
            .config(config())
            .seed(4);
        let inputs: Vec<f64> = (0..16).map(f64::from).collect();
        let a = Session::new(Noisy(0.0), NoisyLast, opts.clone());
        a.push_batch(inputs.clone());
        let oa = a.finish();
        let b = Session::new(Noisy(0.0), NoisyLast, opts);
        b.push_batch(inputs);
        let ob = b.finish();
        assert_eq!(oa.outputs, ob.outputs);
        assert_eq!(Arc::strong_count(&pool), 1, "sessions released the pool");
    }
}
