//! Loom model checks for the speculation runtime's concurrency core.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (run via `./ci.sh --loom`):
//! the `stats_core::sync` facade then routes every mutex, condvar, atomic,
//! thread, and deque operation through the model checker, and each test
//! below asserts its invariant under **every** explored interleaving of
//! the *actual* runtime code paths — not a reimplementation of them.
//!
//! The models deliberately stay tiny (1–2 workers, 1–4 inputs): every
//! synchronization op is a decision point, and state grows exponentially.
//! The preemption bound trades exhaustiveness for tractability exactly as
//! documented in `vendor/loom` and `docs/concurrency.md`; each test picks
//! the largest bound that keeps its runtime in seconds.
//!
//! Suite map (mirrored by the audit table in `docs/concurrency.md`):
//!
//! - `pool_scope_settle_publishes_metrics` — pins the `jobs`
//!   Release/Acquire pair (worker increment → scope settle loop/metrics).
//! - `pool_scope_routes_job_panics` — pins the scope batch handshake: a
//!   job's panic record is published to the waiting owner through the
//!   `remaining` AcqRel countdown and the `done` mutex.
//! - `pool_drop_completes_outstanding_work` — shutdown/drain handshake.
//! - `pool_injector_never_loses_jobs` — two workers racing the shared
//!   lanes run every job exactly once.
//! - `pool_parked_worker_never_misses_a_job` — an `execute` racing the
//!   worker's park always wakes it (nobody helps).
//! - `pool_owner_help_runs_each_job_once` — the scope owner helping races
//!   the worker: each job runs once and a job panic still fails `scope`.
//! - `plan_coordinator_help_sees_every_completion` — the pooled DAG
//!   completion handshake with a helping coordinator equals the
//!   sequential plan.
//! - `session_push_finish_matches_batch` — producer/coordinator/worker
//!   handoff commits every input exactly once, in order.
//! - `session_backpressure_wakeup` — a producer blocked on a full bounded
//!   queue is always woken when the coordinator drains it.
//! - `session_drop_mid_stream_joins` — Drop drains and joins; no leaked
//!   coordinator, in any interleaving.
//! - `session_panic_routing_try_finish` — a panic in a pool-executed
//!   group crosses worker → coordinator → owner, and a producer blocked
//!   on a stalled bounded queue cannot deadlock against it.
//! - `coordinator_handoff_reuses_parked_thread` — a coordinator job's
//!   result reaches `join` exactly once, after its captures are dropped;
//!   a job panic reaches `join` as its payload; the next job runs on the
//!   parked thread.

#![cfg(loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::model::Builder;
use stats_core::sync::atomic::{AtomicU64, Ordering};
use stats_core::sync::{Arc, Condvar, Mutex};
use stats_core::{
    run_protocol_with_options, CoordinatorCache, ExactState, InvocationCtx, RunOptions, Session,
    SessionError, SpecConfig, SpecPlan, StateDependence, StateTransition, ThreadPool,
};

/// Run `f` under every schedule within `preemptions` involuntary switches.
fn model(preemptions: usize, f: impl Fn() + Send + Sync + 'static) {
    let mut b = Builder::new();
    b.preemption_bound = Some(preemptions);
    b.check(f);
}

/// Deterministic prefix-sum transition: state is the running sum, output
/// is the sum after absorbing the input. Speculation always validates.
struct Sum;
impl StateTransition for Sum {
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
        state.0 = state.0.wrapping_add(*input);
        state.0
    }
}

/// A transition that panics on one specific input value.
struct ExplodeOn(u64);
impl StateTransition for ExplodeOn {
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
        assert!(*input != self.0, "transition exploded");
        state.0 = state.0.wrapping_add(*input);
        state.0
    }
}

/// `group_size` 2 so a 4-input stream forms two groups: group 0 inline on
/// the coordinator, group 1 dispatched to the pool — the smallest shape
/// that exercises the resolver/coordinator/worker handoff.
fn two_group_config() -> SpecConfig {
    SpecConfig {
        group_size: 2,
        window: 1,
        max_reexec: 1,
        rollback: 1,
        ..SpecConfig::default()
    }
}

/// Tentpole model 1: after `scope()` returns, the batch is fully visible
/// in `metrics()`. Pins the `jobs` Release (worker_loop) / Acquire (settle
/// loop, metrics) pair: if the worker's increment were Relaxed, an
/// execution would exist where `jobs_executed` under-counts.
#[test]
fn pool_scope_settle_publishes_metrics() {
    model(2, || {
        let pool = ThreadPool::new(2);
        let data = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let data = Arc::clone(&data);
                move |_i: usize| {
                    data.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        pool.scope(jobs);
        let m = pool.metrics();
        assert_eq!(m.jobs_executed, 2, "settle loop exited early");
        // The Relaxed data counter is ordered by the same edge: reading it
        // stale here would mean the scope returned before its jobs' side
        // effects were published.
        assert_eq!(data.load(Ordering::Relaxed), 2, "job effects not visible");
    });
}

/// Tentpole model 2: a job panic must surface from `scope()` in every
/// interleaving. The panic is recorded under the batch's `done` mutex
/// before the job's AcqRel countdown; read the record before the batch is
/// finished (or weaken the countdown) and an execution appears where the
/// panic is lost.
#[test]
fn pool_scope_routes_job_panics() {
    model(2, || {
        let pool = ThreadPool::new(1);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(vec![
                (|_i: usize| {}) as fn(usize),
                (|_i: usize| panic!("job exploded")) as fn(usize),
            ]);
        }))
        .expect_err("a panicking job must fail the scope");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("panicked in ThreadPool::scope"),
            "wrong panic: {msg}"
        );
    });
}

/// Tentpole model 3: dropping the pool completes already-submitted
/// fire-and-forget work before joining the workers (shutdown/drain
/// handshake on the `live` mutex + `wake` condvar).
#[test]
fn pool_drop_completes_outstanding_work() {
    model(2, || {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(1);
            for _ in 0..2 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop waits for the drain; the worker join is the edge that
            // publishes the Relaxed increments.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2, "job lost at shutdown");
    });
}

/// Tentpole model 4: two workers (and the helping owner) racing the shared
/// lanes execute every submitted job exactly once (no loss, no
/// duplication), whatever the interleaving.
#[test]
fn pool_injector_never_loses_jobs() {
    model(2, || {
        let pool = ThreadPool::new(2);
        let seen = Arc::new(Mutex::new([0u32; 3]));
        let jobs: Vec<_> = (0..3)
            .map(|_| {
                let seen = Arc::clone(&seen);
                move |i: usize| {
                    seen.lock()[i] += 1;
                }
            })
            .collect();
        pool.scope(jobs);
        assert_eq!(*seen.lock(), [1, 1, 1], "job lost or duplicated");
    });
}

/// Tentpole model 5: the full streaming handoff — producer pushes, the
/// coordinator forms groups, a pool worker executes the speculative
/// group, the resolver commits in order. The outcome must equal the
/// sequential prefix sum for every interleaving.
#[test]
fn session_push_finish_matches_batch() {
    model(1, || {
        let session = Session::new(
            ExactState(0u64),
            Sum,
            RunOptions::default()
                .pool(Arc::new(ThreadPool::new(1)))
                .config(two_group_config()),
        );
        for i in 1..=4u64 {
            session.push(i);
        }
        let outcome = session.finish();
        assert_eq!(outcome.outputs, vec![1, 3, 6, 10], "stream diverged");
        assert_eq!(outcome.final_state.0, 10);
    });
}

/// Tentpole model 6: with `queue_capacity` 1 the producer blocks on a full
/// queue; the coordinator's drain must always wake it (producer condvar),
/// and the close/finish handshake must complete — no lost-wakeup schedule.
#[test]
fn session_backpressure_wakeup() {
    model(1, || {
        let session = Session::new(
            ExactState(0u64),
            Sum,
            RunOptions::default()
                .pool(Arc::new(ThreadPool::new(1)))
                // group_size 1 keeps every group inline on the coordinator:
                // this model isolates the producer <-> coordinator queue.
                .config(SpecConfig {
                    group_size: 1,
                    ..SpecConfig::default()
                })
                .queue_capacity(1),
        );
        for i in 1..=3u64 {
            session.push(i); // blocks whenever the 1-slot queue is full
        }
        let outcome = session.finish();
        assert_eq!(
            outcome.outputs,
            vec![1, 3, 6],
            "input lost past a full queue"
        );
    });
}

/// Tentpole model 7: dropping a session mid-stream (inputs still queued,
/// no `finish()`) drains, joins the coordinator, and releases the engine
/// context in every schedule — the Drop-join can never leak or deadlock.
#[test]
fn session_drop_mid_stream_joins() {
    model(1, || {
        let sentinel = Arc::new(());
        {
            let session = Session::new(
                ExactState(0u64),
                Sum,
                RunOptions::default()
                    .pool(Arc::new(ThreadPool::new(1)))
                    .config(SpecConfig {
                        group_size: 1,
                        ..SpecConfig::default()
                    }),
            );
            let _hold = Arc::clone(&sentinel);
            session.push(1);
            session.push(2);
            // Dropped here without finish().
            drop(session);
            drop(_hold);
        }
        assert_eq!(Arc::strong_count(&sentinel), 1, "coordinator leaked");
    });
}

/// Tentpole model 8 (satellite: drop-while-panicking vs. stalled queue):
/// a transition panic inside a pool-executed speculative group must cross
/// worker → coordinator → owner as `SessionError::Panicked`, while a
/// producer blocked on the full bounded queue is woken by the
/// `coordinator_gone` guard instead of deadlocking. The model terminating
/// at all proves the no-deadlock half; the assertions prove the routing.
#[test]
fn session_panic_routing_try_finish() {
    model(1, || {
        let mut session = Session::new(
            ExactState(0u64),
            ExplodeOn(4),
            RunOptions::default()
                .pool(Arc::new(ThreadPool::new(1)))
                .config(two_group_config())
                .queue_capacity(1),
        );
        // Input 4 lands in group 1, which runs on the pool worker. The
        // producer keeps pushing against capacity 1 after the poisoned
        // group is in flight; if the dying coordinator failed to mark
        // itself gone, this push could block forever.
        let pushed = catch_unwind(AssertUnwindSafe(|| {
            for i in 1..=6u64 {
                session.push(i);
            }
        }));
        match session.try_finish() {
            Err(SessionError::Panicked { message, .. }) => {
                assert!(message.contains("transition exploded"), "{message}");
            }
            Ok(_) => {
                // The coordinator re-raises the worker panic before any
                // output commits past the poisoned group; reaching finish
                // cleanly would mean the panic was swallowed.
                panic!("worker panic was swallowed");
            }
            Err(other) => panic!("unexpected session error: {other}"),
        }
        // If a push raced the coordinator's death it panicked with the
        // coordinator-gone message — both completing and failing fast are
        // legal; hanging is not (the model's deadlock detector enforces it).
        if let Err(payload) = pushed {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("coordinator has terminated"),
                "wrong producer failure: {msg}"
            );
        }
        // The worker survives for the next scope: the panic was contained.
        drop(session);
    });
}

/// Audit regression: `thread::yield_now` in the settle loop is a real
/// scheduling point — a spin loop over the Acquire-loaded `jobs` counter
/// settles in every schedule rather than starving the worker (the model
/// runs yielded threads only when nothing else can run, so this also
/// proves the loop cannot spin forever while the worker is runnable).
#[test]
fn pool_metrics_settle_after_repeated_scopes() {
    model(1, || {
        let pool = ThreadPool::new(1);
        pool.scope(vec![|_: usize| {}]);
        pool.scope(vec![|_: usize| {}]);
        assert_eq!(pool.metrics().jobs_executed, 2, "cumulative count lost");
    });
}

/// Coordinator handoff on a cache built inside the model (a process-wide
/// cache would outlive it): the first job spawns the thread, delivers its
/// result exactly once, and has dropped its captures by the time `join`
/// returns; a panicking job hands its payload to `join` and leaves the
/// thread alive; the third job runs on that same parked thread. Dropping
/// the cache lets the parked thread exit, so the model terminates.
#[test]
fn coordinator_handoff_reuses_parked_thread() {
    model(2, || {
        let cache = CoordinatorCache::new(1);
        let runs = Arc::new(AtomicU64::new(0));
        let sentinel = Arc::new(());
        let (job_runs, held) = (Arc::clone(&runs), Arc::clone(&sentinel));
        let first = cache
            .spawn(move || {
                let _held = held;
                job_runs.fetch_add(1, Ordering::Relaxed);
                std::thread::current().id()
            })
            .join()
            .expect("the first job does not panic");
        assert_eq!(runs.load(Ordering::Relaxed), 1, "job ran more than once");
        assert_eq!(Arc::strong_count(&sentinel), 1, "captures outlived join");

        let payload = cache
            .spawn::<(), _>(|| panic!("coordinator job exploded"))
            .join()
            .expect_err("the panic reaches join");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "coordinator job exploded", "wrong payload");

        let third = cache
            .spawn(|| std::thread::current().id())
            .join()
            .expect("the third job does not panic");
        assert_eq!(third, first, "the parked coordinator was not reused");
    });
}

/// Set once some execution of `pool_owner_help_runs_each_job_once` had the
/// owner run a job, and once some had the worker run one: the model must
/// explore both sides of the race, not only prove the one it happened on.
static HELP_RACE_SIDES: std::sync::Mutex<(bool, bool)> = std::sync::Mutex::new((false, false));

/// A job submitted while the only worker is between "lanes empty" and
/// parking must still wake it. Nobody helps here — the owner blocks on its
/// own condvar — so a lost wake-up is a model deadlock. The second round
/// races the worker's *re*-park after its first job. Before workers parked
/// without a timeout, a 1 ms timed wait masked exactly this race.
#[test]
fn pool_parked_worker_never_misses_a_job() {
    model(2, || {
        let pool = ThreadPool::new(1);
        for _ in 0..2 {
            let done = Arc::new((Mutex::new(false), Condvar::new()));
            let signal = Arc::clone(&done);
            pool.execute(move || {
                *signal.0.lock() = true;
                signal.1.notify_one();
            });
            let (lock, cv) = &*done;
            let mut ran = lock.lock();
            while !*ran {
                cv.wait(&mut ran);
            }
        }
        assert_eq!(pool.metrics().helped_jobs, 0, "nobody helps in this model");
    });
}

/// The scope owner helps while the worker races it for the same two jobs:
/// each job runs exactly once whoever takes it, and the second job's panic
/// still fails `scope()` with that job's message.
#[test]
fn pool_owner_help_runs_each_job_once() {
    model(2, || {
        let pool = ThreadPool::new(1);
        let seen = Arc::new(Mutex::new([0u32; 2]));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let seen = Arc::clone(&seen);
                move |i: usize| {
                    seen.lock()[i] += 1;
                    assert!(i != 1, "job exploded");
                }
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| pool.scope(jobs)))
            .expect_err("a panicking job must fail the scope");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("job exploded"), "wrong panic: {msg}");
        assert_eq!(*seen.lock(), [1, 1], "job lost or duplicated");
        let m = pool.metrics();
        assert_eq!(m.jobs_executed, 2, "a job was not counted");
        let mut sides = HELP_RACE_SIDES.lock().unwrap();
        sides.0 |= m.helped_jobs > 0;
        sides.1 |= m.helped_jobs < 2;
    });
    let sides = *HELP_RACE_SIDES.lock().unwrap();
    assert_eq!(
        sides,
        (true, true),
        "the owner/worker race was not explored"
    );
}

/// The pooled DAG completion handshake: a 1-input diamond on 1 worker,
/// where the coordinator helps with its own eager node runs while the
/// worker takes others. Whoever runs a node, the coordinator must see
/// every completion and commit exactly the sequential plan's result.
#[test]
fn plan_coordinator_help_sees_every_completion() {
    model(1, || {
        let mut b = SpecPlan::builder();
        let src = b.node(1);
        let left = b.node(1);
        let right = b.node(1);
        let join = b.node(1);
        b.edge(src, left)
            .edge(src, right)
            .edge(left, join)
            .edge(right, join);
        let options = RunOptions::default()
            .config(SpecConfig {
                window: 1,
                ..SpecConfig::default()
            })
            .plan(b.build().expect("acyclic"));
        let inputs = vec![1u64, 2, 3, 4];
        let reference = run_protocol_with_options(&Sum, &inputs, &ExactState(0), &options);
        let pooled = StateDependence::new(inputs, ExactState(0u64), Sum)
            .with_options(options.pool(Arc::new(ThreadPool::new(1))))
            .run();
        assert_eq!(pooled.outputs, reference.outputs, "plan diverged");
        assert_eq!(pooled.final_state.0, reference.final_state.0);
        assert_eq!(pooled.report, reference.report);
    });
}
