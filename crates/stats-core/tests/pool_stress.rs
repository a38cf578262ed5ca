//! Sanitizer-oriented stress tests for the pool and session concurrency.
//!
//! Where `tests/loom.rs` explores every interleaving of a tiny workload,
//! these tests hammer a big workload on real threads so dynamic race
//! detectors have something to bite on. They are what `ci.sh --tsan` runs
//! under ThreadSanitizer (`RUSTFLAGS="-Zsanitizer=thread"` on nightly);
//! without TSan they still serve as plain high-contention regression
//! tests, so they run in the default suite too.
//!
//! `STRESS_ITERS` scales the iteration counts (default 1, CI can raise
//! it); keep the default modest so `cargo test` stays fast.

use std::time::Duration;

use stats_core::sync::atomic::{AtomicUsize, Ordering};
use stats_core::sync::Arc;
use stats_core::{
    run_protocol_with_options, ExactState, FaultPlan, FaultRule, InvocationCtx, RunOptions,
    Session, SpecConfig, SpecPlan, StateDependence, StateTransition, ThreadPool,
};

fn stress_iters() -> usize {
    std::env::var("STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

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

fn config() -> SpecConfig {
    SpecConfig {
        group_size: 4,
        window: 1,
        max_reexec: 2,
        rollback: 1,
        ..SpecConfig::default()
    }
}

/// Many short scopes with skewed job costs through one shared pool: the
/// helping owner, the settle loop, and the wake condvar all stay hot. Every
/// job must run exactly once per scope.
#[test]
fn many_short_scopes_share_one_pool() {
    let pool = ThreadPool::new(8);
    let ran = Arc::new(AtomicUsize::new(0));
    let rounds = 40 * stress_iters();
    for round in 0..rounds {
        let jobs: Vec<_> = (0..16)
            .map(|i| {
                let ran = Arc::clone(&ran);
                move |_idx: usize| {
                    // Skew: some jobs spin a little so the others spread out.
                    let mut acc = (round + i) as u64;
                    for _ in 0..(i % 5) * 200 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(acc);
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        let before = ran.load(Ordering::Relaxed);
        pool.scope(jobs);
        assert_eq!(ran.load(Ordering::Relaxed), before + 16, "round {round}");
    }
    assert_eq!(ran.load(Ordering::Relaxed), rounds * 16);
}

/// Concurrent sessions over one pool, each a deterministic prefix sum:
/// outputs must be exact despite cross-session contention on the pool's
/// injector, counters, and wake condvar.
#[test]
fn concurrent_sessions_stay_deterministic() {
    let pool = Arc::new(ThreadPool::new(4));
    let sessions = 4;
    let inputs_per = 64 * stress_iters();
    std::thread::scope(|s| {
        for _ in 0..sessions {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let session = Session::new(
                    ExactState(0u64),
                    Sum,
                    RunOptions::default()
                        .pool(pool)
                        .config(config())
                        .queue_capacity(8),
                );
                for i in 1..=inputs_per as u64 {
                    session.push(i);
                }
                let outcome = session.finish();
                let mut expect = 0u64;
                for (i, out) in outcome.outputs.iter().enumerate() {
                    expect = expect.wrapping_add(i as u64 + 1);
                    assert_eq!(*out, expect, "output {i} diverged");
                }
            });
        }
    });
}

/// Seeded fault plans (worker panics + queue stalls) under contention:
/// the retry path, the lost-group channel, and the backpressure wakeups
/// all race, and the run must still commit every input in order.
#[test]
fn faulted_sessions_recover_under_contention() {
    let pool = Arc::new(ThreadPool::new(4));
    for round in 0..(3 * stress_iters()) {
        let plan = FaultPlan::new(round as u64)
            .worker_panic(FaultRule::transient(0.4))
            .queue_stall(FaultRule::slow(0.2, Duration::from_micros(50)));
        let session = Session::new(
            ExactState(0u64),
            Sum,
            RunOptions::default()
                .pool(Arc::clone(&pool))
                .config(config())
                .seed(round as u64)
                .faults(plan)
                .queue_capacity(4),
        );
        let n = 48u64;
        for i in 1..=n {
            session.push(i);
        }
        let outcome = session.finish();
        assert_eq!(outcome.outputs.len(), n as usize, "round {round}");
        assert_eq!(outcome.final_state.0, n * (n + 1) / 2, "round {round}");
    }
}

/// A diamond plan (source, two branches, join) of `per_node` inputs each.
fn diamond(per_node: usize) -> SpecPlan {
    let mut b = SpecPlan::builder();
    let src = b.node(per_node);
    let left = b.node(per_node);
    let right = b.node(per_node);
    let join = b.node(per_node);
    b.edge(src, left)
        .edge(src, right)
        .edge(left, join)
        .edge(right, join);
    b.build().expect("acyclic")
}

/// Waiters that help: batch runs (whose `scope` owner helps), DAG-plan runs
/// (whose coordinator helps) and streamed sessions (whose coordinator
/// helps) all wait on one small pool at the same time, so each helper also
/// runs the others' jobs. Every run must equal its sequential reference.
/// A lost wake-up or a helping deadlock fails the test with a message
/// instead of hanging it.
#[test]
fn helping_waiters_share_small_pools() {
    let rounds = 25 * stress_iters();
    for workers in [1usize, 2] {
        let (done_tx, done) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let pool = Arc::new(ThreadPool::new(workers));
            let batch_inputs: Vec<u64> = (1..=24).collect();
            let plan = diamond(6);
            let plan_inputs: Vec<u64> = (1..=plan.total_inputs() as u64).collect();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for round in 0..rounds {
                        let options = RunOptions::default().config(config()).seed(round as u64);
                        let reference = run_protocol_with_options(
                            &Sum,
                            &batch_inputs,
                            &ExactState(0),
                            &options,
                        );
                        let pooled = StateDependence::new(batch_inputs.clone(), ExactState(0), Sum)
                            .with_options(options.pool(Arc::clone(&pool)))
                            .run();
                        assert_eq!(pooled.outputs, reference.outputs, "batch round {round}");
                        assert_eq!(pooled.report, reference.report, "batch round {round}");
                    }
                });
                s.spawn(|| {
                    for round in 0..rounds {
                        let options = RunOptions::default()
                            .config(config())
                            .seed(round as u64)
                            .plan(plan.clone());
                        let reference =
                            run_protocol_with_options(&Sum, &plan_inputs, &ExactState(0), &options);
                        let pooled = StateDependence::new(plan_inputs.clone(), ExactState(0), Sum)
                            .with_options(options.pool(Arc::clone(&pool)))
                            .run();
                        assert_eq!(pooled.outputs, reference.outputs, "plan round {round}");
                        assert_eq!(pooled.report, reference.report, "plan round {round}");
                    }
                });
                s.spawn(|| {
                    for round in 0..rounds {
                        let options = RunOptions::default().config(config()).seed(round as u64);
                        let reference = run_protocol_with_options(
                            &Sum,
                            &batch_inputs,
                            &ExactState(0),
                            &options,
                        );
                        let session = Session::new(
                            ExactState(0u64),
                            Sum,
                            options.pool(Arc::clone(&pool)).queue_capacity(4),
                        );
                        for &i in &batch_inputs {
                            session.push(i);
                        }
                        let outcome = session.finish();
                        assert_eq!(outcome.outputs, reference.outputs, "session round {round}");
                    }
                });
            });
            let _ = done_tx.send(pool.metrics());
        });
        let metrics = match done.recv_timeout(Duration::from_secs(120)) {
            Ok(metrics) => metrics,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!(
                "helping waiters on a {workers}-worker pool did not finish within 120 s: \
                 a lost wake-up or a helping deadlock"
            ),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                panic!("a run on the {workers}-worker pool failed (see its panic above)")
            }
        };
        watched
            .join()
            .expect("the watched runs returned their metrics");
        assert!(
            metrics.jobs_executed > 0,
            "{workers} workers: no pool jobs ran"
        );
    }
}
