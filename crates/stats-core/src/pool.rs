//! A fixed-size, work-stealing thread pool.
//!
//! The paper's runtime "includes an efficient thread pool implementation
//! (shared with all state dependences) to minimize thread creation
//! overhead". This pool is created once and shared. Jobs are distributed
//! over per-worker deques (`crossbeam-deque`): each worker pops from its
//! own queue, falls back to the shared injector, and finally steals from
//! siblings — the standard work-stealing discipline, which keeps group
//! executions balanced even when their costs are skewed (e.g. groups with
//! different auxiliary windows). [`ThreadPool::scope`] provides structured
//! completion: wait until every job submitted in the scope has finished.

use std::time::Duration;

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::deque::{Injector, Steal, Stealer, Worker};
use crate::sync::{thread, Arc, CachePadded, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Dispatch lane for a submitted job.
///
/// The pool keeps two global injectors. Workers drain the high lane
/// before touching their local deque or the normal injector, so
/// latency-critical jobs (e.g. speculative groups of a high-priority
/// tenant behind the [`serve`](crate::serve) front door) overtake bulk
/// work that was submitted earlier without preempting anything already
/// running. Within a lane, order stays FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// The default lane; all pre-existing entry points submit here.
    #[default]
    Normal,
    /// Drained before `Normal` work by every worker.
    High,
}

/// Monotonic pool counters, updated by workers as they run.
///
/// Every field is cache-line padded: these counters are written from all
/// workers on every job, and unpadded they share lines with each other (and
/// with whatever neighbours the allocator picks), so each bump invalidates
/// the line under every other core — false sharing that grows with the
/// worker count. `busy_ns` is padded per *entry* because each worker owns
/// exactly one slot; adjacent slots in one `Vec` are the textbook case.
struct PoolCounters {
    /// Jobs completed (across all workers).
    jobs: CachePadded<AtomicU64>,
    /// Successful steals from a sibling worker's deque.
    steals: CachePadded<AtomicU64>,
    /// Deepest injector backlog observed at submission time.
    max_injector_depth: CachePadded<AtomicU64>,
    /// Per-worker nanoseconds spent executing jobs (not idling).
    busy_ns: Vec<CachePadded<AtomicU64>>,
}

struct PoolShared {
    /// Padded so injector traffic doesn't drag the stealers/lock lines along.
    injector: CachePadded<Injector<Job>>,
    /// High-priority lane, drained by workers before any other source.
    priority_injector: CachePadded<Injector<Job>>,
    stealers: Vec<Stealer<Job>>,
    /// Jobs submitted but not yet finished; also the shutdown flag home.
    live: Mutex<PoolState>,
    wake: Condvar,
    counters: PoolCounters,
}

struct PoolState {
    pending: usize,
    shutdown: bool,
}

/// A fixed-size pool of worker threads executing submitted closures with
/// work stealing.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let locals: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        let shared = Arc::new(PoolShared {
            injector: CachePadded::new(Injector::new()),
            priority_injector: CachePadded::new(Injector::new()),
            stealers,
            live: Mutex::new(PoolState {
                pending: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            counters: PoolCounters {
                jobs: CachePadded::new(AtomicU64::new(0)),
                steals: CachePadded::new(AtomicU64::new(0)),
                max_injector_depth: CachePadded::new(AtomicU64::new(0)),
                busy_ns: (0..threads)
                    .map(|_| CachePadded::new(AtomicU64::new(0)))
                    .collect(),
            },
        });

        let mut workers = Vec::with_capacity(threads);
        for (i, local) in locals.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("stats-worker-{i}"))
                .spawn(move || worker_loop(i, local, shared))
                .expect("failed to spawn worker thread");
            workers.push(handle);
        }
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submit a fire-and-forget job on the [`Priority::Normal`] lane.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.execute_with_priority(Priority::Normal, job);
    }

    /// Submit a fire-and-forget job on an explicit dispatch lane.
    pub fn execute_with_priority(&self, priority: Priority, job: impl FnOnce() + Send + 'static) {
        {
            let mut state = self.shared.live.lock();
            assert!(!state.shutdown, "pool is shut down");
            state.pending += 1;
        }
        match priority {
            Priority::Normal => self.shared.injector.push(Box::new(job)),
            Priority::High => self.shared.priority_injector.push(Box::new(job)),
        }
        // Racy sample (jobs drain concurrently): a lower bound on the true
        // peak backlog, good enough to spot submission bursts.
        let depth = (self.shared.injector.len() + self.shared.priority_injector.len()) as u64;
        self.shared
            .counters
            .max_injector_depth
            .fetch_max(depth, Ordering::Relaxed);
        self.shared.wake.notify_all();
    }

    /// Snapshot the pool's observability counters.
    pub fn metrics(&self) -> PoolMetrics {
        let c = &self.shared.counters;
        PoolMetrics {
            jobs_executed: c.jobs.load(Ordering::Acquire),
            steals: c.steals.load(Ordering::Relaxed),
            max_injector_depth: c.max_injector_depth.load(Ordering::Relaxed),
            busy: c
                .busy_ns
                .iter()
                .map(|ns| Duration::from_nanos(ns.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// Run a batch of jobs and wait for all of them to complete.
    ///
    /// Jobs receive their index. Panics in jobs are contained per-worker and
    /// surface as a panic here once the scope completes accounting; its
    /// message carries the first job panic's message.
    pub fn scope<F>(&self, jobs: Vec<F>)
    where
        F: FnOnce(usize) + Send + 'static,
    {
        let total = jobs.len();
        if total == 0 {
            return;
        }
        let jobs_before = self.shared.counters.jobs.load(Ordering::Acquire);
        // (jobs finished, message of the first job panic)
        let done = Arc::new((Mutex::new((0usize, None::<String>)), Condvar::new()));
        let panicked = Arc::new(AtomicUsize::new(0));
        for (i, job) in jobs.into_iter().enumerate() {
            let done = Arc::clone(&done);
            let panicked = Arc::clone(&panicked);
            self.execute(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    job(i);
                }));
                let message = result.as_ref().err().map(|p| panic_message(&**p));
                if message.is_some() {
                    // Ordering: Relaxed suffices. This increment is
                    // sequenced before the `done` lock/increment below, and
                    // the scope's read is sequenced after it observes
                    // `done.0 == total` under the same mutex — the mutex
                    // release/acquire edge orders every increment before the
                    // read (docs/concurrency.md; pinned by the loom model
                    // `pool_scope_routes_job_panics`, which fails if the
                    // count is read before the handshake instead).
                    panicked.fetch_add(1, Ordering::Relaxed);
                }
                let (lock, cvar) = &*done;
                let mut done = lock.lock();
                done.0 += 1;
                if done.1.is_none() {
                    done.1 = message;
                }
                cvar.notify_all();
            });
        }
        let (lock, cvar) = &*done;
        let mut done = lock.lock();
        while done.0 < total {
            cvar.wait(&mut done);
        }
        // Workers bump the observability counters just *after* a job's
        // completion signal fires, so settle until this batch's increments
        // land — metrics() taken right after a scope then covers all of it.
        let target = jobs_before + total as u64;
        // Ordering: Acquire pairs with the Release increment in
        // `worker_loop` so that once the settle loop exits, each counted
        // job's side effects (busy_ns, steal counters) are visible — see
        // docs/concurrency.md, pinned by `pool_scope_settle_publishes_metrics`.
        while self.shared.counters.jobs.load(Ordering::Acquire) < target {
            thread::yield_now();
        }
        // Ordering: Relaxed; ordered by the `done` mutex handshake above
        // (was SeqCst before the 2026-08 audit — over-synchronized, since
        // the mutex already provides the needed edge).
        let panics = panicked.load(Ordering::Relaxed);
        assert!(
            panics == 0,
            "{panics} job(s) panicked in ThreadPool::scope: {}",
            done.1.as_deref().unwrap_or_default()
        );
    }

    /// Apply `f` to every item concurrently, returning results in item order.
    ///
    /// The parallel counterpart of `items.iter().map(f).collect()`: results
    /// land at their item's index regardless of which worker ran them or in
    /// what order they finished.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let f = Arc::new(f);
        let out = Arc::new(Mutex::new((0..n).map(|_| None).collect::<Vec<_>>()));
        let jobs: Vec<_> = items
            .into_iter()
            .map(|item| {
                let f = Arc::clone(&f);
                let out = Arc::clone(&out);
                move |i: usize| {
                    let r = f(item);
                    out.lock()[i] = Some(r);
                }
            })
            .collect();
        self.scope(jobs);
        Arc::try_unwrap(out)
            .unwrap_or_else(|_| panic!("map results still shared after scope"))
            .into_inner()
            .into_iter()
            .map(|r| r.expect("scope ran every job"))
            .collect()
    }
}

/// A point-in-time snapshot of [`ThreadPool`] activity, for utilization
/// reporting (`stats-report`) and pool tuning.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Jobs completed since the pool was created.
    pub jobs_executed: u64,
    /// Successful steals from sibling workers (work that migrated).
    pub steals: u64,
    /// Deepest shared-injector backlog observed at submission time.
    pub max_injector_depth: u64,
    /// Per-worker time spent executing jobs (index = worker).
    pub busy: Vec<Duration>,
}

impl PoolMetrics {
    /// Total busy time summed over workers.
    pub fn total_busy(&self) -> Duration {
        self.busy.iter().sum()
    }

    /// Fraction of `wall × workers` capacity spent executing jobs.
    pub fn utilization(&self, wall: Duration) -> f64 {
        let capacity = wall.as_secs_f64() * self.busy.len().max(1) as f64;
        if capacity > 0.0 {
            (self.total_busy().as_secs_f64() / capacity).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

fn find_job(idx: usize, local: &Worker<Job>, shared: &PoolShared) -> Option<Job> {
    // The high-priority lane preempts every other source (one job at a
    // time — batch-stealing would bury priority jobs in the local FIFO
    // behind normal work), then own queue, then the normal injector
    // (refilling the local queue), then steal from siblings.
    loop {
        match shared.priority_injector.steal() {
            Steal::Success(job) => return Some(job),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    if let Some(job) = local.pop() {
        return Some(job);
    }
    loop {
        let steal = shared.injector.steal_batch_and_pop(local);
        if let Steal::Success(job) = steal {
            return Some(job);
        }
        if steal.is_empty() {
            break;
        } // Retry on contention.
    }
    for (j, stealer) in shared.stealers.iter().enumerate() {
        if j == idx {
            continue;
        }
        loop {
            match stealer.steal() {
                Steal::Success(job) => {
                    shared.counters.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(job);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

fn worker_loop(idx: usize, local: Worker<Job>, shared: Arc<PoolShared>) {
    loop {
        if let Some(job) = find_job(idx, &local, &shared) {
            let began = std::time::Instant::now();
            job();
            shared.counters.busy_ns[idx]
                .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
            // Release pairs with the Acquire loads in `scope`/`metrics`: once
            // a job is visible in the counter, its busy time is too.
            shared.counters.jobs.fetch_add(1, Ordering::Release);
            let mut state = shared.live.lock();
            state.pending -= 1;
            drop(state);
            shared.wake.notify_all();
            continue;
        }
        // Nothing runnable: park until new work or shutdown.
        let mut state = shared.live.lock();
        if state.shutdown && state.pending == 0 {
            return;
        }
        // Wait whenever nothing is findable — including during shutdown
        // with jobs still in flight on siblings (their completion notifies
        // `wake`). Gating the hint on `!shutdown`, as this loop originally
        // did, busy-spins here until the last job's `pending` decrement
        // lands; the loom model `pool_scope_settle_publishes_metrics`
        // flagged that spin as a livelock. The timeout bounds any wakeup
        // miss to 1ms regardless.
        if state.pending == 0 || find_nothing_hint(&shared) {
            shared.wake.wait_for(&mut state, Duration::from_millis(1));
        }
        if state.shutdown && state.pending == 0 {
            return;
        }
    }
}

/// Cheap emptiness hint (racy by design; the wait above has a timeout).
fn find_nothing_hint(shared: &PoolShared) -> bool {
    shared.injector.is_empty()
        && shared.priority_injector.is_empty()
        && shared.stealers.iter().all(Stealer::is_empty)
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.live.lock();
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Best-effort human-readable text from a panic payload.
///
/// `panic!("...")` payloads are `&str`/`String` and pass through verbatim.
/// `panic_any(value)` payloads are typed: `dyn Any` erases the concrete
/// type *name*, so this downcasts the payload shapes tenant transitions
/// actually throw (error trait objects and `Display`-able scalars), naming
/// each via `type_name` and rendering its value. Anything else falls back
/// to the payload's `TypeId` — opaque, but a stable correlator across a
/// server log, unlike the old blanket "non-string panic payload".
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! typed {
        ($($ty:ty),+ $(,)?) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!(
                    "typed panic payload {}: {v}",
                    std::any::type_name::<$ty>()
                );
            })+
        };
    }
    typed!(
        Box<dyn std::error::Error + Send + Sync>,
        Box<dyn std::error::Error + Send>,
        std::io::Error,
        std::borrow::Cow<'static, str>,
        i8,
        i16,
        i32,
        i64,
        i128,
        isize,
        u8,
        u16,
        u32,
        u64,
        u128,
        usize,
        f32,
        f64,
        bool,
        char,
    );
    format!("non-string panic payload ({:?})", payload.type_id())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let c = Arc::clone(&counter);
                move |_i: usize| {
                    c.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.scope(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn job_indices_are_distinct() {
        let pool = ThreadPool::new(3);
        let seen = Arc::new(Mutex::new(vec![false; 50]));
        let jobs: Vec<_> = (0..50)
            .map(|_| {
                let seen = Arc::clone(&seen);
                move |i: usize| {
                    seen.lock()[i] = true;
                }
            })
            .collect();
        pool.scope(jobs);
        assert!(seen.lock().iter().all(|&b| b));
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = ThreadPool::new(2);
        pool.scope(Vec::<fn(usize)>::new());
    }

    #[test]
    fn pool_reusable_across_scopes() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..5 {
            let c = Arc::clone(&counter);
            pool.scope(vec![move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }]);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn at_least_one_thread() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    #[should_panic(expected = "panicked in ThreadPool::scope")]
    fn job_panic_propagates() {
        let pool = ThreadPool::new(2);
        pool.scope(vec![|_i: usize| panic!("boom")]);
    }

    #[test]
    fn skewed_job_costs_balance_via_stealing() {
        // One long job + many short ones: total wall time must be far below
        // the serial sum, i.e. short jobs ran on other workers while one
        // worker was stuck with the long job.
        let pool = ThreadPool::new(4);
        let start = std::time::Instant::now();
        let jobs: Vec<_> = (0..40)
            .map(|i| {
                move |_idx: usize| {
                    let ms = if i == 0 { 60 } else { 3 };
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            })
            .collect();
        pool.scope(jobs);
        let elapsed = start.elapsed();
        // Serial: 60 + 39*3 = 177ms. Balanced on 4 workers: ~60-110ms.
        assert!(
            elapsed.as_millis() < 160,
            "no overlap: {}ms",
            elapsed.as_millis()
        );
    }

    #[test]
    fn map_preserves_item_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map((0..200).collect(), |i: i64| i * i);
        assert_eq!(out, (0..200).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_stress_concurrent_trials() {
        // Repeated fan-outs of uneven jobs through one shared pool — the
        // usage pattern of the parallel experiment driver. Order and
        // completeness must hold on every round.
        let pool = ThreadPool::new(8);
        for round in 0..20 {
            let out = pool.map((0..64).collect(), move |i: u64| {
                let mut acc = i + round;
                for _ in 0..(i % 7) * 1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i, acc)
            });
            assert_eq!(out.len(), 64);
            for (k, (i, _)) in out.iter().enumerate() {
                assert_eq!(*i, k as u64);
            }
        }
    }

    #[test]
    fn metrics_count_jobs_and_busy_time() {
        let pool = ThreadPool::new(3);
        let jobs: Vec<_> = (0..30)
            .map(|_| {
                move |_i: usize| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            })
            .collect();
        let began = std::time::Instant::now();
        pool.scope(jobs);
        let wall = began.elapsed();
        let m = pool.metrics();
        assert_eq!(m.jobs_executed, 30);
        assert_eq!(m.busy.len(), 3);
        // 30 × 2ms of sleep happened inside jobs.
        assert!(
            m.total_busy() >= std::time::Duration::from_millis(55),
            "total busy {:?}",
            m.total_busy()
        );
        let u = m.utilization(wall);
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        // 30 jobs pushed through one injector: a backlog was observable.
        assert!(m.max_injector_depth >= 1);
    }

    #[test]
    fn metrics_are_cumulative_across_scopes() {
        let pool = ThreadPool::new(2);
        pool.scope(vec![|_: usize| {}, |_: usize| {}]);
        let first = pool.metrics().jobs_executed;
        pool.scope(vec![|_: usize| {}]);
        assert_eq!(pool.metrics().jobs_executed, first + 1);
    }

    #[test]
    fn steals_observed_under_skew() {
        // One worker gets a long job batch-stolen into its local queue;
        // siblings must steal from it (or the injector) to stay busy. The
        // steal counter is best-effort: assert it doesn't panic and is
        // consistent with jobs having run somewhere.
        let pool = ThreadPool::new(4);
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move |_idx: usize| {
                    let ms = if i % 8 == 0 { 5 } else { 0 };
                    if ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
            })
            .collect();
        pool.scope(jobs);
        let m = pool.metrics();
        assert_eq!(m.jobs_executed, 64);
        assert!(m.steals <= 64);
    }

    #[test]
    fn priority_jobs_overtake_queued_normal_work() {
        // One worker, wedged on a gate job. While it is busy, enqueue a
        // burst of normal jobs and then one high-priority job: the
        // priority job must run before any of the queued normal jobs.
        let pool = ThreadPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let order = Arc::new(Mutex::new(Vec::new()));
        {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                let (lock, cvar) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cvar.wait(&mut open);
                }
            });
        }
        for i in 0..8 {
            let order = Arc::clone(&order);
            pool.execute(move || order.lock().push(format!("normal-{i}")));
        }
        {
            let order = Arc::clone(&order);
            pool.execute_with_priority(Priority::High, move || {
                order.lock().push("high".to_string())
            });
        }
        *gate.0.lock() = true;
        gate.1.notify_all();
        drop(pool); // drains everything
        let order = order.lock().clone();
        assert_eq!(order.len(), 9);
        assert_eq!(order[0], "high", "priority job did not overtake: {order:?}");
    }

    #[test]
    fn drop_completes_outstanding_work() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..20 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Dropping the pool waits for workers to drain.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }
}
