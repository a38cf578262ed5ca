//! A fixed-size thread pool whose waiters help run its jobs.
//!
//! The paper's runtime "includes an efficient thread pool implementation
//! (shared with all state dependences) to minimize thread creation
//! overhead". This pool is created once and shared. Submitted jobs go into
//! one of two shared FIFO lanes (see [`Priority`]); each worker takes one
//! job at a time, High lane first, and parks on a condvar when both lanes
//! are empty. See [`ThreadPool`] for who runs a job and how panics are
//! contained.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::deque::{Injector, Steal};
use crate::sync::{thread, Arc, CachePadded, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Dispatch lane for a submitted job.
///
/// The pool keeps two shared lanes. Workers and helpers drain the high
/// lane before touching the normal one, so latency-critical jobs (e.g.
/// speculative groups of a high-priority tenant behind the
/// [`serve`](crate::serve) front door) overtake bulk work that was
/// submitted earlier without preempting anything already running. Within
/// a lane, order stays FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// The default lane; all pre-existing entry points submit here.
    #[default]
    Normal,
    /// Drained before `Normal` work by every worker and helper.
    High,
}

/// Monotonic pool counters, updated by whichever thread runs a job.
///
/// Every field is cache-line padded: these counters are written from all
/// workers on every job, and unpadded they share lines with each other (and
/// with whatever neighbours the allocator picks), so each bump invalidates
/// the line under every other core — false sharing that grows with the
/// worker count. `busy_ns` is padded per *entry* because each worker owns
/// exactly one slot; adjacent slots in one `Vec` are the textbook case.
struct PoolCounters {
    /// Jobs completed, by workers and helpers alike.
    jobs: CachePadded<AtomicU64>,
    /// Deepest backlog over both lanes observed at submission time.
    max_injector_depth: CachePadded<AtomicU64>,
    /// Per-worker nanoseconds spent executing jobs (not idling).
    busy_ns: Vec<CachePadded<AtomicU64>>,
    /// Jobs run by waiting callers rather than by workers.
    helped_jobs: CachePadded<AtomicU64>,
    /// Nanoseconds waiting callers spent running jobs.
    helped_busy_ns: CachePadded<AtomicU64>,
}

struct PoolShared {
    /// Padded so lane traffic doesn't drag the lock line along.
    injector: CachePadded<Injector<Job>>,
    /// High-priority lane, drained before the normal one.
    priority_injector: CachePadded<Injector<Job>>,
    /// Parked-worker count and the shutdown flag. Submissions push under
    /// this lock, which is what makes a worker's "lanes empty, park"
    /// decision race-free.
    live: Mutex<PoolState>,
    wake: Condvar,
    counters: PoolCounters,
}

struct PoolState {
    /// Workers parked on `wake`; a submission notifies only when non-zero.
    sleepers: usize,
    shutdown: bool,
}

impl PoolShared {
    fn lane(&self, priority: Priority) -> &Injector<Job> {
        match priority {
            Priority::Normal => &self.injector,
            Priority::High => &self.priority_injector,
        }
    }

    /// Take one queued job, High lane first.
    fn pop(&self) -> Option<Job> {
        for lane in [&*self.priority_injector, &*self.injector] {
            loop {
                match lane.steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn lanes_empty(&self) -> bool {
        self.priority_injector.is_empty() && self.injector.is_empty()
    }

    /// Push `jobs` onto one lane under a single `live` lock and wake as
    /// many parked workers as there are jobs, with one notify call.
    fn submit(&self, priority: Priority, jobs: impl IntoIterator<Item = Job>) {
        let state = self.live.lock();
        assert!(!state.shutdown, "pool is shut down");
        let lane = self.lane(priority);
        let mut submitted = 0usize;
        for job in jobs {
            lane.push(job);
            submitted += 1;
        }
        // Racy sample (jobs drain concurrently): a lower bound on the true
        // peak backlog, good enough to spot submission bursts.
        let depth = (self.injector.len() + self.priority_injector.len()) as u64;
        self.counters
            .max_injector_depth
            .fetch_max(depth, Ordering::Relaxed);
        let wake = submitted.min(state.sleepers);
        drop(state);
        if wake == 1 {
            self.wake.notify_one();
        } else if wake > 1 {
            self.wake.notify_all();
        }
    }

    /// Run one job on the calling thread — the one path every job takes,
    /// on a worker (`worker = Some(index)`) or a helping waiter (`None`).
    fn run(&self, job: Job, worker: Option<usize>) {
        let began = Instant::now();
        // A panic must not unwind out of a worker (the pool would lose the
        // thread) or out of a helper (the waiter would fail for a job that
        // is not its own). `scope` jobs and the runtime's own jobs catch
        // and route their panics before this; others end here.
        let _ = catch_unwind(AssertUnwindSafe(job));
        let ns = began.elapsed().as_nanos() as u64;
        let c = &self.counters;
        match worker {
            Some(i) => c.busy_ns[i].fetch_add(ns, Ordering::Relaxed),
            None => {
                c.helped_jobs.fetch_add(1, Ordering::Relaxed);
                c.helped_busy_ns.fetch_add(ns, Ordering::Relaxed)
            }
        };
        // Release pairs with the Acquire loads in `scope`/`metrics`: once
        // a job is visible in the counter, its busy time is too.
        c.jobs.fetch_add(1, Ordering::Release);
    }
}

/// A fixed-size pool of worker threads executing submitted closures.
///
/// Who runs a job: a worker, or a thread that is waiting on the pool.
/// [`ThreadPool::scope`], the coordinator of a pooled DAG-plan run, and a
/// streaming session's coordinator waiting on its own groups run queued
/// jobs themselves before they park, so a short batch costs no wake-up
/// round trip: the waiter often finishes it before a parked worker is even
/// scheduled. A helper may run a job that someone else submitted. Every
/// job is `'static` and owns what it touches, so which thread runs it does
/// not matter, except that a job which blocks until another thread acts
/// stalls whichever thread runs it, a helping waiter included.
///
/// Panics are contained. Every job, whoever runs it, executes under
/// `catch_unwind`, so a panicking job kills neither a worker nor a helping
/// caller. [`ThreadPool::scope`] re-raises its jobs' panics on its caller;
/// a panic in an [`ThreadPool::execute`] job is reported by the panic hook
/// and otherwise dropped, so callers that need it route it themselves.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let padded = || CachePadded::new(AtomicU64::new(0));
        let shared = Arc::new(PoolShared {
            injector: CachePadded::new(Injector::new()),
            priority_injector: CachePadded::new(Injector::new()),
            live: Mutex::new(PoolState {
                sleepers: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            counters: PoolCounters {
                jobs: padded(),
                max_injector_depth: padded(),
                busy_ns: (0..threads).map(|_| padded()).collect(),
                helped_jobs: padded(),
                helped_busy_ns: padded(),
            },
        });

        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("stats-worker-{i}"))
                    .spawn(move || worker_loop(i, shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submit a fire-and-forget job on the [`Priority::Normal`] lane.
    ///
    /// The job runs on a worker, or on a thread that helps while it waits
    /// on this pool (see [`ThreadPool`]). A panic in the job is
    /// contained: it is reported by the panic hook, and the thread that
    /// ran the job carries on. A job whose panic matters must catch it.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.execute_with_priority(Priority::Normal, job);
    }

    /// Submit a fire-and-forget job on an explicit dispatch lane; otherwise
    /// as [`execute`](Self::execute).
    pub fn execute_with_priority(&self, priority: Priority, job: impl FnOnce() + Send + 'static) {
        self.shared
            .submit(priority, std::iter::once(Box::new(job) as Job));
    }

    /// Run one queued job (High lane first) on the calling thread; false
    /// when both lanes are empty. Threads that wait on the pool call this
    /// before they park: each drops its own lock first and re-checks its
    /// wake condition under that lock before waiting, so a completion
    /// signalled while it was helping is never lost.
    pub(crate) fn help_one(&self) -> bool {
        match self.shared.pop() {
            Some(job) => {
                self.shared.run(job, None);
                true
            }
            None => false,
        }
    }

    /// Snapshot the pool's observability counters.
    pub fn metrics(&self) -> PoolMetrics {
        let c = &self.shared.counters;
        PoolMetrics {
            jobs_executed: c.jobs.load(Ordering::Acquire),
            steals: 0,
            max_injector_depth: c.max_injector_depth.load(Ordering::Relaxed),
            busy: c
                .busy_ns
                .iter()
                .map(|ns| Duration::from_nanos(ns.load(Ordering::Relaxed)))
                .collect(),
            helped_jobs: c.helped_jobs.load(Ordering::Relaxed),
            helped_busy: Duration::from_nanos(c.helped_busy_ns.load(Ordering::Relaxed)),
        }
    }

    /// Run a batch of jobs and wait for all of them to complete.
    ///
    /// Jobs receive their index. The whole batch is submitted under one
    /// lock; while it is unfinished the caller runs queued jobs itself
    /// (this batch's or anyone else's), and parks only when nothing is
    /// queued. Panics in jobs are contained and surface as a panic here
    /// once the whole batch has run; its message carries the first job
    /// panic's message.
    pub fn scope<F>(&self, jobs: Vec<F>)
    where
        F: FnOnce(usize) + Send + 'static,
    {
        let total = jobs.len();
        if total == 0 {
            return;
        }
        let jobs_before = self.shared.counters.jobs.load(Ordering::Acquire);
        let batch = Arc::new(ScopeBatch {
            remaining: AtomicUsize::new(total),
            done: Mutex::new(ScopeDone::default()),
            finished: Condvar::new(),
        });
        let boxed = jobs.into_iter().enumerate().map(|(i, job)| {
            let batch = Arc::clone(&batch);
            Box::new(move || batch.run(i, job)) as Job
        });
        self.shared.submit(Priority::Normal, boxed);
        let done = batch.wait(self);
        // The thread that ran a job bumps the observability counters just
        // *after* the job's completion is signalled, so settle until this
        // batch's increments land — metrics() taken right after a scope
        // then covers all of it.
        let target = jobs_before + total as u64;
        // Ordering: Acquire pairs with the Release increment in
        // `PoolShared::run` so that once the settle loop exits, each counted
        // job's side effects (busy_ns, helped counters) are visible — see
        // docs/concurrency.md, pinned by `pool_scope_settle_publishes_metrics`.
        while self.shared.counters.jobs.load(Ordering::Acquire) < target {
            thread::yield_now();
        }
        assert!(
            done.panics == 0,
            "{} job(s) panicked in ThreadPool::scope: {}",
            done.panics,
            done.message.as_deref().unwrap_or_default()
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

/// Completion state of one [`ThreadPool::scope`] batch, shared by its jobs.
struct ScopeBatch {
    /// Jobs not yet finished; the job that takes it to zero signals.
    remaining: AtomicUsize,
    done: Mutex<ScopeDone>,
    /// Signalled once, by the batch's last job.
    finished: Condvar,
}

#[derive(Default)]
struct ScopeDone {
    finished: bool,
    panics: usize,
    /// Message of the first job panic.
    message: Option<String>,
}

impl ScopeBatch {
    /// Job wrapper: run job `i`, record its panic, signal if it was last.
    fn run<F: FnOnce(usize)>(&self, i: usize, job: F) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i))) {
            let mut done = self.done.lock();
            done.panics += 1;
            done.message.get_or_insert_with(|| panic_message(&*payload));
        }
        // Ordering: AcqRel. Every job's decrement releases its own writes
        // (job body, panic record) and acquires the earlier decrements, so
        // the last job happens after the whole batch; its `finished` store
        // under `done` then publishes all of it to the waiting caller —
        // see docs/concurrency.md, pinned by `pool_scope_routes_job_panics`
        // and `pool_owner_help_runs_each_job_once`.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.lock().finished = true;
            self.finished.notify_one();
        }
    }

    /// Help with queued jobs until the batch is finished, parking only when
    /// nothing is queued; returns the batch's panic record.
    fn wait(&self, pool: &ThreadPool) -> ScopeDone {
        // Ordering: Acquire pairs with the last job's AcqRel decrement, so
        // seeing zero here means every job's writes are visible.
        while self.remaining.load(Ordering::Acquire) > 0 {
            if pool.help_one() {
                continue;
            }
            let mut done = self.done.lock();
            if !done.finished {
                self.finished.wait(&mut done);
            }
        }
        std::mem::take(&mut *self.done.lock())
    }
}

/// A point-in-time snapshot of [`ThreadPool`] activity, for utilization
/// reporting (`stats-report`) and pool tuning.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Jobs completed since the pool was created, whoever ran them.
    pub jobs_executed: u64,
    /// Always 0: workers take jobs one at a time from the pool's shared
    /// lanes and never migrate work between each other. Kept so existing
    /// readers of this field (reports, benchmarks) keep working.
    pub steals: u64,
    /// Deepest backlog over both lanes observed at submission time.
    pub max_injector_depth: u64,
    /// Per-worker time spent executing jobs (index = worker).
    pub busy: Vec<Duration>,
    /// Jobs run by threads waiting on the pool instead of by workers
    /// (included in `jobs_executed`).
    pub helped_jobs: u64,
    /// Time waiting threads spent running jobs (not in any `busy` slot).
    pub helped_busy: Duration,
}

impl PoolMetrics {
    /// Total time spent executing jobs: every worker's busy time plus the
    /// time helping waiters spent running jobs.
    pub fn total_busy(&self) -> Duration {
        self.busy.iter().sum::<Duration>() + self.helped_busy
    }

    /// Fraction of `wall × workers` capacity spent executing jobs (helped
    /// time counts as work, so this is capped at 1).
    pub fn utilization(&self, wall: Duration) -> f64 {
        let capacity = wall.as_secs_f64() * self.busy.len().max(1) as f64;
        if capacity > 0.0 {
            (self.total_busy().as_secs_f64() / capacity).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

fn worker_loop(idx: usize, shared: Arc<PoolShared>) {
    loop {
        if let Some(job) = shared.pop() {
            shared.run(job, Some(idx));
            continue;
        }
        let mut state = shared.live.lock();
        // Re-check under the lock: `submit` pushes under it, so a job that
        // arrives after this check finds `sleepers > 0` and notifies.
        if !shared.lanes_empty() {
            continue;
        }
        // Shutdown only ends a worker once the lanes are drained, so Drop
        // still completes every submitted job.
        if state.shutdown {
            return;
        }
        state.sleepers += 1;
        shared.wake.wait(&mut state);
        state.sleepers -= 1;
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.live.lock().shutdown = true;
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
    fn skewed_job_costs_balance_across_workers() {
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

    /// Run `f` on its own thread and fail with `what` if it has not
    /// returned within ten seconds, instead of hanging the test binary.
    fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let value = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what} did not complete within 10 s"));
        handle
            .join()
            .expect("the watched thread returned its value");
        value
    }

    #[test]
    fn panicking_execute_job_leaves_the_worker_alive() {
        within("a pool whose execute job panicked", || {
            let pool = ThreadPool::new(2);
            pool.execute(|| panic!("execute job exploded"));
            let (tx, rx) = std::sync::mpsc::channel();
            pool.execute(move || {
                let name = std::thread::current().name().map(str::to_string);
                let _ = tx.send(name);
            });
            let name = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("the second job never ran");
            assert!(
                name.as_deref()
                    .is_some_and(|n| n.starts_with("stats-worker-")),
                "ran on {name:?}"
            );
            drop(pool);
        });
    }

    #[test]
    fn scope_inside_a_job_on_one_worker_completes() {
        // The only worker runs the outer job, so the inner scope's jobs can
        // only run because the waiting outer job helps with them.
        let ran = within("a scope nested in a 1-worker pool job", || {
            let pool = Arc::new(ThreadPool::new(1));
            let inner = Arc::clone(&pool);
            let ran = Arc::new(AtomicU64::new(0));
            let counted = Arc::clone(&ran);
            pool.scope(vec![move |_: usize| {
                let jobs: Vec<_> = (0..4)
                    .map(|_| {
                        let counted = Arc::clone(&counted);
                        move |_: usize| {
                            counted.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .collect();
                inner.scope(jobs);
            }]);
            let helped = pool.metrics().helped_jobs;
            (ran.load(Ordering::Relaxed), helped)
        });
        assert_eq!(ran.0, 4);
        assert!(ran.1 >= 4, "inner jobs were not helped: {}", ran.1);
    }

    #[test]
    fn helped_jobs_are_counted_but_not_credited_to_workers() {
        // Hold the only worker, so the caller must run its batch itself.
        let pool = ThreadPool::new(1);
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
        let jobs: Vec<_> = (0..3)
            .map(|_| |_: usize| std::thread::sleep(std::time::Duration::from_millis(2)))
            .collect();
        pool.scope(jobs);
        let m = pool.metrics();
        *gate.0.lock() = true;
        gate.1.notify_all();
        assert_eq!(m.helped_jobs, 3);
        assert_eq!(m.jobs_executed, 3, "the gate job is still running");
        assert!(m.helped_busy >= std::time::Duration::from_millis(6));
        assert_eq!(m.total_busy(), m.busy[0] + m.helped_busy);
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
