//! A persistent worker pool for scoped, borrowing task fan-out.
//!
//! The harness's sweeps and the replay what-if service run independent
//! simulations side by side, and both need the same shape of
//! parallelism: hand N closures that borrow the caller's stack to a fixed
//! set of threads, and block until every one has finished.
//! `std::thread::scope` provides exactly that shape but spawns fresh OS
//! threads per scope. [`WorkerPool`] keeps the threads alive across
//! scopes.
//!
//! # Safety model
//!
//! [`WorkerPool::run_scoped`] accepts closures borrowing the caller's
//! stack (`'env`), erases the lifetime to move them onto the long-lived
//! workers, and *does not return until every closure has run to
//! completion* — even when one of them panics (the panic is re-raised on
//! the caller only after the stragglers finish). That completion barrier
//! is the entire safety argument, the same one `std::thread::scope`
//! makes: no borrow outlives the call that lent it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A queued unit of work plus the barrier of the scope that submitted it.
struct Job {
    f: Box<dyn FnOnce() + Send>,
    scope: Arc<ScopeState>,
}

/// Completion barrier for one `run_scoped` call.
struct ScopeState {
    /// (tasks not yet finished, first panic payload observed).
    done: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    cond: Condvar,
}

impl ScopeState {
    fn finish(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut d = self.done.lock().expect("scope lock");
        d.0 -= 1;
        if d.1.is_none() {
            d.1 = panic;
        }
        if d.0 == 0 {
            self.cond.notify_all();
        }
    }
}

struct Shared {
    queue: Mutex<(VecDeque<Job>, bool)>,
    cond: Condvar,
}

/// A fixed set of persistent worker threads executing scoped closures.
///
/// The pool contributes `workers` threads; the thread calling
/// [`Self::run_scoped`] also executes queued tasks while it waits, so a
/// pool of `N - 1` workers gives `N`-way parallelism with no idle driver.
/// A pool of zero workers is valid and degenerates to sequential
/// execution on the caller.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` persistent threads (zero is allowed).
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new((VecDeque::new(), false)),
            cond: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of pool-owned worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The process-wide shared pool, sized to `available_parallelism - 1`
    /// workers (the caller of [`Self::run_scoped`] contributes the last
    /// thread). Components that fan out independent work — the harness's
    /// sweep `parallel_map`, the replay what-if service — share these
    /// threads instead of spawning their own per call; the caller-assist
    /// loop in `run_scoped` keeps concurrent scopes from one another's
    /// pools deadlock-free (a waiting scope executes whatever is queued,
    /// including another scope's tasks).
    pub fn shared() -> &'static WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            WorkerPool::new(threads.saturating_sub(1))
        })
    }

    /// Runs every closure to completion, in parallel across the pool's
    /// workers and the calling thread. Closures may borrow from the
    /// caller's stack; none of those borrows outlive this call. If a
    /// closure panics, the panic is re-raised here — after all other
    /// closures have still run to completion, so the barrier holds even
    /// on the unwind path.
    pub fn run_scoped<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        let scope = Arc::new(ScopeState {
            done: Mutex::new((n, None)),
            cond: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock().expect("pool lock");
            for t in tasks {
                // SAFETY: this function blocks until the scope's barrier
                // reports all `n` tasks finished, so the erased `'env`
                // borrows cannot be observed after they expire.
                let f: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(t) };
                q.0.push_back(Job {
                    f,
                    scope: Arc::clone(&scope),
                });
            }
        }
        self.shared.cond.notify_all();
        // Caller-assist: drain whatever is queued (possibly tasks from a
        // concurrent scope — executing those is equally correct and only
        // helps global progress) instead of idling at the barrier.
        loop {
            let job = {
                let mut q = self.shared.queue.lock().expect("pool lock");
                q.0.pop_front()
            };
            match job {
                Some(job) => run_job(job),
                None => break,
            }
        }
        let mut d = scope.done.lock().expect("scope lock");
        while d.0 > 0 {
            d = scope.cond.wait(d).expect("scope wait");
        }
        if let Some(p) = d.1.take() {
            drop(d);
            resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool lock");
            q.1 = true;
        }
        self.shared.cond.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool lock");
            loop {
                if let Some(job) = q.0.pop_front() {
                    break Some(job);
                }
                if q.1 {
                    break None;
                }
                q = shared.cond.wait(q).expect("pool wait");
            }
        };
        match job {
            Some(job) => run_job(job),
            None => return,
        }
    }
}

fn run_job(job: Job) {
    let result = catch_unwind(AssertUnwindSafe(job.f));
    job.scope.finish(result.err());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_borrowing_tasks_to_completion() {
        let pool = WorkerPool::new(2);
        let mut slots = vec![0u64; 64];
        // Reuse the pool across scopes — the persistent-threads property.
        for round in 1..=3u64 {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, s)| {
                    let t: Box<dyn FnOnce() + Send> = Box::new(move || *s = round * i as u64);
                    t
                })
                .collect();
            pool.run_scoped(tasks);
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, round * i as u64);
            }
        }
    }

    #[test]
    fn zero_worker_pool_runs_on_the_caller() {
        let pool = WorkerPool::new(0);
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..5)
            .map(|_| {
                let t: Box<dyn FnOnce() + Send> = Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                t
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn empty_scope_is_a_noop() {
        WorkerPool::new(1).run_scoped(Vec::new());
    }

    #[test]
    fn panic_propagates_after_the_barrier() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let res = catch_unwind(AssertUnwindSafe(|| {
            let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            tasks.push(Box::new(|| panic!("task exploded")));
            for _ in 0..8 {
                let finished = Arc::clone(&finished);
                tasks.push(Box::new(move || {
                    finished.fetch_add(1, Ordering::Relaxed);
                }));
            }
            pool.run_scoped(tasks);
        }));
        assert!(res.is_err(), "the task panic must re-raise on the caller");
        // The barrier held: every non-panicking task still ran.
        assert_eq!(finished.load(Ordering::Relaxed), 8);
    }
}
