//! A hand-rolled, std-only thread pool: one job queue, one condvar.
//!
//! Jobs here are whole compilation requests (hundreds of microseconds
//! to milliseconds), so per-job overhead is noise and the win is
//! keeping every core busy while the single-flight store dedups
//! overlapping work. One shared queue does that: every submission and
//! every pop takes the same lock either way.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// Queued (not yet started) jobs and the shutdown flag, guarded
    /// together for the condvar.
    queue: Mutex<Queue>,
    wake: Condvar,
}

impl Shared {
    /// Lock the queue. Jobs run outside the lock, so a poisoned lock
    /// still guards a valid queue: recover it rather than let a worker
    /// die and the pool silently shrink.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The pool. Dropping it drains nothing: queued jobs are abandoned, but
/// running jobs complete (workers are joined).
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dahlia-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// One worker per available core (minus one for the submitter).
    pub fn with_default_threads() -> Pool {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Pool::new(cores.saturating_sub(1).max(1))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue a job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        self.shared.queue().jobs.push_back(job);
        self.shared.wake.notify_one();
    }

    /// Run `f` over every item on the pool, preserving input order.
    /// Blocks until all results are in. If `f` panicked for any item,
    /// the original panic payload is re-raised on the calling thread.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let f = Arc::new(f);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, std::thread::Result<R>)>();
        for (i, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.execute(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        let mut out: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| match r.expect("worker delivered") {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.queue().shutdown = true;
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue();
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A panicking job must not take the worker down with it: the
        // pool would silently shrink and eventually hang `map`.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn map_preserves_order() {
        let pool = Pool::new(4);
        let out = pool.map((0..100u64).collect(), |x| x * 2);
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn work_is_actually_parallel() {
        // Four jobs meet at a rendezvous: each waits until all four run
        // at once, which a pool running fewer at a time never reaches.
        // The timeout fails the test instead of hanging it.
        let pool = Pool::new(4);
        let meet = Arc::new((Mutex::new(0usize), Condvar::new()));
        let met = pool.map(vec![meet; 4], |meet| {
            let (running, all_in) = &*meet;
            let mut n = running.lock().unwrap();
            *n += 1;
            all_in.notify_all();
            let wait = Duration::from_secs(30);
            let timeout = all_in.wait_timeout_while(n, wait, |n| *n < 4).unwrap().1;
            !timeout.timed_out()
        });
        assert!(met.into_iter().all(|m| m), "four jobs never ran at once");
    }

    #[test]
    fn a_blocked_job_does_not_hold_up_the_rest() {
        // The first job blocks until all 32 quick jobs behind it have
        // run, which only happens if the other workers take them while
        // it waits. The timeout fails the test instead of hanging it.
        let pool = Pool::new(3);
        let quick_done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        let meet = Arc::clone(&quick_done);
        pool.execute(move || {
            let (done, all_done) = &*meet;
            let done = done.lock().unwrap();
            let wait = Duration::from_secs(30);
            let timeout = all_done
                .wait_timeout_while(done, wait, |n| *n < 32)
                .unwrap()
                .1;
            let _ = tx.send(!timeout.timed_out());
        });
        pool.map(vec![quick_done; 32], |meet| {
            let (done, all_done) = &*meet;
            *done.lock().unwrap() += 1;
            all_done.notify_all();
        });
        assert!(
            rx.recv().unwrap(),
            "the quick jobs waited behind the blocked one"
        );
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = Pool::new(2);
        for _ in 0..8 {
            pool.execute(|| panic!("job panic"));
        }
        // Both workers survived all eight panics and still serve work.
        let out = pool.map((0..16u64).collect(), |x| x + 1);
        assert_eq!(out, (1..=16u64).collect::<Vec<_>>());
    }

    #[test]
    fn execute_counts_before_publishing() {
        // A worker may pop a job the instant it is queued, before the
        // submitter returns from `execute`; every round still completes.
        let pool = Pool::new(4);
        for round in 0..50 {
            let out = pool.map((0..32u64).collect(), move |x| x * round);
            assert_eq!(out.len(), 32);
        }
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(2);
        pool.map(vec![1, 2, 3], |x| x);
        drop(pool); // must not hang
    }
}
