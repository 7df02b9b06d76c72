//! Bounded worker pool with admission control.
//!
//! Connection threads parse frames; *compute* happens here. The pool
//! owns the daemon's overload policy:
//!
//! * **Admission queue.** A bounded FIFO between connection threads and
//!   workers. [`Pool::submit`] refuses — never blocks — when the queue
//!   is at its limit, so one burst cannot build unbounded memory or
//!   latency debt; the caller turns a refusal into a `code::SHED`
//!   error, which a well-behaved client treats as backpressure.
//! * **Deadlines.** Each job carries an optional deadline. A job whose
//!   deadline passed while it sat in the queue is answered with a
//!   `code::DEADLINE` error without being started — work that nobody is waiting
//!   for anymore is the first thing an overloaded service must drop. A
//!   job that *started* in time runs to completion (threads cannot be
//!   cancelled safely); late completions are still delivered and are
//!   visible in the `deadline_expired` counter.
//! * **Panic isolation.** The handler runs under [`catch_unwind`]: a
//!   request that panics the pipeline produces a `code::INTERNAL`
//!   error naming the panic, and the worker thread survives to take the next job.
//! * **Graceful drain.** [`Pool::drain`] lets queued jobs finish,
//!   refuses new ones, and joins every worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::endpoints::Response;
use crate::metrics::Metrics;
use crate::proto2::{code, kind, kind_name};

/// The request handler a pool runs: opcode and payload in, response
/// out.
pub type Handler = dyn Fn(u8, &[u8]) -> Response + Send + Sync;

/// One admitted request waiting for a worker.
pub struct Job {
    /// The request opcode ([`crate::proto2::kind`]).
    pub kind: u8,
    /// The request's `brs2` section payload.
    pub payload: Vec<u8>,
    /// When the job was admitted (latency measurement starts here).
    pub accepted: Instant,
    /// Absolute deadline; `None` means no limit.
    pub deadline: Option<Instant>,
    /// Where the response goes (the connection thread blocks on the
    /// other end).
    pub reply: mpsc::Sender<Response>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    limit: usize,
    draining: AtomicBool,
}

/// The worker pool. Dropping it without [`Pool::drain`] detaches the
/// workers (they exit once told to drain; the daemon always drains).
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Extract a human-readable message from a panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Pool {
    /// Start `threads` workers feeding from a queue bounded at
    /// `queue_limit` jobs, each request handled by `handler`.
    pub fn start(
        threads: usize,
        queue_limit: usize,
        metrics: Arc<Metrics>,
        handler: Arc<Handler>,
    ) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            limit: queue_limit.max(1),
            draining: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || worker(&shared, &metrics, handler.as_ref()))
            })
            .collect();
        Pool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Admit a job, or hand it back when the queue is full or the pool
    /// is draining — the caller sheds it with a `code::SHED` error.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(job);
        }
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        if queue.len() >= self.shared.limit {
            return Err(job);
        }
        queue.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Jobs currently queued (diagnostic; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("pool queue poisoned").len()
    }

    /// Finish every queued job, refuse new ones, and join the workers.
    /// Idempotent; `&self` so the daemon can drain a shared pool.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("pool workers poisoned"));
        for w in workers {
            let _ = w.join();
        }
    }
}

fn worker(shared: &Shared, metrics: &Metrics, handler: &Handler) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).expect("pool queue poisoned");
            }
        };
        let response = run_job(&job, metrics, handler);
        if response.kind == kind::OK {
            metrics.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        metrics.latency.record(job.accepted.elapsed());
        // A send failure means the connection is gone; the work is
        // simply discarded, which is the right amount of caring.
        let _ = job.reply.send(response);
    }
}

fn run_job(job: &Job, metrics: &Metrics, handler: &Handler) -> Response {
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            metrics.expired.fetch_add(1, Ordering::Relaxed);
            return Response::error(
                code::DEADLINE,
                &format!(
                    "deadline expired after {:?} in queue",
                    job.accepted.elapsed()
                ),
            );
        }
    }
    let response = match catch_unwind(AssertUnwindSafe(|| handler(job.kind, &job.payload))) {
        Ok(response) => response,
        Err(payload) => Response::error(
            code::INTERNAL,
            &format!(
                "internal panic handling {} request: {}",
                kind_name(job.kind).unwrap_or("unknown"),
                panic_message(payload)
            ),
        ),
    };
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            metrics.expired.fetch_add(1, Ordering::Relaxed);
        }
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn echo_pool(threads: usize, limit: usize) -> (Pool, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::default());
        let pool = Pool::start(
            threads,
            limit,
            Arc::clone(&metrics),
            Arc::new(|k: u8, payload: &[u8]| match k {
                kind::PANIC => panic!("intentional test panic"),
                kind::SLEEP => {
                    std::thread::sleep(Duration::from_millis(100));
                    Response::ok(b"slow done".to_vec(), 0)
                }
                _ => Response::ok(payload.to_vec(), 0),
            }),
        );
        (pool, metrics)
    }

    fn job(k: u8, deadline: Option<Instant>) -> (Job, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                kind: k,
                payload: b"payload".to_vec(),
                accepted: Instant::now(),
                deadline,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn completes_jobs_and_survives_panics() {
        let (pool, metrics) = echo_pool(2, 16);
        let (boom, boom_rx) = job(kind::PANIC, None);
        pool.submit(boom).ok().unwrap();
        let response = boom_rx.recv().unwrap();
        assert_eq!(response.kind, kind::ERROR);
        assert_eq!(response.code, code::INTERNAL);
        assert!(String::from_utf8_lossy(&response.payload).contains("intentional test panic"));

        // The pool keeps serving after the panic.
        let (ok, ok_rx) = job(kind::REORDER, None);
        pool.submit(ok).ok().unwrap();
        assert_eq!(ok_rx.recv().unwrap().kind, kind::OK);
        pool.drain();
        assert_eq!(metrics.ok.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_queue_refuses_admission() {
        let (pool, _metrics) = echo_pool(1, 1);
        let (slow, slow_rx) = job(kind::SLEEP, None);
        pool.submit(slow).ok().unwrap();
        // Wait until the worker has the slow job off the queue.
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let (queued, queued_rx) = job(kind::REORDER, None);
        pool.submit(queued).ok().unwrap();
        // Queue is at its limit of 1: the third job is refused.
        let (shed, _shed_rx) = job(kind::REORDER, None);
        assert!(pool.submit(shed).is_err());
        assert_eq!(slow_rx.recv().unwrap().kind, kind::OK);
        assert_eq!(queued_rx.recv().unwrap().kind, kind::OK);
        pool.drain();
    }

    #[test]
    fn queued_past_deadline_is_an_error() {
        let (pool, metrics) = echo_pool(1, 4);
        let (slow, slow_rx) = job(kind::SLEEP, None);
        pool.submit(slow).ok().unwrap();
        // This job's deadline passes while the slow job holds the only
        // worker, so it must be answered without being started.
        let (late, late_rx) = job(
            kind::REORDER,
            Some(Instant::now() + Duration::from_millis(10)),
        );
        pool.submit(late).ok().unwrap();
        assert_eq!(slow_rx.recv().unwrap().kind, kind::OK);
        let response = late_rx.recv().unwrap();
        assert_eq!(response.kind, kind::ERROR);
        assert_eq!(response.code, code::DEADLINE);
        assert!(String::from_utf8_lossy(&response.payload).contains("deadline expired"));
        pool.drain();
        assert_eq!(metrics.expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drain_refuses_new_work() {
        let (pool, _metrics) = echo_pool(2, 4);
        let (a, a_rx) = job(kind::REORDER, None);
        pool.submit(a).ok().unwrap();
        assert_eq!(a_rx.recv().unwrap().kind, kind::OK);
        pool.drain();
        // After drain the pool is gone; nothing left to assert beyond
        // the join having returned without hanging.
    }
}
