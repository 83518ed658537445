//! The service node's worker pool: persistent workers pull queued jobs
//! from one shared queue, so a job starts the moment a worker is free.
//!
//! The pool is work-conserving: there is no batching window and no
//! barrier between jobs, so a short job never waits behind another
//! session's long one while a slot is idle. It starts with one worker
//! and grows on demand — a job that arrives while every worker is busy
//! spawns another, up to the pool width — and the workers then stay for
//! the server's lifetime.
//!
//! Each job is a self-contained deterministic simulation, so which
//! worker runs it, and when, never shows in its `(outcome, final cycle,
//! digest)` triple. The host-clock stamps a worker leaves on the job's
//! state node (`worker`, `queue_us`, `run_us`) sit outside the
//! simulation and leave digests and `profile.*` counters untouched.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use bench::monitor::StateNode;
use bgcheck::program::Program;
use bgcheck::runner::{run_mode_live, CheckKernel, LiveOpts, Mode, RunRecord};
use bgsim::machine::ProgressSink;
use bgsim::telemetry::ProfileSnapshot;

/// What a worker sends home: `None` when the job's cancel token was
/// already set when a worker took it (it never simulated a cycle).
pub(crate) type Reply = Option<Result<(RunRecord, ProfileSnapshot), String>>;

/// One job: the resolved program, its live-run knobs (cancel token
/// included), the progress sink, and the state node to stamp.
pub(crate) struct WorkItem {
    pub program: Program,
    pub kernel: CheckKernel,
    pub mode: Mode,
    pub live: LiveOpts,
    pub sink: Option<Box<dyn ProgressSink>>,
    /// The `jobs/<id>` node the worker stamps.
    pub node: StateNode,
    /// The `phase` the node shows while the job runs (`running` for a
    /// fresh run, `paranoid` for a cache hit's verification re-run).
    pub phase: &'static str,
}

#[derive(Default)]
struct Queue {
    /// Queued jobs with their reply slots and enqueue times.
    items: VecDeque<(WorkItem, Sender<Reply>, Instant)>,
    /// Workers between taking a job and sending its reply.
    busy: usize,
    workers: Vec<JoinHandle<()>>,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Host microseconds every job taken so far spent queued / running.
    queue_us: AtomicU64,
    run_us: AtomicU64,
}

impl Shared {
    /// Every update made under this lock is a single step that leaves
    /// the queue consistent, so a poisoned lock is still safe to use.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub(crate) struct Pool {
    width: usize,
    shared: Arc<Shared>,
}

impl Pool {
    /// A pool of at most `width` workers; the first starts now.
    pub fn new(width: usize) -> Result<Pool, String> {
        let pool = Pool {
            width: width.max(1),
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue::default()),
                ready: Condvar::new(),
                queue_us: AtomicU64::new(0),
                run_us: AtomicU64::new(0),
            }),
        };
        let mut q = pool.shared.lock();
        pool.add_worker(&mut q)?;
        drop(q);
        Ok(pool)
    }

    /// Host microseconds `(queued, running)` summed over every job a
    /// worker has taken.
    pub fn times_us(&self) -> (u64, u64) {
        (
            self.shared.queue_us.load(Ordering::Relaxed),
            self.shared.run_us.load(Ordering::Relaxed),
        )
    }

    fn add_worker(&self, q: &mut Queue) -> Result<(), String> {
        let index = q.workers.len();
        let shared = Arc::clone(&self.shared);
        let h = std::thread::Builder::new()
            .name(format!("bgserve-worker-{index}"))
            .spawn(move || worker(&shared, index))
            .map_err(|e| format!("starting pool worker {index}: {e}"))?;
        q.workers.push(h);
        Ok(())
    }

    /// Queue one job and return where its reply will arrive. It starts
    /// on a free worker if there is one, else on a new worker while the
    /// pool is below its width, else on the first worker to come free.
    pub fn submit(&self, item: WorkItem) -> Result<Receiver<Reply>, String> {
        let mut q = self.shared.lock();
        if q.closed {
            return Err("the worker pool is shut down".to_string());
        }
        let (tx, rx) = mpsc::channel();
        q.items.push_back((item, tx, Instant::now()));
        // A worker that has sent its last reply counts as free even
        // before it is back at the queue, so a closed-loop client never
        // grows the pool. A failed spawn leaves the job to the workers
        // already running.
        if q.items.len() > q.workers.len() - q.busy && q.workers.len() < self.width {
            let _ = self.add_worker(&mut q);
        }
        drop(q);
        self.shared.ready.notify_one();
        Ok(rx)
    }

    /// Run one job on the pool and wait for it. `Ok(None)`: the job was
    /// cancelled before a worker took it.
    pub fn run(&self, item: WorkItem) -> Result<Option<(RunRecord, ProfileSnapshot)>, String> {
        self.submit(item)?
            .recv()
            .map_err(|_| "the worker pool dropped the job".to_string())?
            .transpose()
    }

    /// Refuse new jobs; workers finish the queue, then exit.
    pub fn close(&self) {
        self.shared.lock().closed = true;
        self.shared.ready.notify_all();
    }

    /// Close the pool and wait for every worker to exit.
    pub fn join(&self) -> Result<(), String> {
        self.close();
        let workers = std::mem::take(&mut self.shared.lock().workers);
        let mut res = Ok(());
        for h in workers {
            if h.join().is_err() {
                res = Err("a pool worker panicked".to_string());
            }
        }
        res
    }
}

fn worker(shared: &Shared, index: usize) {
    let mut q = shared.lock();
    loop {
        if let Some((item, reply, enqueued)) = q.items.pop_front() {
            q.busy += 1;
            drop(q);
            let out = run(item, enqueued, index, shared);
            q = shared.lock();
            q.busy -= 1;
            let _ = reply.send(out);
        } else if q.closed {
            return;
        } else {
            q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Run one job on worker `index`, stamping the job's node with the
/// worker, its queue wait and its run time.
fn run(w: WorkItem, enqueued: Instant, index: usize, shared: &Shared) -> Reply {
    let start = Instant::now();
    let queue_us = (start - enqueued).as_micros() as u64;
    shared.queue_us.fetch_add(queue_us, Ordering::Relaxed);
    w.node.set("worker", index);
    w.node.set("queue_us", queue_us);
    if w.live.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
        return None;
    }
    w.node.set("phase", w.phase);
    let out = run_mode_live(&w.program, w.kernel, w.mode, w.live, w.sink);
    let run_us = start.elapsed().as_micros() as u64;
    shared.run_us.fetch_add(run_us, Ordering::Relaxed);
    w.node.set("run_us", run_us);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgcheck::program::generate;
    use bgcheck::runner::MODES;
    use bgsim::CancelToken;

    fn item(node: &StateNode, cancel: Option<CancelToken>) -> WorkItem {
        WorkItem {
            program: generate(11),
            kernel: CheckKernel::Cnk,
            mode: MODES[0],
            live: LiveOpts {
                cancel,
                ..LiveOpts::default()
            },
            sink: None,
            node: node.clone(),
            phase: "running",
        }
    }

    fn values(node: &StateNode) -> bench::monitor::Json {
        let v = bench::monitor::parse_json(&node.to_json()).expect("node renders as JSON");
        v.get("values").expect("values").clone()
    }

    #[test]
    fn a_run_stamps_worker_queue_and_run_times() {
        let pool = Pool::new(2).expect("pool");
        let node = StateNode::new();
        let (rec, _) = pool.run(item(&node, None)).expect("run ok").expect("ran");
        assert_eq!(rec.outcome, "completed");
        let v = values(&node);
        assert_eq!(v.get("worker").and_then(|x| x.str()), Some("0"));
        assert_eq!(v.get("phase").and_then(|x| x.str()), Some("running"));
        for key in ["queue_us", "run_us"] {
            let us = v.get(key).and_then(|x| x.str()).map(str::parse::<u64>);
            assert!(
                matches!(us, Some(Ok(_))),
                "{key} missing: {}",
                node.to_json()
            );
        }
        pool.join().expect("join");
    }

    #[test]
    fn a_job_cancelled_before_start_replies_none_and_never_runs() {
        let pool = Pool::new(1).expect("pool");
        let node = StateNode::new();
        let token = CancelToken::new();
        token.cancel();
        assert!(pool.run(item(&node, Some(token))).expect("run").is_none());
        let v = values(&node);
        assert!(v.get("queue_us").is_some(), "{}", node.to_json());
        assert!(v.get("run_us").is_none(), "{}", node.to_json());
        assert!(v.get("phase").is_none(), "{}", node.to_json());
        pool.join().expect("join");
    }

    #[test]
    fn the_pool_grows_to_its_width_and_no_further() {
        let pool = Pool::new(2).expect("pool");
        assert_eq!(pool.shared.lock().workers.len(), 1, "one worker at start");
        let node = StateNode::new();
        let replies: Vec<_> = (0..6)
            .map(|_| pool.submit(item(&node, None)).expect("submit"))
            .collect();
        for rx in replies {
            assert!(rx.recv().expect("reply").is_some());
        }
        assert_eq!(pool.shared.lock().workers.len(), 2);
        pool.join().expect("join");
        assert!(
            pool.submit(item(&node, None)).is_err(),
            "a joined pool refuses work"
        );
    }
}
