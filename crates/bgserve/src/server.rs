//! The service node: endpoint plumbing, session threads, and the
//! work-conserving worker pool that runs every session's jobs.
//!
//! Layout mirrors the real machine's control system: the listener is
//! the service node's front door (one thread per connected submitter),
//! the pool is the job scheduler (up to `threads` persistent workers
//! pull jobs from one shared queue, so a job starts the moment a worker
//! is free and the host is never oversubscribed), and the monitor file
//! is the rack's status display — published atomically so `bgtop` can
//! tail it live.
//!
//! Jobs are *live* (the CNK property that the service node can watch
//! and steer running work, not just collect exit codes):
//!
//! * each submission gets a [`CancelToken`] registered under its job
//!   id; `{"op":"cancel","job":N}` from any session sets it, and the
//!   run winds down cleanly at its next poll;
//! * per-job `timeout_cycles` / `timeout_wall_ms` budgets yield a
//!   `timeout` outcome the same way;
//! * `progress_cycles` streams `progress` lines mid-run;
//! * a session whose peer disconnects (reader EOF or a failed write)
//!   auto-cancels its in-flight jobs and logs one structured
//!   `session-drop` monitor event;
//! * cancelled/timed-out results are **never** memoized — the cache
//!   only ever holds completed, deterministic triples;
//! * a state-monitor tree (`server → sessions/<id> → jobs/<id>`) is
//!   embedded in every published monitor snapshot for
//!   `bgtop --sessions`; each job node shows its phase, cache status,
//!   worker, and host time queued (`queue_us`) and running (`run_us`).
//!
//! Determinism note: scheduling never affects results. Each job is a
//! self-contained simulation, so which worker runs it, and alongside
//! which other jobs, is invisible in its `(outcome, final cycle,
//! digest)` triple — the selfcheck and integration tests assert exactly
//! that against one-shot runs. The progress hook is digest-, cycle-,
//! and profile-neutral by construction (pinned by proptest), so a job
//! submitted with `progress_cycles` reports the same triple as one
//! without; the `worker`, `queue_us` and `run_us` stamps on `jobs/<id>`
//! are host-clock readings outside the simulation.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::monitor::{snapshot_json, Monitor, StateNode};
use bgcheck::program::Program;
use bgcheck::runner::{LiveOpts, RunRecord};
use bgsim::machine::{CancelCause, ProgressCtl, ProgressReport, ProgressSink};
use bgsim::telemetry::ProfileSnapshot;
use bgsim::CancelToken;

use crate::cache::{CachedResult, ResultCache};
use crate::key::JobKey;
use crate::pool::{Pool, WorkItem};
use crate::proto::{self, Request, StatusSnapshot, SubmitReq};

/// Minimum host time between mid-run monitor publishes triggered by
/// progress reports (completions always publish immediately).
const PROGRESS_PUBLISH_MS: u64 = 200;

/// Where the server listens (and clients connect).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

impl Endpoint {
    /// `unix:/path`, `tcp:host:port`, or a bare path (treated as unix).
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(p) = s.strip_prefix("unix:") {
            if p.is_empty() {
                return Err("unix: endpoint is missing a socket path".to_string());
            }
            return Ok(Endpoint::Unix(PathBuf::from(p)));
        }
        if let Some(a) = s.strip_prefix("tcp:") {
            if a.is_empty() {
                return Err("tcp: endpoint is missing a host:port address".to_string());
            }
            return Ok(Endpoint::Tcp(a.to_string()));
        }
        if s.is_empty() {
            return Err("empty endpoint".to_string());
        }
        if s.contains('/') || !s.contains(':') {
            return Ok(Endpoint::Unix(PathBuf::from(s)));
        }
        Err(format!(
            "ambiguous endpoint {s:?}: prefix with unix: or tcp:"
        ))
    }

    pub fn label(&self) -> String {
        match self {
            Endpoint::Unix(p) => format!("unix:{}", p.display()),
            Endpoint::Tcp(a) => format!("tcp:{a}"),
        }
    }

    /// Connect a client stream to this endpoint.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Unix(p) => std::os::unix::net::UnixStream::connect(p).map(Stream::Unix),
            Endpoint::Tcp(a) => std::net::TcpStream::connect(a.as_str()).map(Stream::Tcp),
        }
    }
}

/// A connected byte stream of either flavor.
pub enum Stream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl Stream {
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

fn bind(ep: &Endpoint) -> Result<Listener, String> {
    match ep {
        Endpoint::Unix(path) => {
            match std::os::unix::net::UnixListener::bind(path) {
                Ok(l) => Ok(Listener::Unix(l)),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    // A previous server that died without cleanup leaves
                    // a stale socket file. Live servers answer a connect;
                    // stale ones refuse — only then reclaim the path.
                    if std::os::unix::net::UnixStream::connect(path).is_ok() {
                        return Err(format!("{} is already being served", path.display()));
                    }
                    std::fs::remove_file(path)
                        .map_err(|e| format!("removing stale socket: {e}"))?;
                    std::os::unix::net::UnixListener::bind(path)
                        .map(Listener::Unix)
                        .map_err(|e| format!("bind {}: {e}", path.display()))
                }
                Err(e) => Err(format!("bind {}: {e}", path.display())),
            }
        }
        Endpoint::Tcp(addr) => std::net::TcpListener::bind(addr.as_str())
            .map(Listener::Tcp)
            .map_err(|e| format!("bind {addr}: {e}")),
    }
}

/// Server configuration.
pub struct ServeOpts {
    pub endpoint: Endpoint,
    /// Worker-pool width: at most this many jobs run at once.
    pub threads: usize,
    pub cache_cap: usize,
    /// Optional persistent cache tier directory.
    pub cache_dir: Option<PathBuf>,
    /// Re-run every cache hit and verify the stored triple.
    pub paranoid: bool,
    /// Optional live monitor stream for `bgtop`.
    pub monitor: Option<Monitor>,
}

impl ServeOpts {
    pub fn new(endpoint: Endpoint) -> ServeOpts {
        ServeOpts {
            endpoint,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_cap: 256,
            cache_dir: None,
            paranoid: false,
            monitor: None,
        }
    }
}

struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    paranoid_checks: AtomicU64,
    paranoid_failures: AtomicU64,
    cancelled: AtomicU64,
    timeouts: AtomicU64,
    session_drops: AtomicU64,
}

/// The monitor aggregate: profiles of every fresh run merged
/// commutatively (same rule as shard merging), published atomically.
struct MonitorAgg {
    monitor: Option<Monitor>,
    merged: ProfileSnapshot,
    /// Throttle for mid-run (progress-driven) publishes.
    last_progress_publish: Instant,
}

struct State {
    endpoint: Endpoint,
    paranoid: bool,
    stop: AtomicBool,
    next_job: AtomicU64,
    next_session: AtomicU64,
    cache: Mutex<ResultCache>,
    stats: Stats,
    monitor: Mutex<MonitorAgg>,
    /// Every in-flight job's cancel token, by server-assigned job id
    /// (`{"op":"cancel"}` can target a job from any session).
    registry: Mutex<HashMap<u64, CancelToken>>,
    /// Root of the live state-monitor tree (the `server` node).
    tree: StateNode,
    pool: Pool,
}

impl State {
    fn status(&self) -> StatusSnapshot {
        let (queue_us, run_us) = self.pool.times_us();
        StatusSnapshot {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            cache_entries: self.cache.lock().map(|c| c.len() as u64).unwrap_or(0),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            paranoid_checks: self.stats.paranoid_checks.load(Ordering::Relaxed),
            paranoid_failures: self.stats.paranoid_failures.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            session_drops: self.stats.session_drops.load(Ordering::Relaxed),
            queue_us,
            run_us,
        }
    }

    /// Count a finished job (completed, cancelled, or failed alike) and
    /// refresh the monitor stream, state tree included.
    fn finish_job(&self, fresh_profile: Option<&ProfileSnapshot>) {
        let done = self.stats.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.stats.submitted.load(Ordering::Relaxed);
        if let Ok(mut agg) = self.monitor.lock() {
            if let Some(p) = fresh_profile {
                agg.merged.merge(p);
            }
            let snap = agg.merged.clone();
            if let Some(m) = agg.monitor.as_mut() {
                m.publish_with_state(done as usize, total as usize, &snap, Some(&self.tree));
            }
        }
    }

    /// Publish the current aggregate + state tree without counting a
    /// completion — the mid-run path, throttled so a fast progress
    /// cadence cannot turn the monitor file into a hot loop.
    fn publish_progress(&self) {
        let done = self.stats.completed.load(Ordering::Relaxed);
        let total = self.stats.submitted.load(Ordering::Relaxed);
        if let Ok(mut agg) = self.monitor.lock() {
            if agg.monitor.is_none()
                || agg.last_progress_publish.elapsed() < Duration::from_millis(PROGRESS_PUBLISH_MS)
            {
                return;
            }
            agg.last_progress_publish = Instant::now();
            let snap = agg.merged.clone();
            if let Some(m) = agg.monitor.as_mut() {
                m.publish_with_state(done as usize, total as usize, &snap, Some(&self.tree));
            }
        }
    }

    /// Append one structured event line to the monitor stream.
    fn monitor_event(&self, line: &str) {
        if let Ok(mut agg) = self.monitor.lock() {
            if let Some(m) = agg.monitor.as_mut() {
                m.event(line);
            }
        }
    }
}

/// Per-connection state shared between the session reader thread and
/// its submit stewards: one writer (all response lines serialize
/// through its mutex), the dead-peer latch, and this session's
/// in-flight cancel tokens.
struct SessionShared {
    id: u64,
    writer: Mutex<Stream>,
    dead: AtomicBool,
    jobs: Mutex<HashMap<u64, CancelToken>>,
    node: StateNode,
}

/// Write one line to the session peer. On failure the peer is declared
/// dead exactly once: every in-flight job of the session is cancelled
/// and a single `session-drop` event lands in the monitor stream —
/// instead of one write error per telemetry line.
fn send_shared(state: &State, shared: &SessionShared, line: &str) -> std::io::Result<()> {
    if shared.dead.load(Ordering::SeqCst) {
        return Err(std::io::ErrorKind::BrokenPipe.into());
    }
    let res = match shared.writer.lock() {
        Ok(mut w) => send_line(&mut w, line),
        Err(_) => Err(std::io::ErrorKind::Other.into()),
    };
    if res.is_err() {
        drop_session(state, shared);
    }
    res
}

/// Latch the session dead (idempotent), cancel its in-flight jobs, and
/// record how it ended in the state tree + monitor stream.
fn drop_session(state: &State, shared: &SessionShared) {
    if shared.dead.swap(true, Ordering::SeqCst) {
        return;
    }
    let tokens: Vec<CancelToken> = shared
        .jobs
        .lock()
        .map(|j| j.values().cloned().collect())
        .unwrap_or_default();
    for t in &tokens {
        t.cancel();
    }
    if tokens.is_empty() {
        shared.node.set("peer", "closed");
    } else {
        shared.node.set("peer", "dropped");
        state.stats.session_drops.fetch_add(1, Ordering::Relaxed);
        state.monitor_event(&format!(
            "{{\"event\":\"session-drop\",\"session\":{},\"jobs_cancelled\":{}}}",
            shared.id,
            tokens.len()
        ));
    }
}

fn cached_of(rec: &RunRecord, profile: Option<ProfileSnapshot>) -> CachedResult {
    CachedResult {
        kernel: rec.kernel.to_string(),
        mode: rec.mode.clone(),
        outcome: rec.outcome.clone(),
        final_cycle: rec.final_cycle,
        digest: rec.digest,
        coverage: rec.coverage,
        profile,
    }
}

fn send_line(w: &mut Stream, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Build the progress sink for one job: stream a `progress` line per
/// report, mirror the position into the job's state node, and bail out
/// (cancelling the run) the moment the peer is unreachable.
fn progress_sink(
    state: Arc<State>,
    shared: Arc<SessionShared>,
    jnode: StateNode,
    job: u64,
) -> Box<dyn ProgressSink> {
    Box::new(move |r: &ProgressReport| {
        jnode.set("cycle", r.cycle);
        jnode.set("events", r.events);
        jnode.set("live_threads", r.live_threads);
        if shared.dead.load(Ordering::SeqCst) {
            return ProgressCtl::Cancel(CancelCause::Requested);
        }
        let line = proto::progress_line(
            job,
            r.cycle,
            r.events,
            r.d_cycles,
            r.d_events,
            r.live_threads,
            r.profile.total_events(),
            r.profile.total_cycles(),
        );
        if send_shared(&state, &shared, &line).is_err() {
            return ProgressCtl::Cancel(CancelCause::Requested);
        }
        state.publish_progress();
        ProgressCtl::Continue
    })
}

/// Run one submission end to end (a steward thread's body): register
/// the cancel token, answer from the cache or dispatch a live run, and
/// finish with a `result` line. Interrupted outcomes (`cancelled`,
/// `timeout`) are reported but never cached.
fn handle_submit(
    state: &Arc<State>,
    req: &SubmitReq,
    shared: &Arc<SessionShared>,
) -> std::io::Result<()> {
    let program = match req.to_program() {
        Ok(p) => p,
        Err(e) => return send_shared(state, shared, &proto::error_line(&e)),
    };
    let key = JobKey::of(req.kernel, &program);
    let (kd, key_hex) = (key.digest(), key.hex());
    let job = state.next_job.fetch_add(1, Ordering::Relaxed) + 1;
    state.stats.submitted.fetch_add(1, Ordering::Relaxed);

    // Register the cancel token *before* `accepted` goes out: a client
    // that cancels immediately after reading `accepted` must find it.
    let token = CancelToken::new();
    if let Ok(mut reg) = state.registry.lock() {
        reg.insert(job, token.clone());
    }
    if let Ok(mut jobs) = shared.jobs.lock() {
        jobs.insert(job, token.clone());
    }
    let jnode = shared.node.child(&format!("jobs/{job}"));
    jnode.set("phase", "queued");
    jnode.set("kernel", req.kernel.label());
    jnode.set("mode", req.mode.label());

    let res = handle_submit_inner(
        state, req, shared, program, job, kd, &key_hex, &token, &jnode,
    );

    // Deregister BEFORE the final line goes out: the moment the client
    // reads its result it may hang up, and a clean close racing a
    // not-yet-deregistered job would be miscounted as a session drop.
    if let Ok(mut reg) = state.registry.lock() {
        reg.remove(&job);
    }
    if let Ok(mut jobs) = shared.jobs.lock() {
        jobs.remove(&job);
    }
    match res {
        Ok(final_line) => send_shared(state, shared, &final_line),
        Err(e) => Err(e),
    }
}

/// Everything between `accepted` and the job's final protocol line.
/// Mid-job lines (telemetry, progress, paranoid warnings) are sent
/// inline; the FINAL line is returned instead so the caller can
/// deregister the job before it reaches the client.
#[allow(clippy::too_many_arguments)]
fn handle_submit_inner(
    state: &Arc<State>,
    req: &SubmitReq,
    shared: &Arc<SessionShared>,
    program: Program,
    job: u64,
    kd: u64,
    key_hex: &str,
    token: &CancelToken,
    jnode: &StateNode,
) -> std::io::Result<String> {
    send_shared(state, shared, &proto::accepted_line(job, key_hex))?;

    let hit = state.cache.lock().ok().and_then(|mut c| c.get(kd));
    if let Some(entry) = hit {
        state.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        jnode.set("cache", "hit");
        let mut paranoid = "off";
        if state.paranoid {
            state.stats.paranoid_checks.fetch_add(1, Ordering::Relaxed);
            // The re-run carries the job's own token, so a `cancel` or a
            // disconnect stops it too. A cancelled verification proves
            // nothing either way: it is neither a failure nor a reason
            // to touch the cache.
            let live = LiveOpts {
                cancel: Some(token.clone()),
                ..LiveOpts::default()
            };
            let fresh = state.pool.run(WorkItem {
                program,
                kernel: req.kernel,
                mode: req.mode,
                live,
                sink: None,
                node: jnode.clone(),
                phase: "paranoid",
            });
            let failure;
            (paranoid, failure) = match fresh {
                Ok(None) => ("cancelled", None),
                Ok(Some((rec, _))) if rec.outcome == "cancelled" => ("cancelled", None),
                Ok(Some((rec, _))) if rec.triple() == entry.triple() => ("ok", None),
                Ok(Some((rec, _))) => (
                    "mismatch",
                    Some(format!(
                        "paranoid mismatch on key {key_hex}: cached \
                         outcome={} cycle={} digest={:016x}, fresh \
                         outcome={} cycle={} digest={:016x}",
                        entry.outcome,
                        entry.final_cycle,
                        entry.digest,
                        rec.outcome,
                        rec.final_cycle,
                        rec.digest
                    )),
                ),
                Err(e) => ("mismatch", Some(format!("paranoid re-run failed: {e}"))),
            };
            if let Some(msg) = failure {
                state
                    .stats
                    .paranoid_failures
                    .fetch_add(1, Ordering::Relaxed);
                send_shared(state, shared, &proto::error_line(&msg))?;
            }
        }
        if let Some(p) = &entry.profile {
            let snap = snapshot_json("bgserve", job, 1, 1, p);
            send_shared(state, shared, &proto::telemetry_line(job, &snap))?;
        }
        jnode.set("phase", "done");
        // Publish the monitor update before the result line: a client
        // that acts on the result must find the stream already current.
        state.finish_job(None);
        return Ok(proto::result_line(job, &entry, true, paranoid, key_hex));
    }

    state.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    jnode.set("cache", "miss");
    let live = LiveOpts {
        cancel: Some(token.clone()),
        timeout_cycles: req.live.timeout_cycles,
        timeout_wall_ms: req.live.timeout_wall_ms,
        progress_cycles: req.live.progress_cycles,
    };
    let sink = req
        .live
        .progress_cycles
        .map(|_| progress_sink(Arc::clone(state), Arc::clone(shared), jnode.clone(), job));
    match state.pool.run(WorkItem {
        program,
        kernel: req.kernel,
        mode: req.mode,
        live,
        sink,
        node: jnode.clone(),
        phase: "running",
    }) {
        Ok(None) => {
            // Cancelled while still queued: never simulated a cycle.
            state.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            jnode.set("phase", "cancelled");
            let entry = CachedResult {
                kernel: req.kernel.label().to_string(),
                mode: req.mode.label(),
                outcome: "cancelled".to_string(),
                final_cycle: 0,
                digest: 0,
                coverage: 0,
                profile: None,
            };
            state.finish_job(None);
            Ok(proto::result_line(job, &entry, false, "off", key_hex))
        }
        Ok(Some((rec, snap))) => {
            let interrupted = rec.outcome == "cancelled" || rec.outcome == "timeout";
            let entry = cached_of(&rec, Some(snap.clone()));
            if interrupted {
                // A cancelled/timed-out triple is a truncation artifact,
                // not the job's answer — memoizing it would poison every
                // future lookup of this key.
                if rec.outcome == "timeout" {
                    state.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                }
            } else if let Ok(mut c) = state.cache.lock() {
                c.insert(kd, entry.clone());
            }
            jnode.set("phase", rec.outcome.clone());
            let line = snapshot_json("bgserve", job, 1, 1, &snap);
            send_shared(state, shared, &proto::telemetry_line(job, &line))?;
            state.finish_job(Some(&snap));
            Ok(proto::result_line(job, &entry, false, "off", key_hex))
        }
        Err(e) => {
            // Failed runs are not cached: the failure may be transient
            // (e.g. resource pressure) and a retry should re-execute.
            jnode.set("phase", "error");
            state.finish_job(None);
            Ok(proto::error_line(&e))
        }
    }
}

/// Wake the accept loop so it can observe the stop flag.
fn poke(ep: &Endpoint) {
    let _ = ep.connect();
}

fn session(stream: Stream, state: Arc<State>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let sid = state.next_session.fetch_add(1, Ordering::Relaxed);
    let node = state.tree.child(&format!("sessions/{sid}"));
    node.set("peer", "open");
    let shared = Arc::new(SessionShared {
        id: sid,
        writer: Mutex::new(stream),
        dead: AtomicBool::new(false),
        jobs: Mutex::new(HashMap::new()),
        node,
    });
    // Submissions run in steward threads so the reader keeps consuming
    // requests mid-job — that is what lets one connection interleave
    // `status` and `cancel` with its own (or anyone's) running work.
    let mut stewards: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let res = match proto::parse_request(&line) {
            Err(e) => send_shared(&state, &shared, &proto::error_line(&e)),
            Ok(Request::Ping) => send_shared(&state, &shared, &proto::pong_line()),
            Ok(Request::Status) => {
                send_shared(&state, &shared, &proto::status_line(&state.status()))
            }
            Ok(Request::Shutdown) => {
                let _ = send_shared(&state, &shared, &proto::shutting_down_line());
                state.stop.store(true, Ordering::SeqCst);
                poke(&state.endpoint);
                break;
            }
            Ok(Request::Cancel { job }) => {
                let token = state
                    .registry
                    .lock()
                    .ok()
                    .and_then(|reg| reg.get(&job).cloned());
                let cancelled = match token {
                    Some(t) => {
                        t.cancel();
                        true
                    }
                    None => false,
                };
                send_shared(&state, &shared, &proto::cancel_ack_line(job, cancelled))
            }
            Ok(Request::Submit(req)) => {
                let st = Arc::clone(&state);
                let sh = Arc::clone(&shared);
                stewards.push(std::thread::spawn(move || {
                    let _ = handle_submit(&st, &req, &sh);
                }));
                stewards.retain(|h| !h.is_finished());
                Ok(())
            }
        };
        if res.is_err() {
            break; // client went away mid-response
        }
    }
    // Reader EOF (peer closed or vanished) or shutdown: cancel whatever
    // this session still has in flight, then wait for the stewards to
    // wind those jobs down.
    drop_session(&state, &shared);
    for h in stewards {
        let _ = h.join();
    }
}

/// A running server. Dropping the handle does not stop the server; a
/// client `shutdown` request (or [`ServerHandle::shutdown`]) does.
pub struct ServerHandle {
    endpoint: Endpoint,
    accept: std::thread::JoinHandle<()>,
    state: Arc<State>,
}

impl ServerHandle {
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Ask the server to stop (via the protocol) and wait for it.
    pub fn shutdown(self) -> Result<(), String> {
        let mut c = crate::client::Client::connect(&self.endpoint)?;
        c.shutdown()?;
        self.join()
    }

    /// Wait for the server to exit (after a client-initiated shutdown).
    pub fn join(self) -> Result<(), String> {
        self.accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())?;
        self.state.pool.join()
    }
}

/// Bind the endpoint and start serving in background threads. The
/// listener is bound synchronously: once this returns, clients may
/// connect.
pub fn spawn(opts: ServeOpts) -> Result<ServerHandle, String> {
    let listener = bind(&opts.endpoint)?;
    let threads = opts.threads.max(1);
    let pool = Pool::new(threads)?;
    let tree = StateNode::new();
    tree.set("endpoint", opts.endpoint.label());
    tree.set("threads", threads);
    let state = Arc::new(State {
        endpoint: opts.endpoint.clone(),
        paranoid: opts.paranoid,
        stop: AtomicBool::new(false),
        next_job: AtomicU64::new(0),
        next_session: AtomicU64::new(0),
        cache: Mutex::new(ResultCache::new(opts.cache_cap, opts.cache_dir)),
        stats: Stats {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            paranoid_checks: AtomicU64::new(0),
            paranoid_failures: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            session_drops: AtomicU64::new(0),
        },
        monitor: Mutex::new(MonitorAgg {
            monitor: opts.monitor,
            merged: ProfileSnapshot::default(),
            last_progress_publish: Instant::now(),
        }),
        registry: Mutex::new(HashMap::new()),
        tree,
        pool,
    });

    let endpoint = opts.endpoint;
    let ep = endpoint.clone();
    let served = Arc::clone(&state);
    let accept = std::thread::spawn(move || {
        let mut sessions = Vec::new();
        loop {
            let stream = match listener.accept() {
                Ok(s) => s,
                Err(_) => break,
            };
            if served.stop.load(Ordering::SeqCst) {
                break;
            }
            let st = Arc::clone(&served);
            sessions.push(std::thread::spawn(move || session(stream, st)));
        }
        for h in sessions {
            let _ = h.join();
        }
        // No session is left to submit: the workers finish and exit.
        served.pool.close();
        if let Endpoint::Unix(path) = &ep {
            let _ = std::fs::remove_file(path);
        }
    });

    Ok(ServerHandle {
        endpoint,
        accept,
        state,
    })
}

/// Bind and serve until a client requests shutdown (the CLI entry).
pub fn serve(opts: ServeOpts) -> Result<(), String> {
    spawn(opts)?.join()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_grammar() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Endpoint::parse("/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070"),
            Ok(Endpoint::Tcp("127.0.0.1:7070".to_string()))
        );
        assert!(Endpoint::parse("").is_err());
        assert!(Endpoint::parse("host:7070").is_err());
        assert_eq!(
            Endpoint::parse("bgserve.sock"),
            Ok(Endpoint::Unix(PathBuf::from("bgserve.sock")))
        );
    }

    #[test]
    fn endpoint_parse_rejects_empty_addresses() {
        // "unix:" used to parse to an empty path and "tcp:" to an empty
        // address — both failed much later with a confusing connect
        // error. They are rejected up front now, with the missing part
        // named.
        let unix = Endpoint::parse("unix:").unwrap_err();
        assert!(unix.contains("socket path"), "{unix}");
        let tcp = Endpoint::parse("tcp:").unwrap_err();
        assert!(tcp.contains("host:port"), "{tcp}");
    }
}
