//! The machine executor: boot, launch, and the deterministic event loop.

use std::collections::VecDeque;

use sysabi::{CoreId, JobSpec, NodeId, ProcId, Sig, SysReq, SysRet, Tid};

use crate::cycles::Cycle;
use crate::engine::EvKind;
use crate::fault::{FaultEvent, FaultKind};
use crate::machine::progress::{
    CancelCause, CancelToken, LiveHook, LiveState, ProgressCtl, ProgressReport,
};
use crate::machine::simcore::{NetDomain, SimCore};
use crate::machine::thread::ThreadState;
use crate::machine::{
    BootReport, CommAction, CommModel, JobMap, Kernel, LaunchError, SyscallAction, WlEnv,
    WorkloadFactory,
};
use crate::op::Op;
use crate::scan::{ScanRecord, ScanTarget};
use crate::telemetry::{Domain, Slot, TpKind};
use crate::trace::TraceEvent;

/// Cycles charged to the interrupted thread per delivered IPI.
const IPI_OVERHEAD: u64 = 80;

/// The fast path only engages when every pending event is a runnable
/// thread's completion; above this many pending events the quiescence
/// scan costs more than it saves (kernels with standing timers — noise
/// daemons, timeslices — or large multi-node runs never qualify, and
/// this cap keeps the rejection cheap for them).
const FAST_MAX_PENDING: usize = 8;

/// A virtualized `OpDone`: a pending completion lifted out of the event
/// heap into the machine's micro run queue. Carries the event's original
/// global sequence number so it occupies the exact slot in the
/// `(cycle, seq)` total order the heap would have given it, plus the
/// thread generation for the same staleness check `on_op_done` performs.
#[derive(Clone, Copy, Debug)]
struct FastSlot {
    until: Cycle,
    seq: u64,
    tid: Tid,
    gen: u32,
    node: u32,
}

/// Internal result of dispatching one op.
enum Disp {
    /// Zero-cost op — fetch the next op in the same cycle.
    Continue,
    /// A completion event was scheduled; the thread keeps its core.
    Scheduled,
    /// The thread gave up the core (blocked, yielded, or exited).
    Released,
}

/// How a run ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// All job threads exited.
    Completed { at: Cycle },
    /// The clock-stop bound was reached.
    ReachedCycle { at: Cycle },
    /// The event queue drained with threads still blocked — a hang.
    Deadlock { at: Cycle, blocked: Vec<Tid> },
    /// Nothing to do (no job launched).
    Idle { at: Cycle },
    /// The run was stopped early by its live hook: a cancel token, a
    /// cycle/wall deadline, or a sink returning
    /// [`ProgressCtl::Cancel`]. In-flight state is left intact (like
    /// `ReachedCycle`), but quiescence invariants do not hold.
    Cancelled { at: Cycle, cause: CancelCause },
}

impl RunOutcome {
    pub fn at(&self) -> Cycle {
        match self {
            RunOutcome::Completed { at }
            | RunOutcome::ReachedCycle { at }
            | RunOutcome::Deadlock { at, .. }
            | RunOutcome::Idle { at }
            | RunOutcome::Cancelled { at, .. } => *at,
        }
    }

    pub fn completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }
}

/// A simulated machine: hardware state + a kernel + a messaging stack.
pub struct Machine {
    pub sc: SimCore,
    kernel: Box<dyn Kernel>,
    comm: Box<dyn CommModel>,
    booted: bool,
    has_job: bool,
    boot_report: Option<BootReport>,
    /// Livelock-guard state for the event loop. A Machine field (not a
    /// run_inner local) so windowed execution carries it across epoch
    /// boundaries instead of resetting every window.
    idle_kernel_events: u32,
    /// Epoch windows executed by `run_windowed`.
    epochs: u64,
    /// The fast-path micro run queue: pending completions virtualized out
    /// of the event heap while the machine is compute-quiescent.
    fast: Vec<FastSlot>,
    /// True while the micro run queue owns every pending event.
    fast_active: bool,
    /// The resolved fault schedule, sorted by `(at, node)`; `EvKind::Ras`
    /// events index into it. Empty when no faults are configured.
    fault_events: Vec<FaultEvent>,
    /// Live-run control (progress sink, cancel token, deadlines);
    /// `None` for ordinary runs, so the hook costs nothing when absent.
    live: Option<Box<LiveState>>,
}

impl Machine {
    pub fn new(
        cfg: crate::config::MachineConfig,
        kernel: Box<dyn Kernel>,
        comm: Box<dyn CommModel>,
    ) -> Machine {
        Machine {
            sc: SimCore::new(cfg),
            kernel,
            comm,
            booted: false,
            has_job: false,
            boot_report: None,
            idle_kernel_events: 0,
            epochs: 0,
            fast: Vec::new(),
            fast_active: false,
            fault_events: Vec::new(),
            live: None,
        }
    }

    /// Attach a live hook (progress sink, cancel token, deadlines) to
    /// the next run. The cycle deadline is resolved against the current
    /// clock; the hook stays attached across `run`/`run_windowed` calls
    /// until replaced or cleared.
    pub fn attach_live_hook(&mut self, hook: LiveHook) {
        if hook.is_noop() {
            self.live = None;
            return;
        }
        let now = self.sc.engine.now();
        let events = self.sc.engine.processed();
        self.live = Some(Box::new(LiveState::new(hook, now, events)));
    }

    /// Detach any live hook.
    pub fn clear_live_hook(&mut self) {
        self.live = None;
    }

    pub fn now(&self) -> Cycle {
        self.sc.now()
    }

    pub fn kernel(&self) -> &dyn Kernel {
        &*self.kernel
    }

    pub fn kernel_mut(&mut self) -> &mut dyn Kernel {
        &mut *self.kernel
    }

    pub fn comm(&self) -> &dyn CommModel {
        &*self.comm
    }

    pub fn boot_report(&self) -> Option<&BootReport> {
        self.boot_report.as_ref()
    }

    pub fn trace_digest(&self) -> u64 {
        self.sc.trace.digest()
    }

    /// Detached copy of the profiler's sim-side counters.
    pub fn profile_snapshot(&self) -> crate::telemetry::ProfileSnapshot {
        self.sc.prof.snapshot()
    }

    /// Render the crash flight recorder (recent spans per domain) for a
    /// repro artifact or panic dump.
    pub fn flight_dump(&self) -> String {
        self.sc.prof.flight_dump()
    }

    /// Coverage signal for fuzzers: counter vector + trace-digest prefix
    /// ([`crate::telemetry::coverage_digest`]).
    pub fn coverage_digest(&self) -> u64 {
        crate::telemetry::coverage_digest(&self.sc.tel.metrics, self.sc.trace.digest())
    }

    /// Approximate heap bytes resident for this machine: simulator state
    /// (engine queues, payload slab, per-node/per-core columns), kernel
    /// private state, and machine-level scratch (fast-path run queue,
    /// fault schedule). The estimate counts container capacities, so it
    /// tracks reservations as well as live entries; `fig_scale` divides it
    /// by the node count to report bytes/node at each sweep point.
    pub fn resident_bytes_estimate(&self) -> usize {
        self.sc.resident_bytes_estimate()
            + self.kernel.resident_bytes()
            + self.fast.capacity() * std::mem::size_of::<FastSlot>()
            + self.fault_events.capacity() * std::mem::size_of::<FaultEvent>()
    }

    /// Cold boot.
    pub fn boot(&mut self) -> &BootReport {
        assert!(!self.booted, "already booted");
        let report = self.kernel.boot(&mut self.sc, false);
        self.booted = true;
        self.schedule_faults();
        self.boot_report.insert(report)
    }

    /// Turn the config's fault schedule into engine events, one per
    /// fault, in the target node's event domain. An empty schedule
    /// schedules nothing — the run stays bit-identical to a fault-free
    /// build (and the event-reduction fast path stays eligible).
    fn schedule_faults(&mut self) {
        let mut events = self.sc.cfg.faults.events.clone();
        if events.is_empty() {
            self.fault_events = events;
            return;
        }
        events.sort_by_key(|e| (e.at, e.node));
        for (idx, ev) in events.iter().enumerate() {
            self.sc
                .engine
                .schedule_dom(ev.node, ev.at, EvKind::Ras { idx: idx as u32 });
        }
        self.fault_events = events;
    }

    /// Launch a job: the kernel builds address spaces and threads, the
    /// machine assigns ranks and queues the main threads for execution.
    pub fn launch(
        &mut self,
        spec: &JobSpec,
        factory: &mut dyn WorkloadFactory,
    ) -> Result<JobMap, LaunchError> {
        assert!(self.booted, "launch before boot");
        if spec.nodes > self.sc.cfg.nodes {
            return Err(LaunchError::BadSpec(format!(
                "job wants {} nodes, machine has {}",
                spec.nodes, self.sc.cfg.nodes
            )));
        }
        let job = self.kernel.launch(&mut self.sc, spec, factory)?;
        for ri in &job.ranks {
            self.sc.threads[ri.main_tid.idx()].rank = Some(ri.rank);
        }
        let caps = job
            .ranks
            .first()
            .map(|r| self.kernel.comm_caps(&self.sc, r.main_tid))
            .unwrap_or_else(crate::machine::CommCaps::cnk);
        self.comm.configure_job(&self.sc, &job, caps);
        for ri in &job.ranks {
            if self.sc.core_idle(self.sc.threads[ri.main_tid.idx()].core) {
                self.sc.dispatch(ri.main_tid);
            }
        }
        self.has_job = true;
        Ok(job)
    }

    /// Inject a hardware fault (e.g. `FAULT_PARITY`) at an absolute cycle.
    pub fn inject_fault(&mut self, at: Cycle, core: CoreId, kind: u32) {
        let node = self.sc.node_of_core(core);
        self.sc
            .engine
            .schedule_dom(node.0, at, EvKind::Fault { core: core.0, kind });
    }

    /// Run until the job completes or nothing can make progress.
    pub fn run(&mut self) -> RunOutcome {
        self.idle_kernel_events = 0;
        let out = self.run_inner(None);
        self.publish_engine_telemetry();
        out
    }

    /// Clock-stop: run to an exact cycle (§III), leaving in-flight state
    /// intact for scanning.
    pub fn run_until(&mut self, bound: Cycle) -> RunOutcome {
        self.idle_kernel_events = 0;
        self.run_inner(Some(bound))
    }

    /// Run to completion in bounded epoch windows of
    /// `cfg.effective_lookahead()` cycles — the execution mode of the
    /// conservative parallel protocol, driven sequentially here. Events
    /// pop in exactly the same `(cycle, seq)` order as `run()`, so the
    /// outcome, final cycle, and trace digest are bit-identical; only
    /// the batching differs. The sequential `run()` is the conformance
    /// oracle for this path.
    pub fn run_windowed(&mut self) -> RunOutcome {
        self.idle_kernel_events = 0;
        let lookahead = self.sc.cfg.effective_lookahead();
        loop {
            let bound = {
                let base = self.sc.now().saturating_add(lookahead);
                // Quiescence fast-forward at the window level: if the
                // earliest pending event lies beyond the naive window,
                // every epoch until then would pop nothing. Jump the
                // window so it starts at that event — the same rule
                // parsim uses for its horizon (`min_at + lookahead`).
                // Pop order is untouched; only the number of empty
                // `ReachedCycle` epochs changes. Virtual kernel timers
                // count as pending events for this purpose.
                let head = match (self.sc.engine.peek_at(), self.sc.vtimers.peek_key()) {
                    (Some(e), Some((v, _))) => Some(e.min(v)),
                    (Some(e), None) => Some(e),
                    (None, Some((v, _))) => Some(v),
                    (None, None) => None,
                };
                match head {
                    Some(at) if at > base => at.saturating_add(lookahead),
                    _ => base,
                }
            };
            match self.run_inner(Some(bound)) {
                RunOutcome::ReachedCycle { .. } => {
                    self.epochs += 1;
                    if self.sc.engine.is_idle() && self.sc.vtimers.is_empty() {
                        // Queue drained mid-window. Classify exactly as
                        // run() would, at the last processed event (the
                        // engine clock itself parked at the window
                        // bound).
                        let at = self.sc.engine.last_event_cycle();
                        let blocked: Vec<Tid> = self
                            .sc
                            .threads
                            .iter()
                            .filter(|t| t.state.is_blocked())
                            .map(|t| t.tid)
                            .collect();
                        let out = if !self.has_job || blocked.is_empty() {
                            RunOutcome::Idle { at }
                        } else {
                            RunOutcome::Deadlock { at, blocked }
                        };
                        self.publish_engine_telemetry();
                        return out;
                    }
                }
                out => {
                    self.publish_engine_telemetry();
                    return out;
                }
            }
        }
    }

    /// Epoch windows executed by `run_windowed` so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Machine-level invariant sweep plus the kernel's own
    /// [`Kernel::check_invariants`] hook. Run at quiescence (after
    /// `run()`/`run_windowed()` return); read-only. Returns one string
    /// per violation — empty means every cross-check held.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        // Monotonic cycle time: retained trace entries must never go
        // backwards (the digest covers the full stream, but only the
        // retained window can be re-inspected here).
        let mut last = 0u64;
        for e in self.sc.trace.entries() {
            if e.at < last {
                v.push(format!(
                    "trace time went backwards: entry at cycle {} after cycle {last}",
                    e.at
                ));
                break;
            }
            last = e.at;
        }
        if last > self.sc.engine.now() {
            v.push(format!(
                "trace entry at cycle {last} is ahead of the engine clock {}",
                self.sc.engine.now()
            ));
        }
        // Live-thread counter vs a full recount: the executor maintains
        // the O(1) counter at exit transitions, so drift means a state
        // write bypassed them.
        let recount = self.sc.threads.iter().filter(|t| t.state.is_live()).count();
        if recount != self.sc.live_threads() {
            v.push(format!(
                "live-thread counter {} != recount {recount}",
                self.sc.live_threads()
            ));
        }
        // Running-slot cross-check: an occupied core slot must name a
        // live thread bound to that core.
        for (i, slot) in self.sc.running.iter().enumerate() {
            let Some(tid) = slot else { continue };
            match self.sc.threads.get(tid.idx()) {
                None => v.push(format!("core {i} runs nonexistent tid {}", tid.0)),
                Some(t) => {
                    if t.core.idx() != i {
                        v.push(format!(
                            "core {i} runs tid {} whose thread is bound to core {}",
                            tid.0, t.core.0
                        ));
                    }
                    if !t.state.is_live() {
                        v.push(format!(
                            "core {i} runs tid {} in non-live state {:?}",
                            tid.0, t.state
                        ));
                    }
                }
            }
        }
        // Telemetry counter sanity: histogram internals must be
        // mutually consistent (count/min/max/sum cannot contradict).
        for m in self.sc.tel.metrics.iter() {
            for (slot, h) in m.hists.iter().enumerate() {
                if h.count() == 0 {
                    continue;
                }
                let lo = h.min() as u128;
                let hi = h.max() as u128;
                let n = h.count() as u128;
                let sum = h.sum() as u128;
                // `sum` saturates at u64::MAX, so only flag bounds the
                // saturation cannot explain.
                if lo > hi || sum < lo || (sum > n * hi && h.sum() != u64::MAX) {
                    v.push(format!(
                        "telemetry hist {}[{slot}] inconsistent: count={} min={} max={} sum={}",
                        m.name,
                        h.count(),
                        h.min(),
                        h.max(),
                        h.sum()
                    ));
                }
            }
        }
        v.extend(self.kernel.check_invariants(&self.sc));
        v
    }

    /// Export the engine's occupancy counters as telemetry gauges (a
    /// no-op unless telemetry is enabled; gauges never feed back into
    /// simulation state, preserving observer-neutrality).
    fn publish_engine_telemetry(&mut self) {
        let stats = self.sc.engine.stats();
        let ids = self.sc.tel.ids;
        self.sc
            .tel
            .gauge(ids.evq_stale_discards, Slot::Machine, stats.stale_discarded);
        self.sc
            .tel
            .gauge(ids.evq_compactions, Slot::Machine, stats.compactions);
        self.sc
            .tel
            .gauge(ids.coalesced_ops, Slot::Machine, stats.coalesced);
        self.sc.tel.gauge(
            ids.fastforward_cycles,
            Slot::Machine,
            stats.fastforward_cycles,
        );
        self.sc.tel.gauge(
            ids.batched_packets,
            Slot::Machine,
            self.sc.stats.batched_packets,
        );
    }

    fn run_inner(&mut self, bound: Option<Cycle>) -> RunOutcome {
        // Livelock guard: a kernel with self-rescheduling events (noise
        // ticks) keeps the queue non-empty forever even when every
        // thread is deadlocked. Count consecutive kernel-private events
        // processed while no thread runs and nothing drains; past the
        // limit, report the deadlock instead of spinning.
        const IDLE_KERNEL_EVENT_LIMIT: u32 = 200_000;
        loop {
            if self.drain() {
                self.idle_kernel_events = 0;
            }
            if self.has_job && self.sc.live_threads() == 0 {
                return RunOutcome::Completed { at: self.sc.now() };
            }
            if self.idle_kernel_events > IDLE_KERNEL_EVENT_LIMIT {
                let blocked: Vec<Tid> = self
                    .sc
                    .threads
                    .iter()
                    .filter(|t| t.state.is_blocked())
                    .map(|t| t.tid)
                    .collect();
                return RunOutcome::Deadlock {
                    at: self.sc.now(),
                    blocked,
                };
            }
            if let Some(out) = self.poll_live() {
                return out;
            }
            // Quiescence fast path: when every pending event is a running
            // thread's own completion, retire them through the micro run
            // queue instead of the heap. Digest-identical by
            // construction; see `try_enter_fast`.
            if self.sc.cfg.fast_path && self.try_enter_fast(bound) {
                self.run_fast(bound);
                continue;
            }
            // Virtual kernel timers (closed-form noise) live outside the
            // heap but hold real slots in the global `(cycle, seq)` total
            // order: their seq comes from the engine's own counter. Pop
            // whichever source holds the earlier key, so the merged
            // stream is bit-identical to the all-on-heap reference.
            let vkey = self.sc.vtimers.peek_key();
            let take_virtual = match vkey {
                Some(v) => {
                    bound.is_none_or(|b| v.0 <= b)
                        && self.sc.engine.peek_key().is_none_or(|e| v < e)
                }
                None => false,
            };
            if take_virtual {
                let (at, _seq, node, tag) = self.sc.vtimers.pop().expect("peeked above");
                self.sc.engine.advance_virtual(at);
                let nothing_running = self.sc.running.iter().all(Option::is_none);
                if nothing_running {
                    self.idle_kernel_events += 1;
                } else {
                    self.idle_kernel_events = 0;
                }
                self.handle(EvKind::Kernel { node, tag });
                continue;
            }
            let ev = match bound {
                Some(b) => self.sc.engine.pop_until(b),
                None => self.sc.engine.pop(),
            };
            let Some(ev) = ev else {
                let at = self.sc.now();
                if bound.is_some() {
                    return RunOutcome::ReachedCycle { at };
                }
                let blocked: Vec<Tid> = self
                    .sc
                    .threads
                    .iter()
                    .filter(|t| t.state.is_blocked())
                    .map(|t| t.tid)
                    .collect();
                return if !self.has_job || blocked.is_empty() {
                    RunOutcome::Idle { at }
                } else {
                    RunOutcome::Deadlock { at, blocked }
                };
            };
            let nothing_running = self.sc.running.iter().all(Option::is_none);
            if nothing_running && matches!(ev.kind, EvKind::Kernel { .. }) {
                self.idle_kernel_events += 1;
            } else {
                self.idle_kernel_events = 0;
            }
            self.handle(ev.kind);
        }
    }

    // ---- live-run control ---------------------------------------------------

    /// One live-hook poll at the event-loop head: cheap tick first, then
    /// (when due) cancel token, deadlines, and the progress report.
    /// Everything observed is read-only simulation state, so a hook
    /// whose sink keeps returning `Continue` never perturbs the run —
    /// the neutrality proptest pins this.
    fn poll_live(&mut self) -> Option<RunOutcome> {
        let now = self.sc.engine.now();
        let live = self.live.as_deref_mut()?;
        if !live.tick(now) {
            return None;
        }
        live.due = false;
        if live.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(RunOutcome::Cancelled {
                at: now,
                cause: CancelCause::Requested,
            });
        }
        if live.deadline.is_some_and(|d| now >= d) {
            return Some(RunOutcome::Cancelled {
                at: now,
                cause: CancelCause::TimeoutCycles,
            });
        }
        if live
            .wall_deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            return Some(RunOutcome::Cancelled {
                at: now,
                cause: CancelCause::TimeoutWall,
            });
        }
        if now >= live.next_report_at {
            let events = self.sc.engine.processed();
            let report = ProgressReport {
                cycle: now,
                events,
                d_events: events.saturating_sub(live.last_events),
                d_cycles: now.saturating_sub(live.last_cycle),
                live_threads: self.sc.live_threads(),
                profile: self.sc.prof.snapshot(),
            };
            live.last_events = events;
            live.last_cycle = now;
            live.next_report_at = now.saturating_add(live.interval.max(1));
            if let Some(sink) = live.sink.as_mut() {
                if let ProgressCtl::Cancel(cause) = sink.on_progress(&report) {
                    return Some(RunOutcome::Cancelled { at: now, cause });
                }
            }
        }
        None
    }

    /// Fast-path variant of the tick: when a live check falls due the
    /// fast loop must break out (flushing survivors back to the heap)
    /// so `poll_live` runs at the loop head. The flush/re-enter round
    /// trip preserves `(cycle, seq)` keys, so it is digest- and
    /// profile-invisible; only engine occupancy counters move.
    fn live_check_due(&mut self) -> bool {
        let now = self.sc.engine.now();
        match self.live.as_deref_mut() {
            Some(live) => live.tick(now),
            None => false,
        }
    }

    // ---- the event-reduction fast path -------------------------------------
    //
    // On CNK the machine spends almost all simulated time with every core
    // inside a long, perfectly predictable compute quantum (the paper's
    // noiselessness, §V.A). The heap then carries exactly one `OpDone`
    // per running thread and nothing else — yet the baseline loop still
    // pays a heap push + lazy-merge pop per quantum. The fast path
    // detects that *compute-quiescent* state, lifts the pending
    // completions into a tiny run queue (`fast`), and retires them
    // inline: the clock jumps straight to each completion
    // (`Engine::advance_inline`) and the next op's completion is
    // virtualized without touching the heap (`alloc_seq` keeps its
    // position in the global order).
    //
    // Digest identity with the heap path holds by construction:
    //
    // * Sequence numbers are allocated from the engine's own counter in
    //   the same order `schedule_dom` would have, so the `(cycle, seq)`
    //   total order over *all* events — virtual or real — is unchanged.
    // * Retirement order is argmin over `(until, seq)`, i.e. exactly heap
    //   pop order, and each retirement replays `on_op_done` verbatim
    //   (same state transitions, same trace records at the same cycles).
    // * The regime exits the moment anything else appears — a kernel
    //   timer, a message delivery, a deferral-queue push, a window
    //   bound — by restoring every survivor to the heap with its
    //   *original* sequence number (`Engine::restore`), after which the
    //   baseline loop drains events in the baseline order.
    //
    // Anything that could reorder events vetoes entry: preemption and
    // stretching only run from event handlers (impossible while the heap
    // is empty), and kills/unblocks route through the deferral queues,
    // which both the entry gate and the retirement loop check.

    /// Enter the compute-quiescent regime if every pending event is a
    /// running thread's own completion (and, under a window bound, at
    /// least one completion lands inside the window). On success the
    /// completions are migrated out of the heap into `fast`.
    fn try_enter_fast(&mut self, bound: Option<Cycle>) -> bool {
        debug_assert!(!self.fast_active);
        let pending = self.sc.engine.pending();
        if pending == 0 || pending > FAST_MAX_PENDING {
            return false;
        }
        if !self.sc.vtimers.is_empty() {
            // A virtual kernel timer (closed-form noise) is pending. It
            // lives outside the heap, so `pending` cannot see it, yet it
            // holds a slot in the global order — the fast path must not
            // jump the clock past it.
            return false;
        }
        if !self.sc.dispatch_q.is_empty()
            || !self.sc.unblock_q.is_empty()
            || !self.sc.kill_q.is_empty()
        {
            return false;
        }
        self.fast.clear();
        let mut min_until = Cycle::MAX;
        for slot in self.sc.running.iter() {
            let Some(tid) = *slot else { continue };
            let t = &self.sc.threads[tid.idx()];
            let ThreadState::Running { gen, until, .. } = t.state else {
                self.fast.clear();
                return false;
            };
            let Some(h) = t.pending_done else {
                self.fast.clear();
                return false;
            };
            if !self.sc.engine.is_live(h) {
                self.fast.clear();
                return false;
            }
            self.fast.push(FastSlot {
                until,
                seq: h.seq(),
                tid,
                gen,
                node: t.node.0,
            });
            min_until = min_until.min(until);
        }
        // Every pending event must be one of these completions; a kernel
        // timer, net delivery, IPI, or any other foreign event vetoes.
        if self.fast.len() != pending {
            self.fast.clear();
            return false;
        }
        if let Some(b) = bound {
            if min_until > b {
                // Empty window: let pop_until park the clock instead.
                self.fast.clear();
                return false;
            }
        }
        for i in 0..self.fast.len() {
            let tid = self.fast[i].tid;
            let h = self.sc.threads[tid.idx()]
                .pending_done
                .take()
                .expect("validated above");
            let ok = self.sc.engine.decommit(h);
            debug_assert!(ok, "validated handle must decommit");
        }
        self.fast_active = true;
        true
    }

    /// Retire virtualized completions in `(until, seq)` order — exactly
    /// heap pop order — until something foreign appears (engine event,
    /// deferral push, window bound) or the run queue drains; then flush.
    fn run_fast(&mut self, bound: Option<Cycle>) {
        debug_assert!(self.fast_active);
        loop {
            if !self.sc.dispatch_q.is_empty()
                || !self.sc.unblock_q.is_empty()
                || !self.sc.kill_q.is_empty()
                || self.sc.engine.pending() != 0
                || !self.sc.vtimers.is_empty()
                || self.fast.is_empty()
            {
                break;
            }
            if self.live_check_due() {
                break;
            }
            let mut best = 0usize;
            for i in 1..self.fast.len() {
                let (a, b) = (&self.fast[i], &self.fast[best]);
                if (a.until, a.seq) < (b.until, b.seq) {
                    best = i;
                }
            }
            if let Some(bnd) = bound {
                if self.fast[best].until > bnd {
                    break;
                }
            }
            let s = self.fast.swap_remove(best);
            // The staleness gate of `on_op_done`: a superseded completion
            // must not advance the clock (the heap path cancels it). One
            // borrow covers the gate and the retirement bookkeeping; the
            // clock moves only after the gate passes, and nothing before
            // `advance_inline` observes the clock.
            let busy = {
                let t = &mut self.sc.threads[s.tid.idx()];
                match t.state {
                    ThreadState::Running {
                        gen,
                        until,
                        started,
                    } if gen == s.gen => {
                        debug_assert_eq!(until, s.until);
                        let busy = until.saturating_sub(started);
                        t.stats.busy_cycles += busy;
                        t.state = ThreadState::Ready;
                        t.pending_done = None;
                        busy
                    }
                    _ => continue,
                }
            };
            self.sc.engine.advance_inline(s.until);
            self.idle_kernel_events = 0;
            self.sc
                .trace
                .record(s.until, TraceEvent::OpEnd { tid: s.tid.0 });
            // Profiler attribution: this completion retired through the
            // micro run queue, not a heap pop. The split is mode-stable —
            // a windowed run defers a fast retirement across the window
            // bound but re-enters the regime with identical state, so
            // seq and windowed drivers attribute identically.
            self.sc
                .prof
                .span(Domain::FastPath, s.until, s.node, "op_retire", busy);
            self.advance_thread(s.tid);
        }
        self.flush_fast();
    }

    /// Exit the regime: every surviving virtual completion goes back on
    /// the heap with its original `(cycle, seq)` key, and the thread gets
    /// its cancellable handle back. Slots whose thread was superseded are
    /// dropped (the heap path would have cancelled them).
    fn flush_fast(&mut self) {
        for i in 0..self.fast.len() {
            let s = self.fast[i];
            let valid = matches!(
                self.sc.threads[s.tid.idx()].state,
                ThreadState::Running { gen, .. } if gen == s.gen
            );
            if !valid {
                continue;
            }
            let h = self.sc.engine.restore(
                s.node,
                s.until,
                s.seq,
                EvKind::OpDone {
                    tid: s.tid.0,
                    gen: s.gen,
                },
            );
            self.sc.threads[s.tid.idx()].pending_done = Some(h);
        }
        self.fast.clear();
        self.fast_active = false;
    }

    /// Take a destructive logic scan: snapshot, then the machine is
    /// consumed (scans destroy chip state, §III). For non-destructive
    /// introspection in tests use `scan_ref`.
    pub fn scan_destructive(self, target: ScanTarget) -> ScanRecord {
        self.scan_ref(target)
    }

    /// Snapshot scan (the simulator can afford to be non-destructive, but
    /// the bringup workflow treats it as destructive).
    pub fn scan_ref(&self, target: ScanTarget) -> ScanRecord {
        let (desc, digest, probes) = match target {
            ScanTarget::Cores => ("cores", self.sc.trace.digest(), self.sc.probe_signals()),
            ScanTarget::Network => {
                let probes: Vec<(String, u64)> = self
                    .sc
                    .probe_signals()
                    .into_iter()
                    .filter(|(n, _)| n.starts_with("net."))
                    .collect();
                ("network", self.sc.trace.digest(), probes)
            }
            ScanTarget::Dram { addr, len } => {
                let d = self.sc.dram[0].digest(addr, len);
                ("dram", d, vec![("dram.window".to_string(), d)])
            }
            ScanTarget::Full => {
                let mut probes = self.sc.probe_signals();
                probes.push((
                    "dram0.resident".to_string(),
                    self.sc.dram[0].resident_granules() as u64,
                ));
                ("full", self.sc.trace.digest(), probes)
            }
        };
        ScanRecord {
            cycle: self.sc.now(),
            target_desc: desc,
            digest,
            probes,
        }
    }

    /// The §III reproducible reset: rendezvous cores, flush caches to
    /// DDR, put DDR in self-refresh, toggle reset. DRAM contents survive;
    /// everything else restarts from cycle 0. The kernel reboots on the
    /// reproducible path (no service-node interaction).
    pub fn reproducible_reset(&mut self) {
        self.sc.barrier.prepare_reproducible_reboot();
        let dram = std::mem::take(&mut self.sc.dram);
        let mut barrier = self.sc.barrier.clone();
        barrier.on_chip_reset();
        let mut fresh = SimCore::new(self.sc.cfg.clone());
        fresh.dram = dram;
        fresh.barrier = barrier;
        self.sc = fresh;
        self.kernel.reset();
        self.booted = true;
        self.has_job = false;
        self.boot_report = Some(self.kernel.boot(&mut self.sc, true));
        self.schedule_faults();
    }

    // ---- event handling ---------------------------------------------------

    fn handle(&mut self, kind: EvKind) {
        match kind {
            EvKind::OpDone { tid, gen } => self.on_op_done(Tid(tid), gen),
            EvKind::Kernel { node, tag } => {
                self.sc
                    .prof
                    .span(Domain::Sched, self.sc.engine.now(), node, "kernel_event", 0);
                self.kernel.kernel_event(&mut self.sc, NodeId(node), tag);
            }
            EvKind::NetDeliver { msg_id } => {
                let Some(msg) = self.sc.take_msg(msg_id) else {
                    return;
                };
                self.sc.trace.record(
                    self.sc.engine.now(),
                    TraceEvent::MsgRecv {
                        dst: msg.dst_node.0,
                        bytes: msg.bytes,
                        tag: msg.tag,
                    },
                );
                let dom = match msg.domain {
                    NetDomain::Torus => Domain::Torus,
                    NetDomain::Collective => Domain::Collective,
                };
                self.sc
                    .prof
                    .span(dom, self.sc.engine.now(), msg.dst_node.0, "deliver", 0);
                match msg.domain {
                    NetDomain::Torus => self.comm.net_deliver(&mut self.sc, msg),
                    NetDomain::Collective => self.kernel.net_deliver(&mut self.sc, msg),
                }
            }
            EvKind::Ipi { core, kind } => {
                let core = CoreId(core);
                self.sc
                    .trace
                    .record(self.sc.engine.now(), TraceEvent::Ipi { core: core.0, kind });
                let node = self.sc.node_of_core(core);
                self.sc
                    .tel
                    .count(self.sc.tel.ids.ipis, Slot::Core(core.0), 1);
                self.sc.tel.tp(
                    self.sc.engine.now(),
                    node.0,
                    core.0,
                    TpKind::Ipi,
                    "ipi",
                    u64::from(kind),
                    0,
                );
                // The IPI itself is a zero-cycle span; the stretch below
                // accounts the IPI_OVERHEAD cycles, avoiding double
                // counting in the Sched domain.
                self.sc
                    .prof
                    .span(Domain::Sched, self.sc.engine.now(), node.0, "ipi", 0);
                // The interrupted thread pays the IPI entry/exit cost.
                self.sc
                    .stretch_running(core, IPI_OVERHEAD, u64::from(kind) | 0x1000);
                self.kernel.on_ipi(&mut self.sc, core, kind);
            }
            EvKind::Fault { core, kind } => {
                self.raise_fault(CoreId(core), kind);
            }
            EvKind::CollDone { tid, coll: _ } => {
                let node = self.sc.threads[Tid(tid).idx()].node.0;
                self.sc.prof.span(
                    Domain::Collective,
                    self.sc.engine.now(),
                    node,
                    "coll_done",
                    0,
                );
                self.sc.defer_unblock(Tid(tid), Some(SysRet::Val(0)));
            }
            EvKind::Ras { idx } => self.on_ras_fault(idx),
        }
    }

    /// A hardware fault (parity machine check) hits a core: record it
    /// and hand the kernel its fault path. Reached from direct
    /// `inject_fault` events and from scheduled `MachineCheck` RAS
    /// faults.
    fn raise_fault(&mut self, core: CoreId, kind: u32) {
        self.sc.stats.faults += 1;
        self.sc.trace.record(
            self.sc.engine.now(),
            TraceEvent::Fault { core: core.0, kind },
        );
        let node = self.sc.node_of_core(core);
        self.sc
            .tel
            .count(self.sc.tel.ids.hw_faults, Slot::Core(core.0), 1);
        self.sc.tel.tp(
            self.sc.engine.now(),
            node.0,
            core.0,
            TpKind::HwFault,
            "parity",
            u64::from(kind),
            0,
        );
        self.sc.prof.span(
            Domain::FaultRas,
            self.sc.engine.now(),
            node.0,
            "hw_fault",
            0,
        );
        self.kernel.on_fault(&mut self.sc, core, kind);
    }

    /// A scheduled RAS fault fires: apply the hardware-level effects
    /// here (network outages, in-flight mangling, parity injection),
    /// then hand the kernel its RAS policy hook.
    fn on_ras_fault(&mut self, idx: u32) {
        let ev = self.fault_events[idx as usize];
        let node = NodeId(ev.node);
        let core0 = self.sc.core_of(node, 0);
        self.sc.trace.record(
            self.sc.engine.now(),
            TraceEvent::Fault {
                core: core0.0,
                kind: ev.kind.code(),
            },
        );
        self.sc
            .tel
            .count(self.sc.tel.ids.ras_events, Slot::Node(node.0), 1);
        self.sc.tel.tp(
            self.sc.engine.now(),
            node.0,
            core0.0,
            TpKind::HwFault,
            ev.kind.name(),
            u64::from(ev.kind.code()),
            ev.arg,
        );
        self.sc.prof.span(
            Domain::FaultRas,
            self.sc.engine.now(),
            node.0,
            ev.kind.name(),
            0,
        );
        match ev.kind {
            FaultKind::TorusDrop => {
                self.sc.fault_link_outage(node, NetDomain::Torus, ev.arg);
            }
            FaultKind::TorusCorrupt => {
                self.sc.fault_corrupt_inflight(node, NetDomain::Torus);
            }
            FaultKind::CollDrop => {
                self.sc
                    .fault_link_outage(node, NetDomain::Collective, ev.arg);
            }
            FaultKind::CollDelay => {
                self.sc
                    .fault_delay_inflight(node, NetDomain::Collective, ev.arg);
            }
            FaultKind::CollCorrupt => {
                self.sc.fault_corrupt_inflight(node, NetDomain::Collective);
            }
            // Kernel-policy faults: the machine only reports them; the
            // kernel's `on_ras` below does the work.
            FaultKind::CiodShortWrite | FaultKind::GuardStorm => {}
            FaultKind::MachineCheck => {
                let local = (ev.arg as u32).min(self.sc.cores_per_node() - 1);
                let core = self.sc.core_of(node, local);
                self.raise_fault(core, crate::machine::FAULT_PARITY);
            }
        }
        self.kernel.on_ras(&mut self.sc, node, &ev);
    }

    fn on_op_done(&mut self, tid: Tid, gen: u32) {
        let t = &mut self.sc.threads[tid.idx()];
        let ThreadState::Running {
            gen: cur,
            until,
            started,
        } = t.state
        else {
            // Stale (thread blocked/killed since). Cancellation should
            // have swallowed these; count the backstop hits.
            let core = t.core;
            self.sc
                .tel
                .count(self.sc.tel.ids.stale_opdone, Slot::Core(core.0), 1);
            return;
        };
        if cur != gen {
            // Stale (stretched or preempted since) — same backstop.
            let core = t.core;
            self.sc
                .tel
                .count(self.sc.tel.ids.stale_opdone, Slot::Core(core.0), 1);
            return;
        }
        t.stats.busy_cycles += until.saturating_sub(started);
        t.state = ThreadState::Ready;
        t.pending_done = None; // this event was the pending completion
        self.sc
            .trace
            .record(self.sc.engine.now(), TraceEvent::OpEnd { tid: tid.0 });
        let node = self.sc.threads[tid.idx()].node.0;
        self.sc.prof.span(
            Domain::EngineHeap,
            self.sc.engine.now(),
            node,
            "op_retire",
            until.saturating_sub(started),
        );
        // Non-preemptive continuation: the same thread keeps its core and
        // fetches its next op immediately (CNK semantics; FWK timeslice
        // switches happen via kernel events).
        self.advance_thread(tid);
    }

    // ---- deferral queues ---------------------------------------------------

    /// Drain the deferral queues; returns true if anything happened
    /// (used by the livelock guard as a progress signal).
    fn drain(&mut self) -> bool {
        let mut did = false;
        loop {
            if let Some((proc, code)) = pop_front_vec(&mut self.sc.kill_q) {
                self.kill_proc(proc, code);
                did = true;
                continue;
            }
            if let Some((tid, ret)) = pop_front_vec(&mut self.sc.unblock_q) {
                self.handle_unblock(tid, ret);
                did = true;
                continue;
            }
            if let Some(tid) = pop_front_vec(&mut self.sc.dispatch_q) {
                self.advance_thread(tid);
                did = true;
                continue;
            }
            break;
        }
        did
    }

    fn handle_unblock(&mut self, tid: Tid, ret: Option<SysRet>) {
        let t = &mut self.sc.threads[tid.idx()];
        if !t.state.is_live() {
            return;
        }
        if let Some(r) = ret {
            t.pending_ret = Some(r);
        }
        if t.state.is_blocked() {
            t.state = ThreadState::Ready;
        }
        self.kernel.on_unblock(&mut self.sc, tid);
    }

    fn kill_proc(&mut self, proc: ProcId, code: i32) {
        let tids: Vec<Tid> = self.sc.threads_of(proc).to_vec();
        let mut freed_cores = Vec::new();
        for tid in tids {
            let core = self.sc.threads[tid.idx()].core;
            let t = &mut self.sc.threads[tid.idx()];
            if !t.state.is_live() {
                continue;
            }
            t.next_gen(); // invalidate in-flight completions
            let pd = t.pending_done.take();
            t.state = ThreadState::Exited;
            t.exit_code = Some(code);
            self.sc.live_count -= 1;
            self.cancel_pending_done(pd, core);
            if self.sc.running[core.idx()] == Some(tid) {
                self.sc.running[core.idx()] = None;
                freed_cores.push(core);
            }
            self.sc
                .trace
                .record(self.sc.engine.now(), TraceEvent::ThreadExit { tid: tid.0 });
            self.tp_thread_exit(tid, code);
            self.kernel.on_exit(&mut self.sc, tid);
        }
        for core in freed_cores {
            self.refill_core(core);
        }
    }

    fn exit_thread(&mut self, tid: Tid, code: i32) {
        let core = self.sc.threads[tid.idx()].core;
        {
            let t = &mut self.sc.threads[tid.idx()];
            t.next_gen();
            let pd = t.pending_done.take();
            let was_live = t.state.is_live();
            t.state = ThreadState::Exited;
            t.exit_code = Some(code);
            if was_live {
                self.sc.live_count -= 1;
            }
            self.cancel_pending_done(pd, core);
        }
        if self.sc.running[core.idx()] == Some(tid) {
            self.sc.running[core.idx()] = None;
        }
        self.sc
            .trace
            .record(self.sc.engine.now(), TraceEvent::ThreadExit { tid: tid.0 });
        self.tp_thread_exit(tid, code);
        self.kernel.on_exit(&mut self.sc, tid);
        self.refill_core(core);
    }

    /// Cancel a thread's in-flight `OpDone` (kill/exit paths), counting
    /// the cancellation against the core's node.
    fn cancel_pending_done(&mut self, pd: Option<crate::engine::EvHandle>, core: CoreId) {
        if let Some(h) = pd {
            if self.sc.engine.cancel(h) {
                let node = self.sc.node_of_core(core);
                self.sc
                    .tel
                    .count(self.sc.tel.ids.evq_cancelled, Slot::Node(node.0), 1);
            }
        }
    }

    fn tp_thread_exit(&mut self, tid: Tid, code: i32) {
        if self.sc.tel.enabled() {
            let t = &self.sc.threads[tid.idx()];
            let (node, core) = (t.node, t.core);
            self.sc.tel.tp(
                self.sc.engine.now(),
                node.0,
                core.0,
                TpKind::ThreadExit,
                "exit",
                tid.0 as u64,
                code as u64,
            );
        }
    }

    fn refill_core(&mut self, core: CoreId) {
        if !self.sc.core_idle(core) {
            return;
        }
        if let Some(next) = self.kernel.pick_next(&mut self.sc, core) {
            if self.sc.core_idle(core) {
                self.sc
                    .tel
                    .count(self.sc.tel.ids.sched_picks, Slot::Core(core.0), 1);
                let node = self.sc.node_of_core(core);
                self.sc.tel.tp(
                    self.sc.engine.now(),
                    node.0,
                    core.0,
                    TpKind::SchedPick,
                    "pick_next",
                    next.0 as u64,
                    0,
                );
                self.sc
                    .prof
                    .span(Domain::Sched, self.sc.engine.now(), node.0, "sched_pick", 0);
                self.sc.dispatch(next);
            }
        }
    }

    // ---- op dispatch --------------------------------------------------------

    /// Fetch and start the next op of `tid`. Zero-cost ops complete
    /// inline (same cycle); timed ops schedule an `OpDone`.
    fn advance_thread(&mut self, tid: Tid) {
        loop {
            // One borrow covers the liveness gate, the preemption-resume
            // check, and the workload handoff (the `Option` dance frees
            // the thread slot so `WlEnv` can borrow all of `sc`).
            let mut wl = {
                let t = &mut self.sc.threads[tid.idx()];
                if !t.state.is_live() {
                    return;
                }
                debug_assert_eq!(
                    self.sc.running[t.core.idx()],
                    Some(tid),
                    "advance_thread without core ownership"
                );
                // Resume a preempted compute op without consulting the
                // workload.
                if let Some(rem) = t.resume_cycles.take() {
                    self.start_run(tid, rem, true);
                    return;
                }
                t.workload.take().expect("live thread without workload")
            };
            let op = {
                let mut env = WlEnv {
                    sc: &mut self.sc,
                    kernel: &mut *self.kernel,
                    tid,
                };
                wl.next(&mut env)
            };
            let t = &mut self.sc.threads[tid.idx()];
            t.workload = Some(wl);
            t.stats.ops += 1;
            match self.dispatch_op(tid, op) {
                Disp::Continue => continue,
                Disp::Scheduled | Disp::Released => return,
            }
        }
    }

    fn dispatch_op(&mut self, tid: Tid, op: Op) -> Disp {
        // The streaming flag covers exactly the duration of a Stream op.
        // Conditional store: the flag only ever flips around Stream ops,
        // so the hot compute loop reads and leaves it alone.
        let core = self.sc.threads[tid.idx()].core;
        let is_stream = matches!(op, Op::Stream { .. });
        if self.sc.streaming[core.idx()] != is_stream {
            self.sc.streaming[core.idx()] = is_stream;
        }
        match op {
            // Exactly the `Op::is_compute` classes (the compiler keeps
            // this list exhaustive; the predicate keeps it honest for
            // external callers).
            Op::Compute { .. } | Op::Daxpy { .. } | Op::Stream { .. } | Op::Flops { .. } => {
                debug_assert!(op.is_compute());
                let cost = self.kernel.compute_cost(&mut self.sc, tid, &op);
                self.trace_start(tid, op.name(), cost);
                self.start_run(tid, cost, true);
                Disp::Scheduled
            }
            Op::MemTouch {
                vaddr,
                bytes,
                write,
            } => {
                let r = self
                    .kernel
                    .mem_touch(&mut self.sc, tid, vaddr, bytes, write);
                self.trace_start(tid, "memtouch", r.cost);
                if r.cost == 0 {
                    Disp::Continue
                } else {
                    self.start_run(tid, r.cost, false);
                    Disp::Scheduled
                }
            }
            Op::Syscall(req) => self.dispatch_syscall(tid, &req),
            Op::Yield => self.dispatch_syscall(tid, &SysReq::SchedYield),
            Op::Spawn {
                args,
                child,
                core_hint,
            } => {
                let (ret, cost) = self
                    .kernel
                    .spawn(&mut self.sc, tid, &args, core_hint, child);
                self.trace_start(tid, "spawn", cost);
                self.sc.threads[tid.idx()].pending_ret = Some(ret);
                if cost == 0 {
                    Disp::Continue
                } else {
                    self.start_run(tid, cost, false);
                    Disp::Scheduled
                }
            }
            Op::Comm(cop) => {
                let rank = match self.sc.threads[tid.idx()].rank {
                    Some(r) => r,
                    None => {
                        // Communication from a thread with no rank is a
                        // program error; fail the op.
                        self.sc.threads[tid.idx()].pending_ret =
                            Some(SysRet::Err(sysabi::Errno::EINVAL));
                        return Disp::Continue;
                    }
                };
                let caps = self.kernel.comm_caps(&self.sc, tid);
                let opname = cop.name();
                let action = self.comm.issue(&mut self.sc, &caps, tid, rank, &cop);
                match action {
                    CommAction::RunFor { cycles } => {
                        self.trace_start(tid, opname, cycles);
                        if cycles == 0 {
                            Disp::Continue
                        } else {
                            self.start_run(tid, cycles, false);
                            Disp::Scheduled
                        }
                    }
                    CommAction::Block { kind } => {
                        self.block_thread(tid, kind);
                        Disp::Released
                    }
                }
            }
            Op::End => {
                self.exit_thread(tid, 0);
                Disp::Released
            }
        }
    }

    fn dispatch_syscall(&mut self, tid: Tid, req: &SysReq) -> Disp {
        self.sc.threads[tid.idx()].stats.syscalls += 1;
        self.sc.trace.record(
            self.sc.engine.now(),
            TraceEvent::SyscallEnter {
                tid: tid.0,
                name: req.name(),
            },
        );
        let (node, core) = {
            let t = &self.sc.threads[tid.idx()];
            (t.node, t.core)
        };
        self.sc
            .tel
            .count(self.sc.tel.ids.syscalls, Slot::Core(core.0), 1);
        self.sc.tel.tp(
            self.sc.engine.now(),
            node.0,
            core.0,
            TpKind::SyscallEnter,
            req.name(),
            tid.0 as u64,
            0,
        );
        let action = self.kernel.syscall(&mut self.sc, tid, req);
        match action {
            SyscallAction::Done { ret, cost } => {
                let ok = !ret.is_err();
                self.sc.trace.record(
                    self.sc.engine.now(),
                    TraceEvent::SyscallExit { tid: tid.0, ok },
                );
                self.sc
                    .tel
                    .hist(self.sc.tel.ids.syscall_cycles, Slot::Core(core.0), cost);
                self.sc.tel.tp(
                    self.sc.engine.now(),
                    node.0,
                    core.0,
                    TpKind::SyscallExit,
                    req.name(),
                    tid.0 as u64,
                    cost,
                );
                self.sc
                    .prof
                    .span(Domain::Sched, self.sc.engine.now(), node.0, "syscall", cost);
                self.sc.threads[tid.idx()].pending_ret = Some(ret);
                if cost == 0 {
                    Disp::Continue
                } else {
                    self.start_run(tid, cost, false);
                    Disp::Scheduled
                }
            }
            SyscallAction::Block { kind } => {
                self.block_thread(tid, kind);
                Disp::Released
            }
            SyscallAction::YieldCpu => {
                let core = self.sc.threads[tid.idx()].core;
                self.sc.threads[tid.idx()].state = ThreadState::Ready;
                self.sc.running[core.idx()] = None;
                self.refill_core(core);
                Disp::Released
            }
            SyscallAction::ExitThread { code } => {
                self.exit_thread(tid, code);
                Disp::Released
            }
            SyscallAction::ExitProc { code } => {
                let proc = self.sc.threads[tid.idx()].proc;
                self.sc.defer_kill(proc, code);
                Disp::Released
            }
        }
    }

    fn block_thread(&mut self, tid: Tid, kind: crate::machine::BlockKind) {
        let core = self.sc.threads[tid.idx()].core;
        let t = &mut self.sc.threads[tid.idx()];
        t.state = ThreadState::Blocked(kind);
        t.stats.blocks += 1;
        self.sc.running[core.idx()] = None;
        self.refill_core(core);
    }

    fn start_run(&mut self, tid: Tid, cost: u64, preemptible: bool) {
        let now = self.sc.engine.now();
        let t = &mut self.sc.threads[tid.idx()];
        let gen = t.next_gen();
        let node = t.node;
        t.preemptible = preemptible;
        t.state = ThreadState::Running {
            gen,
            until: now + cost,
            started: now,
        };
        if self.fast_active && self.sc.engine.pending() == 0 && self.sc.vtimers.is_empty() {
            // Virtual insert: the completion joins the micro run queue
            // instead of the heap, carrying the sequence number the heap
            // would have assigned — so if it is ever flushed back
            // (`flush_fast`), it sorts exactly where the baseline put it.
            let seq = self.sc.engine.alloc_seq();
            self.sc.threads[tid.idx()].pending_done = None;
            self.fast.push(FastSlot {
                until: now + cost,
                seq,
                tid,
                gen,
                node: node.0,
            });
        } else {
            let h =
                self.sc
                    .engine
                    .schedule_dom(node.0, now + cost, EvKind::OpDone { tid: tid.0, gen });
            self.sc.threads[tid.idx()].pending_done = Some(h);
        }
    }

    fn trace_start(&mut self, tid: Tid, opname: &'static str, cost: u64) {
        self.sc.trace.record(
            self.sc.engine.now(),
            TraceEvent::OpStart {
                tid: tid.0,
                opname,
                cost,
            },
        );
        if self.sc.tel.enabled() {
            let t = &self.sc.threads[tid.idx()];
            let (node, core) = (t.node, t.core);
            self.sc.tel.tp(
                self.sc.engine.now(),
                node.0,
                core.0,
                TpKind::OpStart,
                opname,
                tid.0 as u64,
                cost,
            );
        }
    }

    /// Borrow a thread's workload for result extraction after a run.
    pub fn workload_of(&self, tid: Tid) -> Option<&dyn crate::machine::Workload> {
        self.sc.threads[tid.idx()].workload.as_deref()
    }

    /// Deliver a signal to a thread at its next op boundary (test and
    /// fault-injection hook; kernels use `sc.post_signal` directly).
    pub fn post_signal(&mut self, tid: Tid, sig: Sig) {
        self.sc.post_signal(tid, sig);
    }
}

fn pop_front_vec<T>(v: &mut Vec<T>) -> Option<T> {
    if v.is_empty() {
        None
    } else {
        Some(v.remove(0))
    }
}

// A VecDeque would avoid the O(n) remove, but the queues hold a handful
// of entries; keeping them as Vec preserves FIFO order with less code.
#[allow(dead_code)]
type QueueNote = VecDeque<()>;
