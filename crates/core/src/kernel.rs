//! The CNK kernel object: `bgsim::Kernel` implementation tying together
//! the partitioner, scheduler, futexes, guard pages, function shipping,
//! and persistent memory.

use std::collections::HashMap;

use bgsim::chip;
use bgsim::engine::EvHandle;
use bgsim::fault::{FaultEvent, FaultKind};
use bgsim::idmap::IdMap;
use bgsim::machine::{
    BlockKind, BootReport, CommCaps, JobMap, Kernel, LaunchError, MemOpResult, NetMsg, RankInfo,
    SimCore, SyscallAction, Workload, WorkloadFactory, IPI_GUARD_REPOSITION,
};
use bgsim::noise::NoiseSource;
use bgsim::op::{CloneArgs, Op};
use bgsim::rng::LazyStreams;
use bgsim::telemetry::{Domain, Slot, TpKind};
use bgsim::tlb::{Tlb, TlbEntry};
use ciod::{service_cycles, Ciod, RetryPolicy, Vfs};
use sysabi::{
    CloneFlags, CoreId, Errno, FutexOp, JobSpec, MapFlags, NodeId, ProcId, Prot, Rank, Sig,
    SigDisposition, SysReq, SysRet, Tid, UtsName,
};

use crate::boot;
use crate::futex::FutexTable;
use crate::mem::{partition_node, tracker_errno, AddressSpace, ProcRequirements, Region};
use crate::persist::PersistRegistry;
use crate::process::{Guard, Process};
use crate::sched::{SchedError, Scheduler};

// ---- timing constants (cycles) ---------------------------------------------

/// Trap entry + exit for a local syscall.
const SYSCALL_BASE: u64 = 140;
/// Marshaling a function-ship request (fixed part).
const FSHIP_MARSHAL: u64 = 700;
/// Demarshaling a reply (fixed part).
const FSHIP_DEMARSHAL: u64 = 450;
/// Marshal/demarshal cost per 8 payload bytes.
const FSHIP_PER_8B: u64 = 1;
/// Thread creation (clone) cost.
const CLONE_COST: u64 = 1_900;
/// Machine-check handler cost charged on a parity fault (§V.B).
const PARITY_HANDLER_COST: u64 = 2_200;
/// RAS handler cost per spurious DAC guard fault in an injected storm.
const GUARD_STORM_COST: u64 = 420;

/// Kernel-event tag namespace for function-ship retry timers. Kept out
/// of the injected-noise tag space (which packs a source index and core
/// into the low bits) by the top bit; the low 63 bits carry the io id.
const TAG_IO_RETRY: u64 = 1 << 63;

/// CNK tunables.
#[derive(Clone, Debug)]
pub struct CnkConfig {
    /// TLB entries available to the static map per core (the rest are
    /// kernel-reserved).
    pub tlb_budget: usize,
    /// Physical bytes reserved for the kernel at the bottom of DRAM.
    pub kernel_reserve: u64,
    /// Physical bytes reserved for the persistent-memory arena at the
    /// top of DRAM (§IV.D).
    pub persist_reserve: u64,
    /// Enable the §VIII extended thread affinity model.
    pub affinity_extension: bool,
    /// Guard range size at the heap boundary (§IV.C).
    pub guard_bytes: u64,
    /// Job credentials.
    pub uid: u32,
    pub gid: u32,
    /// Research hook: synthetic noise sources injected into the kernel
    /// (empty in production CNK — that emptiness *is* §V.A's result).
    /// This is the §I "easily modifiable base" point and the Ferreira-
    /// style noise-injection methodology the paper cites.
    pub injected_noise: Vec<NoiseSource>,
    /// BG/L-style I/O service: one CIOD thread per I/O node servicing
    /// requests serially, instead of BG/P's dedicated ioproxy per
    /// compute-node process (§IV.A: "A key difference from BG/L is that
    /// on BG/P each MPI process has a dedicated I/O proxy process").
    /// Used by the `io_proxy_ablation` bench.
    pub bgl_io_mode: bool,
    /// Retry/timeout/backoff policy for function-shipped I/O when the
    /// CIOD link misbehaves. Timers are only armed when the machine has
    /// a fault schedule — fault-free runs schedule no extra events.
    pub io_retry: RetryPolicy,
}

impl Default for CnkConfig {
    fn default() -> Self {
        CnkConfig {
            tlb_budget: 60,
            kernel_reserve: 16 << 20,
            persist_reserve: 64 << 20,
            affinity_extension: false,
            guard_bytes: 64 << 10,
            uid: 1000,
            gid: 100,
            injected_noise: Vec::new(),
            bgl_io_mode: false,
            io_retry: RetryPolicy::default(),
        }
    }
}

/// A function-shipped request in flight, stamped with its issue cycle so
/// the reply can report round-trip latency to the telemetry registry.
struct PendingReq {
    issued: u64,
    io: PendingIo,
    /// Send attempts so far (first try included).
    attempts: u32,
    /// The marshaled request, retained for resends. Empty when fault
    /// injection is off (no retries can ever be needed).
    payload: Vec<u8>,
    /// The armed reply-timeout timer, when fault injection is on.
    timer: Option<EvHandle>,
}

/// One entry of the kernel's RAS event log (§V: "RAS events are
/// reported and handled").
#[derive(Clone, Copy, Debug)]
pub struct RasRecord {
    pub at: u64,
    pub node: u32,
    /// Short event code (`coll-drop`, `io-retry`, `io-eio`, ...).
    pub code: &'static str,
    pub detail: u64,
}

/// What a pending function-ship request will do on completion.
enum PendingIo {
    /// Ordinary syscall: hand the demarshaled result to the thread.
    Plain { tid: Tid },
    /// An mmap-with-fd fill (§VI.A: "to mmap a file, CNK copies in the
    /// data"): write the read data at `vaddr`, then return `vaddr`.
    MmapFill { tid: Tid, vaddr: u64 },
}

/// The Compute Node Kernel.
///
/// Per-node and per-ION columns (`futexes`, `persist`, `ciods`, the RNG
/// streams) materialize on first touch rather than at boot, so an idle
/// node on a 100k-node rack costs no kernel-side heap. RNG streams are
/// a pure function of `(master seed, name, index)`, so lazy creation is
/// draw-for-draw identical to the old eager columns.
pub struct Cnk {
    pub cfg: CnkConfig,
    sched: Scheduler,
    /// Per-node futex tables, grown on first touch. Indexed sparsely: a
    /// short vec means the tail nodes have never parked a waiter.
    futexes: Vec<FutexTable>,
    /// Per-node persistent-memory registries, grown on first
    /// `PersistOpen`. Contents survive reproducible resets (backed by
    /// self-refreshed DRAM), so they are only dropped on a shape change.
    persist: Vec<PersistRegistry>,
    /// Node count `persist` is provisioned for (shape-change detector).
    persist_nodes: usize,
    /// Processes keyed by `ProcId` — ids are allocated from `next_proc`
    /// monotonically, so the dense window iterates in rank order.
    procs: IdMap<Process>,
    next_proc: u32,
    vfs: Vfs,
    /// CIOD daemons, grown on first attach/service per ION. Like
    /// `persist`, ION state survives compute-chip resets.
    ciods: Vec<Ciod>,
    /// ION count `ciods` is provisioned for (shape-change detector).
    ciod_count: usize,
    ion_rng: LazyStreams,
    pending_io: IdMap<PendingReq>,
    next_io: u64,
    noise_rng: LazyStreams,
    /// Per-ION serialization point for BG/L-style I/O service.
    ion_busy_until: Vec<u64>,
    /// At-most-once cache on the I/O node: replies already sent, keyed
    /// by io id, so a retried request that was in fact serviced replays
    /// the reply instead of re-running the side effect. Only populated
    /// when fault injection is on.
    served: HashMap<u64, Vec<u8>>,
    /// The kernel RAS event log.
    ras_log: Vec<RasRecord>,
    booted: bool,
}

impl Cnk {
    pub fn new(cfg: CnkConfig) -> Cnk {
        Cnk {
            cfg,
            sched: Scheduler::new(0, 1),
            futexes: Vec::new(),
            persist: Vec::new(),
            persist_nodes: 0,
            procs: IdMap::new(),
            next_proc: 0,
            vfs: Vfs::new(),
            ciods: Vec::new(),
            ciod_count: 0,
            ion_rng: LazyStreams::new("ion-service"),
            pending_io: IdMap::new(),
            next_io: 0,
            noise_rng: LazyStreams::new("cnk-injected-noise"),
            ion_busy_until: Vec::new(),
            served: HashMap::new(),
            ras_log: Vec::new(),
            booted: false,
        }
    }

    pub fn with_defaults() -> Cnk {
        Cnk::new(CnkConfig::default())
    }

    /// The I/O-node filesystem (test setup: pre-populate input files).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// The ioproxy console output of a process (job stdout).
    pub fn console_of(&self, sc: &SimCore, proc: ProcId) -> Option<Vec<u8>> {
        let node = self.procs.get(proc.0 as u64)?.node;
        let ion = sc.coll.io_node_of(node) as usize;
        self.ciods
            .get(ion)?
            .proxy(proc.0)
            .map(|p| p.console.clone())
    }

    pub fn process(&self, proc: ProcId) -> Option<&Process> {
        self.procs.get(proc.0 as u64)
    }

    /// The node's futex table, materialized on first touch. A free
    /// function over the field so callers holding disjoint borrows of
    /// other `Cnk` fields can still reach it.
    fn futex_table(futexes: &mut Vec<FutexTable>, node: NodeId) -> &mut FutexTable {
        if futexes.len() <= node.idx() {
            futexes.resize_with(node.idx() + 1, FutexTable::new);
        }
        &mut futexes[node.idx()]
    }

    /// The ION's CIOD daemon, materialized on first touch.
    fn ciod_at(ciods: &mut Vec<Ciod>, ion: usize) -> &mut Ciod {
        while ciods.len() <= ion {
            ciods.push(Ciod::new(ciods.len() as u32));
        }
        &mut ciods[ion]
    }

    /// The node's persist registry, materialized on first `PersistOpen`.
    fn persist_at(
        persist: &mut Vec<PersistRegistry>,
        persist_reserve: u64,
        dram_bytes: u64,
        node: NodeId,
    ) -> &mut PersistRegistry {
        let lo = dram_bytes - persist_reserve;
        if persist.len() <= node.idx() {
            persist.resize_with(node.idx() + 1, || PersistRegistry::new(lo, dram_bytes));
        }
        &mut persist[node.idx()]
    }

    fn proc_of(&self, sc: &SimCore, tid: Tid) -> ProcId {
        sc.thread(tid).proc
    }

    fn done(ret: SysRet, cost: u64) -> SyscallAction {
        SyscallAction::Done { ret, cost }
    }

    fn err(e: Errno, cost: u64) -> SyscallAction {
        SyscallAction::Done {
            ret: SysRet::Err(e),
            cost,
        }
    }

    /// Pin a process's full static map into every one of its cores' TLBs.
    ///
    /// The map is identical on every core of the process, so it is
    /// built once and Arc-shared (`Tlb::install_base`) —
    /// one copy per process, not per core, which is most of the TLB
    /// footprint at rack scale.
    fn pin_map(&self, sc: &mut SimCore, proc: &Process) -> Result<(), LaunchError> {
        let mut map = Vec::new();
        for r in proc
            .aspace
            .map
            .regions
            .iter()
            .chain(proc.aspace.persist.iter())
        {
            for &(ps, va) in &r.pages {
                map.push(TlbEntry {
                    vaddr: va,
                    paddr: r.paddr + (va - r.vaddr),
                    size: ps,
                    pinned: true,
                });
            }
        }
        let Some(&first) = proc.cores.first() else {
            return Ok(());
        };
        Tlb::validate_map(&map, sc.tlbs[first.idx()].capacity())
            .map_err(|e| LaunchError::NoMemory(format!("TLB pin failed on {first}: {e:?}")))?;
        let shared: std::sync::Arc<[TlbEntry]> = map.into();
        for &core in &proc.cores {
            sc.tlbs[core.idx()]
                .install_base(shared.clone())
                .map_err(|e| LaunchError::NoMemory(format!("TLB pin failed on {core}: {e:?}")))?;
        }
        Ok(())
    }

    /// Pin one extra region (persist attach at runtime).
    fn pin_region(&self, sc: &mut SimCore, proc: &Process, r: &Region) -> Result<(), Errno> {
        for &core in &proc.cores {
            for &(ps, va) in &r.pages {
                let pa = r.paddr + (va - r.vaddr);
                if sc.tlbs[core.idx()]
                    .pin(TlbEntry {
                        vaddr: va,
                        paddr: pa,
                        size: ps,
                        pinned: true,
                    })
                    .is_err()
                {
                    return Err(Errno::ENOMEM);
                }
            }
        }
        Ok(())
    }

    /// Arm (or re-arm) a guard range on a core's DAC.
    fn arm_guard(sc: &mut SimCore, core: CoreId, slot: u32, lo: u64, hi: u64) {
        sc.dacs[core.idx()]
            .arm(slot, lo, hi)
            .expect("DAC slot invalid");
    }

    /// Function-ship a request for `tid` (§IV.A). Marks the thread
    /// pending and returns the marshal cost spent before blocking.
    fn fship(&mut self, sc: &mut SimCore, tid: Tid, req: &SysReq, pending: PendingIo) {
        let node = sc.thread(tid).node;
        let proc = sc.thread(tid).proc;
        let id = self.next_io;
        self.next_io += 1;
        let encoded = ciod::wire::encode_req(req);
        let mut payload = proc.0.to_be_bytes().to_vec();
        payload.extend_from_slice(&encoded);
        let bytes = payload.len() as u64;
        // Marshal cost is paid by the caller as message-send delay.
        let marshal = FSHIP_MARSHAL + bytes / 8 * FSHIP_PER_8B;
        // The retry machinery only exists under fault injection: a
        // fault-free run arms no timer and retains no payload, so its
        // event stream is untouched.
        let faulty = !sc.cfg.faults.is_empty();
        let timer = faulty.then(|| {
            sc.schedule_kernel_event_in(node, TAG_IO_RETRY | id, self.cfg.io_retry.timeout(0))
        });
        self.pending_io.insert(
            id,
            PendingReq {
                issued: sc.now(),
                io: pending,
                attempts: 1,
                payload: if faulty { payload.clone() } else { Vec::new() },
                timer,
            },
        );
        sc.tel
            .count(sc.tel.ids.fship_requests, Slot::Node(node.0), 1);
        let core = sc.thread(tid).core;
        sc.tel.tp(
            sc.now(),
            node.0,
            core.0,
            TpKind::FshipReq,
            req.name(),
            id,
            bytes,
        );
        sc.prof
            .span(Domain::Ciod, sc.now(), node.0, "fship_req", marshal);
        sc.coll_send(node, node, bytes, id * 4 + 1, payload, marshal);
    }

    /// Append to the RAS log (and telemetry) — the §V "RAS events are
    /// reported and handled" path.
    fn ras(&mut self, sc: &mut SimCore, node: NodeId, code: &'static str, detail: u64) {
        self.ras_log.push(RasRecord {
            at: sc.now(),
            node: node.0,
            code,
            detail,
        });
        sc.tel.count(sc.tel.ids.ras_events, Slot::Node(node.0), 1);
        sc.tel.tp(
            sc.now(),
            node.0,
            bgsim::telemetry::NO_CORE,
            TpKind::HwFault,
            code,
            detail,
            0,
        );
    }

    /// A reply-timeout timer fired for io `id`: resend with exponential
    /// backoff, or give up and fail the syscall with a clean `EIO`.
    fn io_timeout(&mut self, sc: &mut SimCore, node: NodeId, id: u64) {
        let policy = self.cfg.io_retry;
        let Some(req) = self.pending_io.get_mut(id) else {
            // Reply won the race; the timer is stale.
            return;
        };
        req.timer = None;
        if policy.exhausted(req.attempts) {
            let req = self
                .pending_io
                .remove(id)
                .expect("pending io vanished mid-timeout");
            self.ras(sc, node, "io-eio", id);
            let (PendingIo::Plain { tid } | PendingIo::MmapFill { tid, .. }) = req.io;
            sc.defer_unblock(tid, Some(SysRet::Err(Errno::EIO)));
            return;
        }
        let attempt = req.attempts;
        req.attempts += 1;
        let payload = req.payload.clone();
        let bytes = payload.len() as u64;
        let backoff = policy.backoff(attempt - 1);
        let marshal = FSHIP_MARSHAL + bytes / 8 * FSHIP_PER_8B + backoff;
        let timer =
            sc.schedule_kernel_event_in(node, TAG_IO_RETRY | id, backoff + policy.timeout(attempt));
        if let Some(req) = self.pending_io.get_mut(id) {
            req.timer = Some(timer);
        }
        sc.tel.count(sc.tel.ids.ciod_retries, Slot::Node(node.0), 1);
        sc.tel
            .count(sc.tel.ids.ciod_backoff_cycles, Slot::Node(node.0), backoff);
        sc.tel.tp(
            sc.now(),
            node.0,
            bgsim::telemetry::NO_CORE,
            TpKind::FshipReq,
            "retry",
            id,
            attempt as u64,
        );
        sc.prof
            .span(Domain::Ciod, sc.now(), node.0, "fship_retry", backoff);
        sc.coll_send(node, node, bytes, id * 4 + 1, payload, marshal);
    }

    /// Service a request on the I/O node and send the reply back.
    fn ion_service(&mut self, sc: &mut SimCore, msg: NetMsg) {
        let id = msg.tag / 4;
        let faulty = !sc.cfg.faults.is_empty();
        // At-most-once: a compute-node retry of a request we already
        // serviced replays the cached reply — the side effect (write,
        // unlink...) must not run twice. Cache only exists under fault
        // injection; without it no request is ever sent twice.
        if faulty {
            if let Some(reply) = self.served.get(&id) {
                let reply = reply.clone();
                let bytes = reply.len() as u64;
                sc.coll_send(msg.dst_node, msg.src_node, bytes, id * 4 + 2, reply, 1_000);
                return;
            }
        }
        // A mangled request (injected corruption) fails wire validation;
        // the daemon logs and drops it — the compute node's retry timer
        // recovers. Sending garbage back would be worse than silence.
        let Some(prefix) = msg.payload.get(0..4) else {
            self.ras(sc, msg.src_node, "ion-drop-corrupt", id);
            return;
        };
        let proc = u32::from_be_bytes(prefix.try_into().unwrap_or([0; 4]));
        let req_bytes = &msg.payload[4..];
        let ion = sc.coll.io_node_of(msg.src_node) as usize;
        let (ret, service) = match ciod::wire::decode_req(req_bytes) {
            Ok(req) => {
                let ret = Self::ciod_at(&mut self.ciods, ion).service(&mut self.vfs, proc, &req);
                (ret, service_cycles(&req))
            }
            Err(_) => {
                self.ras(sc, msg.src_node, "ion-drop-corrupt", id);
                return;
            }
        };
        // The ION runs Linux: its service time jitters.
        let jitter = Ciod::service_jitter(self.ion_rng.get(&sc.hub, ion as u64));
        let mut delay = service + jitter;
        if self.cfg.bgl_io_mode {
            // BG/L-style single service thread: requests queue behind
            // each other on the I/O node.
            if self.ion_busy_until.len() <= ion {
                self.ion_busy_until.resize(ion + 1, 0);
            }
            let now = sc.now();
            let start = self.ion_busy_until[ion].max(now);
            self.ion_busy_until[ion] = start + service;
            delay += start - now;
        }
        let reply = ciod::wire::encode_ret(&ret);
        if faulty {
            self.served.insert(id, reply.clone());
        }
        let bytes = reply.len() as u64;
        sc.prof
            .span(Domain::Ciod, sc.now(), msg.dst_node.0, "ion_service", delay);
        sc.coll_send(msg.dst_node, msg.src_node, bytes, id * 4 + 2, reply, delay);
    }

    /// A reply arrived back at the compute node.
    fn cn_reply(&mut self, sc: &mut SimCore, msg: NetMsg) {
        let id = msg.tag / 4;
        // Late duplicate (a retry raced the original reply): the request
        // already completed; drop silently.
        let Some(req) = self.pending_io.get(id) else {
            return;
        };
        // A mangled reply (injected corruption) fails wire validation.
        // With a retry timer armed, leave the request pending — the
        // timer resends and the ION replays its cached reply. Without
        // one (fault injection off: unreachable), fall through and the
        // decode below degrades to a clean `EIO`.
        if ciod::wire::decode_ret(&msg.payload).is_err() && req.timer.is_some() {
            self.ras(sc, msg.dst_node, "cn-drop-corrupt", id);
            return;
        }
        let PendingReq {
            issued,
            io: pending,
            timer,
            ..
        } = self
            .pending_io
            .remove(id)
            .expect("pending io vanished mid-reply");
        if let Some(h) = timer {
            sc.cancel_kernel_event(h);
        }
        let latency = sc.now().saturating_sub(issued);
        sc.tel.hist(
            sc.tel.ids.fship_latency,
            Slot::Node(msg.dst_node.0),
            latency,
        );
        sc.tel.tp(
            sc.now(),
            msg.dst_node.0,
            bgsim::telemetry::NO_CORE,
            TpKind::FshipRep,
            "reply",
            id,
            latency,
        );
        sc.prof.span(
            Domain::Ciod,
            sc.now(),
            msg.dst_node.0,
            "fship_reply",
            latency,
        );
        let ret = ciod::wire::decode_ret(&msg.payload).unwrap_or(SysRet::Err(Errno::EIO));
        let demarshal = FSHIP_DEMARSHAL + msg.bytes / 8 * FSHIP_PER_8B;
        match pending {
            PendingIo::Plain { tid } => {
                // The demarshal cost is modeled as already absorbed in the
                // reply delay; unblock with the result.
                let _ = demarshal;
                sc.defer_unblock(tid, Some(ret));
            }
            PendingIo::MmapFill { tid, vaddr } => match ret {
                SysRet::Data(data) => {
                    let proc = sc.thread(tid).proc;
                    let node = sc.thread(tid).node;
                    if let Some(p) = self.procs.get(proc.0 as u64) {
                        if let Some(pa) = p.aspace.translate(vaddr) {
                            let _ = sc.dram[node.idx()].write(pa, &data);
                        }
                    }
                    sc.defer_unblock(tid, Some(SysRet::Val(vaddr as i64)));
                }
                SysRet::Err(e) => sc.defer_unblock(tid, Some(SysRet::Err(e))),
                _ => sc.defer_unblock(tid, Some(SysRet::Err(Errno::EIO))),
            },
        }
    }

    /// Deliver a signal to a thread per process disposition. Returns true
    /// if the signal was queued/acted on.
    fn post_signal(&mut self, sc: &mut SimCore, tid: Tid, sig: Sig) {
        let proc_id = sc.thread(tid).proc;
        let node = sc.thread(tid).node;
        let Some(p) = self.procs.get(proc_id.0 as u64) else {
            return;
        };
        match p.disposition(sig) {
            SigDisposition::Ignore => {}
            SigDisposition::Handler(_) => {
                // Interrupt a futex wait with EINTR (NPTL cancellation
                // depends on this).
                if matches!(
                    sc.thread(tid).state,
                    bgsim::ThreadState::Blocked(BlockKind::Futex)
                ) && self
                    .futexes
                    .get_mut(node.idx())
                    .is_some_and(|f| f.remove(tid))
                {
                    sc.defer_unblock(tid, Some(SysRet::Err(Errno::EINTR)));
                }
                sc.post_signal(tid, sig);
            }
            SigDisposition::Default => {
                if sig.default_fatal() || sig == Sig::Parity {
                    // An unhandled machine-check is fatal (the
                    // checkpoint/restart world of §V.B).
                    sc.defer_kill(proc_id, 128 + sig as i32);
                } else {
                    // Non-fatal default: ignored.
                }
            }
        }
    }

    fn schedule_noise(&mut self, sc: &mut SimCore, node: NodeId, src_idx: usize, core_local: u32) {
        let delay = {
            let src = &self.cfg.injected_noise[src_idx];
            src.next_delay(self.noise_rng.get(&sc.hub, node.0 as u64))
        };
        sc.schedule_kernel_event_in(node, ((src_idx as u64) << 8) | core_local as u64, delay);
    }

    fn tp_futex_wake(&mut self, sc: &mut SimCore, tid: Tid, node: NodeId, uaddr: u64, woken: i64) {
        let core = sc.thread(tid).core;
        sc.tel.count(
            sc.tel.ids.futex_wakes,
            Slot::Core(core.0),
            woken.max(0) as u64,
        );
        sc.tel.tp(
            sc.now(),
            node.0,
            core.0,
            TpKind::FutexWake,
            "wake",
            uaddr,
            woken.max(0) as u64,
        );
    }

    fn guard_hit(&mut self, sc: &mut SimCore, tid: Tid, vaddr: u64) {
        let core = sc.thread(tid).core;
        let node = sc.thread(tid).node;
        sc.tel.count(sc.tel.ids.guard_faults, Slot::Core(core.0), 1);
        sc.tel.tp(
            sc.now(),
            node.0,
            core.0,
            TpKind::GuardFault,
            "dac_guard",
            tid.0 as u64,
            vaddr,
        );
        // A DAC guard hit is delivered as SIGSEGV; default kills the
        // process (stack smashed into the heap).
        self.post_signal(sc, tid, Sig::Segv);
    }

    /// The kernel RAS event log, in record order.
    pub fn ras_log(&self) -> &[RasRecord] {
        &self.ras_log
    }

    /// Human-readable RAS exit report (one line per event), the §V
    /// "report to the control system" stand-in.
    pub fn ras_report(&self) -> String {
        let mut s = String::new();
        for r in &self.ras_log {
            s.push_str(&format!(
                "cycle {} node {} {} detail={}\n",
                r.at, r.node, r.code, r.detail
            ));
        }
        s
    }

    /// `CiodShortWrite`: truncate the data of every in-flight shipped
    /// write touching `node` to half, re-marshaling the request — the
    /// application sees a genuine POSIX short write and must continue
    /// the write itself.
    fn shorten_inflight_writes(&mut self, sc: &mut SimCore, node: NodeId) {
        use bgsim::machine::NetDomain;
        for id in sc.inflight_ids(node, NetDomain::Collective) {
            let Some(m) = sc.inflight_msg_mut(id) else {
                continue;
            };
            // Only requests (tag%4==1) with a decodable body are writes
            // we can shorten.
            if m.tag % 4 != 1 || m.payload.len() < 4 {
                continue;
            }
            let prefix: Vec<u8> = m.payload[0..4].to_vec();
            let Ok(req) = ciod::wire::decode_req(&m.payload[4..]) else {
                continue;
            };
            let shortened = match req {
                SysReq::Write { fd, data } if data.len() >= 2 => {
                    let half = data.len() / 2;
                    SysReq::Write {
                        fd,
                        data: data[..half].to_vec(),
                    }
                }
                SysReq::Pwrite { fd, data, offset } if data.len() >= 2 => {
                    let half = data.len() / 2;
                    SysReq::Pwrite {
                        fd,
                        data: data[..half].to_vec(),
                        offset,
                    }
                }
                _ => continue,
            };
            let mut payload = prefix;
            payload.extend_from_slice(&ciod::wire::encode_req(&shortened));
            m.payload = payload;
            self.ras(sc, node, "short-write", id);
        }
    }
}

impl Kernel for Cnk {
    fn name(&self) -> &'static str {
        "cnk"
    }

    fn boot(&mut self, sc: &mut SimCore, reproducible: bool) -> BootReport {
        let nodes = sc.cfg.nodes as usize;
        let tpc = sc.cfg.chip.threads_per_core;
        self.sched = Scheduler::new(sc.cfg.total_cores() as usize, tpc);
        // Futex tables are per-boot state; drop and regrow on demand.
        self.futexes.clear();
        if self.persist_nodes != nodes {
            // Persist registries survive reproducible resets (backed by
            // self-refreshed DRAM); re-provision only when the machine
            // shape changes. Each node's registry materializes on its
            // first PersistOpen.
            self.persist.clear();
            self.persist_nodes = nodes;
        }
        let ions = sc.cfg.io_nodes() as usize;
        self.ion_busy_until.clear();
        if self.ciod_count != ions {
            // ION state survives compute-chip resets; re-provision only
            // on shape change. Daemons (and their service-jitter RNG
            // streams) materialize on first attach/service.
            self.ciods.clear();
            self.ion_rng = LazyStreams::new("ion-service");
            self.ciod_count = ions;
        }
        // Research-mode injected noise (off by default). Streams restart
        // from their seeds on every boot.
        if !self.cfg.injected_noise.is_empty() {
            self.noise_rng = LazyStreams::new("cnk-injected-noise");
            for node in 0..nodes as u32 {
                for (i, src) in self.cfg.injected_noise.clone().iter().enumerate() {
                    for core in 0..sc.cfg.chip.cores {
                        if src.cores.contains(core) {
                            self.schedule_noise(sc, NodeId(node), i, core);
                        }
                    }
                }
            }
        }
        self.booted = true;
        boot::boot_report(&sc.cfg.chip, reproducible)
    }

    fn reset(&mut self) {
        self.sched.reset();
        self.futexes.clear();
        self.procs.clear();
        self.pending_io.clear();
        self.booted = false;
        // persist registries, vfs, and ciods survive (ION state and
        // self-refreshed DRAM are not part of the compute-chip reset).
    }

    fn launch(
        &mut self,
        sc: &mut SimCore,
        spec: &JobSpec,
        factory: &mut dyn WorkloadFactory,
    ) -> Result<JobMap, LaunchError> {
        assert!(self.booted, "launch before boot");
        // Tear down the previous job: clear private memory (clean slate),
        // unpin TLBs, detach proxies. `IdMap::keys` is ascending-id, so
        // teardown runs in rank order.
        let old: Vec<u64> = self.procs.keys().collect();
        for proc in old {
            let Some(p) = self.procs.remove(proc) else {
                continue;
            };
            for r in &p.aspace.map.regions {
                let _ = sc.dram[p.node.idx()].clear_range(r.paddr, r.bytes);
            }
            let ion = sc.coll.io_node_of(p.node) as usize;
            Self::ciod_at(&mut self.ciods, ion).detach_proc(proc as u32);
        }
        for t in &mut sc.tlbs {
            t.reset();
        }
        for d in &mut sc.dacs {
            d.reset();
        }
        self.sched.reset();
        for f in &mut self.futexes {
            f.clear();
        }

        let ppn = spec.mode.procs_per_node();
        let cpp = spec.mode.cores_per_proc();
        let img = &spec.image;
        let dynamic_bytes = if img.dynamic {
            // A fixed window for ld.so + libraries, with slack for dlopen.
            let need = img
                .dynlibs
                .iter()
                .map(|l| l.text_bytes + l.data_bytes)
                .sum::<u64>();
            crate::mem::partition::align_up(need + (32 << 20), 16 << 20)
        } else {
            0
        };
        let req = ProcRequirements {
            text_bytes: img.text_bytes,
            data_bytes: img.data_bytes,
            heap_stack_bytes: img.initial_heap + img.main_stack * 4,
            shared_bytes: spec.shared_mem_bytes,
            dynamic_bytes,
        };
        let maps = partition_node(
            &req,
            ppn,
            sc.cfg.chip.dram_bytes,
            self.cfg.kernel_reserve,
            self.cfg.persist_reserve,
            self.cfg.tlb_budget,
        )
        .map_err(|e| LaunchError::NoMemory(format!("{e:?}")))?;

        // Pre-populate the ION filesystem with the dynamic libraries so
        // the ld.so model can open them.
        if img.dynamic {
            let root = self.vfs.root();
            let lib = match self.vfs.resolve(root, "/lib") {
                Ok(i) => i,
                Err(_) => self
                    .vfs
                    .mkdir_at(root, "lib", 0o755, 0, 0)
                    .map_err(|e| LaunchError::BadSpec(format!("ION /lib create failed: {e:?}")))?,
            };
            for l in &img.dynlibs {
                if self.vfs.resolve(lib, &l.name).is_err() {
                    let ino = self
                        .vfs
                        .create_at(lib, &l.name, 0o755, 0, 0)
                        .expect("lib create");
                    self.vfs
                        .truncate(ino, l.text_bytes + l.data_bytes)
                        .expect("lib size");
                }
            }
        }

        let mut ranks = Vec::new();
        for node in 0..spec.nodes {
            let node_id = NodeId(node);
            let ion = sc.coll.io_node_of(node_id) as usize;
            for pi in 0..ppn {
                let rank = Rank(node * ppn + pi);
                let proc = ProcId(self.next_proc);
                self.next_proc += 1;
                let cores: Vec<CoreId> = (0..cpp)
                    .map(|c| sc.core_of(node_id, pi * cpp + c))
                    .collect();
                let aspace = AddressSpace::new(maps[pi as usize].clone(), img.main_stack);
                let mut p = Process::new(
                    proc,
                    node_id,
                    rank,
                    cores.clone(),
                    aspace,
                    self.cfg.uid,
                    self.cfg.gid,
                );
                p.persist_grants = spec.persist_grants.clone();

                // Static core assignment (§VIII).
                for &c in &cores {
                    self.sched.assign_core(c, proc);
                }
                let main_core = cores[0];
                self.sched
                    .admit(main_core, proc)
                    .map_err(|_| LaunchError::TooManyThreads)?;

                let wl = factory.main_workload(rank);
                let tid = sc.create_thread(proc, node_id, main_core, wl);
                p.main_tid = tid;
                p.live_threads = 1;

                // Arm the main-thread guard at the heap boundary (§IV.C).
                let brk0 = p.aspace.heap.brk_addr();
                let slot = p
                    .alloc_dac_slot(main_core, sc.cfg.chip.dac_pairs)
                    .expect("fresh core has DAC slots");
                Self::arm_guard(sc, main_core, slot, brk0, brk0 + self.cfg.guard_bytes);
                p.guards.insert(
                    tid,
                    Guard {
                        lo: brk0,
                        hi: brk0 + self.cfg.guard_bytes,
                        slot,
                        tracks_heap: true,
                    },
                );

                self.pin_map(sc, &p)?;
                Self::ciod_at(&mut self.ciods, ion).attach_proc(&self.vfs, proc.0, p.uid, p.gid);
                self.procs.insert(proc.0 as u64, p);
                ranks.push(RankInfo {
                    rank,
                    proc,
                    node: node_id,
                    main_tid: tid,
                });
            }
        }
        Ok(JobMap { ranks })
    }

    fn syscall(&mut self, sc: &mut SimCore, tid: Tid, req: &SysReq) -> SyscallAction {
        // Function-shipped I/O (§IV.A).
        if req.is_io() {
            if !sc.cfg.chip.collective_unit.usable() {
                return Self::err(Errno::EIO, SYSCALL_BASE);
            }
            self.fship(sc, tid, req, PendingIo::Plain { tid });
            return SyscallAction::Block {
                kind: BlockKind::Io,
            };
        }

        let proc_id = self.proc_of(sc, tid);
        let node = sc.thread(tid).node;

        match req {
            SysReq::Brk { addr } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return Self::err(Errno::ESRCH, SYSCALL_BASE);
                };
                let old = p.aspace.heap.brk_addr();
                let newb = match p.aspace.heap.brk(*addr) {
                    Ok(b) => b,
                    Err(_) => return Self::done(SysRet::Val(old as i64), SYSCALL_BASE + 120),
                };
                // Heap grew: reposition the main-thread guard (§IV.C),
                // via IPI if another thread moved the boundary.
                if newb > old {
                    let main_tid = p.main_tid;
                    let main_core = p.cores[0];
                    if let Some(g) = p.guards.get_mut(&main_tid) {
                        if g.tracks_heap {
                            g.lo = newb;
                            g.hi = newb + self.cfg.guard_bytes;
                            let (lo, hi, slot) = (g.lo, g.hi, g.slot);
                            if tid == main_tid {
                                Self::arm_guard(sc, main_core, slot, lo, hi);
                            } else {
                                // "CNK issues an inter-processor interrupt
                                // to the main thread in order to reposition
                                // the guard area."
                                sc.send_ipi(main_core, IPI_GUARD_REPOSITION);
                            }
                        }
                    }
                }
                Self::done(SysRet::Val(newb as i64), SYSCALL_BASE + 160)
            }
            SysReq::Mmap {
                len,
                prot,
                flags,
                fd,
                offset,
                ..
            } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return Self::err(Errno::ESRCH, SYSCALL_BASE);
                };
                match fd {
                    None => match p.aspace.heap.mmap(*len, *prot) {
                        Ok(addr) => Self::done(SysRet::Val(addr as i64), SYSCALL_BASE + 210),
                        Err(e) => Self::err(tracker_errno(e), SYSCALL_BASE + 210),
                    },
                    Some(fd) => {
                        // File mapping: read-only, full copy-in (§VI.A),
                        // MAP_COPY style (§IV.B.2).
                        if prot.contains(Prot::WRITE) && !flags.contains(MapFlags::PRIVATE) {
                            return Self::err(Errno::EACCES, SYSCALL_BASE + 210);
                        }
                        // Library text goes into the fixed dynamic
                        // window if present, else the heap arena.
                        let vaddr = match p.aspace.alloc_dynamic(*len) {
                            Ok(v) => v,
                            Err(_) => match p.aspace.heap.mmap(*len, *prot) {
                                Ok(v) => v,
                                Err(e) => return Self::err(tracker_errno(e), SYSCALL_BASE + 210),
                            },
                        };
                        let read = SysReq::Pread {
                            fd: *fd,
                            len: *len,
                            offset: *offset,
                        };
                        self.fship(sc, tid, &read, PendingIo::MmapFill { tid, vaddr });
                        SyscallAction::Block {
                            kind: BlockKind::Io,
                        }
                    }
                }
            }
            SysReq::Munmap { addr, len } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return Self::err(Errno::ESRCH, SYSCALL_BASE);
                };
                match p.aspace.heap.munmap(*addr, *len) {
                    Ok(()) => Self::done(SysRet::Val(0), SYSCALL_BASE + 170),
                    Err(e) => Self::err(tracker_errno(e), SYSCALL_BASE + 170),
                }
            }
            SysReq::Mprotect { addr, len, prot } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return Self::err(Errno::ESRCH, SYSCALL_BASE);
                };
                // Record for the guard-page convention (§IV.C) even if
                // the range is brk space.
                p.last_mprotect = Some((*addr, *len));
                match p.aspace.heap.mprotect(*addr, *len, *prot) {
                    Ok(()) => Self::done(SysRet::Val(0), SYSCALL_BASE + 110),
                    Err(e) => Self::err(tracker_errno(e), SYSCALL_BASE + 110),
                }
            }
            SysReq::Clone { .. } => {
                // Direct clone without a child program makes no sense in
                // the simulation; NPTL goes through Op::Spawn.
                Self::err(Errno::EINVAL, SYSCALL_BASE)
            }
            SysReq::SetTidAddress { addr } => {
                if let Some(p) = self.procs.get_mut(proc_id.0 as u64) {
                    p.clear_tid_addr.insert(tid, *addr);
                }
                Self::done(SysRet::Val(tid.0 as i64), SYSCALL_BASE)
            }
            SysReq::Futex { uaddr, op } => self.sys_futex(sc, tid, proc_id, node, *uaddr, *op),
            SysReq::SchedYield => {
                let core = sc.thread(tid).core;
                self.sched.enqueue(core, proc_id, tid);
                SyscallAction::YieldCpu
            }
            SysReq::Sigaction { sig, disposition } => {
                if !sig.catchable() && !matches!(disposition, SigDisposition::Default) {
                    return Self::err(Errno::EINVAL, SYSCALL_BASE);
                }
                if let Some(p) = self.procs.get_mut(proc_id.0 as u64) {
                    p.sig.insert(*sig, *disposition);
                }
                Self::done(SysRet::Val(0), SYSCALL_BASE + 60)
            }
            SysReq::Tgkill { tid: target, sig } => {
                let target = Tid(*target);
                if target.idx() >= sc.threads.len()
                    || sc.thread(target).proc != proc_id
                    || !sc.thread(target).state.is_live()
                {
                    return Self::err(Errno::ESRCH, SYSCALL_BASE);
                }
                self.post_signal(sc, target, *sig);
                Self::done(SysRet::Val(0), SYSCALL_BASE + 200)
            }
            SysReq::Gettid => Self::done(SysRet::Val(tid.0 as i64), SYSCALL_BASE),
            SysReq::Getpid => Self::done(SysRet::Val(proc_id.0 as i64), SYSCALL_BASE),
            SysReq::Uname => Self::done(SysRet::Uname(self.utsname()), SYSCALL_BASE + 80),
            SysReq::ExitThread { code } => SyscallAction::ExitThread { code: *code },
            SysReq::ExitGroup { code } => SyscallAction::ExitProc { code: *code },
            // §VII.B: "MPI cannot spawn dynamic tasks because CNK does
            // not allow fork/exec operations."
            SysReq::Fork | SysReq::Exec { .. } => Self::err(Errno::ENOSYS, SYSCALL_BASE),
            SysReq::PersistOpen { name, len } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return Self::err(Errno::ESRCH, SYSCALL_BASE);
                };
                let granted = p.persist_grants.iter().any(|g| g == name);
                let uid = p.uid;
                let dram = sc.cfg.chip.dram_bytes;
                match Self::persist_at(&mut self.persist, self.cfg.persist_reserve, dram, node)
                    .open(name, *len, uid, granted)
                {
                    Ok(r) => {
                        let region = PersistRegistry::as_region(&r);
                        // Already attached? (re-open in the same job)
                        if p.aspace.persist.iter().any(|x| x.vaddr == region.vaddr) {
                            return Self::done(SysRet::Val(r.vaddr as i64), SYSCALL_BASE + 300);
                        }
                        p.aspace.attach_persist(region.clone());
                        let Some(p_immutable) = self.procs.get(proc_id.0 as u64) else {
                            return Self::err(Errno::ESRCH, SYSCALL_BASE + 300);
                        };
                        if let Err(e) = self.pin_region(sc, p_immutable, &region) {
                            return Self::err(e, SYSCALL_BASE + 300);
                        }
                        Self::done(SysRet::Val(r.vaddr as i64), SYSCALL_BASE + 300)
                    }
                    Err(e) => Self::err(e, SYSCALL_BASE + 300),
                }
            }
            SysReq::QueryStaticMap => {
                let Some(p) = self.procs.get(proc_id.0 as u64) else {
                    return Self::err(Errno::ESRCH, SYSCALL_BASE);
                };
                Self::done(
                    SysRet::StaticMap(p.aspace.map.as_triples()),
                    SYSCALL_BASE + 150,
                )
            }
            SysReq::AffinityPartner { local_core } => {
                if !self.cfg.affinity_extension {
                    return Self::err(Errno::ENOSYS, SYSCALL_BASE);
                }
                if *local_core >= sc.cfg.chip.cores {
                    return Self::err(Errno::EINVAL, SYSCALL_BASE);
                }
                let core = sc.core_of(node, *local_core);
                // Designating one's own core is pointless but harmless.
                self.sched.set_remote_partner(core, proc_id);
                Self::done(SysRet::Val(0), SYSCALL_BASE + 120)
            }
            other => {
                debug_assert!(!other.is_io());
                Self::err(Errno::ENOSYS, SYSCALL_BASE)
            }
        }
    }

    fn spawn(
        &mut self,
        sc: &mut SimCore,
        parent: Tid,
        args: &CloneArgs,
        core_hint: Option<u32>,
        child: Box<dyn Workload>,
    ) -> (SysRet, u64) {
        let proc_id = sc.thread(parent).proc;
        let node = sc.thread(parent).node;
        // §IV.B.1: "The flags to clone are validated against the expected
        // flags."
        if args.flags != CloneFlags::NPTL_THREAD_FLAGS {
            return (SysRet::Err(Errno::EINVAL), SYSCALL_BASE);
        }
        let Some(p) = self.procs.get(proc_id.0 as u64) else {
            return (SysRet::Err(Errno::ESRCH), SYSCALL_BASE);
        };
        let cores = p.cores.clone();
        // Placement: explicit hint (node-local core index) or the
        // least-loaded core of the process.
        let core = match core_hint {
            Some(local) => {
                if local >= sc.cfg.chip.cores {
                    return (SysRet::Err(Errno::EINVAL), SYSCALL_BASE);
                }
                sc.core_of(node, local)
            }
            None => {
                let sched = &self.sched;
                let mut best = cores[0];
                let mut best_q = usize::MAX;
                for &c in &cores {
                    let q = sched.queued(c) + usize::from(!sc.core_idle(c));
                    if q < best_q {
                        best_q = q;
                        best = c;
                    }
                }
                best
            }
        };
        match self.sched.admit(core, proc_id) {
            Ok(()) => {}
            Err(SchedError::CoreFull) => return (SysRet::Err(Errno::EAGAIN), CLONE_COST),
            Err(_) => return (SysRet::Err(Errno::EPERM), SYSCALL_BASE),
        }
        let tid = sc.create_thread(proc_id, node, core, child);
        let p = self
            .procs
            .get_mut(proc_id.0 as u64)
            .expect("invariant: spawn caller's process exists (it issued the clone)");
        p.live_threads += 1;
        if args.flags.contains(CloneFlags::CHILD_CLEARTID) {
            p.clear_tid_addr.insert(tid, args.child_tid_addr);
        }
        // §IV.C: the last mprotect before clone becomes the new thread's
        // stack guard.
        if let Some((gaddr, glen)) = p.last_mprotect.take() {
            if let Some(slot) = p.alloc_dac_slot(core, sc.cfg.chip.dac_pairs) {
                p.guards.insert(
                    tid,
                    Guard {
                        lo: gaddr,
                        hi: gaddr + glen,
                        slot,
                        tracks_heap: false,
                    },
                );
                Self::arm_guard(sc, core, slot, gaddr, gaddr + glen);
            }
        }
        // CLONE_PARENT_SETTID: write the child's tid at the parent's
        // address.
        if args.flags.contains(CloneFlags::PARENT_SETTID) && args.parent_tid_addr != 0 {
            if let Some(pa) = self.translate(sc, parent, args.parent_tid_addr) {
                let _ = sc.dram[node.idx()].write_u32(pa, tid.0);
            }
        }
        if sc.core_idle(core) {
            sc.dispatch(tid);
        } else {
            self.sched.enqueue(core, proc_id, tid);
        }
        (SysRet::Val(tid.0 as i64), CLONE_COST)
    }

    fn compute_cost(&mut self, sc: &mut SimCore, tid: Tid, op: &Op) -> u64 {
        let node = sc.thread(tid).node;
        let chipc = &sc.cfg.chip;
        match op {
            Op::Compute { cycles } => *cycles,
            Op::Daxpy { n, reps } => chip::daxpy_cycles(chipc, *n, *reps) + sc.refresh_jitter(node),
            Op::Stream { bytes } => {
                // Concurrent streams on the node contend in the L2 banks
                // (§III); this core's own stream counts itself.
                let streams = sc.active_streams(node).max(1);
                chip::stream_cycles(chipc, *bytes, streams) + sc.refresh_jitter(node)
            }
            Op::Flops { flops } => chip::dgemm_cycles(chipc, *flops) + sc.refresh_jitter(node),
            _ => 1,
        }
    }

    fn mem_touch(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        vaddr: u64,
        bytes: u64,
        _write: bool,
    ) -> MemOpResult {
        let proc_id = sc.thread(tid).proc;
        let core = sc.thread(tid).core;
        // DAC guard check first (the hardware watches the access).
        let hit = sc.dacs[core.idx()].check(vaddr).is_some()
            || (bytes > 1 && sc.dacs[core.idx()].check(vaddr + bytes - 1).is_some());
        if hit {
            self.guard_hit(sc, tid, vaddr);
            return MemOpResult {
                cost: 420,
                faulted: true,
            };
        }
        let Some(p) = self.procs.get(proc_id.0 as u64) else {
            return MemOpResult {
                cost: 1,
                faulted: false,
            };
        };
        if !p.aspace.mapped(vaddr) || (bytes > 1 && !p.aspace.mapped(vaddr + bytes - 1)) {
            // No demand paging: an unmapped access is an immediate
            // SIGSEGV (§VI.B).
            let node = sc.thread(tid).node;
            sc.tel.count(sc.tel.ids.segv_faults, Slot::Core(core.0), 1);
            sc.tel.tp(
                sc.now(),
                node.0,
                core.0,
                TpKind::Segv,
                "unmapped",
                tid.0 as u64,
                vaddr,
            );
            self.post_signal(sc, tid, Sig::Segv);
            return MemOpResult {
                cost: 420,
                faulted: true,
            };
        }
        // Static TLB: never a miss (§VI.B / Table II "No TLB misses").
        let cost = chip::stream_cycles(&sc.cfg.chip, bytes, 1).max(1);
        MemOpResult {
            cost,
            faulted: false,
        }
    }

    fn pick_next(&mut self, _sc: &mut SimCore, core: CoreId) -> Option<Tid> {
        self.sched.pick(core)
    }

    fn on_unblock(&mut self, sc: &mut SimCore, tid: Tid) {
        let core = sc.thread(tid).core;
        let proc = sc.thread(tid).proc;
        if sc.core_idle(core) {
            sc.dispatch(tid);
        } else {
            self.sched.enqueue(core, proc, tid);
        }
    }

    fn on_exit(&mut self, sc: &mut SimCore, tid: Tid) {
        let core = sc.thread(tid).core;
        let proc_id = sc.thread(tid).proc;
        let node = sc.thread(tid).node;
        self.sched.release(core);
        self.sched.unqueue(core, tid);
        if let Some(f) = self.futexes.get_mut(node.idx()) {
            f.remove(tid);
        }
        if let Some(p) = self.procs.get_mut(proc_id.0 as u64) {
            p.live_threads = p.live_threads.saturating_sub(1);
            // CLONE_CHILD_CLEARTID: clear the tid word and wake joiners
            // (this is what makes pthread_join return).
            if let Some(addr) = p.clear_tid_addr.remove(&tid) {
                if let Some(pa) = p.aspace.translate(addr) {
                    let _ = sc.dram[node.idx()].write_u32(pa, 0);
                    let woken = self
                        .futexes
                        .get_mut(node.idx())
                        .map(|f| f.wake(pa, u32::MAX, u32::MAX))
                        .unwrap_or_default();
                    for t in woken {
                        sc.defer_unblock(t, Some(SysRet::Val(0)));
                    }
                }
            }
            // Disarm the thread's guard.
            if let Some(g) = p.guards.remove(&tid) {
                let _ = sc.dacs[core.idx()].disarm(g.slot);
            }
        }
    }

    fn kernel_event(&mut self, sc: &mut SimCore, node: NodeId, tag: u64) {
        if tag & TAG_IO_RETRY != 0 {
            self.io_timeout(sc, node, tag & !TAG_IO_RETRY);
            return;
        }
        // Production CNK schedules no periodic kernel work — that
        // absence *is* the low-noise result of §V.A. Events only exist
        // here when noise injection is configured for a study.
        let src_idx = ((tag >> 8) & 0xffff) as usize;
        let core_local = (tag & 0xff) as u32;
        if src_idx >= self.cfg.injected_noise.len() {
            return;
        }
        let (cost, src_name) = {
            let src = &self.cfg.injected_noise[src_idx];
            (
                src.cost(self.noise_rng.get(&sc.hub, node.0 as u64)),
                src.name,
            )
        };
        let core = sc.core_of(node, core_local);
        sc.tel.count(sc.tel.ids.daemon_wakes, Slot::Core(core.0), 1);
        sc.tel.tp(
            sc.now(),
            node.0,
            core.0,
            TpKind::DaemonWake,
            src_name,
            src_idx as u64,
            cost,
        );
        sc.stretch_running(core, cost, tag);
        self.schedule_noise(sc, node, src_idx, core_local);
    }

    fn net_deliver(&mut self, sc: &mut SimCore, msg: NetMsg) {
        match msg.tag % 4 {
            1 => self.ion_service(sc, msg),
            2 => self.cn_reply(sc, msg),
            _ => {}
        }
    }

    fn on_ipi(&mut self, sc: &mut SimCore, core: CoreId, kind: u32) {
        if kind != IPI_GUARD_REPOSITION {
            return;
        }
        let _node = sc.node_of_core(core);
        let Some(proc_id) = self.sched.home_proc(core) else {
            return;
        };
        let Some(p) = self.procs.get(proc_id.0 as u64) else {
            return;
        };
        if let Some(g) = p.guards.get(&p.main_tid) {
            Self::arm_guard(sc, core, g.slot, g.lo, g.hi);
        }
    }

    fn on_fault(&mut self, sc: &mut SimCore, core: CoreId, kind: u32) {
        if kind != bgsim::machine::FAULT_PARITY {
            return;
        }
        // §V.B: "CNK was able to handle L1 parity errors by signaling the
        // application with the error to allow the application to perform
        // recovery."
        sc.stretch_running(core, PARITY_HANDLER_COST, 0x2000 | kind as u64);
        if let Some(tid) = sc.running[core.idx()] {
            self.post_signal(sc, tid, Sig::Parity);
        }
    }

    fn on_ras(&mut self, sc: &mut SimCore, node: NodeId, ev: &FaultEvent) {
        // Every injected fault lands in the RAS log — that reporting is
        // the point of the RAS subsystem, whatever the recovery is. The
        // machine already counted/traced the event when it dispatched
        // it (`ras.events`), so only the kernel-side record is added
        // here.
        self.ras_log.push(RasRecord {
            at: sc.now(),
            node: node.0,
            code: ev.kind.name(),
            detail: ev.arg,
        });
        match ev.kind {
            FaultKind::CiodShortWrite => self.shorten_inflight_writes(sc, node),
            FaultKind::GuardStorm => {
                // A storm of spurious DAC guard violations: each one
                // costs handler time on its core, none is a real
                // protection fault, so nobody gets signaled. Survivable
                // noise, visible in `fault.guard`.
                for local in 0..sc.cores_per_node() {
                    let core = sc.core_of(node, local);
                    sc.tel
                        .count(sc.tel.ids.guard_faults, Slot::Core(core.0), ev.arg);
                    sc.tel.tp(
                        sc.now(),
                        node.0,
                        core.0,
                        TpKind::GuardFault,
                        "dac_storm",
                        ev.arg,
                        0,
                    );
                    sc.stretch_running(core, ev.arg * GUARD_STORM_COST, 0x3000);
                }
            }
            // Network faults were applied by the machine layer; machine
            // checks arrive separately through `on_fault`.
            _ => {}
        }
    }

    fn check_invariants(&self, sc: &SimCore) -> Vec<String> {
        use bgsim::machine::ThreadState;
        let mut v = Vec::new();

        // Futex wake accounting: the per-node tables and the thread
        // states must agree exactly — every parked waiter is a
        // futex-blocked thread on that node, each parked once, and
        // every futex-blocked thread is parked somewhere.
        let mut parked: HashMap<Tid, usize> = HashMap::new();
        for (node_idx, table) in self.futexes.iter().enumerate() {
            for tid in table.waiter_tids() {
                *parked.entry(tid).or_insert(0) += 1;
                match sc.threads.get(tid.idx()) {
                    None => v.push(format!(
                        "futex table node {node_idx}: waiter tid {} does not exist",
                        tid.0
                    )),
                    Some(t) => {
                        if t.node.idx() != node_idx {
                            v.push(format!(
                                "futex table node {node_idx}: waiter tid {} lives on node {}",
                                tid.0, t.node.0
                            ));
                        }
                        if t.state != ThreadState::Blocked(BlockKind::Futex) {
                            v.push(format!(
                                "futex waiter tid {} is not futex-blocked (state {:?})",
                                tid.0, t.state
                            ));
                        }
                    }
                }
            }
        }
        for (tid, n) in &parked {
            if *n > 1 {
                v.push(format!("tid {} parked on {n} futex queues", tid.0));
            }
        }
        for t in &sc.threads {
            if t.state == ThreadState::Blocked(BlockKind::Futex) && !parked.contains_key(&t.tid) {
                v.push(format!(
                    "tid {} is futex-blocked but parked in no futex table",
                    t.tid.0
                ));
            }
        }

        // No lost CIOD replies: every pending function-ship request must
        // still have its issuer waiting on it (a fatal machine check
        // tears the job down with requests legitimately in flight).
        let fatal = self.ras_log.iter().any(|r| r.code == "machine-check");
        for (id, req) in self.pending_io.iter() {
            let (PendingIo::Plain { tid } | PendingIo::MmapFill { tid, .. }) = req.io;
            match sc.threads.get(tid.idx()) {
                None => v.push(format!(
                    "pending io #{id}: issuer tid {} does not exist",
                    tid.0
                )),
                Some(t) if t.state.is_live() && t.state != ThreadState::Blocked(BlockKind::Io) => {
                    v.push(format!(
                        "pending io #{id}: issuer tid {} is live but not io-blocked ({:?})",
                        tid.0, t.state
                    ));
                }
                Some(_) => {}
            }
        }
        if sc.live_threads() == 0 && !fatal && !self.pending_io.is_empty() {
            v.push(format!(
                "job finished cleanly with {} CIOD request(s) still pending (lost replies)",
                self.pending_io.len()
            ));
        }

        // Memory-partition conservation: within each process the static
        // map plus attached persistent regions must tile without
        // overlap, virtually and (for the map) physically.
        for (pid, p) in self.procs.iter() {
            let pid = ProcId(pid as u32);
            let mut vspans: Vec<(u64, u64, &'static str)> = Vec::new();
            for r in &p.aspace.map.regions {
                if r.bytes == 0 {
                    v.push(format!("proc {}: zero-byte map region {:?}", pid.0, r.kind));
                    continue;
                }
                vspans.push((r.vaddr, r.vend(), "map"));
            }
            for r in &p.aspace.persist {
                vspans.push((r.vaddr, r.vend(), "persist"));
            }
            vspans.sort_unstable();
            for w in vspans.windows(2) {
                if w[1].0 < w[0].1 {
                    v.push(format!(
                        "proc {}: {} region [{:#x},{:#x}) overlaps {} region [{:#x},{:#x})",
                        pid.0, w[0].2, w[0].0, w[0].1, w[1].2, w[1].0, w[1].1
                    ));
                }
            }
            let mut pspans: Vec<(u64, u64)> = p
                .aspace
                .map
                .regions
                .iter()
                .filter(|r| r.bytes > 0)
                .map(|r| (r.paddr, r.paddr + r.bytes))
                .collect();
            pspans.sort_unstable();
            for w in pspans.windows(2) {
                if w[1].0 < w[0].1 {
                    v.push(format!(
                        "proc {}: physical spans [{:#x},{:#x}) and [{:#x},{:#x}) overlap",
                        pid.0, w[0].0, w[0].1, w[1].0, w[1].1
                    ));
                }
            }
            let live = sc
                .threads
                .iter()
                .filter(|t| t.proc == pid && t.state.is_live())
                .count() as u32;
            if live != p.live_threads {
                v.push(format!(
                    "proc {}: live_threads={} but {} live thread(s) in the machine",
                    pid.0, p.live_threads, live
                ));
            }
        }

        // Function-ship plumbing on the I/O nodes.
        for c in &self.ciods {
            v.extend(c.check_invariants(&self.vfs));
        }
        v
    }

    fn translate(&self, sc: &SimCore, tid: Tid, vaddr: u64) -> Option<u64> {
        let proc = sc.thread(tid).proc;
        self.procs.get(proc.0 as u64)?.aspace.translate(vaddr)
    }

    fn resident_bytes(&self) -> usize {
        self.procs.resident_bytes()
            + self.futexes.capacity() * std::mem::size_of::<FutexTable>()
            + self.persist.capacity() * std::mem::size_of::<PersistRegistry>()
            + self.ciods.capacity() * std::mem::size_of::<Ciod>()
            + self.ion_rng.resident_bytes()
            + self.noise_rng.resident_bytes()
            + self.pending_io.resident_bytes()
            + self.ion_busy_until.capacity() * std::mem::size_of::<u64>()
            + self.ras_log.capacity() * std::mem::size_of::<RasRecord>()
            + self
                .served
                .values()
                .map(|r| r.capacity() + 48)
                .sum::<usize>()
    }

    fn comm_caps(&self, _sc: &SimCore, _tid: Tid) -> CommCaps {
        CommCaps::cnk()
    }

    fn utsname(&self) -> UtsName {
        UtsName::cnk()
    }

    fn features(&self) -> bgsim::features::FeatureMatrix {
        crate::features::matrix()
    }
}

impl Cnk {
    fn sys_futex(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        proc_id: ProcId,
        node: NodeId,
        uaddr: u64,
        op: FutexOp,
    ) -> SyscallAction {
        let Some(p) = self.procs.get(proc_id.0 as u64) else {
            return Self::err(Errno::ESRCH, SYSCALL_BASE);
        };
        let Some(pa) = p.aspace.translate(uaddr) else {
            return Self::err(Errno::EFAULT, SYSCALL_BASE + 40);
        };
        let ft = Self::futex_table(&mut self.futexes, node);
        let cost = SYSCALL_BASE + 90;
        match op {
            FutexOp::Wait { expected } | FutexOp::WaitBitset { expected, .. } => {
                let cur = sc.dram[node.idx()].read_u32(pa).unwrap_or(0);
                if cur != expected {
                    return Self::err(Errno::EAGAIN, cost);
                }
                let bitset = match op {
                    FutexOp::WaitBitset { bitset, .. } => bitset,
                    _ => sysabi::futex::FUTEX_BITSET_MATCH_ANY,
                };
                ft.wait(pa, tid, bitset);
                let core = sc.thread(tid).core;
                sc.tel.count(sc.tel.ids.futex_waits, Slot::Core(core.0), 1);
                sc.tel.tp(
                    sc.now(),
                    node.0,
                    core.0,
                    TpKind::FutexWait,
                    "wait",
                    tid.0 as u64,
                    uaddr,
                );
                SyscallAction::Block {
                    kind: BlockKind::Futex,
                }
            }
            FutexOp::Wake { count } => {
                let woken = ft.wake(pa, count, sysabi::futex::FUTEX_BITSET_MATCH_ANY);
                let n = woken.len() as i64;
                for t in woken {
                    sc.defer_unblock(t, Some(SysRet::Val(0)));
                }
                self.tp_futex_wake(sc, tid, node, uaddr, n);
                Self::done(SysRet::Val(n), cost)
            }
            FutexOp::WakeBitset { count, bitset } => {
                let woken = ft.wake(pa, count, bitset);
                let n = woken.len() as i64;
                for t in woken {
                    sc.defer_unblock(t, Some(SysRet::Val(0)));
                }
                self.tp_futex_wake(sc, tid, node, uaddr, n);
                Self::done(SysRet::Val(n), cost)
            }
            FutexOp::Requeue {
                wake,
                requeue,
                target_uaddr,
            }
            | FutexOp::CmpRequeue {
                wake,
                requeue,
                target_uaddr,
                ..
            } => {
                if let FutexOp::CmpRequeue { expected, .. } = op {
                    let cur = sc.dram[node.idx()].read_u32(pa).unwrap_or(0);
                    if cur != expected {
                        return Self::err(Errno::EAGAIN, cost);
                    }
                }
                let Some(tpa) = self
                    .procs
                    .get(proc_id.0 as u64)
                    .and_then(|p| p.aspace.translate(target_uaddr))
                else {
                    return Self::err(Errno::EFAULT, cost);
                };
                let (woken, moved) =
                    Self::futex_table(&mut self.futexes, node).requeue(pa, wake, requeue, tpa);
                let total = woken.len() as i64 + moved as i64;
                for t in woken {
                    sc.defer_unblock(t, Some(SysRet::Val(0)));
                }
                Self::done(SysRet::Val(total), cost)
            }
        }
    }
}
