//! Per-layer host time, measured from outside the simulator.
//!
//! The traced run wraps the `Kernel`, `CommModel` and `Workload` trait
//! objects a machine is built from in delegating timers. Each wrapper
//! call opens a span on a thread-local stack; the time between two
//! boundaries is charged to the span on top, so every bucket holds
//! *self* time (a workload's `next` that calls back into the kernel
//! through `WlEnv` is charged to the kernel for that part). Time with
//! no span open is the simulator's own: `bgsim.self_s` is the run time
//! minus every bucket.
//!
//! The wrappers only delegate. The benchmark checks that a traced run
//! reproduces the digests of its untraced twin.

use std::cell::RefCell;
use std::time::Instant;

use bench::harness::KernelKind;
use bgsim::features::FeatureMatrix;
use bgsim::machine::MemOpResult;
use bgsim::{
    BootReport, CloneArgs, CommAction, CommCaps, CommModel, CommOp, FaultEvent, JobMap, Kernel,
    KernelEventTag, LaunchError, NetMsg, Op, SimCore, SyscallAction, WlEnv, Workload,
    WorkloadFactory,
};
use sysabi::{CoreId, JobSpec, NodeId, Rank, SysReq, SysRet, Tid, UtsName};

/// Metric prefix of a kernel's buckets.
pub fn kernel_prefix(k: KernelKind) -> &'static str {
    match k {
        KernelKind::Cnk => "cnk",
        KernelKind::Fwk | KernelKind::FwkNoiseless => "fwk",
    }
}

/// First bucket of a kernel: each kernel's buckets are kept apart.
fn kernel_base(k: KernelKind) -> usize {
    match k {
        KernelKind::Cnk => 0,
        KernelKind::Fwk | KernelKind::FwkNoiseless => KERNEL_BUCKETS.len(),
    }
}

/// Kernel call classes, in bucket order.
pub const KERNEL_BUCKETS: [&str; 5] = ["sched", "syscall", "cost", "net", "other"];
const SCHED: usize = 0;
const SYSCALL: usize = 1;
const COST: usize = 2;
const NET: usize = 3;
const OTHER: usize = 4;

const DCMF_ISSUE: usize = 2 * KERNEL_BUCKETS.len();
const DCMF_DELIVER: usize = DCMF_ISSUE + 1;
const WORKLOAD: usize = DCMF_ISSUE + 2;
const BUCKETS: usize = WORKLOAD + 1;

/// Accumulated self time and call count per bucket.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerTimes {
    pub ns: [u64; BUCKETS],
    pub calls: [u64; BUCKETS],
}

impl LayerTimes {
    pub fn add(&mut self, o: &LayerTimes) {
        for i in 0..BUCKETS {
            self.ns[i] += o.ns[i];
            self.calls[i] += o.calls[i];
        }
    }

    /// Seconds in every bucket together.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }

    pub fn kernel_s(&self, k: KernelKind, class: &str) -> f64 {
        let i = KERNEL_BUCKETS
            .iter()
            .position(|c| *c == class)
            .expect("a kernel call class");
        self.ns[kernel_base(k) + i] as f64 * 1e-9
    }

    pub fn kernel_calls(&self, k: KernelKind) -> u64 {
        let base = kernel_base(k);
        self.calls[base..base + KERNEL_BUCKETS.len()].iter().sum()
    }

    pub fn dcmf_issue_s(&self) -> f64 {
        self.ns[DCMF_ISSUE] as f64 * 1e-9
    }

    pub fn dcmf_deliver_s(&self) -> f64 {
        self.ns[DCMF_DELIVER] as f64 * 1e-9
    }

    pub fn dcmf_calls(&self) -> u64 {
        self.calls[DCMF_ISSUE] + self.calls[DCMF_DELIVER]
    }

    pub fn workload_s(&self) -> f64 {
        self.ns[WORKLOAD] as f64 * 1e-9
    }

    pub fn workload_calls(&self) -> u64 {
        self.calls[WORKLOAD]
    }
}

struct Stack {
    times: LayerTimes,
    open: Vec<usize>,
    mark: Option<Instant>,
}

thread_local! {
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack {
            times: LayerTimes { ns: [0; BUCKETS], calls: [0; BUCKETS] },
            open: Vec::new(),
            mark: None,
        })
    };
}

fn charge(s: &mut Stack, now: Instant) {
    if let (Some(&top), Some(mark)) = (s.open.last(), s.mark) {
        s.times.ns[top] += now.duration_since(mark).as_nanos() as u64;
    }
    s.mark = Some(now);
}

/// Run `f` as a span of `bucket`.
#[inline]
fn span<R>(bucket: usize, f: impl FnOnce() -> R) -> R {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        charge(&mut s, Instant::now());
        s.open.push(bucket);
        s.times.calls[bucket] += 1;
    });
    let r = f();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        charge(&mut s, Instant::now());
        s.open.pop();
    });
    r
}

/// Take this thread's accumulated layer times and start from zero.
pub fn take() -> LayerTimes {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.open.is_empty(), "layer span still open");
        std::mem::take(&mut s.times)
    })
}

/// A `Kernel` that times every call into `inner`.
pub struct TimedKernel {
    inner: Box<dyn Kernel>,
    base: usize,
}

impl TimedKernel {
    pub fn new(k: KernelKind) -> TimedKernel {
        TimedKernel {
            inner: k.build(),
            base: kernel_base(k),
        }
    }
}

impl Kernel for TimedKernel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn boot(&mut self, sc: &mut SimCore, reproducible: bool) -> BootReport {
        span(self.base + OTHER, || self.inner.boot(sc, reproducible))
    }
    fn reset(&mut self) {
        span(self.base + OTHER, || self.inner.reset())
    }
    fn launch(
        &mut self,
        sc: &mut SimCore,
        spec: &JobSpec,
        factory: &mut dyn WorkloadFactory,
    ) -> Result<JobMap, LaunchError> {
        span(self.base + OTHER, || self.inner.launch(sc, spec, factory))
    }
    fn syscall(&mut self, sc: &mut SimCore, tid: Tid, req: &SysReq) -> SyscallAction {
        span(self.base + SYSCALL, || self.inner.syscall(sc, tid, req))
    }
    fn spawn(
        &mut self,
        sc: &mut SimCore,
        parent: Tid,
        args: &CloneArgs,
        core_hint: Option<u32>,
        child: Box<dyn Workload>,
    ) -> (SysRet, u64) {
        let child = Box::new(TimedWorkload(child));
        span(self.base + SYSCALL, || {
            self.inner.spawn(sc, parent, args, core_hint, child)
        })
    }
    fn compute_cost(&mut self, sc: &mut SimCore, tid: Tid, op: &Op) -> u64 {
        span(self.base + COST, || self.inner.compute_cost(sc, tid, op))
    }
    fn mem_touch(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        vaddr: u64,
        bytes: u64,
        write: bool,
    ) -> MemOpResult {
        span(self.base + COST, || {
            self.inner.mem_touch(sc, tid, vaddr, bytes, write)
        })
    }
    fn pick_next(&mut self, sc: &mut SimCore, core: CoreId) -> Option<Tid> {
        span(self.base + SCHED, || self.inner.pick_next(sc, core))
    }
    fn on_unblock(&mut self, sc: &mut SimCore, tid: Tid) {
        span(self.base + SCHED, || self.inner.on_unblock(sc, tid))
    }
    fn on_exit(&mut self, sc: &mut SimCore, tid: Tid) {
        span(self.base + SCHED, || self.inner.on_exit(sc, tid))
    }
    fn kernel_event(&mut self, sc: &mut SimCore, node: NodeId, tag: KernelEventTag) {
        span(self.base + SCHED, || self.inner.kernel_event(sc, node, tag))
    }
    fn net_deliver(&mut self, sc: &mut SimCore, msg: NetMsg) {
        span(self.base + NET, || self.inner.net_deliver(sc, msg))
    }
    fn on_ipi(&mut self, sc: &mut SimCore, core: CoreId, kind: u32) {
        span(self.base + OTHER, || self.inner.on_ipi(sc, core, kind))
    }
    fn on_fault(&mut self, sc: &mut SimCore, core: CoreId, kind: u32) {
        span(self.base + OTHER, || self.inner.on_fault(sc, core, kind))
    }
    fn on_ras(&mut self, sc: &mut SimCore, node: NodeId, ev: &FaultEvent) {
        span(self.base + OTHER, || self.inner.on_ras(sc, node, ev))
    }
    fn check_invariants(&self, sc: &SimCore) -> Vec<String> {
        self.inner.check_invariants(sc)
    }
    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
    fn translate(&self, sc: &SimCore, tid: Tid, vaddr: u64) -> Option<u64> {
        span(self.base + OTHER, || self.inner.translate(sc, tid, vaddr))
    }
    fn comm_caps(&self, sc: &SimCore, tid: Tid) -> CommCaps {
        span(self.base + OTHER, || self.inner.comm_caps(sc, tid))
    }
    fn utsname(&self) -> UtsName {
        self.inner.utsname()
    }
    fn features(&self) -> FeatureMatrix {
        self.inner.features()
    }
}

/// A `CommModel` that times every call into `inner`.
pub struct TimedComm(pub Box<dyn CommModel>);

impl CommModel for TimedComm {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn configure_job(&mut self, sc: &SimCore, job: &JobMap, default_caps: CommCaps) {
        span(DCMF_ISSUE, || self.0.configure_job(sc, job, default_caps))
    }
    fn issue(
        &mut self,
        sc: &mut SimCore,
        caps: &CommCaps,
        tid: Tid,
        rank: Rank,
        op: &CommOp,
    ) -> CommAction {
        span(DCMF_ISSUE, || self.0.issue(sc, caps, tid, rank, op))
    }
    fn net_deliver(&mut self, sc: &mut SimCore, msg: NetMsg) {
        span(DCMF_DELIVER, || self.0.net_deliver(sc, msg))
    }
}

/// A `Workload` that times every `next` of `inner`.
pub struct TimedWorkload(pub Box<dyn Workload>);

impl Workload for TimedWorkload {
    fn next(&mut self, env: &mut WlEnv<'_>) -> Op {
        span(WORKLOAD, || self.0.next(env))
    }
    fn label(&self) -> &str {
        self.0.label()
    }
}
