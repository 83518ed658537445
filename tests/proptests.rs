//! Property-based tests of the core data structures and invariants.

use proptest::prelude::*;

use bgsim::tlb::{Tlb, TlbEntry, LARGE_PAGE_SIZES};
use ciod::vfs::Vfs;
use ciod::{wire, IoProxy};
use cnk::futex::FutexTable;
use cnk::mem::tracker::{ArenaTracker, GRAIN};
use cnk::mem::{partition_node, ProcRequirements, RegionKind};
use sysabi::{Errno, Fd, OpenFlags, Prot, SeekWhence, SysReq, SysRet, Tid};

// ---- partitioner -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any satisfiable requirements, the static map covers every
    /// requested region, regions never overlap (virtually or physically,
    /// except the deliberately shared window), every page is naturally
    /// aligned, and the TLB budget is respected.
    #[test]
    fn partitioner_invariants(
        text_mb in 1u64..64,
        data_mb in 1u64..32,
        heap_mb in 1u64..512,
        shared_mb in 1u64..64,
        dyn_mb in prop_oneof![Just(0u64), 1u64..128],
        ppn in prop_oneof![Just(1u32), Just(2u32), Just(4u32)],
        budget in 24usize..64,
    ) {
        let req = ProcRequirements {
            text_bytes: text_mb << 20,
            data_bytes: data_mb << 20,
            heap_stack_bytes: heap_mb << 20,
            shared_bytes: shared_mb << 20,
            dynamic_bytes: dyn_mb << 20,
        };
        let maps = match partition_node(&req, ppn, 2 << 30, 16 << 20, 64 << 20, budget) {
            Ok(m) => m,
            Err(_) => return Ok(()), // unsatisfiable is a legal outcome
        };
        prop_assert_eq!(maps.len(), ppn as usize);
        let mut phys_private: Vec<(u64, u64)> = Vec::new();
        for m in &maps {
            prop_assert!(m.tlb_entries <= budget);
            // Coverage: each region at least as large as asked.
            let checks = [
                (RegionKind::Text, req.text_bytes),
                (RegionKind::Data, req.data_bytes),
                (RegionKind::HeapStack, req.heap_stack_bytes),
                (RegionKind::Shared, req.shared_bytes),
            ];
            for (kind, want) in checks {
                let r = m.region(kind).unwrap();
                prop_assert!(r.bytes >= want, "{:?} {} < {}", kind, r.bytes, want);
            }
            if req.dynamic_bytes > 0 {
                prop_assert!(m.region(RegionKind::Dynamic).is_some());
            }
            // No virtual overlap within a process.
            let mut vr: Vec<(u64, u64)> = m.regions.iter().map(|r| (r.vaddr, r.vend())).collect();
            vr.sort_unstable();
            for w in vr.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "virtual overlap {:?}", w);
            }
            // Page alignment, both address spaces.
            for r in &m.regions {
                let total: u64 = r.pages.iter().map(|(ps, _)| ps).sum();
                prop_assert_eq!(total, r.bytes);
                for &(ps, va) in &r.pages {
                    prop_assert!(LARGE_PAGE_SIZES.contains(&ps));
                    prop_assert_eq!(va % ps, 0);
                    prop_assert_eq!((r.paddr + (va - r.vaddr)) % ps, 0);
                }
            }
            for r in m.regions.iter().filter(|r| r.kind != RegionKind::Shared) {
                phys_private.push((r.paddr, r.paddr + r.bytes));
            }
        }
        // No physical overlap among private regions across processes.
        phys_private.sort_unstable();
        for w in phys_private.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "physical overlap {:?}", w);
        }
        // Shared window identical in every process.
        let s0 = maps[0].region(RegionKind::Shared).unwrap();
        for m in &maps[1..] {
            let s = m.region(RegionKind::Shared).unwrap();
            prop_assert_eq!(s.paddr, s0.paddr);
            prop_assert_eq!(s.vaddr, s0.vaddr);
        }
    }
}

// ---- arena tracker -----------------------------------------------------------

#[derive(Clone, Debug)]
enum TrackOp {
    Mmap(u64),
    Munmap(usize),
    Brk(u64),
    Mprotect(usize),
}

fn track_op() -> impl Strategy<Value = TrackOp> {
    prop_oneof![
        (1u64..64).prop_map(|g| TrackOp::Mmap(g * GRAIN)),
        any::<usize>().prop_map(TrackOp::Munmap),
        (0u64..128).prop_map(|g| TrackOp::Brk(g * GRAIN)),
        any::<usize>().prop_map(TrackOp::Mprotect),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random op sequences: allocations never overlap each other or the
    /// brk arena; full teardown coalesces everything back.
    #[test]
    fn tracker_no_overlap_and_coalesce(ops in prop::collection::vec(track_op(), 1..60)) {
        const LO: u64 = 0x1000_0000;
        const HI: u64 = 0x1400_0000; // 64 MiB arena
        let mut t = ArenaTracker::new(LO, HI);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                TrackOp::Mmap(len) => {
                    if let Ok(addr) = t.mmap(len, Prot::READ | Prot::WRITE) {
                        // New allocation must not overlap any live one.
                        for &(a, l) in &live {
                            prop_assert!(addr + len <= a || a + l <= addr,
                                "overlap: new {:#x}+{:#x} vs {:#x}+{:#x}", addr, len, a, l);
                        }
                        prop_assert!(addr >= t.brk_addr());
                        prop_assert!(addr + len <= HI);
                        live.push((addr, len));
                    }
                }
                TrackOp::Munmap(i) => {
                    if !live.is_empty() {
                        let (a, l) = live.remove(i % live.len());
                        prop_assert!(t.munmap(a, l).is_ok());
                    }
                }
                TrackOp::Brk(off) => {
                    let _ = t.brk(LO + off);
                    // brk never crosses an allocation.
                    for &(a, _) in &live {
                        prop_assert!(t.brk_addr() <= a);
                    }
                }
                TrackOp::Mprotect(i) => {
                    if !live.is_empty() {
                        let (a, l) = live[i % live.len()];
                        prop_assert!(t.mprotect(a, l, Prot::READ).is_ok());
                    }
                }
            }
        }
        // Free everything: allocated byte count returns to zero and a
        // maximal allocation succeeds (free space fully coalesced).
        for (a, l) in live.drain(..) {
            t.munmap(a, l).unwrap();
        }
        prop_assert_eq!(t.allocated_bytes(), 0);
        let brk = t.brk_addr();
        let big = HI - brk;
        prop_assert!(t.mmap(big, Prot::READ).is_ok(), "arena fragmented after full free");
    }
}

// ---- futex table ------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The futex table never loses or duplicates a waiter.
    #[test]
    fn futex_conservation(
        ops in prop::collection::vec((0u64..8, 0u32..3, 1u32..5), 1..80)
    ) {
        let mut f = FutexTable::new();
        let mut parked: std::collections::HashSet<u32> = Default::default();
        let mut next_tid = 0u32;
        let mut woken_total = 0usize;
        for (key, op, n) in ops {
            match op {
                0 => {
                    // wait
                    f.wait(key, Tid(next_tid), u32::MAX);
                    parked.insert(next_tid);
                    next_tid += 1;
                }
                1 => {
                    // wake n
                    let woken = f.wake(key, n, u32::MAX);
                    for t in &woken {
                        prop_assert!(parked.remove(&t.0), "woke unknown tid {t}");
                    }
                    woken_total += woken.len();
                }
                _ => {
                    // requeue to key+1
                    let (woken, _moved) = f.requeue(key, 1, n, key + 1);
                    for t in &woken {
                        prop_assert!(parked.remove(&t.0));
                    }
                    woken_total += woken.len();
                }
            }
            prop_assert_eq!(f.total_waiters(), parked.len(), "waiter count diverged");
        }
        // Drain: everyone still parked is wakeable exactly once.
        for key in 0..16u64 {
            woken_total += f.wake(key, u32::MAX, u32::MAX).len();
        }
        prop_assert_eq!(woken_total, next_tid as usize);
        prop_assert_eq!(f.total_waiters(), 0);
    }
}

// ---- wire codec ---------------------------------------------------------------

fn arb_io_req() -> impl Strategy<Value = SysReq> {
    let path = "[a-z/._-]{1,40}";
    prop_oneof![
        (path, any::<u32>(), any::<u32>()).prop_map(|(p, f, m)| SysReq::Open {
            path: p,
            flags: OpenFlags(f & 0o203777),
            mode: m & 0o777,
        }),
        any::<i32>().prop_map(|fd| SysReq::Close { fd: Fd(fd) }),
        (any::<i32>(), any::<u64>()).prop_map(|(fd, len)| SysReq::Read { fd: Fd(fd), len }),
        (any::<i32>(), prop::collection::vec(any::<u8>(), 0..2048))
            .prop_map(|(fd, data)| SysReq::Write { fd: Fd(fd), data }),
        (any::<i32>(), any::<i64>(), 0u32..3).prop_map(|(fd, off, w)| SysReq::Lseek {
            fd: Fd(fd),
            offset: off,
            whence: SeekWhence::from_code(w).unwrap(),
        }),
        path.prop_map(|p| SysReq::Stat { path: p }),
        (path, path).prop_map(|(a, b)| SysReq::Rename { from: a, to: b }),
        Just(SysReq::Getcwd),
        (any::<i32>(), any::<u64>(), any::<u64>()).prop_map(|(fd, len, off)| SysReq::Pread {
            fd: Fd(fd),
            len,
            offset: off,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every I/O request round-trips the wire bit-exactly.
    #[test]
    fn wire_roundtrip(req in arb_io_req()) {
        let bytes = wire::encode_req(&req);
        let back = wire::decode_req(&bytes).unwrap();
        prop_assert_eq!(req, back);
    }

    /// Decoding never panics on arbitrary bytes.
    #[test]
    fn wire_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::decode_req(&bytes);
        let _ = wire::decode_ret(&bytes);
    }
}

// ---- TLB ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pinned entries survive arbitrary fill pressure, and a hit after a
    /// fill translates consistently.
    #[test]
    fn tlb_pinned_survive_pressure(
        fills in prop::collection::vec((0u64..1024, 0u64..1024), 1..200)
    ) {
        let mut t = Tlb::new(16);
        // Pin a 16 MB entry.
        t.pin(TlbEntry { vaddr: 0, paddr: 0, size: 16 << 20, pinned: true }).unwrap();
        for (v, p) in fills {
            let e = TlbEntry {
                vaddr: (64 + v) << 20,
                paddr: (64 + p) << 20,
                size: 1 << 20,
                pinned: false,
            };
            let _ = t.fill(e);
            prop_assert!(t.peek(0x100).is_some(), "pinned entry evicted");
            prop_assert!(t.len() <= t.capacity());
        }
    }
}

// ---- machine-level determinism ---------------------------------------------

/// A random op program (restricted to ops that cannot deadlock).
fn arb_program() -> impl Strategy<Value = Vec<u8>> {
    // Encode ops as small integers; decoded inside the workload closure.
    prop::collection::vec(0u8..7, 1..25)
}

fn decode_op(code: u8, step: u64) -> bgsim::Op {
    use bgsim::op::{CommOp, Op};
    use sysabi::{Fd, SysReq};
    match code {
        0 => Op::Compute {
            cycles: 1_000 + step * 37,
        },
        1 => Op::Daxpy {
            n: 256,
            reps: 1 + step % 7,
        },
        2 => Op::Stream {
            bytes: 4096 + step * 512,
        },
        3 => Op::Flops {
            flops: 10_000 + step * 99,
        },
        4 => Op::Syscall(SysReq::Gettid),
        5 => Op::Syscall(SysReq::Write {
            fd: Fd::STDOUT,
            data: vec![b'x'; 16 + step as usize],
        }),
        _ => Op::Comm(CommOp::Allreduce { bytes: 8 }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §III as a fuzzed property: any program, same seed ⇒ bit-identical
    /// trace digest and end cycle, on both kernels.
    #[test]
    fn machine_is_deterministic_for_any_program(
        prog in arb_program(),
        seed in 0u64..1000,
        kernel_pick in any::<bool>(),
    ) {
        let run = |prog: Vec<u8>| -> Result<(u64, u64), TestCaseError> {
            let kernel: Box<dyn bgsim::Kernel> = if kernel_pick {
                Box::new(Cnk::with_defaults())
            } else {
                Box::new(Fwk::with_defaults())
            };
            let mut m = bgsim::machine::Machine::new(
                MachineConfig::nodes(2).with_seed(seed).with_trace(),
                kernel,
                Box::new(dcmf::Dcmf::with_defaults()),
            );
            m.boot();
            m.launch(
                &sysabi::JobSpec::new(
                    sysabi::AppImage::static_test("fuzz"),
                    2,
                    sysabi::NodeMode::Smp,
                ),
                &mut |_r: sysabi::Rank| {
                    let prog = prog.clone();
                    let mut i = 0usize;
                    bgsim::script::wl(move |env| {
                        let _ = env.take_ret();
                        if i >= prog.len() {
                            return bgsim::Op::End;
                        }
                        let op = decode_op(prog[i], i as u64);
                        i += 1;
                        op
                    })
                },
            )
            .unwrap();
            let out = m.run();
            prop_assert!(out.completed(), "{out:?}");
            Ok((out.at(), m.trace_digest()))
        };

        let a = run(prog.clone())?;
        let b = run(prog)?;
        prop_assert_eq!(a, b, "nondeterminism detected");
    }

    /// The event-reduction fast path as a fuzzed property: any program,
    /// either kernel, sequential or windowed driver — retiring
    /// completions through the micro run queue must be bit-identical
    /// (trace digest and final cycle) to draining them through the heap.
    #[test]
    fn fast_path_digest_identical_for_any_program(
        prog in arb_program(),
        seed in 0u64..1000,
        kernel_pick in any::<bool>(),
        windowed in any::<bool>(),
    ) {
        let run = |prog: Vec<u8>, fast: bool| -> Result<(u64, u64), TestCaseError> {
            let kernel: Box<dyn bgsim::Kernel> = if kernel_pick {
                Box::new(Cnk::with_defaults())
            } else {
                Box::new(Fwk::with_defaults())
            };
            let mut m = bgsim::machine::Machine::new(
                MachineConfig::nodes(2)
                    .with_seed(seed)
                    .with_trace()
                    .with_fast_path(fast),
                kernel,
                Box::new(dcmf::Dcmf::with_defaults()),
            );
            m.boot();
            m.launch(
                &sysabi::JobSpec::new(
                    sysabi::AppImage::static_test("fuzz"),
                    2,
                    sysabi::NodeMode::Smp,
                ),
                &mut |_r: sysabi::Rank| {
                    let prog = prog.clone();
                    let mut i = 0usize;
                    bgsim::script::wl(move |env| {
                        let _ = env.take_ret();
                        if i >= prog.len() {
                            return bgsim::Op::End;
                        }
                        let op = decode_op(prog[i], i as u64);
                        i += 1;
                        op
                    })
                },
            )
            .unwrap();
            let out = if windowed { m.run_windowed() } else { m.run() };
            prop_assert!(out.completed(), "{out:?}");
            Ok((out.at(), m.trace_digest()))
        };

        let on = run(prog.clone(), true)?;
        let off = run(prog, false)?;
        prop_assert_eq!(on, off, "fast path diverged (windowed={})", windowed);
    }
}

use bgsim::MachineConfig;
use cnk::Cnk;
use fwk::Fwk;

// ---- fault injection ---------------------------------------------------------

fn arb_fault_schedule() -> impl Strategy<Value = bgsim::FaultSchedule> {
    use bgsim::{FaultEvent, FaultKind};
    let kind = (0usize..FaultKind::ALL.len()).prop_map(|i| FaultKind::ALL[i]);
    prop::collection::vec((100_000u64..8_000_000, 0u32..2, kind, any::<u64>()), 0..6).prop_map(
        |evs| {
            let mut s = bgsim::FaultSchedule::default();
            for (at, node, kind, raw) in evs {
                // Keep each kind's argument in its meaningful range.
                let arg = match kind {
                    FaultKind::TorusDrop => 10_000 + raw % 300_000,
                    FaultKind::CollDrop | FaultKind::CollDelay => 50_000 + raw % 1_000_000,
                    FaultKind::MachineCheck => raw % 4,
                    FaultKind::GuardStorm => 1 + raw % 40,
                    _ => 0,
                };
                s.push(FaultEvent {
                    at,
                    node,
                    kind,
                    arg,
                });
            }
            s
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RAS determinism: ANY fault schedule — drops, corruptions,
    /// machine checks, guard storms — yields bit-identical trace
    /// digests and final cycles across the sequential driver, the
    /// windowed conservative driver, and a 4-thread shard pool. A
    /// faulted run may legitimately not complete (machine checks kill
    /// jobs); it must still end at the same cycle with the same digest.
    #[test]
    fn fault_schedule_is_driver_invariant(
        sched in arb_fault_schedule(),
        seed in 0u64..100,
        prog in arb_program(),
    ) {
        let run = |windowed: bool| {
            let sched = sched.clone();
            let prog = prog.clone();
            let mut m = bgsim::machine::Machine::new(
                MachineConfig::nodes(2)
                    .with_seed(seed)
                    .with_trace()
                    .with_faults(sched),
                Box::new(Cnk::with_defaults()),
                Box::new(dcmf::Dcmf::with_defaults()),
            );
            m.boot();
            m.launch(
                &sysabi::JobSpec::new(
                    sysabi::AppImage::static_test("fault-fuzz"),
                    2,
                    sysabi::NodeMode::Smp,
                ),
                &mut |_r: sysabi::Rank| {
                    let prog = prog.clone();
                    let mut i = 0usize;
                    bgsim::script::wl(move |env| {
                        let _ = env.take_ret();
                        if i >= prog.len() {
                            return bgsim::Op::End;
                        }
                        let op = decode_op(prog[i], i as u64);
                        i += 1;
                        op
                    })
                },
            )
            .unwrap();
            let out = if windowed { m.run_windowed() } else { m.run() };
            (out.at(), m.trace_digest())
        };

        let seq = run(false);
        let win = run(true);
        prop_assert_eq!(seq, win, "windowed driver diverged under faults");
        // 4 identical shards on a 4-thread pool: every worker must
        // reproduce the sequential result exactly.
        let jobs: Vec<_> = (0..4).map(|_| || run(false)).collect();
        for (i, r) in bench::par::run_shards(4, jobs).into_iter().enumerate() {
            prop_assert_eq!(seq, r, "shard {} diverged under faults", i);
        }
    }
}

// ---- profiler neutrality ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observability must be free: the cycle-accounting profiler, on or
    /// off, cannot change the trace digest or final cycle; and the
    /// profile counters themselves are identical across the sequential
    /// driver, the windowed driver, and a 4-thread shard pool.
    #[test]
    fn profiler_is_digest_neutral_and_mode_invariant(
        prog in arb_program(),
        seed in 0u64..1000,
        kernel_pick in any::<bool>(),
    ) {
        let run = |windowed: bool, profiler: bool| {
            let prog = prog.clone();
            let kernel: Box<dyn bgsim::Kernel> = if kernel_pick {
                Box::new(Cnk::with_defaults())
            } else {
                Box::new(Fwk::with_defaults())
            };
            let mut m = bgsim::machine::Machine::new(
                MachineConfig::nodes(2)
                    .with_seed(seed)
                    .with_trace()
                    .with_profiler(profiler),
                kernel,
                Box::new(dcmf::Dcmf::with_defaults()),
            );
            m.boot();
            m.launch(
                &sysabi::JobSpec::new(
                    sysabi::AppImage::static_test("prof-fuzz"),
                    2,
                    sysabi::NodeMode::Smp,
                ),
                &mut |_r: sysabi::Rank| {
                    let prog = prog.clone();
                    let mut i = 0usize;
                    bgsim::script::wl(move |env| {
                        let _ = env.take_ret();
                        if i >= prog.len() {
                            return bgsim::Op::End;
                        }
                        let op = decode_op(prog[i], i as u64);
                        i += 1;
                        op
                    })
                },
            )
            .unwrap();
            let out = if windowed { m.run_windowed() } else { m.run() };
            (out.at(), m.trace_digest(), m.profile_snapshot())
        };

        let on = run(false, true);
        let off = run(false, false);
        prop_assert_eq!((on.0, on.1), (off.0, off.1), "profiler changed the simulation");
        prop_assert!(!off.2.enabled, "with_profiler(false) run still profiled");
        prop_assert!(on.2.enabled, "default-on profiler was off");
        let win = run(true, true);
        prop_assert_eq!((on.0, on.1), (win.0, win.1), "windowed driver diverged");
        prop_assert_eq!(&on.2, &win.2, "profile counters differ across drivers");
        // Shard pool: every worker reproduces the same snapshot.
        let jobs: Vec<_> = (0..4).map(|_| || run(false, true)).collect();
        for (i, r) in bench::par::run_shards(4, jobs).into_iter().enumerate() {
            prop_assert_eq!((on.0, on.1), (r.0, r.1), "shard {} digest diverged", i);
            prop_assert_eq!(&on.2, &r.2, "shard {} profile counters diverged", i);
        }
    }
}

// ---- engine-optimization equivalence ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The event-engine optimizations are pure host-performance tuning:
    /// for ANY program, seed, and kernel, every cell of the
    /// {sequential,windowed} × {closed-form,per-tick} grid must produce
    /// the same final cycle, the same trace digest, and bit-identical
    /// profile.* counters. Closed-form noise in particular must be
    /// indistinguishable from the per-tick reference sampler it
    /// replaces — same RNG draws, same wakeups, same spans.
    #[test]
    fn engine_optimizations_are_digest_and_profile_neutral(
        prog in arb_program(),
        seed in 0u64..1000,
        kernel_pick in any::<bool>(),
    ) {
        let run = |windowed: bool, closed_form: bool| {
            let prog = prog.clone();
            let kernel: Box<dyn bgsim::Kernel> = if kernel_pick {
                Box::new(Cnk::with_defaults())
            } else {
                Box::new(Fwk::with_defaults())
            };
            let mut m = bgsim::machine::Machine::new(
                MachineConfig::nodes(2)
                    .with_seed(seed)
                    .with_trace()
                    .with_closed_form_noise(closed_form),
                kernel,
                Box::new(dcmf::Dcmf::with_defaults()),
            );
            m.boot();
            m.launch(
                &sysabi::JobSpec::new(
                    sysabi::AppImage::static_test("engine-fuzz"),
                    2,
                    sysabi::NodeMode::Smp,
                ),
                &mut |_r: sysabi::Rank| {
                    let prog = prog.clone();
                    let mut i = 0usize;
                    bgsim::script::wl(move |env| {
                        let _ = env.take_ret();
                        if i >= prog.len() {
                            return bgsim::Op::End;
                        }
                        let op = decode_op(prog[i], i as u64);
                        i += 1;
                        op
                    })
                },
            )
            .unwrap();
            let out = if windowed { m.run_windowed() } else { m.run() };
            (out.at(), m.trace_digest(), m.profile_snapshot())
        };

        let oracle = run(false, true);
        for (windowed, closed_form) in [(false, false), (true, true), (true, false)] {
            let got = run(windowed, closed_form);
            prop_assert_eq!(
                (oracle.0, oracle.1),
                (got.0, got.1),
                "windowed={}/closed_form={} diverged from sequential/closed-form",
                windowed,
                closed_form
            );
            prop_assert_eq!(
                &oracle.2,
                &got.2,
                "windowed={}/closed_form={} profile counters diverged",
                windowed,
                closed_form
            );
        }
    }
}

// ---- live progress hook neutrality --------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The live progress hook is observability, not physics: for ANY
    /// generated program, kernel, and execution mode, running with a
    /// progress sink attached — at a hot (1k-cycle) or cold (64k-cycle)
    /// interval — must leave the outcome, final cycle, trace digest,
    /// and every profile.* counter bit-identical to the hook-free run.
    /// This is the contract that lets `bgserve` stream intra-run
    /// telemetry without forfeiting result-cache identity.
    #[test]
    fn progress_hook_is_digest_cycle_and_profile_neutral(
        seed in 0u64..500,
        kernel_pick in any::<bool>(),
        mode_idx in 0usize..8,
    ) {
        use bgcheck::runner::{
            run_mode_live, run_mode_with_profile, CheckKernel, LiveOpts, MODES,
        };
        use bgsim::machine::{ProgressCtl, ProgressReport, ProgressSink};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let p = bgcheck::program::generate(seed);
        let kernel = if kernel_pick { CheckKernel::Cnk } else { CheckKernel::Fwk };
        let mode = MODES[mode_idx % MODES.len()];
        let (base, base_prof) = run_mode_with_profile(&p, kernel, mode)
            .map_err(TestCaseError::fail)?;

        for interval in [1_000u64, 64_000] {
            let reports = Arc::new(AtomicU64::new(0));
            let counter = Arc::clone(&reports);
            let sink: Box<dyn ProgressSink> = Box::new(move |_rep: &ProgressReport| {
                counter.fetch_add(1, Ordering::Relaxed);
                ProgressCtl::Continue
            });
            let opts = LiveOpts {
                progress_cycles: Some(interval),
                ..Default::default()
            };
            let (live, live_prof) = run_mode_live(&p, kernel, mode, opts, Some(sink))
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(
                live.triple(),
                base.triple(),
                "progress interval {} changed the triple", interval
            );
            prop_assert_eq!(
                &live_prof,
                &base_prof,
                "progress interval {} changed profile counters", interval
            );
            if interval == 1_000 {
                prop_assert!(
                    reports.load(Ordering::Relaxed) >= 1,
                    "hot-interval run never reported progress"
                );
            }
        }
    }
}

// ---- VFS / ioproxy -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Writes then reads through an ioproxy return exactly what was
    /// written, at any offsets.
    #[test]
    fn proxy_write_read_consistent(
        chunks in prop::collection::vec((0u64..4096, prop::collection::vec(any::<u8>(), 1..128)), 1..20)
    ) {
        let mut vfs = Vfs::new();
        let mut proxy = IoProxy::new(0, 0, 0, &vfs);
        let fd = match proxy.execute(&mut vfs, &SysReq::Open {
            path: "/blob".into(),
            flags: OpenFlags::RDWR | OpenFlags::CREAT,
            mode: 0o644,
        }) {
            SysRet::Val(v) => Fd(v as i32),
            other => panic!("{other:?}"),
        };
        let mut model = std::collections::BTreeMap::<u64, u8>::new();
        for (off, data) in &chunks {
            let ret = proxy.execute(&mut vfs, &SysReq::Pwrite {
                fd,
                data: data.clone(),
                offset: *off,
            });
            prop_assert_eq!(ret, SysRet::Val(data.len() as i64));
            for (i, b) in data.iter().enumerate() {
                model.insert(off + i as u64, *b);
            }
        }
        let max_end = model.keys().next_back().copied().unwrap_or(0) + 1;
        let ret = proxy.execute(&mut vfs, &SysReq::Pread { fd, len: max_end, offset: 0 });
        let SysRet::Data(got) = ret else { panic!("pread failed") };
        prop_assert_eq!(got.len() as u64, max_end);
        for (i, b) in got.iter().enumerate() {
            let want = model.get(&(i as u64)).copied().unwrap_or(0);
            prop_assert_eq!(*b, want, "byte {} differs", i);
        }
    }

    /// Path resolution is stable under redundant separators and dots.
    #[test]
    fn vfs_path_normalization(
        dirs in prop::collection::vec("[a-z]{1,8}", 1..5),
        extra_slashes in 1usize..3,
    ) {
        let mut vfs = Vfs::new();
        let mut cur = vfs.root();
        for d in &dirs {
            cur = match vfs.mkdir_at(cur, d, 0o755, 0, 0) {
                Ok(i) => i,
                Err(Errno::EEXIST) => vfs.resolve(cur, d).unwrap(),
                Err(e) => panic!("{e}"),
            };
        }
        let sep = "/".repeat(extra_slashes);
        let plain = format!("/{}", dirs.join("/"));
        let noisy = format!("{sep}{}{sep}", dirs.join(&sep));
        let dotty = format!("/{}", dirs.join("/./"));
        let a = vfs.resolve(vfs.root(), &plain).unwrap();
        prop_assert_eq!(vfs.resolve(vfs.root(), &noisy).unwrap(), a);
        prop_assert_eq!(vfs.resolve(vfs.root(), &dotty).unwrap(), a);
        prop_assert_eq!(vfs.path_of(a).unwrap(), plain);
    }
}
