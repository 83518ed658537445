//! The simulation workloads: machines built through `bgsim`'s public
//! API, timed phase by phase.

use std::time::Instant;

use bench::harness::KernelKind;
use bench::stats::Summary;
use bgsim::machine::Recorder;
use bgsim::telemetry::DOMAIN_COUNT;
use bgsim::{Domain, Machine, MachineConfig, Workload};
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeId, NodeMode, Rank};
use workloads::fwq::{FwqConfig, FwqSampler};
use workloads::linpack::{LinpackConfig, LinpackRank};
use workloads::nn_exchange::NnExchange;

use crate::layers::{self, LayerTimes, TimedComm, TimedKernel, TimedWorkload};
use crate::spans::SpanLog;
use crate::{Bench, Checks, Metrics, PassKind, PassOut};

/// One machine to build and run.
pub struct MachineSpec {
    pub cfg: MachineConfig,
    pub kernel: KernelKind,
    pub job: JobSpec,
    pub factory: Box<dyn FnMut(Rank) -> Box<dyn Workload>>,
    /// Shared with the factory's workloads; handed back in the output.
    pub rec: Recorder,
}

/// What one machine produced, and where its host time went.
pub struct MachineOut {
    pub kernel: KernelKind,
    pub new_s: f64,
    pub boot_s: f64,
    pub launch_s: f64,
    pub run_s: f64,
    pub drop_s: f64,
    pub completed: bool,
    pub digest: u64,
    pub final_cycle: u64,
    pub events: u64,
    /// Profiler events per domain (per-node heat is not kept: at
    /// 131k nodes it would grow the process by megabytes per pass).
    pub domain_events: [u64; DOMAIN_COUNT],
    pub resident_bytes: usize,
    pub layers: LayerTimes,
    pub rec: Recorder,
}

/// Build, boot, launch, run and drop one machine. `traced` wraps the
/// kernel, the comm model and every workload in delegating timers.
pub fn run_machine(mut ms: MachineSpec, traced: bool, spans: &mut SpanLog) -> MachineOut {
    let parent = spans.open("machine");
    let t = Instant::now();
    let kernel: Box<dyn bgsim::Kernel> = if traced {
        Box::new(TimedKernel::new(ms.kernel))
    } else {
        ms.kernel.build()
    };
    let comm: Box<dyn bgsim::CommModel> = if traced {
        Box::new(TimedComm(Box::new(Dcmf::with_defaults())))
    } else {
        Box::new(Dcmf::with_defaults())
    };
    let mut m = Machine::new(ms.cfg, kernel, comm);
    let t_new = Instant::now();
    m.boot();
    let t_boot = Instant::now();
    let launched = if traced {
        let f = &mut ms.factory;
        m.launch(&ms.job, &mut |r: Rank| {
            Box::new(TimedWorkload(f(r))) as Box<dyn Workload>
        })
    } else {
        m.launch(&ms.job, &mut ms.factory)
    };
    let t_launch = Instant::now();
    let _ = layers::take();
    let out = launched.map(|_| m.run());
    let t_run = Instant::now();
    let layer_times = layers::take();
    let completed = matches!(&out, Ok(o) if o.completed());
    let final_cycle = out.as_ref().map_or(0, |o| o.at());
    let digest = m.trace_digest();
    let events = m.sc.engine.processed();
    let domain_events = m.profile_snapshot().domains.map(|d| d.events);
    let resident_bytes = m.resident_bytes_estimate();
    let t_probe = Instant::now();
    drop(m);
    let t_drop = Instant::now();
    spans.record("machine.new", parent, t, t_new);
    spans.record("machine.boot", parent, t_new, t_boot);
    spans.record("machine.launch", parent, t_boot, t_launch);
    spans.record("machine.run", parent, t_launch, t_run);
    spans.record("machine.drop", parent, t_probe, t_drop);
    spans.close(parent, t, t_drop);
    MachineOut {
        kernel: ms.kernel,
        new_s: (t_new - t).as_secs_f64(),
        boot_s: (t_boot - t_new).as_secs_f64(),
        launch_s: (t_launch - t_boot).as_secs_f64(),
        run_s: (t_run - t_launch).as_secs_f64(),
        drop_s: (t_drop - t_probe).as_secs_f64(),
        completed,
        digest,
        final_cycle,
        events,
        domain_events,
        resident_bytes,
        layers: layer_times,
        rec: ms.rec,
    }
}

/// Per-pass sums behind the simulation per-layer metrics.
#[derive(Default)]
struct SimLayers {
    new_s: f64,
    boot_s: f64,
    launch_s: f64,
    run_s: f64,
    drop_s: f64,
    events: u64,
    domain_events: [u64; DOMAIN_COUNT],
    resident_bytes: usize,
    layers: LayerTimes,
}

impl SimLayers {
    fn add(&mut self, o: &MachineOut) {
        self.new_s += o.new_s;
        self.boot_s += o.boot_s;
        self.launch_s += o.launch_s;
        self.run_s += o.run_s;
        self.drop_s += o.drop_s;
        self.events += o.events;
        for (sum, e) in self.domain_events.iter_mut().zip(o.domain_events) {
            *sum += e;
        }
        self.resident_bytes = self.resident_bytes.max(o.resident_bytes);
        self.layers.add(&o.layers);
    }
}

/// A pinned expectation for one machine's outputs.
pub struct Pin {
    pub label: String,
    pub digest: u64,
    pub final_cycle: Option<u64>,
}

/// The machines of one seed, run back to back.
pub type SeedRuns = Vec<MachineSpec>;

/// A check over one pass's outputs, seed by seed.
type PassCheck = Box<dyn Fn(&[Vec<MachineOut>]) -> Result<(), String>>;

/// A simulation workload: its seeded run set and its checks.
pub struct SimBench {
    pass_s: f64,
    /// Builds one pass's machines, seed by seed; the flag turns
    /// telemetry on.
    seeds: Box<dyn Fn(bool) -> Vec<SeedRuns>>,
    /// Telemetry setting of the figure this workload reproduces.
    telemetry: bool,
    /// Machines run once before timing and checked against pins.
    gate: Box<dyn Fn() -> Vec<(MachineSpec, Pin)>>,
    /// A larger run set, run once before timing, that `check` must
    /// pass as well as every pass.
    full_set: Option<Box<dyn Fn() -> Vec<SeedRuns>>>,
    check: PassCheck,
    /// The first pass's fingerprint: later passes must repeat it.
    reference: Option<Vec<u64>>,
    /// Per-pass layer sums of the untraced and the traced passes.
    plain: Vec<SimLayers>,
    traced: Vec<SimLayers>,
    /// The last telemetry twin's wall time, until the untraced pass
    /// run right after it, and the on-minus-off differences of such
    /// pairs.
    twin: Option<f64>,
    on_off: Vec<f64>,
}

impl SimBench {
    fn new(
        pass_s: f64,
        seeds: Box<dyn Fn(bool) -> Vec<SeedRuns>>,
        telemetry: bool,
        gate: Box<dyn Fn() -> Vec<(MachineSpec, Pin)>>,
        full_set: Option<Box<dyn Fn() -> Vec<SeedRuns>>>,
        check: PassCheck,
    ) -> SimBench {
        SimBench {
            pass_s,
            seeds,
            telemetry,
            gate,
            full_set,
            check,
            reference: None,
            plain: Vec::new(),
            traced: Vec::new(),
            twin: None,
            on_off: Vec::new(),
        }
    }
}

impl Bench for SimBench {
    fn pass_s(&self) -> f64 {
        self.pass_s
    }

    fn prepare(&mut self, checks: &mut Checks, spans: &mut SpanLog) {
        for (ms, pin) in (self.gate)() {
            let out = run_machine(ms, false, spans);
            let ok = out.completed
                && out.digest == pin.digest
                && pin.final_cycle.is_none_or(|c| c == out.final_cycle);
            checks.op(ok, || {
                format!(
                    "pin {}: digest {:016x} cycle {} (completed {}), pinned {:016x} cycle {:?}",
                    pin.label,
                    out.digest,
                    out.final_cycle,
                    out.completed,
                    pin.digest,
                    pin.final_cycle
                )
            });
        }
        if let Some(full) = &self.full_set {
            let outs: Vec<Vec<MachineOut>> = full()
                .into_iter()
                .map(|runs| {
                    runs.into_iter()
                        .map(|ms| run_machine(ms, false, spans))
                        .collect()
                })
                .collect();
            let r = (self.check)(&outs);
            checks.op(r.is_ok(), || format!("full run set: {}", r.unwrap_err()));
        }
    }

    fn pass(&mut self, kind: PassKind, checks: &mut Checks, spans: &mut SpanLog) -> PassOut {
        let telemetry = match kind {
            PassKind::Twin => !self.telemetry,
            _ => self.telemetry,
        };
        let traced = kind == PassKind::Traced;
        let pass_span = spans.open("pass");
        let t0 = Instant::now();
        let mut sums = SimLayers::default();
        let mut outs = Vec::new();
        let mut fingerprint = Vec::new();
        for runs in (self.seeds)(telemetry) {
            let mut seed_outs = Vec::with_capacity(runs.len());
            for ms in runs {
                let o = run_machine(ms, traced, spans);
                checks.op(o.completed, || "a machine did not complete".to_string());
                fingerprint.push(o.digest);
                fingerprint.push(o.final_cycle);
                sums.add(&o);
                seed_outs.push(o);
            }
            outs.push(seed_outs);
        }
        spans.close(pass_span, t0, Instant::now());
        if let Err(e) = (self.check)(&outs) {
            checks.op(false, || e);
        }
        match &self.reference {
            None => self.reference = Some(fingerprint),
            Some(r) => checks.op(*r == fingerprint, || {
                format!("{kind:?} pass did not reproduce the first pass's digests")
            }),
        }
        // The user's job is regenerating the whole figure: one pass.
        // Single runs are bimodal (CNK ~1 ms, FWK ~90 ms in LINPACK),
        // so no percentile is taken over them.
        let setup_s = sums.new_s + sums.boot_s + sums.launch_s;
        let wall_s = sums.run_s + sums.drop_s;
        let out = PassOut {
            setup_s,
            wall_s,
            jobs: vec![setup_s + wall_s],
            ..PassOut::default()
        };
        eprintln!(
            "{kind:?} pass: setup {setup_s:.4} s, run+drop {wall_s:.4} s, {} events",
            sums.events
        );
        match kind {
            PassKind::Plain => {
                if let Some(twin) = self.twin.take() {
                    let d = out.wall_s - twin;
                    self.on_off.push(if self.telemetry { d } else { -d });
                }
                self.plain.push(sums);
            }
            PassKind::Traced => self.traced.push(sums),
            PassKind::Twin => self.twin = Some(out.wall_s),
        }
        out
    }

    fn finish(&mut self, _checks: &mut Checks, _spans: &mut SpanLog) {}

    fn layer_metrics(&self, m: &mut Metrics) {
        let med = |f: &dyn Fn(&SimLayers) -> f64| crate::median_of(&self.traced, f);
        let plain = |f: &dyn Fn(&SimLayers) -> f64| crate::median_of(&self.plain, f);
        let run_s = med(&|s| s.run_s);
        let self_s = med(&|s| s.run_s - s.layers.total_s());
        let events = med(&|s| s.events as f64);
        m.put("bgsim.run_s", run_s, "s");
        m.put("bgsim.self_s", self_s, "s");
        m.put("bgsim.events", events, "count");
        m.put(
            "bgsim.self_ns_per_event",
            self_s / events.max(1.0) * 1e9,
            "ns",
        );
        for d in [
            Domain::EngineHeap,
            Domain::FastPath,
            Domain::Sched,
            Domain::Torus,
            Domain::Collective,
        ] {
            let v = med(&|s| s.domain_events[d as usize] as f64);
            m.put(&format!("profile.{}.events", d.label()), v, "count");
        }
        m.put("bgsim.new_s", plain(&|s| s.new_s), "s");
        m.put("bgsim.boot_s", plain(&|s| s.boot_s), "s");
        m.put("bgsim.launch_s", plain(&|s| s.launch_s), "s");
        m.put("bgsim.drop_s", plain(&|s| s.drop_s), "s");
        m.put(
            "bgsim.resident_mb_est",
            plain(&|s| s.resident_bytes as f64) / 1e6,
            "MB",
        );
        for k in [KernelKind::Cnk, KernelKind::Fwk] {
            for class in crate::layers::KERNEL_BUCKETS {
                let v = med(&|s| s.layers.kernel_s(k, class));
                m.put(&format!("{}.{class}_s", layers::kernel_prefix(k)), v, "s");
            }
            let calls = med(&|s| s.layers.kernel_calls(k) as f64);
            m.put(
                &format!("{}.calls", layers::kernel_prefix(k)),
                calls,
                "count",
            );
        }
        m.put("dcmf.issue_s", med(&|s| s.layers.dcmf_issue_s()), "s");
        m.put("dcmf.deliver_s", med(&|s| s.layers.dcmf_deliver_s()), "s");
        m.put(
            "dcmf.calls",
            med(&|s| s.layers.dcmf_calls() as f64),
            "count",
        );
        m.put("workloads.next_s", med(&|s| s.layers.workload_s()), "s");
        m.put(
            "workloads.ops",
            med(&|s| s.layers.workload_calls() as f64),
            "count",
        );
        m.put(
            "telemetry.on_off_s",
            crate::stats::median(&self.on_off),
            "s",
        );
    }
}

// ---- linpack-stability ----------------------------------------------------

/// §V.D: LINPACK on 16 nodes, N=8192, NB=128, both kernels.
const LINPACK_NODES: u32 = 16;
/// Seeds per pass: four of §V.D's 36. As in `fig8-exchange`, the best
/// of many short passes repeats far better than the best of a few
/// passes over all 36 (spread 0.28 across ten seeds).
const LINPACK_SEEDS: u64 = 4;
/// §V.D's run set, checked once before timing.
const LINPACK_FULL_SEEDS: u64 = 36;
const LINPACK: LinpackConfig = LinpackConfig {
    n: 8192,
    nb: 128,
    ranks: LINPACK_NODES,
};
/// The stability figure's first seed, and its pinned digests.
const LINPACK_PIN_SEED: u64 = 0xB00;
const LINPACK_PIN_CNK: u64 = 0x5d89_e92a_13ae_e0e7;
const LINPACK_PIN_FWK: u64 = 0x3219_1ab1_7091_c470;

fn linpack_machine(kernel: KernelKind, seed: u64, telemetry: bool) -> MachineSpec {
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let cfg = MachineConfig::nodes(LINPACK_NODES).with_seed(seed);
    MachineSpec {
        cfg: if telemetry { cfg.with_telemetry() } else { cfg },
        kernel,
        job: JobSpec::new(AppImage::static_test("hpl"), LINPACK_NODES, NodeMode::Smp),
        factory: Box::new(move |r: Rank| {
            Box::new(LinpackRank::new(LINPACK, r.0, rec2.clone())) as Box<dyn Workload>
        }),
        rec,
    }
}

pub fn linpack_stability(seed: u64, tamper: bool) -> SimBench {
    let base = LINPACK_PIN_SEED.wrapping_add(seed.wrapping_mul(LINPACK_SEEDS));
    let pin_cnk = LINPACK_PIN_CNK ^ tamper as u64;
    let seed_runs = |first: u64, seeds: u64, telemetry: bool| -> Vec<SeedRuns> {
        (0..seeds)
            .map(|i| {
                let s = first.wrapping_add(i);
                vec![
                    linpack_machine(KernelKind::Cnk, s, telemetry),
                    linpack_machine(KernelKind::Fwk, s, telemetry),
                ]
            })
            .collect()
    };
    SimBench::new(
        0.625,
        Box::new(move |telemetry| seed_runs(base, LINPACK_SEEDS, telemetry)),
        true,
        Box::new(move || {
            vec![
                (
                    linpack_machine(KernelKind::Cnk, LINPACK_PIN_SEED, true),
                    Pin {
                        label: "linpack cnk seed 0xb00".into(),
                        digest: pin_cnk,
                        final_cycle: None,
                    },
                ),
                (
                    linpack_machine(KernelKind::Fwk, LINPACK_PIN_SEED, true),
                    Pin {
                        label: "linpack fwk seed 0xb00".into(),
                        digest: LINPACK_PIN_FWK,
                        final_cycle: None,
                    },
                ),
            ]
        }),
        Some(Box::new(move || {
            seed_runs(LINPACK_PIN_SEED, LINPACK_FULL_SEEDS, true)
        })),
        Box::new(|outs| {
            // §V.D: CNK's run-to-run variation sits below Linux's.
            let mut secs = [Vec::new(), Vec::new()];
            for o in outs.iter().flatten() {
                let t = o
                    .rec
                    .series("linpack_rank0")
                    .first()
                    .copied()
                    .unwrap_or(0.0);
                secs[(o.kernel == KernelKind::Fwk) as usize].push(t / 850e6);
            }
            let [cnk, fwk] = secs.map(|s| Summary::of(&s).max_variation_frac());
            if cnk < fwk {
                Ok(())
            } else {
                Err(format!(
                    "CNK max variation {:.3e}% is not below Linux's {:.3e}%",
                    cnk * 100.0,
                    fwk * 100.0
                ))
            }
        }),
    )
}

// ---- rack-131k ----------------------------------------------------------

/// The top point of the weak-scaling sweep: CNK FWQ, 3 quanta per node.
const RACK_NODES: u32 = 131_072;
const RACK_SAMPLES: u32 = 3;
const RACK_SEED: u64 = 0x5CA1E;
const RACK_PIN_DIGEST: u64 = 0xd2b1_25ad_299f_d507;
const RACK_PIN_CYCLE: u64 = 1_976_991;

fn rack_machine(seed: u64, telemetry: bool) -> MachineSpec {
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let cfg = MachineConfig::nodes(RACK_NODES).with_seed(seed);
    MachineSpec {
        cfg: if telemetry { cfg.with_telemetry() } else { cfg },
        kernel: KernelKind::Cnk,
        job: JobSpec::new(
            AppImage::static_test("fwq-scale"),
            RACK_NODES,
            NodeMode::Smp,
        ),
        factory: Box::new(move |_r: Rank| {
            Box::new(FwqSampler::new(
                FwqConfig::quick(RACK_SAMPLES),
                rec2.clone(),
                0,
            )) as Box<dyn Workload>
        }),
        rec,
    }
}

pub fn rack_131k(seed: u64, tamper: bool) -> SimBench {
    let machine_seed = RACK_SEED.wrapping_add(seed);
    let pin = RACK_PIN_DIGEST ^ tamper as u64;
    SimBench::new(
        3.0,
        Box::new(move |telemetry| vec![vec![rack_machine(machine_seed, telemetry)]]),
        false,
        Box::new(move || {
            vec![(
                rack_machine(RACK_SEED, false),
                Pin {
                    label: "rack-131k".into(),
                    digest: pin,
                    final_cycle: Some(RACK_PIN_CYCLE),
                },
            )]
        }),
        None,
        Box::new(|_| Ok(())),
    )
}

// ---- fig8-exchange --------------------------------------------------------

/// Fig. 8: rendezvous near-neighbour exchange on the 4x4x4 torus,
/// 512 B .. 4 MiB, CNK and Linux capabilities.
const FIG8_NODES: u32 = 64;
const FIG8_PIN_SEED: u64 = 8;
/// Seeds per pass. A short pass, repeated many times in a run: on a
/// shared host the best of many short passes repeats far better than
/// the best of a few long ones.
const FIG8_SEEDS: u64 = 4;

fn fig8_sizes() -> impl Iterator<Item = u64> {
    (9..=22).map(|p| 1u64 << p)
}

fn fig8_machine(kernel: KernelKind, bytes: u64, seed: u64, telemetry: bool) -> MachineSpec {
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let cfg = MachineConfig::nodes(FIG8_NODES).with_seed(seed);
    let torus = bgsim::torus::Torus::new(&cfg);
    let neighbors: Vec<Vec<Rank>> = (0..FIG8_NODES)
        .map(|n| {
            torus
                .neighbors(NodeId(n))
                .into_iter()
                .map(|x| Rank(x.0))
                .collect()
        })
        .collect();
    MachineSpec {
        cfg: if telemetry { cfg.with_telemetry() } else { cfg },
        kernel,
        job: JobSpec::new(AppImage::static_test("nn"), FIG8_NODES, NodeMode::Smp),
        factory: Box::new(move |r: Rank| {
            Box::new(NnExchange::new(
                r,
                neighbors[r.0 as usize].clone(),
                bytes,
                rec2.clone(),
            )) as Box<dyn Workload>
        }),
        rec,
    }
}

fn fig8_seed_runs(seed: u64, telemetry: bool) -> SeedRuns {
    fig8_sizes()
        .flat_map(|b| {
            [
                fig8_machine(KernelKind::Cnk, b, seed, telemetry),
                fig8_machine(KernelKind::Fwk, b, seed, telemetry),
            ]
        })
        .collect()
}

pub fn fig8_exchange(seed: u64, tamper: bool) -> SimBench {
    let base = FIG8_PIN_SEED.wrapping_add(seed.wrapping_mul(FIG8_SEEDS));
    SimBench::new(
        0.16,
        Box::new(move |telemetry| {
            (0..FIG8_SEEDS)
                .map(|i| fig8_seed_runs(base.wrapping_add(i), telemetry))
                .collect()
        }),
        true,
        Box::new(move || {
            fig8_seed_runs(FIG8_PIN_SEED, true)
                .into_iter()
                .zip(crate::pins::FIG8_SEED8.iter())
                .enumerate()
                .map(|(i, (ms, &(label, digest)))| {
                    let digest = digest ^ (tamper && i == 0) as u64;
                    let label = format!("fig8 seed 8 {label}");
                    let final_cycle = None;
                    (
                        ms,
                        Pin {
                            label,
                            digest,
                            final_cycle,
                        },
                    )
                })
                .collect()
        }),
        None,
        Box::new(|outs| {
            for job in outs {
                for (o, bytes) in job.iter().zip(fig8_sizes().flat_map(|b| [b, b])) {
                    if o.rec.series(&format!("nn_cycles_{bytes}")).is_empty() {
                        return Err(format!("exchange of {bytes} B recorded no time"));
                    }
                }
            }
            Ok(())
        }),
    )
}
