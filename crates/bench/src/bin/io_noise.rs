//! I/O offload vs compute noise (§IV.A): "the offload strategy performs
//! aggregation allowing a manageable number of filesystem clients, and
//! reduces the noise on the compute nodes."
//!
//! One thread on core 0 writes checkpoints continuously while cores 1-3
//! run FWQ samplers. On CNK the writes are function-shipped (the I/O
//! thread blocks; CIOD does the work on the I/O node). On the FWK the
//! writes dirty the local page cache, and the writeback daemon's scans
//! land on the compute cores — visible directly in the FWQ deltas.
//! Also prints the filesystem-client arithmetic of §VII.A.

use bench::stats::Summary;
use bench::table::render;
use bgsim::fault::FaultSpec;
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::telemetry::MetricsRegistry;
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use fwk::Fwk;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::fwq::{FwqConfig, FwqSampler};
use workloads::io_kernel::CheckpointApp;
use workloads::nptl::PthreadCreate;

/// One (kernel, io-mode) simulation's outputs: the FWQ sample recorder,
/// the telemetry registry, and the determinism/profile evidence.
struct IoRun {
    rec: Recorder,
    stats: MetricsRegistry,
    digest: u64,
    final_cycle: u64,
    events: u64,
    profile: bgsim::telemetry::ProfileSnapshot,
    tps: Vec<bgsim::telemetry::Tracepoint>,
}

fn run(kernel: Box<dyn bgsim::Kernel>, samples: u32, with_io: bool, faults: &FaultSpec) -> IoRun {
    let mut m = Machine::new(
        faults.apply(
            MachineConfig::single_node()
                .with_seed(0x10)
                .with_telemetry(),
        ),
        kernel,
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("io-fwq"), 1, NodeMode::Smp),
        &mut move |_r: Rank| {
            // Main thread (core 0): spawn FWQ samplers on cores 1-3,
            // then either checkpoint continuously or idle-compute.
            let rec = rec2.clone();
            let mut creates: Vec<PthreadCreate> = (1..4)
                .map(|core| {
                    PthreadCreate::new(
                        Box::new(FwqSampler::new(
                            FwqConfig::quick(samples),
                            rec.clone(),
                            core,
                        )),
                        Some(core),
                    )
                })
                .collect();
            let mut io: Option<CheckpointApp> = None;
            let mut done_spawning = false;
            bgsim::script::wl(move |env| {
                if !done_spawning {
                    while let Some(c) = creates.first_mut() {
                        if let Some(op) = c.step(env) {
                            return op;
                        }
                        let finished = creates.remove(0);
                        assert!(finished.created.is_some(), "{:?}", finished.error);
                    }
                    done_spawning = true;
                    if with_io {
                        io = Some(CheckpointApp::new(0, 10, Recorder::new()));
                    }
                }
                match io.as_mut() {
                    Some(app) => app.next(env),
                    // No-I/O control: just park until the samplers are
                    // done (cheap compute keeps the thread alive).
                    None => bgsim::op::Op::End,
                }
            }) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed() || faults.is_active(), "{out:?}");
    let tps = m.sc.tel.events().to_vec();
    let stats = m.sc.tel.take_metrics();
    IoRun {
        rec,
        stats,
        digest: m.trace_digest(),
        final_cycle: out.at(),
        events: m.sc.engine.processed(),
        profile: m.profile_snapshot(),
        tps,
    }
}

fn main() {
    let cli = bench::cli::Cli::parse(&[bench::cli::Shared::Faults]);
    let samples = cli.pos(0).unwrap_or(4_000u32);
    let faults = cli.fault_spec_for(1); // single-node runs
    println!("== §IV.A: concurrent checkpoint I/O vs FWQ noise on cores 1-3 ==\n");
    let mut report = bench::report::Report::new("io_noise");
    let mut merged_profile = bgsim::telemetry::ProfileSnapshot::default();
    let mut trace_parts: Vec<(String, String)> = Vec::new();
    let (mut total_cycles, mut total_events) = (0u64, 0u64);
    let t0 = std::time::Instant::now();
    let mut rows = Vec::new();
    for (kname, mk) in [
        (
            "CNK",
            Box::new(|| Box::new(Cnk::with_defaults()) as Box<dyn bgsim::Kernel>)
                as Box<dyn Fn() -> Box<dyn bgsim::Kernel>>,
        ),
        (
            "Linux",
            Box::new(|| Box::new(Fwk::with_defaults()) as Box<dyn bgsim::Kernel>),
        ),
    ] {
        for with_io in [false, true] {
            let r = run(mk(), samples, with_io, &faults);
            let mode = if with_io { "checkpointing" } else { "quiet" };
            let key = format!("{}.{mode}", kname.to_lowercase());
            // Per-run telemetry (RAS/retry counters show up here on a
            // `--fault-seed` run; `ci/perf_smoke.sh` greps for them).
            report.registry(&key, r.stats);
            report.string(&format!("digest.{key}"), &format!("{:016x}", r.digest));
            merged_profile.merge(&r.profile);
            total_cycles += r.final_cycle;
            total_events += r.events;
            trace_parts.push((key.clone(), bgsim::telemetry::chrome_trace_json(&r.tps)));
            let mut row = vec![kname.to_string(), mode.to_string()];
            for core in 1..4 {
                let s = Summary::of(&r.rec.series(&format!("fwq_core{core}")));
                report.scalar(&format!("{key}.core{core}.max_delta"), s.max - s.min);
                row.push(format!("{:.0}", s.max - s.min));
            }
            rows.push(row);
        }
    }
    println!(
        "{}",
        render(
            &[
                "kernel",
                "core 0 activity",
                "core1 max delta",
                "core2 max delta",
                "core3 max delta"
            ],
            &rows
        )
    );
    println!("\nCNK: the I/O thread blocks while CIOD works on the I/O node — the compute");
    println!("cores' noise is unchanged. Linux: the writes dirty the page cache and the");
    println!("writeback scans land on the compute cores.\n");

    println!("filesystem-client arithmetic (§VII.A, \"two orders of magnitude\"):");
    let mut rows = Vec::new();
    for (nodes, ratio) in [(1024u32, 16u32), (4096, 64), (36_864, 128)] {
        rows.push(vec![
            format!("{nodes}"),
            format!("{ratio}:1"),
            format!("{nodes}"),
            format!("{}", nodes.div_ceil(ratio)),
            format!("{}x", ratio),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "compute nodes",
                "pset ratio",
                "Linux clients",
                "CNK clients (IONs)",
                "reduction"
            ],
            &rows
        )
    );
    let parts: Vec<(&str, String)> = trace_parts
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    bench::report::emit_traces_or_exit(&cli, &parts);
    report.profile(&merged_profile);
    report.host_perf(1, t0.elapsed().as_secs_f64(), total_cycles, total_events);
    report.host_mem(1);
    report.emit_or_exit(&cli);
}
