//! §IV.A ablation: BG/P's dedicated per-process ioproxies vs a BG/L-style
//! serialized CIOD.
//!
//! "A key difference from BG/L is that on BG/P each MPI process has a
//! dedicated I/O proxy process ... increased the performance and
//! scalability of I/O." With one service thread per I/O node (BG/L
//! style), concurrent checkpoints from the pset queue behind each other;
//! with per-process proxies they are serviced in parallel.

use bench::stats::Summary;
use bench::table::render;
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::MachineConfig;
use cnk::{Cnk, CnkConfig};
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::io_kernel::CheckpointApp;

struct AblationRun {
    samples: Vec<f64>,
    digest: u64,
    final_cycle: u64,
    events: u64,
    profile: bgsim::telemetry::ProfileSnapshot,
    tps: Vec<bgsim::telemetry::Tracepoint>,
}

fn run(nodes: u32, bgl: bool) -> AblationRun {
    let mut mcfg = MachineConfig::nodes(nodes)
        .with_seed(0x10B)
        .with_telemetry();
    mcfg.io_ratio = nodes; // one ION for the whole pset: worst case
    let kcfg = CnkConfig {
        bgl_io_mode: bgl,
        ..CnkConfig::default()
    };
    let mut m = Machine::new(
        mcfg,
        Box::new(Cnk::new(kcfg)),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("ckpt"), nodes, NodeMode::Smp),
        &mut move |r: Rank| Box::new(CheckpointApp::new(r.0, 3, rec2.clone())) as Box<dyn Workload>,
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    AblationRun {
        samples: (0..nodes)
            .flat_map(|r| rec.series(&format!("ckpt_io_cycles_rank{r}")))
            .collect(),
        digest: m.trace_digest(),
        final_cycle: out.at(),
        events: m.sc.engine.processed(),
        profile: m.profile_snapshot(),
        tps: m.sc.tel.events().to_vec(),
    }
}

fn main() {
    let cli = bench::cli::Cli::parse(&[]);
    println!("== §IV.A ablation: per-process ioproxies (BG/P) vs serialized CIOD (BG/L) ==");
    println!("   (every rank checkpoints simultaneously through one I/O node)\n");
    let mut report = bench::report::Report::new("io_proxy_ablation");
    let mut merged_profile = bgsim::telemetry::ProfileSnapshot::default();
    let mut trace_parts: Vec<(&str, String)> = Vec::new();
    let (mut total_cycles, mut total_events) = (0u64, 0u64);
    let t0 = std::time::Instant::now();
    let mut rows = Vec::new();
    for nodes in [2u32, 4, 8, 16] {
        let bgp_run = run(nodes, false);
        let bgl_run = run(nodes, true);
        let bgp = Summary::of(&bgp_run.samples);
        let bgl = Summary::of(&bgl_run.samples);
        for (style, r) in [("bgp", &bgp_run), ("bgl", &bgl_run)] {
            report.string(
                &format!("digest.{style}.{nodes}"),
                &format!("{:016x}", r.digest),
            );
            merged_profile.merge(&r.profile);
            total_cycles += r.final_cycle;
            total_events += r.events;
        }
        if nodes == 16 {
            // Representative traces: the largest pset, both styles.
            trace_parts.push(("bgp", bgsim::telemetry::chrome_trace_json(&bgp_run.tps)));
            trace_parts.push(("bgl", bgsim::telemetry::chrome_trace_json(&bgl_run.tps)));
        }
        report.scalar(&format!("bgp_us_per_ckpt.{nodes}"), bgp.mean / 850.0);
        report.scalar(&format!("bgl_us_per_ckpt.{nodes}"), bgl.mean / 850.0);
        rows.push(vec![
            nodes.to_string(),
            format!("{:.0}", bgp.mean / 850.0),
            format!("{:.0}", bgl.mean / 850.0),
            format!("{:.1}x", bgl.mean / bgp.mean),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "ranks per ION",
                "BG/P-style us/ckpt",
                "BG/L-style us/ckpt",
                "slowdown"
            ],
            &rows
        )
    );
    println!("the 1-to-1 proxy mapping keeps checkpoint latency flat as the pset grows;");
    println!("the serialized daemon degrades linearly — the §IV.A design change.");
    bench::report::emit_traces_or_exit(&cli, &trace_parts);
    report.profile(&merged_profile);
    report.host_perf(1, t0.elapsed().as_secs_f64(), total_cycles, total_events);
    report.host_mem(16);
    report.emit_or_exit(&cli);
}
