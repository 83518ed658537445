//! Kernel-level noise injection on CNK (the §I research hook, using the
//! methodology of the Ferreira et al. study the paper cites).
//!
//! A bulk-synchronous app (compute quantum + allreduce per iteration)
//! runs on a noise-free CNK and on CNKs with injected noise of equal
//! *intensity* (0.1% of CPU) but different granularity: fine/frequent vs
//! coarse/rare. The §V.A amplification effect appears directly: the same
//! average noise hurts more when each event is long, and the penalty
//! grows with node count because every collective waits for the unluckiest
//! rank ("at large scale many nodes compound the delay").

use bench::table::render;
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::noise::NoiseSource;
use bgsim::op::{CommOp, Op};
use bgsim::script::wl;
use bgsim::MachineConfig;
use cnk::{Cnk, CnkConfig};
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};

/// Run the BSP loop; returns (total cycles, the finished machine).
fn bsp_runtime(nodes: u32, noise: Vec<NoiseSource>, iters: u32) -> (u64, Machine) {
    let cfg = CnkConfig {
        injected_noise: noise,
        ..CnkConfig::default()
    };
    let mut m = Machine::new(
        MachineConfig::nodes(nodes)
            .with_seed(0x1723)
            .with_telemetry(),
        Box::new(Cnk::new(cfg)),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("bsp"), nodes, NodeMode::Smp),
        &mut move |r: Rank| {
            let rec = rec2.clone();
            let mut i = 0;
            let mut t0 = None;
            wl(move |env| {
                if t0.is_none() {
                    t0 = Some(env.now());
                }
                i += 1;
                if i > 2 * iters {
                    if r.0 == 0 {
                        rec.record("total", (env.now() - t0.unwrap()) as f64);
                    }
                    return Op::End;
                }
                if i % 2 == 1 {
                    // 1 ms work quantum.
                    Op::Compute { cycles: 850_000 }
                } else {
                    Op::Comm(CommOp::Allreduce { bytes: 8 })
                }
            }) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    (rec.series("total")[0] as u64, m)
}

fn main() {
    let cli = bench::cli::Cli::parse(&[]);
    let iters = cli.pos(0).unwrap_or(1500u32);
    println!("== Noise injection on CNK: same 0.1% intensity, different granularity ==");
    println!("   (BSP loop: 1 ms compute + allreduce, {iters} iterations)\n");

    // Equal 0.1% intensity at three granularities.
    let profiles: Vec<(&str, Vec<NoiseSource>)> = vec![
        ("no noise", vec![]),
        (
            "fine:   0.1 us @ 10 kHz",
            vec![NoiseSource::injection(10_000.0, 0.1)],
        ),
        (
            "medium: 10 us @ 100 Hz",
            vec![NoiseSource::injection(100.0, 10.0)],
        ),
        (
            "coarse: 1000 us @ 1 Hz",
            vec![NoiseSource::injection(1.0, 1000.0)],
        ),
    ];

    let node_counts = [1u32, 4, 16, 64];
    let mut report = bench::report::Report::new("noise_injection");
    let mut merged_profile = bgsim::telemetry::ProfileSnapshot::default();
    let (mut total_cycles, mut total_events) = (0u64, 0u64);
    let t0 = std::time::Instant::now();
    let mut rows = Vec::new();
    let mut base: Vec<u64> = Vec::new();
    for (name, noise) in &profiles {
        let key = name
            .split(':')
            .next()
            .unwrap()
            .to_lowercase()
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        let mut row = vec![name.to_string()];
        for (i, &n) in node_counts.iter().enumerate() {
            let (t, m) = bsp_runtime(n, noise.clone(), iters);
            merged_profile.merge(&m.profile_snapshot());
            total_cycles += t;
            total_events += m.sc.engine.processed();
            if noise.is_empty() && n == 64 {
                report.string("digest.no_noise_64", &format!("{:016x}", m.trace_digest()));
                // Representative trace: the noise-free 64-node run.
                bench::report::emit_traces_or_exit(
                    &cli,
                    &[("", bgsim::telemetry::chrome_trace_json(m.sc.tel.events()))],
                );
            }
            if base.len() <= i {
                base.push(t);
            }
            let slowdown = (t as f64 / base[i] as f64 - 1.0) * 100.0;
            report.scalar(&format!("{key}.nodes{n}.slowdown_pct"), slowdown);
            row.push(format!("{slowdown:+.2}%"));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("injected noise".to_string())
        .chain(node_counts.iter().map(|n| format!("{n} nodes")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("{}", render(&header_refs, &rows));
    println!("slowdown relative to the noise-free run at each scale.");
    println!("reading: identical average intensity, very different application impact —");
    println!("fine noise is absorbed, coarse noise is amplified by the collectives, and");
    println!("the penalty grows with node count (§V.A; Petrini et al.; Ferreira et al.).");
    report.profile(&merged_profile);
    report.host_perf(1, t0.elapsed().as_secs_f64(), total_cycles, total_events);
    report.host_mem(64);
    report.emit_or_exit(&cli);
}
