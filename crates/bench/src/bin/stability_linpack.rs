//! §V.D: 36 runs of LINPACK — performance stability on CNK.
//!
//! Paper: "Each rack produced 11.94 TFLOPS. The execution time varied
//! from 16080.89 seconds to 16083.00 seconds, for a maximum variation of
//! 2.11 seconds (.01%) ... and a standard deviation of less than 1.14
//! seconds." We run a scaled-down problem 36 times with different seeds
//! (re-rolling the physical-world randomness per run) on both kernels.

use bench::harness::{linpack_run, KernelKind};
use bench::stats::Summary;
use bench::table::render;
use bgsim::telemetry::ProfileSnapshot;
use workloads::linpack::LinpackConfig;

fn main() {
    let cli = bench::cli::Cli::parse(&[]);
    let runs: u64 = cli.pos(0).unwrap_or(36);
    let nodes = 16;
    let cfg = LinpackConfig {
        n: 8192,
        nb: 128,
        ranks: nodes,
    };
    println!(
        "== §V.D: LINPACK stability, {runs} runs, {nodes} nodes, N={} ==\n",
        cfg.n
    );

    let mut report = bench::report::Report::new("stability_linpack");
    let mut merged_profile = ProfileSnapshot::default();
    let mut trace_parts: Vec<(&str, String)> = Vec::new();
    let (mut total_cycles, mut total_events) = (0u64, 0u64);
    let t0 = std::time::Instant::now();
    let mut rows = Vec::new();
    for kind in [KernelKind::Cnk, KernelKind::Fwk] {
        let key = kind.label().to_lowercase();
        let mut times = Vec::new();
        for s in 0..runs {
            let (secs, run) = linpack_run(kind, nodes, cfg, 0xB00 + s);
            times.push(secs);
            merged_profile.merge(&run.profile);
            total_cycles += run.final_cycle;
            total_events += run.events;
            if s == 0 {
                // Determinism evidence and one representative trace per
                // kernel (the seed-0xB00 run).
                report.string(&format!("digest.{key}"), &format!("{:016x}", run.digest));
                trace_parts.push((
                    if kind == KernelKind::Cnk {
                        "cnk"
                    } else {
                        "linux"
                    },
                    bgsim::telemetry::chrome_trace_json(&run.tps),
                ));
            }
        }
        let sum = Summary::of(&times);
        report.scalar(&format!("{key}.min_s"), sum.min);
        report.scalar(&format!("{key}.max_s"), sum.max);
        report.scalar(&format!("{key}.spread_s"), sum.max - sum.min);
        report.scalar(
            &format!("{key}.max_variation_pct"),
            sum.max_variation_frac() * 100.0,
        );
        report.scalar(&format!("{key}.stddev_s"), sum.stddev);
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.6}", sum.min),
            format!("{:.6}", sum.max),
            format!("{:.2e}", sum.max - sum.min),
            format!("{:.2e}%", sum.max_variation_frac() * 100.0),
            format!("{:.2e}", sum.stddev),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "kernel",
                "min s",
                "max s",
                "spread s",
                "max variation",
                "stddev s"
            ],
            &rows
        )
    );
    println!(
        "paper (CNK, full rack, 4h28m runs): spread 2.11 s of 16082 s = 0.013%, stddev < 1.14 s"
    );
    println!("the reproduction's CNK variation should sit near 0.01% and far below Linux's.");
    bench::report::emit_traces_or_exit(&cli, &trace_parts);
    report.profile(&merged_profile);
    report.host_perf(1, t0.elapsed().as_secs_f64(), total_cycles, total_events);
    report.host_mem(16);
    report.emit_or_exit(&cli);
}
