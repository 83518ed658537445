//! §V.D: mpiBench_Allreduce repeatability.
//!
//! Paper: a double-sum allreduce on 16 CNK nodes over 1M iterations gave
//! a standard deviation of 0.0007 µs (effectively zero); the same test on
//! 4 Linux nodes over 10 GbE for 100k iterations gave 8.9 µs.

use std::time::Instant;

use bench::harness::{allreduce_run, KernelKind, SimRun};
use bench::par::run_shards;
use bench::stats::Summary;
use bench::table::render;

fn main() {
    let cli = bench::cli::Cli::parse(&[bench::cli::Shared::Threads]);
    // Iteration counts scaled down 20x by default; pass an arg to raise.
    let scale: u32 = cli.pos(0).unwrap_or(20);
    let cnk_iters = 1_000_000 / scale;
    let fwk_iters = 100_000 / scale;
    println!("== §V.D: mpiBench_Allreduce stability ==\n");

    // The two kernel runs are independent simulations: shard them.
    let t0 = Instant::now();
    type Shard = Box<dyn FnOnce() -> (Vec<f64>, SimRun) + Send>;
    let jobs: Vec<Shard> = vec![
        Box::new(move || allreduce_run(KernelKind::Cnk, 16, cnk_iters, 0xA11)),
        Box::new(move || allreduce_run(KernelKind::Fwk, 4, fwk_iters, 0xA11)),
    ];
    let mut results = run_shards(cli.threads, jobs);
    let wall = t0.elapsed().as_secs_f64();
    let (fwk, fwk_run) = results.pop().expect("fwk shard");
    let (cnk, cnk_run) = results.pop().expect("cnk shard");
    let sc = Summary::of(&cnk);
    let sf = Summary::of(&fwk);
    let mut report = bench::report::Report::new("stability_allreduce");
    report.scalar("cnk.iterations", cnk_iters as f64);
    report.scalar("cnk.mean_us", sc.mean);
    report.scalar("cnk.stddev_us", sc.stddev);
    report.scalar("linux.iterations", fwk_iters as f64);
    report.scalar("linux.mean_us", sf.mean);
    report.scalar("linux.stddev_us", sf.stddev);
    report.string("digest.cnk", &format!("{:016x}", cnk_run.digest));
    report.string("digest.linux", &format!("{:016x}", fwk_run.digest));
    let mut merged_profile = cnk_run.profile.clone();
    merged_profile.merge(&fwk_run.profile);
    report.profile(&merged_profile);
    bench::report::emit_traces_or_exit(
        &cli,
        &[
            ("cnk", bgsim::telemetry::chrome_trace_json(&cnk_run.tps)),
            ("linux", bgsim::telemetry::chrome_trace_json(&fwk_run.tps)),
        ],
    );
    report.host_perf(
        cli.threads,
        wall,
        cnk_run.final_cycle + fwk_run.final_cycle,
        cnk_run.events + fwk_run.events,
    );
    let rows = vec![
        vec![
            "CNK, 16 nodes (tree)".to_string(),
            format!("{cnk_iters}"),
            format!("{:.3}", sc.mean),
            format!("{:.5}", sc.stddev),
            "0.0007".to_string(),
        ],
        vec![
            "Linux, 4 nodes (10GbE)".to_string(),
            format!("{fwk_iters}"),
            format!("{:.3}", sf.mean),
            format!("{:.3}", sf.stddev),
            "8.9".to_string(),
        ],
    ];
    println!(
        "{}",
        render(
            &[
                "configuration",
                "iterations",
                "mean us",
                "stddev us",
                "paper stddev us"
            ],
            &rows
        )
    );
    if sc.stddev == 0.0 {
        println!("\nCNK stddev is exactly 0 — the paper's 0.0007 us was itself \"effectively");
        println!("0, likely a floating point precision error\" (§V.D).");
    } else {
        println!(
            "\nstability ratio (Linux stddev / CNK stddev): {:.0}x",
            sf.stddev / sc.stddev
        );
    }
    report.host_mem(16);
    report.emit_or_exit(&cli);
}
