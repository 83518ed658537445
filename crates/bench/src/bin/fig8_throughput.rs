//! Figure 8: throughput of the rendezvous protocol for the near-neighbor
//! exchange, swept over message sizes, under CNK capabilities (zero-copy
//! user-space DMA over contiguous memory) and — as the §V.C contrast —
//! under vanilla-Linux capabilities (kernel-mediated injection, bounce
//! copies, per-page descriptors).
//!
//! Each (kernel, size) point is an independent deterministic
//! simulation, so the sweep shards across a host worker pool
//! (`--threads N`). With `--threads 1` every shard runs sequentially
//! with `Machine::run()`; with more threads, shards run concurrently
//! with the windowed conservative runner (`Machine::run_windowed`).
//! Both paths must produce bit-identical trace digests and final
//! cycles — the report carries per-shard digests plus a combined
//! digest so CI can diff the two modes.

use std::sync::Mutex;
use std::time::Instant;

use bench::cli::{Cli, Shared};
use bench::harness::{nn_throughput_run_tuned, KernelKind, SimRun, Tuning};
use bench::monitor::Monitor;
use bench::par::run_shards;
use bench::report::Report;
use bench::table::render;
use bgsim::telemetry::ProfileSnapshot;

fn main() {
    let cli = Cli::parse(&[
        Shared::Threads,
        Shared::Tuning,
        Shared::Faults,
        Shared::Monitor,
    ]);
    println!("== Fig. 8: rendezvous near-neighbor exchange throughput ==\n");
    let nodes = 64; // 4x4x4 torus: 6 distinct neighbors, the paper's case
    let sizes: Vec<u64> = (9..=22).map(|p| 1u64 << p).collect(); // 512 B .. 4 MB
    let threads = cli.threads;
    let windowed = threads > 1;
    let fast = cli.fast_path;
    let tuning = Tuning::from_cli(&cli);
    let faults = cli.fault_spec_for(nodes);

    // One shard per (size, kernel), claimed by index so results land in
    // deterministic order regardless of worker scheduling.
    let mut shards: Vec<(u64, KernelKind)> = Vec::new();
    for &bytes in &sizes {
        shards.push((bytes, KernelKind::Cnk));
        shards.push((bytes, KernelKind::Fwk));
    }
    // Live monitor: each finished shard merges its profile into the
    // accumulator and appends a snapshot line. Publish order follows
    // host completion (advisory only); the *final* line merges every
    // shard and merge is commutative, so its content is deterministic.
    let monitor: Option<Mutex<(Monitor, ProfileSnapshot, usize)>> =
        Monitor::from_cli_or_exit(&cli, "fig8_throughput")
            .map(|m| Mutex::new((m, ProfileSnapshot::default(), 0)));
    let total_shards = shards.len();
    let jobs: Vec<_> = shards
        .iter()
        .map(|&(bytes, kind)| {
            let faults = faults.clone();
            let monitor = &monitor;
            move || {
                let run =
                    nn_throughput_run_tuned(kind, nodes, bytes, 8, windowed, &tuning, &faults);
                if let Some(mon) = monitor {
                    let mut g = mon.lock().expect("monitor lock");
                    let (m, acc, done) = &mut *g;
                    acc.merge(&run.profile);
                    *done += 1;
                    let (done, acc) = (*done, acc.clone());
                    m.publish(done, total_shards, &acc);
                }
                run
            }
        })
        .collect();
    let t0 = Instant::now();
    let results: Vec<SimRun> = run_shards(threads, jobs);
    let wall = t0.elapsed().as_secs_f64();

    let mut report = Report::new("fig8_throughput");
    report.scalar("config.fast_path", if fast { 1.0 } else { 0.0 });
    report.scalar(
        "config.closed_form_noise",
        if tuning.closed_form_noise { 1.0 } else { 0.0 },
    );
    let mut rows = Vec::new();
    let mut nb_seen = 0;
    let mut all_digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut total_events = 0u64;
    let mut total_cycles = 0u64;
    for (i, &bytes) in sizes.iter().enumerate() {
        let cnk = &results[2 * i];
        let fwk = &results[2 * i + 1];
        nb_seen = cnk.neighbors;
        report.scalar(&format!("cnk.mbs.{bytes}"), cnk.mbs);
        report.scalar(&format!("linux_caps.mbs.{bytes}"), fwk.mbs);
        report.string(
            &format!("digest.cnk.{bytes}"),
            &format!("{:016x}", cnk.digest),
        );
        report.string(
            &format!("digest.linux_caps.{bytes}"),
            &format!("{:016x}", fwk.digest),
        );
        report.scalar(&format!("final_cycle.cnk.{bytes}"), cnk.final_cycle as f64);
        report.scalar(
            &format!("final_cycle.linux_caps.{bytes}"),
            fwk.final_cycle as f64,
        );
        let bar_len = (cnk.mbs / 60.0) as usize;
        rows.push(vec![
            human(bytes),
            format!("{:.0}", cnk.mbs),
            format!("{:.0}", fwk.mbs),
            "#".repeat(bar_len.min(60)),
        ]);
    }
    let mut merged_profile = ProfileSnapshot::default();
    for r in &results {
        all_digest ^= r.digest;
        all_digest = all_digest.wrapping_mul(0x0000_0100_0000_01b3);
        total_events += r.events;
        total_cycles += r.final_cycle;
        merged_profile.merge(&r.profile);
    }
    // Perfetto/Chrome traces, one per (kernel, size) shard.
    if cli.trace_out.is_some() {
        let suffixes: Vec<String> = shards
            .iter()
            .map(|&(bytes, kind)| {
                format!(
                    "{}.{bytes}",
                    match kind {
                        KernelKind::Cnk => "cnk",
                        _ => "linux_caps",
                    }
                )
            })
            .collect();
        let parts: Vec<(&str, String)> = suffixes
            .iter()
            .zip(&results)
            .map(|(s, r)| (s.as_str(), bgsim::telemetry::chrome_trace_json(&r.tps)))
            .collect();
        bench::report::emit_traces_or_exit(&cli, &parts);
    }
    println!(
        "{}",
        render(
            &["msg size", "CNK MB/s", "Linux-caps MB/s", "CNK throughput"],
            &rows
        )
    );
    let peak = 2.0 * nb_seen as f64 * 425.0;
    println!("hardware peak (6 links x 425 MB/s x 2 directions): {peak:.0} MB/s per node");
    println!("paper: DCMF reaches maximum bandwidth for large messages (Fig. 8 shape);");
    println!("       the Linux-capability curve shows what §V.C says would be lost without");
    println!("       user-space DMA over large physically contiguous memory.");
    println!(
        "host: {} shard(s) on {} thread(s), {:.3}s wall, {:.0} events/s, digest {:016x}",
        results.len(),
        threads,
        wall,
        if wall > 0.0 {
            total_events as f64 / wall
        } else {
            0.0
        },
        all_digest
    );
    report.scalar("peak_mbs", peak);
    report.string("digest.all", &format!("{all_digest:016x}"));
    report.profile(&merged_profile);
    report.host_perf(threads, wall, total_cycles, total_events);
    report.host_mem(64);
    report.emit_or_exit(&cli);
}

fn human(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{} MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{} KiB", b >> 10)
    } else {
        format!("{b} B")
    }
}
