//! Weak-scaling sweep of the rack-scale memory layout (ROADMAP #1).
//!
//! §VI: one CNK image per compute node means the *simulator* must hold
//! rack-scale per-node state — 4k nodes is a rack, 36k a BG/L system,
//! 100k+ the full BG/P machine the paper's lessons target. This bin
//! boots the machine at a sweep of node counts, runs a short FWQ
//! quantum on every node (fixed work per node = weak scaling), and
//! records three things per count:
//!
//! * determinism evidence — the trace digest and final cycle, so CI can
//!   diff `--threads 1` against `--threads 4` shard pools;
//! * weak-scaling throughput — engine events/sec and node-cycles/sec on
//!   the host, the figure that must stay ~flat as nodes grow;
//! * memory — `Machine::resident_bytes_estimate()` and its per-node
//!   amortization, the SoA/slab layout's figure of merit.
//!
//! `ci/perf_smoke.sh` gates on the report; the checked-in
//! `BENCH_scale.json` is this bin's output on the reference host.
//!
//! Positional args override the sweep (`fig_scale 64 512`), which is
//! how the CI smoke leg keeps its runtime bounded.

use bench::cli::{Cli, Shared};
use bench::harness::{KernelKind, Tuning};
use bench::par::run_shards;
use bench::report::{peak_rss_bytes, Report};
use bench::table::render;
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::MachineConfig;
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::fwq::{FwqConfig, FwqSampler};

const SEED: u64 = 0x5CA1E;
/// FWQ quanta per node: enough to exercise the scheduler/compute path
/// on every node, short enough that 100k+ nodes stays a smoke-sized
/// run (weak scaling holds the per-node work fixed regardless).
const SAMPLES: u32 = 3;

struct ScaleRun {
    nodes: u32,
    digest: u64,
    final_cycle: u64,
    events: u64,
    wall_seconds: f64,
    resident_bytes: usize,
}

/// Boot `nodes` nodes, run one short FWQ quantum per node, return the
/// run's evidence.
fn scale_run(nodes: u32, tuning: &Tuning) -> ScaleRun {
    let mut m = Machine::new(
        tuning.apply(MachineConfig::nodes(nodes).with_seed(SEED)),
        KernelKind::Cnk.build(),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("fwq-scale"), nodes, NodeMode::Smp),
        &mut move |_r: Rank| {
            Box::new(FwqSampler::new(FwqConfig::quick(SAMPLES), rec2.clone(), 0))
                as Box<dyn Workload>
        },
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    let out = m.run();
    let wall_seconds = t0.elapsed().as_secs_f64();
    assert!(out.completed(), "FWQ scale run did not complete: {out:?}");
    ScaleRun {
        nodes,
        digest: m.trace_digest(),
        final_cycle: out.at(),
        events: m.sc.engine.processed(),
        wall_seconds,
        resident_bytes: m.resident_bytes_estimate(),
    }
}

fn human_bytes(b: f64) -> String {
    if b >= (1 << 30) as f64 {
        format!("{:.2} GiB", b / (1u64 << 30) as f64)
    } else if b >= (1 << 20) as f64 {
        format!("{:.2} MiB", b / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b / 1024.0)
    }
}

fn main() {
    let cli = Cli::parse(&[Shared::Threads, Shared::Tuning]);
    let counts: Vec<u32> = if cli.rest.is_empty() {
        vec![64, 1024, 4096, 32_768, 131_072]
    } else {
        cli.rest
            .iter()
            .map(|s| {
                s.replace('_', "").parse().unwrap_or_else(|_| {
                    eprintln!("error: bad node count {s:?}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let tuning = Tuning::from_cli(&cli);
    println!(
        "== Rack-scale weak scaling: {SAMPLES} FWQ quanta/node on CNK, {} ==\n",
        counts
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" / ")
    );

    let jobs: Vec<_> = counts
        .iter()
        .map(|&n| move || scale_run(n, &tuning))
        .collect();
    let runs = run_shards(cli.threads, jobs);

    let mut report = Report::new("fig_scale");
    let mut rows = Vec::new();
    let mut total_events = 0u64;
    let mut total_cycles = 0u64;
    let mut total_wall = 0.0f64;
    for r in &runs {
        let bytes_per_node = r.resident_bytes as f64 / r.nodes as f64;
        let events_per_sec = r.events as f64 / r.wall_seconds.max(1e-9);
        let node_cycles_per_sec = r.final_cycle as f64 * r.nodes as f64 / r.wall_seconds.max(1e-9);
        rows.push(vec![
            format!("{}", r.nodes),
            format!("{:016x}", r.digest),
            format!("{}", r.final_cycle),
            format!("{}", r.events),
            format!("{:.2e}", events_per_sec),
            human_bytes(r.resident_bytes as f64),
            format!("{:.0}", bytes_per_node),
        ]);
        let k = format!("scale.n{}", r.nodes);
        report.string(
            &format!("digest.n{}", r.nodes),
            &format!("{:016x}", r.digest),
        );
        report.scalar(&format!("final_cycle.n{}", r.nodes), r.final_cycle as f64);
        report.scalar(&format!("{k}.events"), r.events as f64);
        report.scalar(&format!("{k}.wall_seconds"), r.wall_seconds);
        report.scalar(&format!("{k}.events_per_sec"), events_per_sec);
        report.scalar(&format!("{k}.node_cycles_per_sec"), node_cycles_per_sec);
        report.scalar(&format!("{k}.resident_bytes"), r.resident_bytes as f64);
        report.scalar(&format!("{k}.bytes_per_node"), bytes_per_node);
        total_events += r.events;
        total_cycles = total_cycles.max(r.final_cycle);
        total_wall += r.wall_seconds;
    }
    println!(
        "{}",
        render(
            &[
                "nodes",
                "trace digest",
                "final cycle",
                "events",
                "events/s",
                "resident",
                "B/node",
            ],
            &rows
        )
    );

    report.scalar(
        "scale.max_nodes",
        counts.iter().copied().max().unwrap_or(0) as f64,
    );
    report.host_perf(cli.threads, total_wall, total_cycles, total_events);
    report.host_mem(counts.iter().copied().max().unwrap_or(0) as u64);
    println!(
        "\npeak host RSS: {} across the whole sweep",
        human_bytes(peak_rss_bytes() as f64)
    );
    bench::report::emit_traces_or_exit(&cli, &[("", bgsim::telemetry::chrome_trace_json(&[]))]);
    report.emit_or_exit(&cli);
}
