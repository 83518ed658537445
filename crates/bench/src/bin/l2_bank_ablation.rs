//! §III ablation: application sensitivity to the L2 bank mapping.
//!
//! "CNK enabled application kernels to be run with varied mappings of
//! code and data memory traffic to the L2 cache banks, allowing
//! measurement of cache effects ... Using these controls also enabled
//! verification of the logic, and measurement of performance, in the
//! presence of artificially created conflicts."
//!
//! Runs a 4-core streaming kernel under each mapping and reports the
//! slowdown relative to the production interleaved mapping.

use bench::table::render;
use bgsim::ade::FixedLatencyComm;
use bgsim::config::L2BankMap;
use bgsim::machine::{Machine, Workload};
use bgsim::op::Op;
use bgsim::script::script;
use bgsim::MachineConfig;
use cnk::Cnk;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};

fn run(map: L2BankMap, streams: u32) -> (u64, Machine) {
    let mut cfg = MachineConfig::single_node().with_seed(3).with_telemetry();
    cfg.chip.l2_bank_map = map;
    // Model concurrent streams through the shared-cost function directly:
    // run one VN-mode rank per core, each streaming.
    let mut m = Machine::new(
        cfg,
        Box::new(Cnk::with_defaults()),
        Box::new(FixedLatencyComm::new()),
    );
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("stream"), 1, NodeMode::Vn),
        &mut move |r: Rank| -> Box<dyn Workload> {
            if r.0 < streams {
                script(vec![Op::Stream { bytes: 64 << 20 }])
            } else {
                script(vec![])
            }
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed());
    (out.at(), m)
}

fn main() {
    let cli = bench::cli::Cli::parse(&[]);
    println!("== §III: L2 bank-mapping sensitivity (64 MiB stream per core) ==\n");
    // The per-op stream cost model includes the conflict factor via the
    // chip configuration; show both the cost-model view and the end-to-
    // end run.
    let chip_base = bgsim::ChipConfig::bgp();
    let mut report = bench::report::Report::new("l2_bank_ablation");
    let mut merged_profile = bgsim::telemetry::ProfileSnapshot::default();
    let mut trace_parts: Vec<(String, String)> = Vec::new();
    let (mut total_cycles, mut total_events) = (0u64, 0u64);
    let t0 = std::time::Instant::now();
    let mut rows = Vec::new();
    for map in [
        L2BankMap::Interleaved,
        L2BankMap::Blocked,
        L2BankMap::ConflictStress,
    ] {
        let mut chip = chip_base.clone();
        chip.l2_bank_map = map;
        let model_1 = bgsim::chip::stream_cycles(&chip, 64 << 20, 1);
        let model_4 = bgsim::chip::stream_cycles(&chip, 64 << 20, 4);
        let (run_cycles, m) = run(map, 4);
        let key = format!("{map:?}").to_lowercase();
        report.string(
            &format!("digest.{key}"),
            &format!("{:016x}", m.trace_digest()),
        );
        merged_profile.merge(&m.profile_snapshot());
        total_cycles += run_cycles;
        total_events += m.sc.engine.processed();
        trace_parts.push((
            key.clone(),
            bgsim::telemetry::chrome_trace_json(m.sc.tel.events()),
        ));
        report.scalar(&format!("{key}.stream1_cycles"), model_1 as f64);
        report.scalar(&format!("{key}.stream4_cycles"), model_4 as f64);
        report.scalar(&format!("{key}.end_to_end_cycles"), run_cycles as f64);
        rows.push(vec![
            format!("{map:?}"),
            format!("{model_1}"),
            format!("{model_4}"),
            format!("{:.1}%", (model_4 as f64 / model_1 as f64 - 1.0) * 100.0),
            format!("{run_cycles}"),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "bank map",
                "1-stream cycles",
                "4-stream cycles",
                "conflict penalty",
                "end-to-end"
            ],
            &rows
        )
    );
    println!("the ConflictStress mapping is the verification configuration that creates");
    println!("artificial bank conflicts; Interleaved is the tuned production choice.");
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
