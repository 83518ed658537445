//! Table I: latency for various programming models in SMP mode.

use bench::cli::Cli;
use bench::harness::{measure_latency_run, LatencyRow};
use bench::report::Report;
use bench::table::render;
use bgsim::telemetry::ProfileSnapshot;

fn main() {
    let cli = Cli::parse(&[]);
    println!("== Table I: Latency for various programming models (SMP mode) ==\n");
    let mut report = Report::new("table1_latency");
    let mut merged_profile = ProfileSnapshot::default();
    let mut trace_parts: Vec<(String, String)> = Vec::new();
    let (mut total_cycles, mut total_events) = (0u64, 0u64);
    let t0 = std::time::Instant::now();
    let rows: Vec<Vec<String>> = LatencyRow::ALL
        .iter()
        .map(|&row| {
            let (got, run) = measure_latency_run(row);
            let want = row.paper_us();
            let key = row
                .label()
                .to_lowercase()
                .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
            report.scalar(&format!("{key}.measured_us"), got);
            report.scalar(&format!("{key}.paper_us"), want);
            report.string(&format!("digest.{key}"), &format!("{:016x}", run.digest));
            merged_profile.merge(&run.profile);
            total_cycles += run.final_cycle;
            total_events += run.events;
            trace_parts.push((key, bgsim::telemetry::chrome_trace_json(&run.tps)));
            vec![
                row.label().to_string(),
                format!("{want:.1}"),
                format!("{got:.2}"),
                format!("{:+.1}%", (got - want) / want * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["Protocol", "paper us", "measured us", "error"], &rows)
    );
    println!("2 nodes, nearest neighbors, 8-byte payload, CNK capabilities.");
    let parts: Vec<(&str, String)> = trace_parts
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    bench::report::emit_traces_or_exit(&cli, &parts);
    report.profile(&merged_profile);
    report.host_perf(1, t0.elapsed().as_secs_f64(), total_cycles, total_events);
    report.host_mem(2);
    report.emit_or_exit(&cli);
}
