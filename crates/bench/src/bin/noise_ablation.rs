//! Ablation: which Linux noise source produces which part of Fig. 5?
//!
//! Runs FWQ with each noise source enabled alone, and with all sources
//! minus one, reporting the per-core maximum perturbation. This is the
//! analysis a kernel engineer would run to attribute the spikes.

use bench::stats::Summary;
use bench::table::render;
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::MachineConfig;
use dcmf::Dcmf;
use fwk::noise::linux_2_6_16_profile;
use fwk::{Fwk, FwkConfig};
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::fwq::{FwqConfig, FwqMain};

fn run_with(noise: Vec<fwk::noise::NoiseSource>, samples: u32) -> (Vec<f64>, u64, Machine) {
    let cfg = FwkConfig {
        noise,
        ..FwkConfig::default()
    };
    let mut m = Machine::new(
        MachineConfig::single_node()
            .with_seed(0xAB1A)
            .with_telemetry(),
        Box::new(Fwk::new(cfg)),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("fwq"), 1, NodeMode::Smp),
        &mut move |_r: Rank| {
            Box::new(FwqMain::new(FwqConfig::quick(samples), rec2.clone(), 4)) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed());
    let deltas = (0..4)
        .map(|c| {
            let s = Summary::of(&rec.series(&format!("fwq_core{c}")));
            s.max - s.min
        })
        .collect();
    (deltas, out.at(), m)
}

fn main() {
    let cli = bench::cli::Cli::parse(&[]);
    let samples = cli.pos(0).unwrap_or(4_000u32);
    println!("== Noise ablation: per-core max FWQ perturbation (cycles), {samples} samples ==\n");
    let profile = linux_2_6_16_profile();

    let mut report = bench::report::Report::new("noise_ablation");
    let record = |report: &mut bench::report::Report, name: &str, v: &[f64]| {
        let key = name
            .to_lowercase()
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        for (core, x) in v.iter().enumerate() {
            report.scalar(&format!("{key}.core{core}.max_delta"), *x);
        }
    };
    let mut merged_profile = bgsim::telemetry::ProfileSnapshot::default();
    let (mut total_cycles, mut total_events) = (0u64, 0u64);
    let t0 = std::time::Instant::now();
    let mut rows = Vec::new();
    let (all, cyc, m_all) = run_with(profile.clone(), samples);
    record(&mut report, "ALL sources", &all);
    rows.push(row("ALL sources", &all));
    report.string(
        "digest.all_sources",
        &format!("{:016x}", m_all.trace_digest()),
    );
    merged_profile.merge(&m_all.profile_snapshot());
    total_cycles += cyc;
    total_events += m_all.sc.engine.processed();
    // Representative trace: the full Linux noise profile.
    bench::report::emit_traces_or_exit(
        &cli,
        &[(
            "",
            bgsim::telemetry::chrome_trace_json(m_all.sc.tel.events()),
        )],
    );
    let (none, cyc, m_none) = run_with(Vec::new(), samples);
    record(&mut report, "none", &none);
    rows.push(row("none", &none));
    merged_profile.merge(&m_none.profile_snapshot());
    total_cycles += cyc;
    total_events += m_none.sc.engine.processed();
    for (i, src) in profile.iter().enumerate() {
        let (only, cyc1, m1) = run_with(vec![src.clone()], samples);
        record(&mut report, &format!("only {}", src.name), &only);
        rows.push(row(&format!("only {}", src.name), &only));
        let mut without = profile.clone();
        without.remove(i);
        let (wo, cyc2, m2) = run_with(without, samples);
        record(&mut report, &format!("all minus {}", src.name), &wo);
        rows.push(row(&format!("all minus {}", src.name), &wo));
        merged_profile.merge(&m1.profile_snapshot());
        merged_profile.merge(&m2.profile_snapshot());
        total_cycles += cyc1 + cyc2;
        total_events += m1.sc.engine.processed() + m2.sc.engine.processed();
    }
    println!(
        "{}",
        render(
            &["configuration", "core0", "core1", "core2", "core3"],
            &rows
        )
    );
    println!("reading: the big core-0/2 spikes come from the irq bottom halves; core 3's");
    println!("from kswapd scans; core 1 only ever sees the tick and ksoftirqd — matching");
    println!("the paper's Fig. 5 per-core asymmetry.");
    report.profile(&merged_profile);
    report.host_perf(1, t0.elapsed().as_secs_f64(), total_cycles, total_events);
    report.host_mem(1);
    report.emit_or_exit(&cli);
}

fn row(name: &str, v: &[f64]) -> Vec<String> {
    let mut r = vec![name.to_string()];
    r.extend(v.iter().map(|x| format!("{x:.0}")));
    r
}
