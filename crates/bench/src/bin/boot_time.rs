//! §III: boot time on the 10 Hz VHDL cycle-accurate simulator.
//!
//! "During chip design the VHDL cycle-accurate simulator runs at 10HZ. In
//! such an environment, CNK boots in a couple of hours, while Linux takes
//! weeks. Even stripped down, Linux takes days to boot, making it
//! difficult to run verification tests."

use bench::cli::Cli;
use bench::report::Report;
use bench::table::render;
use bgsim::ChipConfig;

fn human(seconds: f64) -> String {
    if seconds < 3600.0 {
        format!("{:.0} minutes", seconds / 60.0)
    } else if seconds < 86_400.0 {
        format!("{:.1} hours", seconds / 3600.0)
    } else if seconds < 7.0 * 86_400.0 {
        format!("{:.1} days", seconds / 86_400.0)
    } else {
        format!("{:.1} weeks", seconds / (7.0 * 86_400.0))
    }
}

fn main() {
    const HZ: f64 = 10.0;
    let cli = Cli::parse(&[]);
    println!("== §III: boot time at {HZ} Hz (VHDL cycle-accurate simulation) ==\n");

    let reports = [
        (
            "CNK (cold boot)",
            cnk::boot::boot_report(&ChipConfig::bgp(), false),
        ),
        (
            "CNK (reproducible restart)",
            cnk::boot::boot_report(&ChipConfig::bgp(), true),
        ),
        (
            "CNK (partial bringup hw)",
            cnk::boot::boot_report(&ChipConfig::bringup_partial(), false),
        ),
        ("Linux (stripped)", fwk::boot::boot_report(true)),
        ("Linux (full image)", fwk::boot::boot_report(false)),
    ];

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                format!("{}", r.instructions),
                human(r.vhdl_sim_seconds(HZ)),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["kernel", "boot instructions", "time at 10 Hz"], &rows)
    );

    println!("paper: \"CNK boots in a couple of hours, while Linux takes weeks. Even");
    println!("stripped down, Linux takes days to boot.\"\n");

    println!("CNK cold-boot phase breakdown:");
    for (phase, instr) in &reports[0].1.phases {
        println!(
            "  {phase:<18} {instr:>8} instructions = {}",
            human(*instr as f64 / HZ)
        );
    }

    let mut report = Report::new("boot_time");
    for (name, r) in &reports {
        let key = name
            .to_lowercase()
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        report.scalar(&format!("{key}.instructions"), r.instructions as f64);
        report.scalar(&format!("{key}.vhdl_seconds"), r.vhdl_sim_seconds(HZ));
    }
    // Boot reports are closed-form (no simulation runs); `--trace-out`
    // still writes a valid empty trace for flag uniformity.
    bench::report::emit_traces_or_exit(&cli, &[("", bgsim::telemetry::chrome_trace_json(&[]))]);
    report.host_mem(0);
    report.emit_or_exit(&cli);
}
