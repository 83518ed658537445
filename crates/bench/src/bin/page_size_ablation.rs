//! Ablation of the §IV.C partitioner: TLB-entry budget vs page-size
//! choice vs wasted physical memory.
//!
//! "In order to provide static mapping with a limited number of TLB
//! entries, the memory subsystem may waste physical memory as large pages
//! are tiled together" (§VII.B). This sweep quantifies that trade-off
//! for a UMT-sized process under shrinking TLB budgets.

use bench::table::render;
use cnk::mem::{partition_node, ProcRequirements};

fn main() {
    let cli = bench::cli::Cli::parse(&[]);
    println!("== Partitioner ablation: TLB budget vs min page size vs waste ==\n");
    let req = ProcRequirements {
        text_bytes: 24 << 20,
        data_bytes: 8 << 20,
        heap_stack_bytes: 1 << 30,
        shared_bytes: 16 << 20,
        dynamic_bytes: 64 << 20,
    };
    let mut report = bench::report::Report::new("page_size_ablation");
    let mut rows = Vec::new();
    for budget in [64usize, 48, 32, 24, 16, 12, 8, 6] {
        match partition_node(&req, 1, 4 << 30, 16 << 20, 64 << 20, budget) {
            Ok(maps) => {
                let m = &maps[0];
                report.scalar(
                    &format!("budget{budget}.entries_used"),
                    m.tlb_entries as f64,
                );
                report.scalar(
                    &format!("budget{budget}.min_page_mib"),
                    (m.min_page >> 20) as f64,
                );
                report.scalar(
                    &format!("budget{budget}.wasted_mib"),
                    m.wasted_bytes as f64 / (1 << 20) as f64,
                );
                report.scalar(
                    &format!("budget{budget}.mapped_mib"),
                    m.mapped_bytes() as f64 / (1 << 20) as f64,
                );
                rows.push(vec![
                    budget.to_string(),
                    m.tlb_entries.to_string(),
                    format!("{} MiB", m.min_page >> 20),
                    format!("{:.1} MiB", m.wasted_bytes as f64 / (1 << 20) as f64),
                    format!("{:.1} MiB", m.mapped_bytes() as f64 / (1 << 20) as f64),
                ]);
            }
            Err(e) => {
                report.scalar(&format!("budget{budget}.entries_used"), f64::NAN);
                rows.push(vec![
                    budget.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("FAILS: {e:?}"),
                ]);
            }
        }
    }
    println!(
        "{}",
        render(
            &["TLB budget", "entries used", "min page", "wasted", "mapped"],
            &rows
        )
    );
    println!("smaller budgets force coarser pages: fewer entries, more rounding waste —");
    println!("the §VII.B cost of never taking a TLB miss.");
    // The partitioner sweep is closed-form (no machine runs); write a
    // valid empty trace so `--trace-out` behaves uniformly.
    bench::report::emit_traces_or_exit(&cli, &[("", bgsim::telemetry::chrome_trace_json(&[]))]);
    report.host_mem(0);
    report.emit_or_exit(&cli);
}
