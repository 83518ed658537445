//! Tables II and III: ease of using/implementing capabilities in CNK
//! and Linux, regenerated from the kernels' encoded feature matrices.

use bench::cli::Cli;
use bench::report::Report;
use bench::table::render;
use bgsim::features::Capability;

fn main() {
    let cli = Cli::parse(&[]);
    let cnk = cnk::features::matrix();
    let linux = fwk::features::matrix();

    println!("== Table II: Ease of using different capabilities ==\n");
    let rows: Vec<Vec<String>> = Capability::ALL
        .iter()
        .map(|&cap| {
            vec![
                cap.description().to_string(),
                cnk.get(cap).unwrap().use_ease.to_string(),
                linux.get(cap).unwrap().use_ease.to_string(),
            ]
        })
        .collect();
    println!("{}", render(&["Description", "CNK", "Linux"], &rows));

    println!("== Table III: Ease of implementing capabilities (where not available) ==\n");
    let rows: Vec<Vec<String>> = Capability::ALL
        .iter()
        .filter_map(|&cap| {
            let c = cnk.get(cap).unwrap();
            let l = linux.get(cap).unwrap();
            if c.implement_ease.is_none() && l.implement_ease.is_none() {
                return None;
            }
            let show = |e: &bgsim::features::FeatureEntry| match e.implement_ease {
                Some(x) => x.to_string(),
                None => "avail".to_string(),
            };
            Some(vec![cap.description().to_string(), show(c), show(l)])
        })
        .collect();
    println!("{}", render(&["Description", "CNK", "Linux"], &rows));
    println!("(encoded from the kernels' feature matrices; cross-checked against kernel");
    println!(" behaviour by the workspace test suite)");

    let mut report = Report::new("table2_3_features");
    report.scalar("capabilities", Capability::ALL.len() as f64);
    let avail = |m: &bgsim::features::FeatureMatrix| {
        Capability::ALL
            .iter()
            .filter(|&&c| m.get(c).unwrap().use_ease.available())
            .count() as f64
    };
    report.scalar("cnk.available", avail(&cnk));
    report.scalar("linux.available", avail(&linux));
    // No machine runs here; `--trace-out` still writes a valid (empty)
    // trace so the flag behaves uniformly across all bins.
    bench::report::emit_traces_or_exit(&cli, &[("", bgsim::telemetry::chrome_trace_json(&[]))]);
    report.host_mem(0);
    report.emit_or_exit(&cli);
}
