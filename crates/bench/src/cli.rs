//! Minimal flag parsing shared by every benchmark binary.
//!
//! Every bin accepts these output flags on top of its positional
//! arguments:
//!
//! * `--stats-out <path>` — write the run's [`crate::report::Report`]
//!   to a file (`.txt` extension selects the gem5-style flat format,
//!   anything else JSON);
//! * `--json` — print the report as JSON on stdout (or force JSON for a
//!   `.txt` stats path);
//! * `--trace-out <path>` — where a bin records tracepoints, write the
//!   Chrome/Perfetto trace-event JSON there;
//! * `--force` — allow `--stats-out`/`--trace-out` to overwrite an
//!   existing file (refused otherwise, so a rerun cannot silently
//!   clobber a previous run's evidence).
//!
//! The remaining shared flags only mean something to the bins that
//! apply them; each bin names its [`Shared`] groups when it parses, and
//! a flag from any other group is rejected instead of silently ignored:
//!
//! * [`Shared::Threads`]: `--threads <n>` — host worker threads for
//!   bins that shard their independent simulations across a pool
//!   (`bench::par`). Results are bit-identical for any value; 1 (the
//!   default) runs inline. Zero is rejected.
//! * [`Shared::Tuning`]: `--no-fast-path` disables the digest-identical
//!   event-reduction fast path (`MachineConfig::fast_path`);
//!   `--no-closed-form-noise` schedules FWK noise ticks as per-tick heap
//!   events instead of sampling them closed-form
//!   (`MachineConfig::closed_form_noise`). Both are the reference modes
//!   the optimizations are digest-pinned against.
//! * [`Shared::Faults`]: `--fault-seed <u64>` derives a survivable fault
//!   schedule from the seed
//!   ([`bgsim::fault::FaultSchedule::from_seed`]); `--fault-script
//!   <path>` loads an explicit one (`<cycle> <node> <kind> [arg]`
//!   lines). Mutually exclusive.
//! * [`Shared::Monitor`]: `--monitor-out <path>` appends live-progress
//!   snapshots (JSON lines) there while the bin runs; `bgtop <path>`
//!   tails the file. Host-side observability only.
//!
//! Bad flag input is a usage error: message on stderr, exit code 2 —
//! never a panic (`Cli::parse_from` returns the error for callers that
//! want to handle it themselves, e.g. tests). An unknown flag, a shared
//! flag the bin does not apply, and a repeated value-carrying flag
//! (`--stats-out a --stats-out b`) are all rejected this way.
//!
//! Hand-rolled because the workspace carries no external CLI dependency.

use std::path::PathBuf;

/// A group of shared flags that only some bins apply (see the module
/// docs for the flags in each group).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shared {
    Threads,
    Tuning,
    Faults,
    Monitor,
}

impl Shared {
    pub const ALL: [Shared; 4] = [
        Shared::Threads,
        Shared::Tuning,
        Shared::Faults,
        Shared::Monitor,
    ];

    fn flags(self) -> &'static [&'static str] {
        match self {
            Shared::Threads => &["--threads"],
            Shared::Tuning => &["--no-fast-path", "--no-closed-form-noise"],
            Shared::Faults => &["--fault-seed", "--fault-script"],
            Shared::Monitor => &["--monitor-out"],
        }
    }
}

/// Flags every bin accepts.
const OUTPUT_FLAGS: [&str; 4] = ["--stats-out", "--json", "--trace-out", "--force"];

#[derive(Clone, Debug)]
pub struct Cli {
    pub stats_out: Option<PathBuf>,
    pub json: bool,
    pub trace_out: Option<PathBuf>,
    /// Live-monitor snapshot file (`--monitor-out`), read by `bgtop`.
    pub monitor_out: Option<PathBuf>,
    /// Allow output flags to overwrite existing files.
    pub force: bool,
    /// Host worker threads for sharded bins (>= 1; 1 = inline).
    pub threads: usize,
    /// Event-reduction fast path (on unless `--no-fast-path`).
    pub fast_path: bool,
    /// Closed-form FWK noise (on unless `--no-closed-form-noise`).
    pub closed_form_noise: bool,
    /// Seeded fault schedule (`--fault-seed`).
    pub fault_seed: Option<u64>,
    /// Explicit fault schedule file (`--fault-script`).
    pub fault_script: Option<PathBuf>,
    /// Positional arguments, in order (bins parse their own).
    pub rest: Vec<String>,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            stats_out: None,
            json: false,
            trace_out: None,
            monitor_out: None,
            force: false,
            threads: 1,
            fast_path: true,
            closed_form_noise: true,
            fault_seed: None,
            fault_script: None,
            rest: Vec::new(),
        }
    }
}

impl Cli {
    /// Parse the process arguments (skipping argv[0]) for a bin that
    /// applies the `applies` shared-flag groups. A malformed, unknown or
    /// unapplied flag is a usage error: message on stderr, exit code 2.
    pub fn parse(applies: &[Shared]) -> Cli {
        match Self::parse_from(std::env::args().skip(1), applies) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        applies: &[Shared],
    ) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        let accepted = || {
            let mut flags = OUTPUT_FLAGS.to_vec();
            for g in applies {
                flags.extend_from_slice(g.flags());
            }
            flags.join(", ")
        };
        // Value-carrying flags may appear at most once. Letting a
        // repeated `--stats-out a --stats-out b` silently take the last
        // value hid real mistakes (a CI script concatenating flag sets
        // clobbered its own output path). Boolean toggles stay
        // idempotent.
        let mut seen: Vec<String> = Vec::new();
        while let Some(a) = it.next() {
            if !is_flag(&a) {
                cli.rest.push(a);
                continue;
            }
            let (name, inline) = match a.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (a.as_str(), None),
            };
            let group = Shared::ALL.into_iter().find(|g| g.flags().contains(&name));
            if group.is_none() && !OUTPUT_FLAGS.contains(&name) {
                return Err(format!("unknown flag {name} (accepted: {})", accepted()));
            }
            if group.is_some_and(|g| !applies.contains(&g)) {
                return Err(format!(
                    "{name} is not applied by this benchmark and would be ignored \
                     (accepted: {})",
                    accepted()
                ));
            }
            let toggle = || match inline {
                Some(_) => Err(format!("{name} takes no value")),
                None => Ok(true),
            };
            let mut value = || -> Result<String, String> {
                if seen.iter().any(|f| f == name) {
                    return Err(format!(
                        "duplicate {name} flag: it may be given at most once \
                         (an earlier value would be silently overridden)"
                    ));
                }
                seen.push(name.to_string());
                match inline {
                    Some(v) => Ok(v.to_string()),
                    None => it.next().ok_or_else(|| format!("{name} requires a value")),
                }
            };
            match name {
                "--json" => cli.json = toggle()?,
                "--force" => cli.force = toggle()?,
                "--no-fast-path" => cli.fast_path = !toggle()?,
                "--no-closed-form-noise" => cli.closed_form_noise = !toggle()?,
                "--stats-out" => cli.stats_out = Some(value()?.into()),
                "--trace-out" => cli.trace_out = Some(value()?.into()),
                "--monitor-out" => cli.monitor_out = Some(value()?.into()),
                "--fault-script" => cli.fault_script = Some(value()?.into()),
                "--threads" => {
                    let s = value()?;
                    let n: usize = s
                        .parse()
                        .map_err(|_| format!("--threads requires a positive integer, got {s:?}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1 (got 0)".to_string());
                    }
                    cli.threads = n;
                }
                "--fault-seed" => {
                    let s = value()?;
                    let n: u64 = s.parse().map_err(|_| {
                        format!("--fault-seed requires an unsigned integer, got {s:?}")
                    })?;
                    cli.fault_seed = Some(n);
                }
                _ => unreachable!("{name} is in the flag tables but has no handler"),
            }
        }
        Ok(cli)
    }

    /// Resolve the fault flags into a [`bgsim::fault::FaultSpec`]. Bad
    /// input (both flags at once, unreadable or unparsable script) is a
    /// usage error: message on stderr, exit code 2.
    pub fn fault_spec(&self) -> bgsim::fault::FaultSpec {
        use bgsim::fault::{FaultSchedule, FaultSpec};
        match (self.fault_seed, &self.fault_script) {
            (Some(_), Some(_)) => {
                eprintln!("error: --fault-seed and --fault-script are mutually exclusive");
                std::process::exit(2);
            }
            (Some(seed), None) => FaultSpec::Seed(seed),
            (None, Some(path)) => {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("error: reading {}: {e}", path.display());
                    std::process::exit(2);
                });
                let sched = FaultSchedule::parse(&text).unwrap_or_else(|e| {
                    eprintln!("error: {}: {e}", path.display());
                    std::process::exit(2);
                });
                FaultSpec::Explicit(sched)
            }
            (None, None) => FaultSpec::None,
        }
    }

    /// [`Cli::fault_spec`] for a bin that knows its machine size:
    /// additionally rejects explicit scripts naming a node the machine
    /// does not have (exit 2 with the offending id), instead of letting
    /// the out-of-range id panic deep in machine construction.
    pub fn fault_spec_for(&self, nodes: u32) -> bgsim::fault::FaultSpec {
        let spec = self.fault_spec();
        if let bgsim::fault::FaultSpec::Explicit(sched) = &spec {
            if let Err(e) = sched.check_nodes(nodes) {
                eprintln!("error: --fault-script: {e}");
                std::process::exit(2);
            }
        }
        spec
    }

    /// Positional argument `i` parsed as a number, for the bins whose
    /// first argument overrides a sample/iteration count.
    pub fn pos<T: std::str::FromStr>(&self, i: usize) -> Option<T> {
        self.rest.get(i).and_then(|s| s.parse().ok())
    }
}

/// A flag starts with `-` followed by something other than a digit,
/// so negative numbers still pass through as positional arguments.
fn is_flag(arg: &str) -> bool {
    arg.strip_prefix('-')
        .and_then(|r| r.chars().next())
        .is_some_and(|c| !c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse_from(args.iter().map(|s| s.to_string()), &Shared::ALL).expect("args parse")
    }

    fn parse_err(args: &[&str]) -> String {
        parse_err_for(args, &Shared::ALL)
    }

    fn parse_err_for(args: &[&str], applies: &[Shared]) -> String {
        Cli::parse_from(args.iter().map(|s| s.to_string()), applies)
            .expect_err("args should be rejected")
    }

    #[test]
    fn parses_flags_and_positionals() {
        let c = parse(&["500", "--stats-out", "out.json", "--json", "7"]);
        assert_eq!(
            c.stats_out.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert!(c.json);
        assert_eq!(c.rest, vec!["500", "7"]);
        assert_eq!(c.pos::<u32>(0), Some(500));
        assert_eq!(c.pos::<u32>(1), Some(7));
        assert_eq!(c.pos::<u32>(2), None);
    }

    #[test]
    fn parses_equals_form() {
        let c = parse(&["--stats-out=s.txt", "--trace-out=t.json"]);
        assert_eq!(c.stats_out.as_deref(), Some(std::path::Path::new("s.txt")));
        assert_eq!(c.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(!c.json);
        assert!(!c.force);
    }

    #[test]
    fn parses_monitor_out() {
        assert_eq!(parse(&[]).monitor_out, None);
        let c = parse(&["--monitor-out", "m.jsonl"]);
        assert_eq!(
            c.monitor_out.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        let c = parse(&["--monitor-out=m2.jsonl"]);
        assert_eq!(
            c.monitor_out.as_deref(),
            Some(std::path::Path::new("m2.jsonl"))
        );
        let e = parse_err(&["--monitor-out"]);
        assert!(e.contains("--monitor-out requires a value"), "{e}");
    }

    #[test]
    fn missing_value_is_an_error_not_a_panic() {
        let e = parse_err(&["--stats-out"]);
        assert!(e.contains("--stats-out requires a value"), "{e}");
        let e = parse_err(&["--trace-out"]);
        assert!(e.contains("--trace-out requires a value"), "{e}");
        let e = parse_err(&["--threads"]);
        assert!(e.contains("--threads requires a value"), "{e}");
    }

    #[test]
    fn parses_fast_path_toggle() {
        assert!(parse(&[]).fast_path);
        assert!(!parse(&["--no-fast-path"]).fast_path);
    }

    #[test]
    fn parses_force() {
        assert!(!parse(&[]).force);
        assert!(parse(&["--force"]).force);
    }

    #[test]
    fn parses_threads() {
        assert_eq!(parse(&[]).threads, 1);
        assert_eq!(parse(&["--threads", "4"]).threads, 4);
        assert_eq!(parse(&["--threads=8"]).threads, 8);
    }

    #[test]
    fn rejects_zero_and_garbage_threads() {
        // 0 used to clamp silently to 1; it is now a usage error.
        let e = parse_err(&["--threads", "0"]);
        assert!(e.contains("at least 1"), "{e}");
        let e = parse_err(&["--threads", "four"]);
        assert!(e.contains("positive integer"), "{e}");
        let e = parse_err(&["--threads=-2"]);
        assert!(e.contains("positive integer"), "{e}");
    }

    #[test]
    fn parses_closed_form_noise_toggle() {
        assert!(parse(&[]).closed_form_noise);
        assert!(!parse(&["--no-closed-form-noise"]).closed_form_noise);
    }

    #[test]
    fn rejects_unknown_flags() {
        let e = parse_err(&["--thraeds", "4"]);
        assert!(e.contains("unknown flag --thraeds"), "{e}");
        // The deleted engine knobs are unknown now, not ignored.
        let e = parse_err(&["--engine", "heap"]);
        assert!(e.contains("unknown flag --engine"), "{e}");
        let e = parse_err(&["--compact-min-dead=8"]);
        assert!(e.contains("unknown flag --compact-min-dead"), "{e}");
        let e = parse_err(&["-h"]);
        assert!(e.contains("unknown flag -h"), "{e}");
        // The message lists what the bin does accept.
        let e = parse_err_for(&["--bogus"], &[Shared::Faults]);
        assert!(
            e.contains("--fault-seed") && !e.contains("--threads"),
            "{e}"
        );
        let e = parse_err(&["--json=yes"]);
        assert!(e.contains("--json takes no value"), "{e}");
    }

    #[test]
    fn positionals_still_pass_through() {
        let c = parse(&["64", "512", "-3", "--json", "x"]);
        assert_eq!(c.rest, vec!["64", "512", "-3", "x"]);
        assert!(c.json);
    }

    #[test]
    fn rejects_shared_flags_the_bin_does_not_apply() {
        for (args, group) in [
            (&["--threads", "2"][..], Shared::Threads),
            (&["--no-fast-path"][..], Shared::Tuning),
            (&["--no-closed-form-noise"][..], Shared::Tuning),
            (&["--fault-seed", "13"][..], Shared::Faults),
            (&["--fault-script=f.txt"][..], Shared::Faults),
            (&["--monitor-out", "m.jsonl"][..], Shared::Monitor),
        ] {
            let others: Vec<Shared> = Shared::ALL.into_iter().filter(|&g| g != group).collect();
            let e = parse_err_for(args, &others);
            assert!(e.contains("not applied by this benchmark"), "{args:?}: {e}");
            Cli::parse_from(args.iter().map(|s| s.to_string()), &[group])
                .unwrap_or_else(|e| panic!("{args:?} under {group:?}: {e}"));
        }
        // Output flags are accepted by every bin.
        let c = Cli::parse_from(
            [
                "--json",
                "--force",
                "--stats-out",
                "s.json",
                "--trace-out",
                "t.json",
            ]
            .map(String::from),
            &[],
        )
        .expect("output flags parse everywhere");
        assert!(c.json && c.force);
    }

    #[test]
    fn rejects_garbage_fault_seed() {
        let e = parse_err(&["--fault-seed", "0x13"]);
        assert!(e.contains("unsigned integer"), "{e}");
    }

    #[test]
    fn rejects_duplicate_value_flags() {
        // Last-value-wins used to silently drop the first path.
        let e = parse_err(&["--stats-out", "a.json", "--stats-out", "b.json"]);
        assert!(e.contains("duplicate --stats-out"), "{e}");
        // Mixed spellings of the same flag are still duplicates.
        let e = parse_err(&["--trace-out=t.json", "--trace-out", "u.json"]);
        assert!(e.contains("duplicate --trace-out"), "{e}");
        let e = parse_err(&["--monitor-out", "m", "--monitor-out", "n"]);
        assert!(e.contains("duplicate --monitor-out"), "{e}");
        let e = parse_err(&["--threads", "2", "--threads=4"]);
        assert!(e.contains("duplicate --threads"), "{e}");
        let e = parse_err(&["--fault-seed", "1", "--fault-seed", "2"]);
        assert!(e.contains("duplicate --fault-seed"), "{e}");
        let e = parse_err(&["--fault-script", "a", "--fault-script", "b"]);
        assert!(e.contains("duplicate --fault-script"), "{e}");
        // Boolean toggles stay idempotent (repeating them is harmless).
        let c = parse(&["--json", "--json", "--force", "--force", "--no-fast-path"]);
        assert!(c.json && c.force && !c.fast_path);
    }
}
