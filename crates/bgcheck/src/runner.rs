//! The differential runner: one program, every engine mode, one
//! verdict.
//!
//! For each kernel the sequential fast-path closed-form run is the
//! oracle; every other cell of the {seq,win} × {fast,heap} ×
//! {closed-form,per-tick} matrix, plus a 3-way repetition through the
//! shard pool, must reproduce its (outcome, final cycle, digest) triple
//! exactly. Every run is also
//! swept by `Machine::check_invariants` — a mode can agree with the
//! oracle bit-for-bit and still fail the check if kernel bookkeeping
//! leaked (futex waiters, pending CIOD replies, partition overlap).

use bgsim::machine::{LiveHook, Machine, ProgressSink, RunOutcome};
use bgsim::{CancelToken, MachineConfig};

use crate::program::Program;

/// Which kernel a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckKernel {
    Cnk,
    Fwk,
}

impl CheckKernel {
    pub const ALL: [CheckKernel; 2] = [CheckKernel::Cnk, CheckKernel::Fwk];

    pub fn label(self) -> &'static str {
        match self {
            CheckKernel::Cnk => "cnk",
            CheckKernel::Fwk => "fwk",
        }
    }

    pub fn from_label(s: &str) -> Option<CheckKernel> {
        CheckKernel::ALL.iter().copied().find(|k| k.label() == s)
    }

    fn build(self) -> Box<dyn bgsim::Kernel> {
        match self {
            CheckKernel::Cnk => Box::new(cnk::Cnk::with_defaults()),
            CheckKernel::Fwk => Box::new(fwk::Fwk::with_defaults()),
        }
    }
}

/// One cell of the differential matrix: driver loop × scheduler path ×
/// noise-sampling strategy. Every knob here is documented as
/// digest-neutral, so every cell must reproduce the oracle's (outcome,
/// final cycle, digest) triple exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mode {
    /// `run_windowed` instead of `run`.
    pub windowed: bool,
    /// Compute fast path on (off = the reference heap scheduler walk).
    pub fast: bool,
    /// Closed-form noise sampling vs the per-tick reference sampler.
    pub closed_form_noise: bool,
}

impl Mode {
    /// Inverse of [`Mode::label`]: resolve a mode by its stable label
    /// (service job requests name their execution mode this way).
    pub fn from_label(s: &str) -> Option<Mode> {
        MODES.iter().copied().find(|m| m.label() == s)
    }

    /// Stable label: `{seq,win}+{fast,heap}+{cf,pt}`.
    pub fn label(self) -> String {
        format!(
            "{}+{}+{}",
            if self.windowed { "win" } else { "seq" },
            if self.fast { "fast" } else { "heap" },
            if self.closed_form_noise { "cf" } else { "pt" }
        )
    }
}

const fn mode(windowed: bool, fast: bool, closed_form_noise: bool) -> Mode {
    Mode {
        windowed,
        fast,
        closed_form_noise,
    }
}

/// The full single-machine matrix: {seq,win} × {fast,heap} ×
/// {closed-form,per-tick}. The first entry (seq+fast+cf — the
/// production default) is the oracle.
pub const MODES: [Mode; 8] = [
    mode(false, true, true),
    mode(false, true, false),
    mode(false, false, true),
    mode(false, false, false),
    mode(true, true, true),
    mode(true, true, false),
    mode(true, false, true),
    mode(true, false, false),
];

/// Shard-pool width for the repetition leg.
pub const SHARD_WAYS: usize = 3;

/// What one run produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunRecord {
    pub kernel: &'static str,
    pub mode: String,
    /// Outcome class (`completed`, `deadlock/2`, ...).
    pub outcome: String,
    pub final_cycle: u64,
    pub digest: u64,
    pub violations: Vec<String>,
    /// Coverage digest (telemetry counter vector + trace-digest prefix)
    /// — the fuzzer's novelty signal. Not part of the equality triple:
    /// it hashes *which* counters fired, not the canonical trace.
    pub coverage: u64,
}

impl RunRecord {
    /// The equality triple differential checking compares.
    pub fn triple(&self) -> (String, u64, u64) {
        (self.outcome.clone(), self.final_cycle, self.digest)
    }
}

fn outcome_label(out: &RunOutcome) -> String {
    match out {
        RunOutcome::Completed { .. } => "completed".to_string(),
        RunOutcome::ReachedCycle { .. } => "bound".to_string(),
        RunOutcome::Deadlock { blocked, .. } => format!("deadlock/{}", blocked.len()),
        RunOutcome::Idle { .. } => "idle".to_string(),
        RunOutcome::Cancelled { cause, .. } => cause.label().to_string(),
    }
}

/// How the checker failed on a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// Two modes disagreed on (outcome, final cycle, digest).
    Mismatch,
    /// A run violated a kernel-semantic invariant.
    Violation,
    /// A run could not be constructed (config rejected, launch failed).
    Error,
}

/// A checker failure, with enough context to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub kernel: &'static str,
    /// The oracle mode (for mismatches) or the failing mode.
    pub base_mode: String,
    pub mode: String,
    pub detail: String,
    /// Rendered first-divergence report, when one could be produced.
    pub divergence: Option<String>,
    /// Flight-recorder dump from the failing run's machine — the last
    /// spans each subsystem executed before the failure was detected.
    pub flight: Option<String>,
}

impl Failure {
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:?} on kernel {} ({} vs {}):\n  {}",
            self.kind, self.kernel, self.base_mode, self.mode, self.detail
        );
        if let Some(d) = &self.divergence {
            s.push_str("\nfirst divergence:\n");
            s.push_str(d);
        }
        if let Some(f) = &self.flight {
            s.push_str("\nflight recorder:\n");
            s.push_str(f);
        }
        s
    }
}

fn build_machine(
    p: &Program,
    kernel: CheckKernel,
    mode: Mode,
    keep_trace: bool,
) -> Result<Machine, String> {
    let mut cfg = MachineConfig::nodes(p.nodes)
        .with_seed(p.seed)
        .with_telemetry()
        .with_fast_path(mode.fast)
        .with_closed_form_noise(mode.closed_form_noise);
    if keep_trace {
        cfg = cfg.with_trace();
    }
    if !p.faults.is_empty() {
        cfg = cfg.with_faults(p.faults.clone());
    }
    cfg.validate()?;
    let mut m = Machine::new(cfg, kernel.build(), Box::new(dcmf::Dcmf::with_defaults()));
    m.boot();
    m.launch(&p.job_spec(), &mut p.factory())
        .map_err(|e| format!("launch failed: {e:?}"))?;
    Ok(m)
}

/// Run `p` once in the given mode. Returns the record and, when
/// `keep_trace` is set, the machine itself (for divergence reports).
fn run_one(
    p: &Program,
    kernel: CheckKernel,
    mode: Mode,
    keep_trace: bool,
) -> Result<(RunRecord, Machine), String> {
    let mut m = build_machine(p, kernel, mode, keep_trace)?;
    // A panic mid-run must not lose the flight recorder: catch it, fold
    // the dump into the error, and let the caller report it as a
    // checker failure instead of tearing down the process.
    let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if mode.windowed {
            m.run_windowed()
        } else {
            m.run()
        }
    })) {
        Ok(out) => out,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return Err(format!(
                "run panicked: {msg}\nflight recorder:\n{}",
                m.flight_dump()
            ));
        }
    };
    let rec = RunRecord {
        kernel: kernel.label(),
        mode: mode.label(),
        outcome: outcome_label(&out),
        final_cycle: out.at(),
        digest: m.trace_digest(),
        violations: m.check_invariants(),
        coverage: m.coverage_digest(),
    };
    Ok((rec, m))
}

/// Public single-mode entry (replay/record paths).
pub fn run_mode(p: &Program, kernel: CheckKernel, mode: Mode) -> Result<RunRecord, String> {
    run_one(p, kernel, mode, false).map(|(r, _)| r)
}

/// Single-mode entry that also returns the machine's cycle-accounting
/// profile — the service path, which streams the profile back to the
/// submitting client as a monitor snapshot.
pub fn run_mode_with_profile(
    p: &Program,
    kernel: CheckKernel,
    mode: Mode,
) -> Result<(RunRecord, bgsim::ProfileSnapshot), String> {
    run_one(p, kernel, mode, false).map(|(r, m)| {
        let snap = m.profile_snapshot();
        (r, snap)
    })
}

/// Live-run knobs for [`run_mode_live`]: everything optional, and
/// `LiveOpts::default()` reproduces `run_mode_with_profile` exactly.
#[derive(Clone, Default)]
pub struct LiveOpts {
    /// Shared cancel flag polled between events.
    pub cancel: Option<CancelToken>,
    /// Simulated-cycle budget for the run.
    pub timeout_cycles: Option<u64>,
    /// Wall-clock budget in milliseconds (the one non-deterministic
    /// knob — timed-out results must not be memoized).
    pub timeout_wall_ms: Option<u64>,
    /// Progress-report cadence in simulated cycles (0/None = no
    /// reports; cancel/deadline polling still runs).
    pub progress_cycles: Option<u64>,
}

impl LiveOpts {
    fn into_hook(self, sink: Option<Box<dyn ProgressSink>>) -> LiveHook {
        let mut hook = LiveHook::new().with_interval(self.progress_cycles.unwrap_or(0));
        hook.sink = sink;
        hook.cancel = self.cancel;
        hook.timeout_cycles = self.timeout_cycles;
        hook.timeout_wall = self.timeout_wall_ms.map(std::time::Duration::from_millis);
        hook
    }
}

/// The steerable service entry: like [`run_mode_with_profile`], but the
/// run can stream progress to `sink` and be stopped early by a cancel
/// token or deadline. A cancelled/timed-out run returns a normal
/// `Ok` record whose outcome is `cancelled`/`timeout`; its invariant
/// sweep is skipped (quiescence assumptions do not hold mid-run) and
/// its triple must never be treated as the job's canonical answer.
pub fn run_mode_live(
    p: &Program,
    kernel: CheckKernel,
    mode: Mode,
    opts: LiveOpts,
    sink: Option<Box<dyn ProgressSink>>,
) -> Result<(RunRecord, bgsim::ProfileSnapshot), String> {
    let mut m = build_machine(p, kernel, mode, false)?;
    m.attach_live_hook(opts.into_hook(sink));
    let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if mode.windowed {
            m.run_windowed()
        } else {
            m.run()
        }
    })) {
        Ok(out) => out,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return Err(format!(
                "run panicked: {msg}\nflight recorder:\n{}",
                m.flight_dump()
            ));
        }
    };
    let interrupted = matches!(out, RunOutcome::Cancelled { .. });
    let rec = RunRecord {
        kernel: kernel.label(),
        mode: mode.label(),
        outcome: outcome_label(&out),
        final_cycle: out.at(),
        digest: m.trace_digest(),
        violations: if interrupted {
            Vec::new()
        } else {
            m.check_invariants()
        },
        coverage: m.coverage_digest(),
    };
    let snap = m.profile_snapshot();
    Ok((rec, snap))
}

/// Re-run two modes with retained traces and render where they first
/// diverge (entry index, both entries, surrounding context).
fn diverge_report(p: &Program, kernel: CheckKernel, a: Mode, b: Mode) -> Option<String> {
    let (_, ma) = run_one(p, kernel, a, true).ok()?;
    let (_, mb) = run_one(p, kernel, b, true).ok()?;
    bgsim::first_divergence(&ma.sc.trace, &mb.sc.trace, 3).map(|d| d.render())
}

/// Deliberate checker-facing mutations for the self-test: a working
/// checker must flag every one of these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Canary {
    /// One mode runs with a skewed machine seed.
    SeedSkew,
    /// One mode runs with an extra injected fault.
    ExtraFault,
    /// One mode runs a program missing its last op.
    DropTailOp,
    /// One mode's reported digest is flipped.
    DigestXor,
    /// One mode's reported final cycle is nudged.
    CycleSkew,
}

impl Canary {
    pub const ALL: [Canary; 5] = [
        Canary::SeedSkew,
        Canary::ExtraFault,
        Canary::DropTailOp,
        Canary::DigestXor,
        Canary::CycleSkew,
    ];

    /// The canary perturbs exactly one leg — (fwk, win+fast+cf) —
    /// fwk because its noise model consumes the machine seed, so a seed
    /// skew is guaranteed digest-visible.
    fn applies(kernel: CheckKernel, mode: Mode) -> bool {
        kernel == CheckKernel::Fwk && mode.windowed && mode.fast && mode.closed_form_noise
    }

    fn tamper_program(self, p: &Program) -> Program {
        let mut q = p.clone();
        match self {
            Canary::SeedSkew => q.seed = q.seed.wrapping_add(1),
            Canary::ExtraFault => {
                q.faults.push(bgsim::FaultEvent {
                    at: 50_000,
                    node: 0,
                    kind: bgsim::FaultKind::GuardStorm,
                    arg: 3,
                });
            }
            Canary::DropTailOp => {
                q.ops.pop();
            }
            Canary::DigestXor | Canary::CycleSkew => {}
        }
        q
    }

    fn tamper_record(self, rec: &mut RunRecord) {
        match self {
            Canary::DigestXor => rec.digest ^= 1,
            Canary::CycleSkew => rec.final_cycle = rec.final_cycle.wrapping_add(1),
            _ => {}
        }
    }
}

/// Check one program across the full mode matrix. `Ok` carries every
/// run record (for digest recording); `Err` the first failure.
///
/// The `Err` variant is deliberately fat (divergence report + flight
/// dump): it is built at most once per check, on the cold path.
#[allow(clippy::result_large_err)]
pub fn check_program(p: &Program) -> Result<Vec<RunRecord>, Failure> {
    check_program_tampered(p, None)
}

/// `check_program` with an optional canary mutation applied to one leg
/// (self-test plumbing; `None` is the production path).
#[allow(clippy::result_large_err)]
pub fn check_program_tampered(
    p: &Program,
    canary: Option<Canary>,
) -> Result<Vec<RunRecord>, Failure> {
    let mut records = Vec::new();
    for kernel in CheckKernel::ALL {
        let mut base: Option<RunRecord> = None;
        for m_spec in MODES {
            let (prog, tamper_rec) = match canary {
                Some(c) if Canary::applies(kernel, m_spec) => (c.tamper_program(p), Some(c)),
                _ => (p.clone(), None),
            };
            let (mut rec, m) = run_one(&prog, kernel, m_spec, false).map_err(|e| Failure {
                kind: FailureKind::Error,
                kernel: kernel.label(),
                base_mode: m_spec.label(),
                mode: m_spec.label(),
                detail: e,
                divergence: None,
                flight: None,
            })?;
            if let Some(c) = tamper_rec {
                c.tamper_record(&mut rec);
            }
            if !rec.violations.is_empty() {
                return Err(Failure {
                    kind: FailureKind::Violation,
                    kernel: kernel.label(),
                    base_mode: rec.mode.clone(),
                    mode: rec.mode.clone(),
                    detail: rec.violations.join("\n  "),
                    divergence: None,
                    flight: Some(m.flight_dump()),
                });
            }
            match &base {
                None => base = Some(rec.clone()),
                Some(b) => {
                    if rec.triple() != b.triple() {
                        let divergence = if b.digest != rec.digest && canary.is_none() {
                            diverge_report(p, kernel, MODES[0], m_spec)
                        } else {
                            None
                        };
                        return Err(Failure {
                            kind: FailureKind::Mismatch,
                            kernel: kernel.label(),
                            base_mode: b.mode.clone(),
                            mode: rec.mode.clone(),
                            detail: format!(
                                "{}: outcome={} cycle={} digest={:016x}\n  {}: outcome={} cycle={} digest={:016x}",
                                b.mode, b.outcome, b.final_cycle, b.digest,
                                rec.mode, rec.outcome, rec.final_cycle, rec.digest
                            ),
                            divergence,
                            flight: Some(m.flight_dump()),
                        });
                    }
                }
            }
            records.push(rec);
        }

        // Shard-pool repetition: the same oracle mode run SHARD_WAYS
        // times through the worker pool must stay bit-identical.
        let jobs: Vec<_> = (0..SHARD_WAYS)
            .map(|_| {
                let prog = p.clone();
                move || run_one(&prog, kernel, MODES[0], false).map(|(r, _)| r)
            })
            .collect();
        let Some(b) = base else { continue };
        for (i, res) in bench::par::run_shards(SHARD_WAYS, jobs)
            .into_iter()
            .enumerate()
        {
            let rec = res.map_err(|e| Failure {
                kind: FailureKind::Error,
                kernel: kernel.label(),
                base_mode: b.mode.clone(),
                mode: format!("shard{i}"),
                detail: e,
                divergence: None,
                flight: None,
            })?;
            if rec.triple() != b.triple() {
                return Err(Failure {
                    kind: FailureKind::Mismatch,
                    kernel: kernel.label(),
                    base_mode: b.mode.clone(),
                    mode: format!("shard{i}"),
                    detail: format!(
                        "shard repetition diverged: digest {:016x} vs {:016x}, cycle {} vs {}",
                        b.digest, rec.digest, b.final_cycle, rec.final_cycle
                    ),
                    divergence: None,
                    flight: None,
                });
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{generate, POp, Program};

    #[test]
    fn a_simple_program_passes_everywhere() {
        let p = Program {
            nodes: 2,
            seed: 0x51,
            ops: vec![
                POp::Compute { cycles: 9_000 },
                POp::Gettid,
                POp::Allreduce { bytes: 8 },
            ],
            faults: Default::default(),
        };
        let recs = check_program(&p).expect("clean program must pass");
        // 2 kernels × 8 modes.
        assert_eq!(recs.len(), 16);
        // Within a kernel all digests agree; across kernels they differ.
        assert!(recs[..8].windows(2).all(|w| w[0].digest == w[1].digest));
        assert!(recs[8..].windows(2).all(|w| w[0].digest == w[1].digest));
        assert_ne!(recs[0].digest, recs[8].digest);
        // Coverage digests are populated and distinguish the kernels
        // (different subsystems fire different counters).
        assert!(recs.iter().all(|r| r.coverage != 0));
        assert_ne!(recs[0].coverage, recs[8].coverage);
    }

    #[test]
    fn mode_labels_round_trip() {
        for m in MODES {
            assert_eq!(Mode::from_label(&m.label()), Some(m));
        }
        assert_eq!(MODES[0].label(), "seq+fast+cf");
        assert_eq!(Mode::from_label("seq+fast+cal+cf"), None);
        assert_eq!(Mode::from_label(""), None);
    }

    #[test]
    fn run_with_profile_matches_plain_run() {
        let p = Program {
            nodes: 2,
            seed: 0x77,
            ops: vec![POp::Compute { cycles: 4_000 }, POp::Barrier],
            faults: Default::default(),
        };
        let plain = run_mode(&p, CheckKernel::Cnk, MODES[0]).expect("plain run");
        let (rec, snap) =
            run_mode_with_profile(&p, CheckKernel::Cnk, MODES[0]).expect("profiled run");
        assert_eq!(rec.triple(), plain.triple());
        assert!(snap.total_cycles() > 0, "profile must carry accounting");
    }

    #[test]
    fn generated_programs_pass() {
        for seed in 0..3u64 {
            let p = generate(seed);
            if let Err(f) = check_program(&p) {
                panic!("seed {seed} failed:\n{}", f.render());
            }
        }
    }
}
