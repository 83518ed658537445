//! Regression tests for the differential checker: the checked-in seed
//! corpus must replay to its recorded digests under every engine mode,
//! the shrink → serialize → parse → replay loop must be lossless, and
//! the checker must keep catching its canary mutations.

use bgcheck::{check_program, parse_script, shrink, to_script, POp, Program};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every corpus script passes the full mode matrix and replays to its
/// pinned (digest, final cycle) in every pinned mode.
#[test]
fn corpus_replays_to_recorded_digests() {
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bgck"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus directory is empty");
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("read corpus script");
        let rep = parse_script(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            !rep.pins.is_empty(),
            "{}: corpus scripts must carry digest pins",
            path.display()
        );
        let records = check_program(&rep.program)
            .unwrap_or_else(|f| panic!("{}: {}", path.display(), f.render()));
        for pin in &rep.pins {
            let rec = records
                .iter()
                .find(|r| r.kernel == pin.kernel && r.mode == pin.mode)
                .unwrap_or_else(|| {
                    panic!(
                        "{}: pin {}/{} has no run",
                        path.display(),
                        pin.kernel,
                        pin.mode
                    )
                });
            assert_eq!(
                (rec.digest, rec.final_cycle),
                (pin.digest, pin.final_cycle),
                "{}: {}/{} drifted from its recorded digest",
                path.display(),
                pin.kernel,
                pin.mode
            );
            checked += 1;
        }
    }
    // 4 scripts × 2 kernels × 8 modes ({seq,win} × {fast,heap} ×
    // {closed-form,per-tick}).
    assert_eq!(checked, 64, "pin count drifted from the mode matrix");
}

/// Shrink a failing program, serialize the minimized repro, parse it
/// back, and confirm the round trip is exact and the parsed repro
/// still fails the same predicate (what `bgcheck fuzz` relies on when
/// it writes a repro script).
#[test]
fn shrink_then_replay_round_trip() {
    let p = Program {
        nodes: 4,
        seed: 99,
        ops: vec![
            POp::Compute { cycles: 2_000 },
            POp::Gettid,
            POp::SendRing { bytes: 256 },
            POp::Stream { bytes: 4_096 },
            POp::FileRoundtrip { bytes: 128 },
            POp::Barrier,
        ],
        faults: Default::default(),
    };
    // Synthetic failure model: any program that still has a send-ring
    // on a multi-node machine "fails".
    let fails =
        |q: &Program| q.nodes >= 2 && q.ops.iter().any(|o| matches!(o, POp::SendRing { .. }));
    assert!(fails(&p));
    let min = shrink(&p, fails, 200);
    assert_eq!(min.ops, vec![POp::SendRing { bytes: 256 }], "not minimal");
    assert_eq!(min.nodes, 2, "node halving missed");

    let script = to_script(&min);
    let back = parse_script(&script).expect("parse minimized repro");
    assert_eq!(back.program.nodes, min.nodes);
    assert_eq!(back.program.seed, min.seed);
    assert_eq!(back.program.ops, min.ops);
    assert_eq!(back.program.faults.events, min.faults.events);
    assert!(fails(&back.program), "replayed repro no longer fails");

    // And the minimized program is a valid, checkable program.
    check_program(&back.program).expect("minimized repro runs clean on a healthy machine");
}

/// The checker detects every deliberately injected canary mutation.
#[test]
fn selftest_catches_canaries() {
    bgcheck::selftest().expect("bgcheck selftest");
}
