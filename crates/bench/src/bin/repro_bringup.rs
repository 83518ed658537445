//! §III: the chip-bringup methodology — cycle reproducibility, the
//! destructive-scan waveform workflow, and the multichip coordinated
//! reboot.
//!
//! 1. Two runs from the same seed produce bit-identical event traces.
//! 2. Successive reproducible runs, each scanned destructively one cycle
//!    later, assemble into a logic waveform; a probe transition localizes
//!    an event in time.
//! 3. With the global barrier network held configured across a
//!    coordinated reboot, a packet arrives on exactly the same cycle in
//!    every rerun (the paper's cross-chip logic-scan prerequisite).

use bgsim::machine::{Machine, Workload};
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use bgsim::scan::{ScanTarget, Waveform};
use bgsim::script::script;
use bgsim::trace::TraceEvent;
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};

fn build() -> Machine {
    let mut m = Machine::new(
        MachineConfig::nodes(2)
            .with_seed(0xCAFE)
            .with_trace()
            .with_telemetry(),
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("dut"), 2, NodeMode::Smp),
        &mut |r: Rank| -> Box<dyn Workload> {
            if r.0 == 0 {
                script(vec![
                    Op::Daxpy { n: 256, reps: 64 },
                    Op::Comm(CommOp::Send {
                        to: Rank(1),
                        bytes: 4096,
                        tag: 7,
                        proto: Protocol::Eager,
                        layer: ApiLayer::Dcmf,
                    }),
                    Op::Compute { cycles: 50_000 },
                ])
            } else {
                script(vec![
                    Op::Comm(CommOp::Recv {
                        from: Some(Rank(0)),
                        tag: 7,
                        layer: ApiLayer::Dcmf,
                    }),
                    Op::Compute { cycles: 10_000 },
                ])
            }
        },
    )
    .unwrap();
    m
}

fn main() {
    let cli = bench::cli::Cli::parse(&[]);
    let mut report = bench::report::Report::new("repro_bringup");
    println!("== §III: reproducibility & bringup workflow ==\n");

    // 1. Bit-identical reruns.
    let mut probe_trace = String::new();
    let mut merged_profile = bgsim::telemetry::ProfileSnapshot::default();
    let digests: Vec<u64> = (0..3)
        .map(|i| {
            let mut m = build();
            m.run();
            if i == 0 {
                probe_trace = bgsim::telemetry::chrome_trace_json(m.sc.tel.events());
                merged_profile.merge(&m.profile_snapshot());
                report.string("digest.probe", &format!("{:016x}", m.trace_digest()));
            }
            m.trace_digest()
        })
        .collect();
    println!("1. cycle reproducibility: 3 runs, trace digests:");
    for d in &digests {
        println!("     {d:#018x}");
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    report.scalar("digests_identical", 1.0);
    println!("   => bit-identical\n");

    // 2. The destructive-scan waveform: rebuild, run to cycle N, scan,
    //    repeat one cycle later. Center the window on the event under
    //    investigation — the packet arrival at chip 1 — found from one
    //    full reproducible run, exactly how a bringup engineer would
    //    narrow in.
    let arrival_cycle = {
        let mut m = build();
        m.run();
        m.sc.trace
            .entries()
            .iter()
            .find_map(|e| match e.what {
                TraceEvent::MsgRecv { dst: 1, .. } => Some(e.at),
                _ => None,
            })
            .expect("no arrival in probe run")
    };
    report.scalar("probe_arrival_cycle", arrival_cycle as f64);
    let window = (arrival_cycle - 60)..(arrival_cycle + 60);
    let mut wave = Waveform::new();
    for cycle in window.clone() {
        let mut m = build();
        m.run_until(cycle);
        wave.push(m.scan_destructive(ScanTarget::Cores)).unwrap();
    }
    println!(
        "2. waveform: {} one-cycle-apart destructive scans over cycles {window:?}",
        wave.len()
    );
    for probe in ["core4.running_tid", "thread1.state", "net.inflight"] {
        match wave.first_transition(probe) {
            Some(at) => println!("     probe {probe:<22} first transition at cycle {at}"),
            None => println!("     probe {probe:<22} constant in window"),
        }
    }
    println!();

    // 3. Multichip reproducibility: the packet-arrival cycle at node 1
    //    is identical across reruns once the barrier network is held in
    //    its canonical state.
    let arrival = |_: u32| -> u64 {
        let mut m = build();
        m.reproducible_reset(); // barrier net now canonical
        m.launch(
            &JobSpec::new(AppImage::static_test("dut"), 2, NodeMode::Smp),
            &mut |r: Rank| -> Box<dyn Workload> {
                if r.0 == 0 {
                    script(vec![Op::Comm(CommOp::Send {
                        to: Rank(1),
                        bytes: 512,
                        tag: 9,
                        proto: Protocol::Eager,
                        layer: ApiLayer::Dcmf,
                    })])
                } else {
                    script(vec![Op::Comm(CommOp::Recv {
                        from: Some(Rank(0)),
                        tag: 9,
                        layer: ApiLayer::Dcmf,
                    })])
                }
            },
        )
        .unwrap();
        m.run();
        m.sc.trace
            .entries()
            .iter()
            .find_map(|e| match e.what {
                TraceEvent::MsgRecv { dst: 1, .. } => Some(e.at),
                _ => None,
            })
            .expect("no arrival")
    };
    let arrivals: Vec<u64> = (0..3).map(arrival).collect();
    println!("3. multichip coordinated reboot: packet arrival at chip 1, 3 reruns:");
    println!("     cycles {arrivals:?}");
    assert!(arrivals.windows(2).all(|w| w[0] == w[1]));
    report.scalar("reboot_arrival_cycle", arrivals[0] as f64);
    println!("   => same cycle every run (cross-chip scans line up)");
    bench::report::emit_traces_or_exit(&cli, &[("", probe_trace)]);
    report.profile(&merged_profile);
    report.host_mem(2);
    report.emit_or_exit(&cli);
}
