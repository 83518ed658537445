//! Property tests of the simulator substrate: event ordering, physical
//! memory, and the torus metric.

use proptest::prelude::*;

use bgsim::engine::{Engine, EvKind};
use bgsim::mem::PhysMem;
use bgsim::torus::Torus;
use bgsim::MachineConfig;
use sysabi::NodeId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pop order is total: sorted by time, FIFO within a time.
    #[test]
    fn engine_total_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut e = Engine::new(1);
        for (i, &t) in times.iter().enumerate() {
            e.schedule(t, EvKind::Kernel { node: 0, tag: i as u64 });
        }
        let mut popped: Vec<(u64, u64)> = Vec::new();
        while let Some(ev) = e.pop() {
            let EvKind::Kernel { tag, .. } = ev.kind else { unreachable!() };
            popped.push((ev.at, tag));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// run-to-bound (clock stop) pops exactly the events at or before
    /// the bound and parks the clock there.
    #[test]
    fn engine_clock_stop(times in prop::collection::vec(1u64..1000, 1..100), bound in 0u64..1000) {
        let mut e = Engine::new(1);
        for &t in &times {
            e.schedule(t, EvKind::Kernel { node: 0, tag: 0 });
        }
        let mut popped = 0usize;
        while e.pop_until(bound).is_some() {
            popped += 1;
        }
        let expected = times.iter().filter(|&&t| t <= bound).count();
        prop_assert_eq!(popped, expected);
        prop_assert_eq!(e.now(), bound.max(times.iter().filter(|&&t| t <= bound).max().copied().unwrap_or(0)));
    }

    /// Physical memory behaves like a byte array with zero fill.
    #[test]
    fn physmem_model(
        writes in prop::collection::vec((0u64..60_000, prop::collection::vec(any::<u8>(), 1..300)), 1..30)
    ) {
        let mut m = PhysMem::new(1 << 20);
        let mut model = vec![0u8; 64 << 10];
        for (addr, data) in &writes {
            m.write(*addr, data).unwrap();
            model[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
        }
        // Random-window readback equivalence.
        let got = m.read(0, model.len() as u64).unwrap();
        prop_assert_eq!(got, model);
    }

    /// clear_range is equivalent to writing zeros.
    #[test]
    fn physmem_clear_is_zero_write(
        fill in prop::collection::vec(any::<u8>(), 64..512),
        lo in 0u64..256,
        len in 1u64..512,
    ) {
        let mut a = PhysMem::new(1 << 16);
        let mut b = PhysMem::new(1 << 16);
        a.write(0, &fill).unwrap();
        b.write(0, &fill).unwrap();
        a.clear_range(lo, len).unwrap();
        b.write(lo, &vec![0u8; len as usize]).unwrap();
        prop_assert_eq!(a.read(0, 1024).unwrap(), b.read(0, 1024).unwrap());
    }

    /// Torus hop count is a metric: symmetric, zero iff equal, triangle
    /// inequality.
    #[test]
    fn torus_metric(n in prop_oneof![Just(8u32), Just(12), Just(27), Just(64)], a in 0u32..64, b in 0u32..64, c in 0u32..64) {
        let t = Torus::new(&MachineConfig::nodes(n));
        let (a, b, c) = (NodeId(a % n), NodeId(b % n), NodeId(c % n));
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
        prop_assert_eq!(t.hops(a, a), 0);
        if a != b {
            prop_assert!(t.hops(a, b) > 0);
        }
        prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c), "triangle inequality");
    }
}
