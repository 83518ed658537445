//! Deterministic, named random-number streams.
//!
//! Every source of modeled variability (a Linux daemon's wakeup jitter,
//! DRAM refresh phase, I/O-node service-time spread) draws from its own
//! stream, derived from the machine's master seed and a stable name. This
//! gives two properties the paper's methodology needs:
//!
//! * **cycle reproducibility** (§III): the same seed reproduces the exact
//!   run, event for event;
//! * **stability studies** (§V.D): varying only the master seed re-rolls
//!   the physical-world randomness while keeping the workload identical,
//!   which is how we model "36 runs of LINPACK".

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64-bit hash, used to derive stream seeds from names.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A factory for named deterministic streams.
#[derive(Clone, Debug)]
pub struct RngHub {
    master: u64,
}

impl RngHub {
    pub fn new(master_seed: u64) -> RngHub {
        RngHub {
            master: master_seed,
        }
    }

    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// A stream uniquely determined by (master seed, name).
    pub fn stream(&self, name: &str) -> SmallRng {
        let h = fnv1a(name.as_bytes()) ^ self.master.rotate_left(17);
        SmallRng::seed_from_u64(h)
    }

    /// A stream scoped to a numbered entity (core, node, daemon index).
    pub fn stream_for(&self, name: &str, index: u64) -> SmallRng {
        let h = fnv1a(name.as_bytes()).wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ self.master.rotate_left(31);
        SmallRng::seed_from_u64(h)
    }
}

/// A lazily materialized column of per-entity streams (one per node,
/// core, or I/O node). The seed of stream `i` is a pure function of
/// `(master seed, name, i)` via [`RngHub::stream_for`], so nothing needs
/// to exist until the first draw: an entity that never draws costs no
/// memory, and the draw sequence is bit-identical to the old layout that
/// eagerly stored one `SmallRng` per entity. Streams are only ever
/// accessed by index (the map is never iterated), so the `HashMap`
/// backing is determinism-neutral.
#[derive(Clone, Debug)]
pub struct LazyStreams {
    name: &'static str,
    streams: std::collections::HashMap<u64, SmallRng>,
}

impl LazyStreams {
    pub fn new(name: &'static str) -> LazyStreams {
        LazyStreams {
            name,
            streams: std::collections::HashMap::new(),
        }
    }

    /// The stream for entity `index`, materialized on first use.
    pub fn get(&mut self, hub: &RngHub, index: u64) -> &mut SmallRng {
        self.streams
            .entry(index)
            .or_insert_with(|| hub.stream_for(self.name, index))
    }

    /// Streams materialized so far.
    pub fn materialized(&self) -> usize {
        self.streams.len()
    }

    /// Heap bytes currently held by materialized streams (approximate:
    /// entry payload only, not `HashMap` bucket overhead).
    pub fn resident_bytes(&self) -> usize {
        self.streams.capacity() * (std::mem::size_of::<(u64, SmallRng)>() + 8)
    }
}

/// Draw from `[lo, hi]` inclusive; degenerate ranges return `lo`.
pub fn uniform_incl(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = RngHub::new(42);
        let b = RngHub::new(42);
        let mut ra = a.stream("daemon");
        let mut rb = b.stream("daemon");
        for _ in 0..100 {
            assert_eq!(ra.gen::<u64>(), rb.gen::<u64>());
        }
    }

    #[test]
    fn different_names_different_streams() {
        let hub = RngHub::new(42);
        let mut ra = hub.stream("tick");
        let mut rb = hub.stream("daemon");
        let va: Vec<u64> = (0..8).map(|_| ra.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| rb.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_indices_different_streams() {
        let hub = RngHub::new(7);
        let mut r0 = hub.stream_for("core", 0);
        let mut r1 = hub.stream_for("core", 1);
        let v0: Vec<u64> = (0..8).map(|_| r0.gen()).collect();
        let v1: Vec<u64> = (0..8).map(|_| r1.gen()).collect();
        assert_ne!(v0, v1);
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut ra = RngHub::new(1).stream("x");
        let mut rb = RngHub::new(2).stream("x");
        assert_ne!(
            (0..8).map(|_| ra.gen::<u64>()).collect::<Vec<_>>(),
            (0..8).map(|_| rb.gen::<u64>()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniform_incl_degenerate() {
        let mut r = RngHub::new(0).stream("u");
        assert_eq!(uniform_incl(&mut r, 5, 5), 5);
        assert_eq!(uniform_incl(&mut r, 9, 3), 9);
        for _ in 0..100 {
            let v = uniform_incl(&mut r, 10, 20);
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn lazy_streams_match_eager_columns() {
        let hub = RngHub::new(0x5eed);
        // The old layout: one eagerly seeded SmallRng per node.
        let mut eager: Vec<SmallRng> = (0..8).map(|n| hub.stream_for("dram-refresh", n)).collect();
        let mut lazy = LazyStreams::new("dram-refresh");
        assert_eq!(lazy.materialized(), 0);
        // Interleave draws across entities in a scattered order; every
        // draw must match the eager column draw-for-draw.
        for &n in &[3u64, 0, 3, 7, 1, 1, 3, 0, 5, 7] {
            let want = eager[n as usize].gen::<u64>();
            let got = lazy.get(&hub, n).gen::<u64>();
            assert_eq!(want, got, "stream {n} diverged");
        }
        assert_eq!(lazy.materialized(), 5, "only touched entities exist");
        assert!(lazy.resident_bytes() > 0);
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
