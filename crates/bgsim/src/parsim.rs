//! Conservative parallel discrete-event simulation over sharded event
//! domains.
//!
//! The machine is sharded into [`DomainLogic`] cells (one per node or
//! pset), each owning a private [`Engine`] and a private digest
//! [`Trace`]. Execution proceeds in **epochs** bounded by a conservative
//! *lookahead* window: every cross-domain event has a nonzero minimum
//! link latency (`MachineConfig::min_link_cycles` — torus injection +
//! hop, or one collective-network tree stage), so all events earlier
//! than `min_pending + lookahead` can be processed without any domain
//! observing another's in-window activity. Within an epoch a worker
//! pool drains the domains independently; cross-domain sends are
//! buffered in per-domain outboxes and merged at the epoch barrier in
//! deterministic `(cycle, source-domain, emission-seq)` order.
//!
//! Determinism argument, in three steps:
//!
//! 1. Within an epoch, each domain is touched by exactly one worker and
//!    reads nothing outside itself, so its event order and outbox
//!    emission order are schedule-independent.
//! 2. The outbox merge sorts by `(cycle, source-domain, emission-seq)`
//!    — a total order over all cross-domain sends of the epoch that
//!    does not depend on which worker finished first — so each
//!    destination engine assigns arrival sequence numbers identically
//!    on every run.
//! 3. The lookahead assertion in [`Outbox::send`] guarantees no send
//!    can land inside the epoch that emitted it, so steps 1 and 2 cover
//!    every event. By induction over epochs the full event history, and
//!    therefore every per-domain digest, is bit-identical for any
//!    worker count — `threads: 1` is the conformance oracle.
//!
//! This module is the parallel *substrate*: it runs any `Send` domain
//! logic. The full-machine `Machine` keeps kernels, VFS, and messaging
//! global (and stays sequential — see `Machine::run_windowed` for the
//! windowed driver over the same protocol); shard-level parallelism for
//! the bench suite lives in `bench::par` on top of whole independent
//! machines.

use crate::cycles::Cycle;
use crate::engine::{Engine, EvKind};
use crate::trace::{Trace, TraceEvent};

pub type DomainId = u32;

/// One shard of simulation logic. Handles its own events and emits
/// follow-ups through the [`Outbox`]; must be `Send` so a worker pool
/// can own it for the duration of an epoch.
pub trait DomainLogic: Send {
    fn handle(&mut self, now: Cycle, kind: &EvKind, out: &mut Outbox<'_>);
}

/// A cross-domain event buffered until the epoch barrier.
#[derive(Clone, Debug)]
struct RemoteEv {
    at: Cycle,
    dst: DomainId,
    kind: EvKind,
}

/// Event emission interface handed to [`DomainLogic::handle`]. Local
/// events go straight into the domain's own queue (any future cycle);
/// cross-domain sends must respect the lookahead floor and are merged
/// at the epoch barrier.
pub struct Outbox<'a> {
    lookahead: Cycle,
    now: Cycle,
    local: &'a mut Vec<(Cycle, EvKind)>,
    remote: &'a mut Vec<RemoteEv>,
}

impl Outbox<'_> {
    /// Schedule a local (same-domain) event at absolute cycle `at`.
    pub fn local_at(&mut self, at: Cycle, kind: EvKind) {
        debug_assert!(at >= self.now, "local event into the past");
        self.local.push((at.max(self.now), kind));
    }

    /// Schedule a local (same-domain) event `delta` cycles from now.
    pub fn local_in(&mut self, delta: Cycle, kind: EvKind) {
        self.local.push((self.now + delta, kind));
    }

    /// Send an event to another domain, arriving `delay` cycles from
    /// now. `delay` must be at least the lookahead — the conservative
    /// protocol is unsound otherwise, so this is a hard assertion, not
    /// a debug one.
    pub fn send(&mut self, dst: DomainId, delay: Cycle, kind: EvKind) {
        assert!(
            delay >= self.lookahead,
            "cross-domain send delay {} below lookahead {}",
            delay,
            self.lookahead
        );
        self.remote.push(RemoteEv {
            at: self.now + delay,
            dst,
            kind,
        });
    }
}

/// One domain: engine + logic + digest trace + outbox scratch.
struct DomainCell {
    engine: Engine,
    logic: Box<dyn DomainLogic>,
    trace: Trace,
    /// Cross-domain sends emitted this epoch, in emission order.
    outbox: Vec<RemoteEv>,
    /// Scratch for local emissions of one `handle` call.
    local_scratch: Vec<(Cycle, EvKind)>,
}

impl DomainCell {
    /// Drain this domain's queue up to and including `bound`.
    fn drain_epoch(&mut self, bound: Cycle, lookahead: Cycle) {
        while let Some(ev) = self.engine.pop_until(bound) {
            self.trace.record(
                ev.at,
                TraceEvent::Custom {
                    tag: ev_tag(&ev.kind),
                },
            );
            let mut out = Outbox {
                lookahead,
                now: ev.at,
                local: &mut self.local_scratch,
                remote: &mut self.outbox,
            };
            self.logic.handle(ev.at, &ev.kind, &mut out);
            for (at, kind) in self.local_scratch.drain(..) {
                self.engine.schedule(at, kind);
            }
        }
    }
}

/// Fold an event payload into a digestable tag (FNV-1a over the
/// variant and its fields).
fn ev_tag(kind: &EvKind) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    match *kind {
        EvKind::OpDone { tid, gen } => {
            mix(1);
            mix(tid as u64);
            mix(gen as u64);
        }
        EvKind::Kernel { node, tag } => {
            mix(2);
            mix(node as u64);
            mix(tag);
        }
        EvKind::NetDeliver { msg_id } => {
            mix(3);
            mix(msg_id);
        }
        EvKind::Ipi { core, kind } => {
            mix(4);
            mix(core as u64);
            mix(kind as u64);
        }
        EvKind::Fault { core, kind } => {
            mix(5);
            mix(core as u64);
            mix(kind as u64);
        }
        EvKind::CollDone { tid, coll } => {
            mix(6);
            mix(tid as u64);
            mix(coll);
        }
        EvKind::Ras { idx } => {
            mix(7);
            mix(idx as u64);
        }
    }
    h
}

/// How a parallel run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParOutcome {
    /// Cycle of the last processed event across all domains.
    pub final_cycle: Cycle,
    /// Fold of the per-domain trace digests, in domain order.
    pub digest: u64,
    /// Total events processed.
    pub events: u64,
    /// Parallel epochs executed.
    pub epochs: u64,
}

/// The sharded simulator.
pub struct ParSim {
    cells: Vec<DomainCell>,
    lookahead: Cycle,
    threads: usize,
    epochs: u64,
    /// Epoch-grained quiescence fast-forward: skip the drain call for
    /// cells whose earliest event lies beyond the epoch bound. Those
    /// cells would pop nothing — the skip elides the per-cell queue
    /// touch (and, threaded, the cell's share of the worker pass)
    /// without reordering a single event.
    fast_forward: bool,
    /// Cells skipped as epoch-quiescent (accumulated across epochs).
    skipped_cells: u64,
    /// Epoch-barrier merge buffer, reused across epochs so the barrier
    /// allocates only on high-water growth.
    merge_scratch: Vec<(Cycle, u32, usize, RemoteEv)>,
}

impl ParSim {
    /// Build a simulator over `logics.len()` domains with the given
    /// conservative lookahead (clamped to ≥ 1) and worker count
    /// (clamped to ≥ 1; 1 means run inline — the reference mode).
    pub fn new(logics: Vec<Box<dyn DomainLogic>>, lookahead: Cycle, threads: usize) -> ParSim {
        assert!(!logics.is_empty(), "at least one domain required");
        ParSim {
            cells: logics
                .into_iter()
                .map(|logic| DomainCell {
                    engine: Engine::new(1),
                    logic,
                    trace: Trace::new(false),
                    outbox: Vec::new(),
                    local_scratch: Vec::new(),
                })
                .collect(),
            lookahead: lookahead.max(1),
            threads: threads.max(1),
            epochs: 0,
            fast_forward: true,
            skipped_cells: 0,
            merge_scratch: Vec::new(),
        }
    }

    /// Toggle the epoch-grained quiescence fast-forward (on by
    /// default). Off reproduces the drain-every-cell reference
    /// schedule; outcomes are bit-identical either way.
    pub fn with_fast_forward(mut self, on: bool) -> ParSim {
        self.fast_forward = on;
        self
    }

    /// Cells skipped as epoch-quiescent so far (0 with fast-forward
    /// off).
    pub fn skipped_cells(&self) -> u64 {
        self.skipped_cells
    }

    pub fn domains(&self) -> u32 {
        self.cells.len() as u32
    }

    pub fn lookahead(&self) -> Cycle {
        self.lookahead
    }

    /// Seed an initial event into `domain` at absolute cycle `at`.
    pub fn schedule(&mut self, domain: DomainId, at: Cycle, kind: EvKind) {
        self.cells[domain as usize].engine.schedule(at, kind);
    }

    /// Per-domain trace digests (domain order).
    pub fn cell_digests(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.trace.digest()).collect()
    }

    /// Run until every queue is empty. Deterministic for any worker
    /// count (see the module docs for the argument).
    pub fn run(&mut self) -> ParOutcome {
        loop {
            // The global conservative horizon: the earliest pending
            // event anywhere, plus the lookahead. Everything strictly
            // below it is safe to process in parallel, because no
            // cross-domain send emitted in-window can land before it.
            //
            // Anchoring the window at `min_at` (rather than at the
            // current clock) is also a quiescence fast-forward: a sparse
            // schedule jumps straight to the next event, so the epoch
            // count scales with event density, never with the simulated
            // cycle span. `Machine::run_windowed` derives its window
            // bound by the same rule when the fast path is on.
            let min_at = self
                .cells
                .iter_mut()
                .filter_map(|c| c.engine.peek_at())
                .min();
            let Some(min_at) = min_at else { break };
            let horizon = min_at.saturating_add(self.lookahead);
            let bound = horizon - 1; // pop_until is inclusive
            self.epochs += 1;

            let lookahead = self.lookahead;
            // Epoch-grained fast-forward: a cell whose head lies beyond
            // the bound pops nothing this epoch — mark it quiescent and
            // skip its drain entirely. Cross-domain sends only land at
            // the barrier below, so a cell quiescent at the epoch start
            // stays quiescent for the whole window; the skip cannot
            // miss an event.
            let active: Vec<bool> = if self.fast_forward {
                self.cells
                    .iter_mut()
                    .map(|c| {
                        let a = c.engine.peek_at().is_some_and(|at| at <= bound);
                        if !a {
                            self.skipped_cells += 1;
                        }
                        a
                    })
                    .collect()
            } else {
                vec![true; self.cells.len()]
            };
            if self.threads == 1 {
                for (cell, act) in self.cells.iter_mut().zip(&active) {
                    if *act {
                        cell.drain_epoch(bound, lookahead);
                    }
                }
            } else {
                let per = self.cells.len().div_ceil(self.threads);
                std::thread::scope(|s| {
                    for (chunk, acts) in self.cells.chunks_mut(per).zip(active.chunks(per)) {
                        s.spawn(move || {
                            for (cell, act) in chunk.iter_mut().zip(acts) {
                                if *act {
                                    cell.drain_epoch(bound, lookahead);
                                }
                            }
                        });
                    }
                });
            }

            // Epoch barrier: merge the outboxes in (cycle, source
            // domain, emission seq) order — a total order independent
            // of worker scheduling — so destination engines assign
            // arrival sequence numbers identically on every run.
            let mut merged = std::mem::take(&mut self.merge_scratch);
            for (src, cell) in self.cells.iter_mut().enumerate() {
                for (i, ev) in cell.outbox.drain(..).enumerate() {
                    merged.push((ev.at, src as u32, i, ev));
                }
            }
            merged.sort_by_key(|&(at, src, i, _)| (at, src, i));
            for (_, _, _, ev) in merged.drain(..) {
                debug_assert!(ev.at >= horizon, "send violated the epoch horizon");
                self.cells[ev.dst as usize].engine.schedule(ev.at, ev.kind);
            }
            self.merge_scratch = merged;
        }

        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for cell in &self.cells {
            digest ^= cell.trace.digest();
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        ParOutcome {
            final_cycle: self
                .cells
                .iter()
                .map(|c| c.engine.last_event_cycle())
                .max()
                .unwrap_or(0),
            digest,
            events: self.cells.iter().map(|c| c.engine.processed()).sum(),
            epochs: self.epochs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token-ring logic: each event forwards a token to the next
    /// domain with a TTL, plus a local echo event to exercise
    /// intra-epoch work.
    struct Ring {
        me: u32,
        n: u32,
        delay: Cycle,
    }

    impl DomainLogic for Ring {
        fn handle(&mut self, _now: Cycle, kind: &EvKind, out: &mut Outbox<'_>) {
            if let EvKind::Kernel { tag, .. } = *kind {
                if tag == 0 {
                    return; // local echo: no further work
                }
                out.local_in(
                    3,
                    EvKind::Kernel {
                        node: self.me,
                        tag: 0,
                    },
                );
                out.send(
                    (self.me + 1) % self.n,
                    self.delay,
                    EvKind::Kernel {
                        node: (self.me + 1) % self.n,
                        tag: tag - 1,
                    },
                );
            }
        }
    }

    fn ring_sim(n: u32, threads: usize) -> ParSim {
        let logics: Vec<Box<dyn DomainLogic>> = (0..n)
            .map(|me| Box::new(Ring { me, n, delay: 150 }) as Box<dyn DomainLogic>)
            .collect();
        let mut sim = ParSim::new(logics, 100, threads);
        // Several concurrent tokens with staggered starts.
        for t in 0..4u32 {
            sim.schedule(
                t % n,
                10 + t as u64 * 7,
                EvKind::Kernel {
                    node: t % n,
                    tag: 40,
                },
            );
        }
        sim
    }

    #[test]
    fn ring_completes_and_counts() {
        let out = ring_sim(8, 1).run();
        // 4 tokens x 40 hops, each hop also spawns one local echo, plus
        // the 4 seeds.
        assert_eq!(out.events, 4 + 4 * 40 * 2);
        assert!(out.epochs > 1, "must take multiple epochs");
        assert!(out.final_cycle > 0);
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        let seq = ring_sim(8, 1).run();
        for threads in [2, 4, 8] {
            let par = ring_sim(8, threads).run();
            assert_eq!(par, seq, "threads={threads} diverged");
        }
    }

    #[test]
    fn per_domain_digests_match_too() {
        let mut a = ring_sim(6, 1);
        let mut b = ring_sim(6, 3);
        let oa = a.run();
        let ob = b.run();
        assert_eq!(oa, ob);
        assert_eq!(a.cell_digests(), b.cell_digests());
    }

    #[test]
    fn epochs_scale_with_events_not_cycle_span() {
        // Quiescence fast-forward: the window anchors at the earliest
        // pending event, so three events a billion cycles apart cost
        // three epochs — no empty windows in between.
        struct Absorb;
        impl DomainLogic for Absorb {
            fn handle(&mut self, _now: Cycle, _kind: &EvKind, _out: &mut Outbox<'_>) {}
        }
        let mut sim = ParSim::new(vec![Box::new(Absorb) as Box<dyn DomainLogic>], 10, 1);
        for i in 0..3u64 {
            sim.schedule(0, 1 + i * 1_000_000_000, EvKind::Kernel { node: 0, tag: i });
        }
        let out = sim.run();
        assert_eq!(out.events, 3);
        assert_eq!(out.epochs, 3);
        assert_eq!(out.final_cycle, 1 + 2 * 1_000_000_000);
    }

    #[test]
    fn quiescent_cell_skipping_is_bit_identical() {
        // A ring keeps at most a few domains active per epoch — the
        // rest are quiescent and must be skipped, with the outcome and
        // per-cell digests unchanged from the drain-every-cell
        // reference.
        let mut ff = ring_sim(8, 1);
        let mut refr = ring_sim(8, 1).with_fast_forward(false);
        let out_ff = ff.run();
        let out_ref = refr.run();
        assert_eq!(out_ff, out_ref);
        assert_eq!(ff.cell_digests(), refr.cell_digests());
        assert!(ff.skipped_cells() > 0, "ring must leave cells quiescent");
        assert_eq!(refr.skipped_cells(), 0);
        // Threaded fast-forward agrees too.
        let mut ff4 = ring_sim(8, 4);
        assert_eq!(ff4.run(), out_ref);
        assert_eq!(ff4.cell_digests(), refr.cell_digests());
    }

    #[test]
    #[should_panic(expected = "below lookahead")]
    fn undercutting_lookahead_panics() {
        struct Bad;
        impl DomainLogic for Bad {
            fn handle(&mut self, _now: Cycle, _kind: &EvKind, out: &mut Outbox<'_>) {
                out.send(1, 5, EvKind::Kernel { node: 1, tag: 0 });
            }
        }
        let mut sim = ParSim::new(vec![Box::new(Bad), Box::new(Bad)], 100, 1);
        sim.schedule(0, 1, EvKind::Kernel { node: 0, tag: 1 });
        sim.run();
    }
}
