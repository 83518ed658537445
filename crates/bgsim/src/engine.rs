//! The discrete-event engine.
//!
//! Events live in **per-domain queues** (a domain is one node's share of
//! the machine; single-domain engines collapse to the classic global
//! heap). Ordering is still the total order `(cycle, sequence)` — the
//! sequence counter is global, so the pop order is bit-identical to a
//! single global heap and the simulation stays deterministic: the
//! foundation of the cycle-reproducibility property the paper's bringup
//! methodology (§III) relies on.
//!
//! Three hot-path properties distinguish this engine from a plain
//! `BinaryHeap<Event>`:
//!
//! * **Payloads never move.** Heap entries are 24-byte `Copy` keys; the
//!   `EvKind` payload sits in a slab and is written once at `schedule`
//!   and read once at `pop`. Sift-up/sift-down shuffle keys only.
//! * **Cancellation is O(1).** `schedule*` returns an [`EvHandle`];
//!   [`Engine::cancel`] marks the slab slot dead without touching the
//!   heap. Dead entries are discarded lazily at pop (counted) and the
//!   queues are compacted wholesale when the dead fraction crosses a
//!   threshold, so a reschedule-heavy workload (preempt/stretch storms)
//!   no longer drags a tail of stale events through every heap
//!   operation.
//! * **The cross-domain merge is lazy.** A small "heads" heap holds at
//!   most one candidate key per domain; popping validates the candidate
//!   against the owning queue's real head and repairs stale candidates
//!   on the fly. `pop_until(bound)` — the epoch-bound check of the
//!   conservative parallel protocol — peeks this heads heap only, never
//!   the per-domain queues.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cycles::Cycle;

/// An event payload. The machine layer interprets these; the engine only
/// orders them.
#[derive(Clone, PartialEq, Debug)]
pub enum EvKind {
    /// The running op of thread `tid` completes (if `gen` still matches).
    OpDone { tid: u32, gen: u32 },
    /// A kernel-scheduled event (noise tick, daemon wake, timeslice, CIOD
    /// service completion...). `tag` is kernel-private.
    Kernel { node: u32, tag: u64 },
    /// A network message delivery.
    NetDeliver { msg_id: u64 },
    /// An inter-processor interrupt arriving at a hardware core.
    Ipi { core: u32, kind: u32 },
    /// An injected hardware fault (e.g. L1 parity error) on a core.
    Fault { core: u32, kind: u32 },
    /// A collective operation completes for one participant.
    CollDone { tid: u32, coll: u64 },
    /// A scheduled RAS fault fires; `idx` indexes the machine's sorted
    /// fault schedule ([`crate::fault::FaultSchedule`]).
    Ras { idx: u32 },
}

/// An ordered event.
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    pub at: Cycle,
    pub seq: u64,
    pub kind: EvKind,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Handle to a scheduled event, for O(1) cancellation. The `seq` guards
/// against slot reuse: a handle kept past its event's pop (or past a
/// cancel) simply stops matching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvHandle {
    slot: u32,
    seq: u64,
}

impl EvHandle {
    /// The global sequence number of the scheduled event. The fast path
    /// carries this through virtualization so a migrated event keeps its
    /// exact position in the `(cycle, seq)` total order.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Heap entry: the ordering key plus the slab slot of the payload.
/// `Copy`, so heap sifts move 24 bytes and never touch a payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Key {
    at: Cycle,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Debug)]
struct SlabEntry {
    kind: EvKind,
    seq: u64,
    dead: bool,
}

/// Engine occupancy / churn counters, exported to benches and telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events handed to `schedule*` since construction.
    pub scheduled: u64,
    /// Live events processed (excludes cancelled ones).
    pub processed: u64,
    /// Events cancelled via [`Engine::cancel`].
    pub cancelled: u64,
    /// Cancelled events discarded lazily at pop (cheap path).
    pub stale_discarded: u64,
    /// Whole-queue compactions triggered by the stale-fraction threshold.
    pub compactions: u64,
    /// Completions retired inline by the fast path (no heap traffic).
    pub coalesced: u64,
    /// Cycles the clock advanced via [`Engine::advance_inline`] instead
    /// of through heap pops.
    pub fastforward_cycles: u64,
}

/// Dead-entry floor before a cancel considers a wholesale compaction
/// sweep (it also requires dead > live). Below it the lazy pop-time
/// discard is cheaper than a rebuild.
const COMPACT_MIN_DEAD: usize = 64;

/// One domain's key queue: a plain min-heap over `(at, seq)`.
type DomainQueue = BinaryHeap<Reverse<Key>>;

/// The event queue.
#[derive(Debug)]
pub struct Engine {
    /// One ordered key queue per domain.
    queues: Vec<DomainQueue>,
    /// Lazy merge front: at most one *candidate* head per domain, as
    /// `(at, seq, domain)`. Entries are validated against the owning
    /// queue's head at pop time; stale candidates are dropped then.
    heads: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    /// Payload slab + free list. Heap keys index into this.
    slots: Vec<Option<SlabEntry>>,
    free: Vec<u32>,
    now: Cycle,
    /// Cycle of the last *processed* event. Unlike `now`, this never
    /// parks at a `pop_until` bound, so windowed runners can report the
    /// same end-of-run cycle a non-windowed run would.
    last_event: Cycle,
    seq: u64,
    live: usize,
    dead: usize,
    stats: EngineStats,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(1)
    }
}

impl Engine {
    /// An engine sharded into `domains` queues (clamped to at least 1;
    /// one domain is the classic sequential configuration). Nothing is
    /// pre-reserved: queues and the payload slab start empty and grow
    /// geometrically on demand, so idle domains cost only the 24-byte
    /// queue spine entry.
    pub fn new(domains: u32) -> Engine {
        let domains = domains.max(1) as usize;
        Engine {
            queues: (0..domains).map(|_| BinaryHeap::new()).collect(),
            heads: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            now: 0,
            last_event: 0,
            seq: 0,
            live: 0,
            dead: 0,
            stats: EngineStats::default(),
        }
    }

    /// Heap bytes currently reserved by the engine: per-domain queues,
    /// the payload slab, the free list, and the merge front. The
    /// accounting hook behind `Machine::resident_bytes_estimate`.
    pub fn resident_bytes(&self) -> usize {
        self.queues.capacity() * std::mem::size_of::<DomainQueue>()
            + self
                .queues
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<Reverse<Key>>())
                .sum::<usize>()
            + self.heads.capacity() * std::mem::size_of::<Reverse<(Cycle, u64, u32)>>()
            + self.slots.capacity() * std::mem::size_of::<Option<SlabEntry>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of event domains.
    pub fn domains(&self) -> u32 {
        self.queues.len() as u32
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Cycle of the last processed event (never parked at a
    /// `pop_until` bound, unlike [`Engine::now`]).
    #[inline]
    pub fn last_event_cycle(&self) -> Cycle {
        self.last_event
    }

    /// Number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.stats.processed
    }

    /// Occupancy / churn counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Schedule `kind` at absolute cycle `at` in domain 0. Scheduling in
    /// the past is a logic error in the caller.
    pub fn schedule(&mut self, at: Cycle, kind: EvKind) -> EvHandle {
        self.schedule_dom(0, at, kind)
    }

    /// Schedule `kind` `delta` cycles from now, in domain 0.
    pub fn schedule_in(&mut self, delta: Cycle, kind: EvKind) -> EvHandle {
        self.schedule_dom(0, self.now + delta, kind)
    }

    /// Schedule `kind` at absolute cycle `at` in `domain` (clamped to the
    /// engine's shape). Returns a handle usable with [`Engine::cancel`].
    pub fn schedule_dom(&mut self, domain: u32, at: Cycle, kind: EvKind) -> EvHandle {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {} < {}",
            at,
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = Some(SlabEntry {
            kind,
            seq,
            dead: false,
        });
        let d = (domain as usize).min(self.queues.len() - 1);
        let q = &mut self.queues[d];
        q.push(Reverse(Key { at, seq, slot }));
        // Only refresh the merge front when this event became the
        // domain's head; otherwise the existing candidate still wins.
        if let Some(Reverse(top)) = q.peek() {
            if top.seq == seq {
                self.heads.push(Reverse((at, seq, d as u32)));
            }
        }
        self.live += 1;
        self.stats.scheduled += 1;
        EvHandle { slot, seq }
    }

    /// Cancel a scheduled event in O(1): the slab slot is marked dead and
    /// the heap entry is discarded lazily at pop (or swept by a
    /// compaction). Returns false if the handle no longer matches a live
    /// pending event (already popped, cancelled, or slot reused).
    pub fn cancel(&mut self, h: EvHandle) -> bool {
        match self.slots.get_mut(h.slot as usize) {
            Some(Some(e)) if e.seq == h.seq && !e.dead => {
                e.dead = true;
                self.live -= 1;
                self.dead += 1;
                self.stats.cancelled += 1;
                if self.dead >= COMPACT_MIN_DEAD && self.dead > self.live {
                    self.compact();
                }
                true
            }
            _ => false,
        }
    }

    // ---- fast-path (event virtualization) support -------------------------
    //
    // The machine's quiescence fast path lifts pending completions out of
    // the heap into a tiny run queue, retires them inline, and puts any
    // survivors back on exit. Three invariants make that digest-safe:
    // sequence numbers come from the same global counter (`alloc_seq`), a
    // migrated event keeps its original `(at, seq)` key when restored, and
    // the clock advance (`advance_inline`) mirrors exactly what popping
    // the event would have done.

    /// Allocate the next global sequence number without scheduling an
    /// event. The fast path uses this so virtualized completions occupy
    /// the same positions in the total order that `schedule_dom` would
    /// have given them.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// True if `h` still refers to a live pending event.
    pub fn is_live(&self, h: EvHandle) -> bool {
        matches!(self.slots.get(h.slot as usize),
                 Some(Some(e)) if e.seq == h.seq && !e.dead)
    }

    /// Migrate a pending event out of the engine: the slab entry is
    /// marked dead (so the heap key is discarded when reached) but the
    /// event is *not* counted as cancelled — the caller either retires it
    /// inline or puts it back with [`Engine::restore`]. Returns false if
    /// the handle no longer matches a live event.
    pub fn decommit(&mut self, h: EvHandle) -> bool {
        match self.slots.get_mut(h.slot as usize) {
            Some(Some(e)) if e.seq == h.seq && !e.dead => {
                e.dead = true;
                self.live -= 1;
                self.dead += 1;
                true
            }
            _ => false,
        }
    }

    /// Re-insert a previously decommitted event with its *original*
    /// sequence number, so it reclaims the exact slot in the `(at, seq)`
    /// total order it held before migration. The dead twin left behind by
    /// [`Engine::decommit`] compares equal and is skipped at pop.
    pub fn restore(&mut self, domain: u32, at: Cycle, seq: u64, kind: EvKind) -> EvHandle {
        debug_assert!(
            at >= self.now,
            "restoring into the past: {} < {}",
            at,
            self.now
        );
        let at = at.max(self.now);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = Some(SlabEntry {
            kind,
            seq,
            dead: false,
        });
        let d = (domain as usize).min(self.queues.len() - 1);
        self.queues[d].push(Reverse(Key { at, seq, slot }));
        // Restores are rare (fast-path exit); unconditionally offering a
        // merge-front candidate is cheaper than disambiguating the dead
        // twin, and peek_valid drops stale candidates anyway.
        self.heads.push(Reverse((at, seq, d as u32)));
        self.live += 1;
        EvHandle { slot, seq }
    }

    /// Fast-path clock advance: jump to `at` exactly as popping an event
    /// there would have, counting the retired completion and the cycles
    /// that never touched the heap.
    pub fn advance_inline(&mut self, at: Cycle) {
        debug_assert!(at >= self.now);
        self.stats.fastforward_cycles += at.saturating_sub(self.now);
        self.stats.coalesced += 1;
        self.now = at;
        self.last_event = at;
    }

    /// Repair the merge front until its top candidate matches the real
    /// head of its domain queue, and return that key (which may point at
    /// a dead slab entry). `seq` uniqueness makes the match exact.
    fn peek_valid(&mut self) -> Option<(Cycle, u64, u32)> {
        while let Some(&Reverse((at, seq, d))) = self.heads.peek() {
            match self.queues[d as usize].peek() {
                Some(Reverse(k)) if k.at == at && k.seq == seq => return Some((at, seq, d)),
                _ => {
                    self.heads.pop();
                }
            }
        }
        None
    }

    /// Pop the validated head of `domain`. Returns `None` if it was a
    /// cancelled (dead) entry, which is discarded and counted.
    fn pop_head(&mut self, domain: u32) -> Option<Event> {
        self.heads.pop();
        let q = &mut self.queues[domain as usize];
        let Reverse(k) = q.pop().expect("validated head must exist");
        if let Some(Reverse(next)) = q.peek() {
            self.heads.push(Reverse((next.at, next.seq, domain)));
        }
        let entry = self.slots[k.slot as usize]
            .take()
            .expect("heap key must have a slab entry");
        self.free.push(k.slot);
        if entry.dead {
            self.dead -= 1;
            self.stats.stale_discarded += 1;
            return None;
        }
        self.live -= 1;
        debug_assert!(k.at >= self.now);
        self.now = k.at;
        self.last_event = k.at;
        self.stats.processed += 1;
        Some(Event {
            at: k.at,
            seq: k.seq,
            kind: entry.kind,
        })
    }

    /// Pop the next event, advancing the clock. Returns `None` when no
    /// live events are pending. Cancelled events are skipped silently
    /// and do not advance the clock.
    pub fn pop(&mut self) -> Option<Event> {
        loop {
            let (_, _, d) = self.peek_valid()?;
            if let Some(ev) = self.pop_head(d) {
                return Some(ev);
            }
        }
    }

    /// Pop the next event only if it fires at or before `bound`
    /// (clock-stop support: run the machine to an exact cycle, and the
    /// epoch-bound check of the conservative parallel protocol). When
    /// nothing live remains in range, the clock parks at the boundary.
    pub fn pop_until(&mut self, bound: Cycle) -> Option<Event> {
        loop {
            match self.peek_valid() {
                Some((at, _, d)) if at <= bound => {
                    if let Some(ev) = self.pop_head(d) {
                        return Some(ev);
                    }
                }
                _ => {
                    if self.now < bound {
                        self.now = bound;
                    }
                    return None;
                }
            }
        }
    }

    /// `(cycle, seq)` of the next live pending event, without popping it
    /// — the merge key callers need to interleave an external timer
    /// stream (the closed-form noise wheel) against the engine.
    /// Cancelled entries encountered on the way are discarded.
    pub fn peek_key(&mut self) -> Option<(Cycle, u64)> {
        loop {
            let (at, seq, d) = self.peek_valid()?;
            let Reverse(k) = self.queues[d as usize].peek().expect("validated head");
            let head_dead = self.slots[k.slot as usize]
                .as_ref()
                .map(|e| e.dead)
                .unwrap_or(true);
            if head_dead {
                self.pop_head(d);
                continue;
            }
            return Some((at, seq));
        }
    }

    /// Cycle of the next live pending event, without popping it.
    /// Cancelled entries encountered on the way are discarded.
    pub fn peek_at(&mut self) -> Option<Cycle> {
        self.peek_key().map(|(at, _)| at)
    }

    /// Closed-form timer advance: move the clock to `at` exactly as
    /// popping an event there would have, counting it as processed. The
    /// caller owns the event's payload (it never entered a queue).
    pub fn advance_virtual(&mut self, at: Cycle) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.last_event = at;
        self.stats.processed += 1;
    }

    /// True if no live events are pending.
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }

    /// Pending live event count (cancelled-but-unswept events excluded).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Drop every dead entry from every queue and rebuild the merge
    /// front. Triggered when the dead fraction crosses the threshold in
    /// [`Engine::cancel`]; also callable directly.
    pub fn compact(&mut self) {
        self.stats.compactions += 1;
        let Engine {
            queues,
            slots,
            free,
            ..
        } = self;
        for q in queues.iter_mut() {
            q.retain(|&Reverse(k)| {
                let dead = slots[k.slot as usize]
                    .as_ref()
                    .map(|e| e.dead)
                    .unwrap_or(true);
                if dead {
                    slots[k.slot as usize] = None;
                    free.push(k.slot);
                }
                !dead
            });
        }
        self.heads.clear();
        for (d, q) in self.queues.iter().enumerate() {
            if let Some(Reverse(k)) = q.peek() {
                self.heads.push(Reverse((k.at, k.seq, d as u32)));
            }
        }
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut e = Engine::new(1);
        e.schedule(30, EvKind::Kernel { node: 0, tag: 3 });
        e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.schedule(20, EvKind::Kernel { node: 0, tag: 2 });
        let tags: Vec<u64> = std::iter::from_fn(|| e.pop())
            .map(|ev| match ev.kind {
                EvKind::Kernel { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(e.now(), 30);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = Engine::new(1);
        for tag in 0..10 {
            e.schedule(100, EvKind::Kernel { node: 0, tag });
        }
        let tags: Vec<u64> = std::iter::from_fn(|| e.pop())
            .map(|ev| match ev.kind {
                EvKind::Kernel { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_bound() {
        let mut e = Engine::new(1);
        e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.schedule(50, EvKind::Kernel { node: 0, tag: 2 });
        assert!(e.pop_until(20).is_some());
        assert!(e.pop_until(20).is_none());
        // Clock parks at the bound, not at the next event.
        assert_eq!(e.now(), 20);
        assert_eq!(e.pending(), 1);
        assert!(e.pop_until(50).is_some());
        assert_eq!(e.now(), 50);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e = Engine::new(1);
        e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.pop();
        e.schedule_in(5, EvKind::Kernel { node: 0, tag: 2 });
        let ev = e.pop().unwrap();
        assert_eq!(ev.at, 15);
    }

    #[test]
    fn processed_counter() {
        let mut e = Engine::new(1);
        e.schedule(1, EvKind::Kernel { node: 0, tag: 0 });
        e.schedule(2, EvKind::Kernel { node: 0, tag: 0 });
        assert_eq!(e.processed(), 0);
        e.pop();
        e.pop();
        assert_eq!(e.processed(), 2);
        assert!(e.is_idle());
    }

    #[test]
    fn sharded_pop_order_matches_global_order() {
        // The same schedule stream through a 1-domain and an 8-domain
        // engine must pop in the identical (at, seq) order.
        let mut seq1 = Engine::new(1);
        let mut seq8 = Engine::new(8);
        let ats = [40u64, 12, 12, 99, 5, 40, 77, 5, 63, 12, 100, 0];
        for (i, &at) in ats.iter().enumerate() {
            let kind = EvKind::Kernel {
                node: i as u32,
                tag: i as u64,
            };
            seq1.schedule(at, kind.clone());
            seq8.schedule_dom(i as u32 % 8, at, kind);
        }
        loop {
            let a = seq1.pop();
            let b = seq8.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(seq1.now(), seq8.now());
    }

    #[test]
    fn cancel_skips_event_and_counts() {
        let mut e = Engine::new(1);
        let h1 = e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.schedule(20, EvKind::Kernel { node: 0, tag: 2 });
        assert_eq!(e.pending(), 2);
        assert!(e.cancel(h1));
        assert!(!e.cancel(h1), "double cancel must fail");
        assert_eq!(e.pending(), 1);
        let ev = e.pop().unwrap();
        assert!(matches!(ev.kind, EvKind::Kernel { tag: 2, .. }));
        // The cancelled event neither advanced the clock to 10 first nor
        // counted as processed.
        assert_eq!(e.now(), 20);
        assert_eq!(e.processed(), 1);
        assert_eq!(e.stats().cancelled, 1);
        assert_eq!(e.stats().stale_discarded, 1);
        assert!(e.pop().is_none());
    }

    #[test]
    fn cancelled_head_does_not_block_pop_until() {
        let mut e = Engine::new(1);
        let h = e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.schedule(50, EvKind::Kernel { node: 0, tag: 2 });
        e.cancel(h);
        // Dead head at 10 is within bound; it must be discarded without
        // surfacing, and the live event at 50 stays for later.
        assert!(e.pop_until(20).is_none());
        assert_eq!(e.now(), 20);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.peek_at(), Some(50));
    }

    #[test]
    fn handle_does_not_cancel_reused_slot() {
        let mut e = Engine::new(1);
        let h1 = e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.pop();
        // Slot is recycled for a new event; the stale handle must not
        // touch it.
        let h2 = e.schedule(20, EvKind::Kernel { node: 0, tag: 2 });
        assert!(!e.cancel(h1));
        assert_eq!(e.pending(), 1);
        assert!(e.cancel(h2));
        assert!(e.pop().is_none());
    }

    #[test]
    fn threshold_compaction_sweeps_dead_entries() {
        let mut e = Engine::new(1);
        let handles: Vec<EvHandle> = (0..200)
            .map(|i| e.schedule(i, EvKind::Kernel { node: 0, tag: i }))
            .collect();
        // Cancel from the back so the dead set exceeds the live set.
        for h in handles.iter().skip(60).rev() {
            e.cancel(*h);
        }
        assert!(e.stats().compactions >= 1, "threshold must trigger");
        assert_eq!(e.pending(), 60);
        let mut popped = 0;
        while let Some(ev) = e.pop() {
            assert!(matches!(ev.kind, EvKind::Kernel { tag, .. } if tag < 60));
            popped += 1;
        }
        assert_eq!(popped, 60);
        // Compaction swept the bulk of the dead entries wholesale; only
        // the ones cancelled after the sweep hit the lazy pop path.
        assert_eq!(e.stats().cancelled, 140);
        assert!(e.stats().stale_discarded < e.stats().cancelled / 2);
    }

    #[test]
    fn peek_at_reports_next_live_cycle() {
        let mut e = Engine::new(4);
        assert_eq!(e.peek_at(), None);
        let h = e.schedule_dom(1, 7, EvKind::Kernel { node: 1, tag: 0 });
        e.schedule_dom(3, 30, EvKind::Kernel { node: 3, tag: 1 });
        assert_eq!(e.peek_at(), Some(7));
        e.cancel(h);
        assert_eq!(e.peek_at(), Some(30));
        assert_eq!(e.pop().unwrap().at, 30);
        assert_eq!(e.peek_at(), None);
    }

    #[test]
    fn slab_reuses_slots() {
        let mut e = Engine::new(1);
        for round in 0..50u64 {
            e.schedule(
                round,
                EvKind::Kernel {
                    node: 0,
                    tag: round,
                },
            );
            e.pop();
        }
        // One slot in flight at a time: the slab must not grow past a
        // single entry.
        assert_eq!(e.slots.len(), 1);
    }

    #[test]
    fn idle_domains_reserve_no_queue_memory() {
        // A freshly built engine holds only the queue spine: no
        // per-domain heaps, no slot reservation.
        let e = Engine::new(4096);
        let spine = 4096 * std::mem::size_of::<DomainQueue>();
        assert_eq!(std::mem::size_of::<DomainQueue>(), 24);
        assert!(
            e.resident_bytes() <= spine,
            "{} > spine {spine}",
            e.resident_bytes()
        );
    }

    #[test]
    fn last_event_cycle_ignores_parking() {
        let mut e = Engine::new(1);
        e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.pop();
        assert!(e.pop_until(500).is_none());
        assert_eq!(e.now(), 500);
        assert_eq!(e.last_event_cycle(), 10);
    }

    #[test]
    fn decommit_then_restore_reclaims_total_order_slot() {
        // A migrated event put back with its original seq pops exactly
        // where it would have without the round trip — including against
        // a same-cycle rival scheduled later (higher seq).
        let mut e = Engine::new(1);
        e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        let h = e.schedule(20, EvKind::Kernel { node: 0, tag: 2 });
        e.schedule(20, EvKind::Kernel { node: 0, tag: 3 });
        let seq = h.seq();
        assert!(e.decommit(h));
        assert!(!e.is_live(h), "decommitted handle must read dead");
        assert!(!e.decommit(h), "double decommit must fail");
        assert_eq!(e.pending(), 2);
        let h2 = e.restore(0, 20, seq, EvKind::Kernel { node: 0, tag: 2 });
        assert!(e.is_live(h2));
        assert_eq!(h2.seq(), seq);
        assert_eq!(e.pending(), 3);
        let tags: Vec<u64> = std::iter::from_fn(|| e.pop())
            .map(|ev| match ev.kind {
                EvKind::Kernel { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![1, 2, 3]);
        // The dead twin was skipped silently: discarded, not cancelled.
        assert_eq!(e.stats().stale_discarded, 1);
        assert_eq!(e.stats().cancelled, 0);
        assert_eq!(e.stats().processed, 3);
    }

    #[test]
    fn decommitted_event_retired_inline_never_pops() {
        let mut e = Engine::new(1);
        let h = e.schedule(40, EvKind::Kernel { node: 0, tag: 7 });
        e.schedule(50, EvKind::Kernel { node: 0, tag: 8 });
        assert!(e.decommit(h));
        // Inline retirement: the clock jumps as if the event popped.
        e.advance_inline(40);
        assert_eq!(e.now(), 40);
        assert_eq!(e.last_event_cycle(), 40);
        let ev = e.pop().expect("live rival still queued");
        assert_eq!(ev.at, 50);
        assert!(e.pop().is_none());
        assert_eq!(e.stats().coalesced, 1);
        assert_eq!(e.stats().fastforward_cycles, 40);
        assert_eq!(e.stats().stale_discarded, 1);
    }

    #[test]
    fn alloc_seq_shares_the_schedule_counter() {
        // Virtualized completions draw from the same counter as real
        // ones, so a later schedule always sorts after an earlier
        // alloc_seq at the same cycle.
        let mut e = Engine::new(1);
        let s0 = e.alloc_seq();
        let h = e.schedule(10, EvKind::Kernel { node: 0, tag: 0 });
        assert_eq!(h.seq(), s0 + 1);
        assert!(e.alloc_seq() > h.seq());
        // And restoring at the reserved seq beats the scheduled rival.
        e.restore(0, 10, s0, EvKind::Kernel { node: 0, tag: 99 });
        let first = e.pop().unwrap();
        assert!(matches!(first.kind, EvKind::Kernel { tag: 99, .. }));
    }

    #[test]
    fn compaction_waits_for_the_dead_floor() {
        // Fewer than COMPACT_MIN_DEAD cancels never trigger a sweep, even
        // when every pending event is dead: the lazy pop-time discard
        // handles them.
        let mut e = Engine::new(1);
        let hs: Vec<EvHandle> = (0..COMPACT_MIN_DEAD as u64 - 1)
            .map(|i| e.schedule(i, EvKind::Kernel { node: 0, tag: i }))
            .collect();
        for h in hs {
            e.cancel(h);
        }
        assert_eq!(e.stats().compactions, 0);
        assert!(e.pop().is_none());
        assert_eq!(e.stats().stale_discarded, COMPACT_MIN_DEAD as u64 - 1);
    }

    #[test]
    fn advance_virtual_matches_pop_clock() {
        let mut popped = Engine::new(1);
        popped.schedule(123, EvKind::Kernel { node: 0, tag: 0 });
        popped.pop();
        let mut virt = Engine::new(1);
        virt.advance_virtual(123);
        assert_eq!(virt.now(), popped.now());
        assert_eq!(virt.last_event_cycle(), popped.last_event_cycle());
        assert_eq!(virt.processed(), popped.processed());
    }

    #[test]
    fn advance_inline_matches_pop_accounting() {
        // Same clock positions whether an event pops or fast-forwards.
        let mut popped = Engine::new(1);
        popped.schedule(100, EvKind::Kernel { node: 0, tag: 0 });
        popped.pop();
        let mut inline = Engine::new(1);
        let h = inline.schedule(100, EvKind::Kernel { node: 0, tag: 0 });
        inline.decommit(h);
        inline.advance_inline(100);
        assert_eq!(inline.now(), popped.now());
        assert_eq!(inline.last_event_cycle(), popped.last_event_cycle());
    }
}
