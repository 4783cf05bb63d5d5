//! Hierarchical timer wheel with exact `(deadline, seq)` pop order.
//!
//! The executor's previous timer store was a `BinaryHeap<Reverse<TimerEntry>>`:
//! `O(log n)` per insert and pop, with poor cache behaviour once tens of
//! thousands of timers are live (fig6 runs north of a million). This wheel
//! replaces it with the classic hashed-and-hierarchical design — [`LEVELS`]
//! levels of [`SLOTS`] slots, level `l` spanning `64^l` nanoseconds per slot —
//! while preserving the heap's pop order *exactly*, which the whole
//! repository's golden baselines depend on.
//!
//! ## Tick contract
//!
//! * Level-0 slots are **1 ns wide**, the clock's full resolution: a fired
//!   slot holds entries of exactly one instant, so sorting the slot by `seq`
//!   restores registration order without comparing against any other slot.
//! * `base` is the wheel's origin: every stored deadline satisfies
//!   `at >= base`, and `base` never passes the earliest pending deadline.
//!   The executor guarantees insertions are strictly in the future
//!   (`at > now >= base`), so an insertion never lands behind the batch
//!   currently being dispensed.
//! * [`TimerWheel::pop_next_at_or_before`] takes a `limit` and will neither
//!   fire nor advance `base` past it, so `run_until(deadline)` can park the
//!   clock at `deadline` and later registrations still satisfy the origin
//!   invariant.
//! * Deadlines at or beyond `base + 64^6` (≈ 68.7 simulated seconds out)
//!   wait in an overflow min-heap and migrate into the wheel as `base`
//!   advances.
//!
//! ## Cancellation
//!
//! [`TimerWheel::insert`] returns a [`Timer`] handle (node and generation;
//! a node's generation changes each time it is reused, so a handle to an
//! entry that already fired or was cancelled finds nothing), and
//! [`TimerWheel::cancel`] drops the entry's value in O(1), leaving its node
//! where it waits as a tombstone. The tombstone cascades like any entry and
//! is freed, never fired, when its instant is dispensed; a wheel with no
//! live entry pops nothing without moving `base`, so `base` never runs
//! ahead of a clock that no entry fired. Unlinking at once would
//! cost either a back link, a store on every insert and cascade (≈ 30 %
//! slower pop-and-reinsert churn over 100 live timers on a 2-vCPU x86 VM),
//! or a walk of the slot's chain per cancel (33 nodes on average in
//! `fig6_coopcache`, whose timed-out calls share 16 ms slots).
//!
//! Cascading picks the minimum *candidate* across levels — the first
//! occupied slot's window start, except for the slot containing `base`
//! itself, whose entries may straddle two wheel rotations and are therefore
//! scanned for their true minimum. Ties prefer the highest level so that
//! same-instant entries hiding in coarse slots are cascaded down and merged
//! into the level-0 batch before it fires.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::num::NonZeroU32;

const BITS: u32 = 6;
const SLOTS: usize = 1 << BITS; // 64 slots per level
const LEVELS: usize = 6;
/// One past the largest `at - base` the wheel can hold: `64^6` ns.
const SPAN: u64 = 1 << (BITS * LEVELS as u32);

/// A fired timer: deadline and payload.
pub(crate) struct Entry<T> {
    pub(crate) at: u64,
    pub(crate) value: T,
}

/// Handle to a stored timer, for [`TimerWheel::cancel`]: its node and the
/// node's generation when the timer was stored. Eight bytes, and an
/// `Option<Timer>` too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Timer {
    node: u32,
    gen: NonZeroU32,
}

pub(crate) struct TimerWheel<T> {
    base: u64,
    /// Per-level occupancy bitmap: bit `s` ⇔ slot `l * SLOTS + s` nonempty.
    occ: [u64; LEVELS],
    /// Head node index per slot (`NIL` = empty), lazily allocated on first
    /// insert so an executor that never arms a timer never pays for it.
    heads: Vec<u32>,
    /// Node storage for every entry. Nodes are never freed back to the
    /// allocator while the wheel lives: cascading relinks them between
    /// slots in place, and fired or cancelled nodes chain onto the `free`
    /// list for reuse, so steady-state insert/pop/cancel churn costs zero
    /// allocations.
    arena: Vec<Node<T>>,
    /// Head of the free-node chain through `Node::next` (`NIL` = empty).
    free: u32,
    /// `(at, seq, node)` of the entries beyond the wheel span.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Nodes of the level-0 batch currently being dispensed, sorted by
    /// `seq`. All share one deadline (== `base`).
    pending: VecDeque<u32>,
    /// Live (stored, neither fired nor cancelled) entries.
    len: usize,
}

const NIL: u32 = u32::MAX;

/// One timer in the arena. `value` is `None` while the node rests on the
/// free list, and in a cancelled entry's tombstone.
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    gen: NonZeroU32,
    value: Option<T>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            base: 0,
            occ: [0; LEVELS],
            heads: Vec::new(),
            arena: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            pending: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of stored (not yet popped) timers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store a timer and return its handle. The caller must not insert
    /// behind the wheel origin (the executor registers timers strictly in
    /// the future).
    pub(crate) fn insert(&mut self, at: u64, seq: u64, value: T) -> Timer {
        debug_assert!(at >= self.base, "timer registered behind the wheel");
        if self.heads.is_empty() {
            self.heads = vec![NIL; LEVELS * SLOTS];
        }
        self.len += 1;
        let n = self.alloc_node(at, seq, value);
        if at - self.base >= SPAN {
            self.overflow.push(Reverse((at, seq, n)));
        } else {
            self.link(n);
        }
        Timer {
            node: n,
            gen: self.arena[n as usize].gen,
        }
    }

    /// Cancel the timer `t` and return its value; `None` when it already
    /// fired or was cancelled.
    pub(crate) fn cancel(&mut self, t: Timer) -> Option<T> {
        let node = self.arena.get_mut(t.node as usize)?;
        if node.gen != t.gen {
            return None;
        }
        let value = node.value.take()?;
        self.len -= 1;
        Some(value)
    }

    /// Move the node behind `t` to generation `gen` and return its handle
    /// there, so a test can start a node near the generation wrap.
    #[cfg(test)]
    fn regenerate(&mut self, t: Timer, gen: u32) -> Timer {
        let gen = NonZeroU32::new(gen).expect("a generation is nonzero");
        self.arena[t.node as usize].gen = gen;
        Timer { node: t.node, gen }
    }

    /// Take a node off the free list (a new generation of it), or grow the
    /// arena by one.
    fn alloc_node(&mut self, at: u64, seq: u64, value: T) -> u32 {
        if self.free != NIL {
            let n = self.free;
            let node = &mut self.arena[n as usize];
            self.free = node.next;
            node.at = at;
            node.seq = seq;
            node.gen = node.gen.checked_add(1).unwrap_or(NonZeroU32::MIN);
            node.value = Some(value);
            n
        } else {
            assert!(self.arena.len() < NIL as usize, "timer arena exhausted");
            self.arena.push(Node {
                at,
                seq,
                next: NIL,
                gen: NonZeroU32::MIN,
                value: Some(value),
            });
            (self.arena.len() - 1) as u32
        }
    }

    fn free_node(&mut self, n: u32) {
        debug_assert!(self.arena[n as usize].value.is_none());
        self.arena[n as usize].next = self.free;
        self.free = n;
    }

    /// Free node `n` and return its entry: `None` for a tombstone.
    fn fire(&mut self, n: u32) -> Option<Entry<T>> {
        let node = &mut self.arena[n as usize];
        let e = node.value.take().map(|value| Entry { at: node.at, value });
        self.free_node(n);
        self.len -= usize::from(e.is_some());
        e
    }

    /// Chain node `n` onto the slot its deadline belongs to (relative to the
    /// current `base`). Pure pointer relinking: no allocation, no value move.
    fn link(&mut self, n: u32) {
        let at = self.arena[n as usize].at;
        let delta = at - self.base;
        debug_assert!(delta < SPAN);
        let lvl = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / BITS) as usize
        };
        let slot = ((at >> (BITS * lvl as u32)) as usize) & (SLOTS - 1);
        let idx = lvl * SLOTS + slot;
        self.occ[lvl] |= 1 << slot;
        self.arena[n as usize].next = self.heads[idx];
        self.heads[idx] = n;
    }

    /// Move every overflow entry that now fits the wheel span into its slot.
    fn migrate_overflow(&mut self) {
        while let Some(&Reverse((at, _, n))) = self.overflow.peek() {
            if at - self.base >= SPAN {
                break;
            }
            self.overflow.pop();
            self.link(n);
        }
    }

    /// Pop the earliest live `(at, seq)` timer whose deadline is
    /// `<= limit`, or return `None` — in which case neither the wheel origin
    /// nor any entry has moved past `limit`, and with no live entry the
    /// origin has not moved at all.
    pub(crate) fn pop_next_at_or_before(&mut self, limit: u64) -> Option<Entry<T>> {
        loop {
            if self.len == 0 {
                return None;
            }
            // Dispense the current same-instant batch first: everything else
            // in the wheel is strictly later.
            if let Some(&front) = self.pending.front() {
                if self.arena[front as usize].at > limit {
                    return None;
                }
                self.pending.pop_front();
                match self.fire(front) {
                    Some(e) => return Some(e),
                    None => continue,
                }
            }
            self.migrate_overflow();
            if self.occ.iter().all(|&o| o == 0) {
                // Wheel empty: the next deadline (if any) is far future.
                let next_at = match self.overflow.peek() {
                    Some(&Reverse((at, _, _))) => at,
                    None => return None,
                };
                if next_at > limit {
                    return None;
                }
                self.base = next_at;
                self.migrate_overflow();
                continue;
            }
            // Minimum firing candidate across every occupied slot. Each
            // level contributes up to two: the first occupied slot *after*
            // the one containing `base` is bounded exactly by its window
            // start (entries of a single rotation), while the slot
            // containing `base` may straddle two rotations and is scanned
            // for its true minimum. Ties keep the later candidate — the
            // `base` slot over the rest of its level, and the highest level
            // overall — so same-instant entries hiding in coarse slots are
            // cascaded down and merged into the level-0 batch before it is
            // sealed. `second` tracks the runner-up: a lower bound on every
            // deadline stored outside the chosen slot.
            let mut best: Option<(u64, usize, usize)> = None;
            let mut second = u64::MAX;
            for lvl in 0..LEVELS {
                let occ = self.occ[lvl];
                if occ == 0 {
                    continue;
                }
                let shift = BITS * lvl as u32;
                let width = 1u64 << shift;
                let period = width << BITS;
                let cur = ((self.base >> shift) as usize) & (SLOTS - 1);
                let rest = occ & !(1u64 << cur);
                if rest != 0 {
                    let d = rest.rotate_right(cur as u32).trailing_zeros() as usize;
                    let slot = (cur + d) & (SLOTS - 1);
                    let mut w = (self.base & !(period - 1)) + slot as u64 * width;
                    if w + width <= self.base {
                        w += period;
                    }
                    debug_assert!(w > self.base);
                    match best {
                        Some((bc, _, _)) if w <= bc => {
                            second = second.min(bc);
                            best = Some((w, lvl, slot));
                        }
                        Some(_) => second = second.min(w),
                        None => best = Some((w, lvl, slot)),
                    }
                }
                if occ & (1u64 << cur) != 0 {
                    let mut m = u64::MAX;
                    let mut i = self.heads[lvl * SLOTS + cur];
                    while i != NIL {
                        let node = &self.arena[i as usize];
                        m = m.min(node.at);
                        i = node.next;
                    }
                    debug_assert!(m != u64::MAX, "occupancy bit set on empty slot");
                    match best {
                        Some((bc, _, _)) if m <= bc => {
                            second = second.min(bc);
                            best = Some((m, lvl, cur));
                        }
                        Some(_) => second = second.min(m),
                        None => best = Some((m, lvl, cur)),
                    }
                }
            }
            let (cand, lvl, slot) = best.expect("wheel occupancy was nonzero");
            if cand > limit {
                return None;
            }
            debug_assert!(cand >= self.base);
            let idx = lvl * SLOTS + slot;
            // Fast path: a lone entry strictly earlier than the lower bound
            // of every other occupied slot (and, post-migration, the whole
            // overflow heap) is the global minimum — fire it directly,
            // skipping the level-by-level cascade.
            let head = self.heads[idx];
            debug_assert!(head != NIL);
            if self.arena[head as usize].next == NIL {
                let at = self.arena[head as usize].at;
                if at <= limit && at < second {
                    self.heads[idx] = NIL;
                    self.occ[lvl] &= !(1u64 << slot);
                    // A tombstone goes without moving the origin.
                    if let Some(e) = self.fire(head) {
                        self.base = at;
                        return Some(e);
                    }
                    continue;
                }
            }
            let mut i = std::mem::replace(&mut self.heads[idx], NIL);
            self.occ[lvl] &= !(1u64 << slot);
            // Safe: `cand` lower-bounds every stored deadline, so advancing
            // the origin to it strands nothing behind the wheel.
            self.base = cand;
            if lvl == 0 {
                // 1 ns slots: the whole batch shares one instant; sorting by
                // seq restores registration order.
                while i != NIL {
                    let node = &self.arena[i as usize];
                    debug_assert_eq!(node.at, cand);
                    let next = node.next;
                    if node.value.is_some() {
                        self.pending.push_back(i);
                    } else {
                        self.free_node(i);
                    }
                    i = next;
                }
                let arena = &self.arena;
                self.pending
                    .make_contiguous()
                    .sort_unstable_by_key(|&n| arena[n as usize].seq);
            } else {
                // Cascade: relink every node of the batch against the new
                // origin. Nodes move between slots by pointer surgery only.
                while i != NIL {
                    let next = self.arena[i as usize].next;
                    self.link(i);
                    i = next;
                }
            }
        }
    }

    /// A lower bound on the earliest pending deadline, or `None` when no
    /// live entry is stored. Strictly read-only — no cascade, no origin
    /// motion — so it is safe at any point between pops (a pop-based peek
    /// would advance `base` and corrupt later inserts behind it).
    ///
    /// The bound is exact for the origin slot, the same-instant batch, and
    /// the overflow heap, tombstones aside; for other occupied slots it is
    /// the slot's window start, i.e. within one slot width below the true
    /// minimum. That is what the sharded engine's idle fast-forward needs:
    /// a time provably at-or-before the next timer, cheap to compute every
    /// window.
    pub(crate) fn next_at_bound(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut m = u64::MAX;
        if let Some(&front) = self.pending.front() {
            m = m.min(self.arena[front as usize].at);
        }
        if let Some(&Reverse((at, _, _))) = self.overflow.peek() {
            m = m.min(at);
        }
        if !self.heads.is_empty() {
            for lvl in 0..LEVELS {
                let occ = self.occ[lvl];
                if occ == 0 {
                    continue;
                }
                let shift = BITS * lvl as u32;
                let width = 1u64 << shift;
                let period = width << BITS;
                let cur = ((self.base >> shift) as usize) & (SLOTS - 1);
                let rest = occ & !(1u64 << cur);
                if rest != 0 {
                    let d = rest.rotate_right(cur as u32).trailing_zeros() as usize;
                    let slot = (cur + d) & (SLOTS - 1);
                    let mut w = (self.base & !(period - 1)) + slot as u64 * width;
                    if w + width <= self.base {
                        w += period;
                    }
                    m = m.min(w);
                }
                if occ & (1u64 << cur) != 0 {
                    let mut i = self.heads[lvl * SLOTS + cur];
                    while i != NIL {
                        let node = &self.arena[i as usize];
                        m = m.min(node.at);
                        i = node.next;
                    }
                }
            }
        }
        if m == u64::MAX {
            None
        } else {
            Some(m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse as Rev;

    /// The reference implementation the wheel must match pop-for-pop: the
    /// executor's previous `BinaryHeap` keyed by `(at, seq)`, with
    /// cancellation as a set of tags to skip.
    #[derive(Default)]
    struct HeapRef {
        heap: BinaryHeap<Rev<(u64, u64, u32)>>,
        /// Tags stored and neither popped nor cancelled.
        live: std::collections::HashSet<u32>,
    }

    impl HeapRef {
        fn insert(&mut self, at: u64, seq: u64, tag: u32) {
            self.heap.push(Rev((at, seq, tag)));
            self.live.insert(tag);
        }
        fn cancel(&mut self, tag: u32) -> Option<u32> {
            self.live.remove(&tag).then_some(tag)
        }
        fn pop_at_or_before(&mut self, limit: u64) -> Option<(u64, u64, u32)> {
            while let Some(&Rev((at, _, tag))) = self.heap.peek() {
                if !self.live.contains(&tag) {
                    self.heap.pop();
                    continue;
                }
                if at > limit {
                    return None;
                }
                self.live.remove(&tag);
                return self.heap.pop().map(|Rev(e)| e);
            }
            None
        }
    }

    /// One scripted interaction: a batch of insertions (deadline offsets
    /// relative to the current clock), a number of pops, or the cancel of
    /// one timer ever stored (by index, modulo how many), whether it is
    /// still waiting, already fired or already cancelled.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u64>),
        Pop(usize),
        Cancel(usize),
    }

    /// Run `ops` on a wheel and the heap, both first moved to `origin` by
    /// firing one timer there.
    fn run_script(origin: u64, ops: &[Op]) {
        let mut wheel = TimerWheel::new();
        let mut heap = HeapRef::default();
        let mut handles = vec![wheel.insert(origin, 0, 0)];
        heap.insert(origin, 0, 0);
        assert_eq!(
            wheel.pop_next_at_or_before(origin).map(|e| e.at),
            Some(origin)
        );
        assert_eq!(heap.pop_at_or_before(origin), Some((origin, 0, 0)));
        let mut seq = 1u64;
        let mut now = origin;
        let mut tag = 1u32;
        for op in ops {
            match op {
                Op::Insert(offsets) => {
                    for &off in offsets {
                        // Strictly-future deadlines, like the executor's
                        // `Sleep` registration path.
                        let at = now + 1 + off;
                        handles.push(wheel.insert(at, seq, tag));
                        heap.insert(at, seq, tag);
                        seq += 1;
                        tag += 1;
                    }
                }
                Op::Cancel(i) => {
                    if handles.is_empty() {
                        continue;
                    }
                    let i = i % handles.len();
                    assert_eq!(
                        wheel.cancel(handles[i]),
                        heap.cancel(i as u32),
                        "cancel of timer {i} disagrees with the heap"
                    );
                    assert_eq!(wheel.len(), heap.live.len());
                }
                Op::Pop(n) => {
                    for _ in 0..*n {
                        let expect = heap.pop_at_or_before(u64::MAX);
                        let got = wheel.pop_next_at_or_before(u64::MAX);
                        match (expect, got) {
                            (None, None) => break,
                            (Some((at, _, t)), Some(e)) => {
                                assert_eq!(
                                    (e.at, e.value),
                                    (at, t),
                                    "wheel pop diverged from heap order"
                                );
                                assert!(at >= now, "time went backwards");
                                now = at;
                            }
                            (e, g) => panic!(
                                "presence mismatch: heap={e:?} wheel={:?}",
                                g.map(|x| (x.at, x.value))
                            ),
                        }
                    }
                }
            }
        }
        // Drain both completely; the tails must agree too.
        loop {
            let expect = heap.pop_at_or_before(u64::MAX);
            let got = wheel.pop_next_at_or_before(u64::MAX);
            match (expect, got) {
                (None, None) => break,
                (Some((at, _, t)), Some(e)) => {
                    assert_eq!((e.at, e.value), (at, t));
                }
                (e, g) => panic!(
                    "tail mismatch: heap={e:?} wheel={:?}",
                    g.map(|x| (x.at, x.value))
                ),
            }
        }
        assert!(wheel.is_empty());
    }

    /// Offsets spanning every level of the wheel plus the overflow heap,
    /// weighted toward ties and small values where the ordering is subtlest.
    fn offset_strategy() -> impl Strategy<Value = u64> {
        (0u32..17, 0u64..u64::MAX).prop_map(|(bucket, raw)| match bucket {
            0..=3 => raw % 4,              // same-tick ties and near ties
            4..=7 => raw % 64,             // level 0
            8..=10 => raw % 4096,          // level 1
            11 | 12 => raw % 262_144,      // level 2
            13 | 14 => raw % (1u64 << 30), // mid levels
            15 => SPAN - 64 + raw % 1088,  // straddling the overflow edge
            _ => SPAN + raw % (3 * SPAN),  // deep overflow, cascades back
        })
    }

    /// Wheel origins: 0, or just below `k·64^l` for a level `l` (`k·SPAN`
    /// at `l = LEVELS`). There the slot holding `base` straddles two
    /// rotations, and the first deadlines roll the level over.
    fn origin_strategy() -> impl Strategy<Value = u64> {
        (0..=LEVELS as u32, 1u64..4, 1u64..65).prop_map(|(l, k, below)| {
            if l == 0 {
                0
            } else {
                (k << (BITS * l)) - below
            }
        })
    }

    fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
        let op = (
            0u32..7,
            prop::collection::vec(offset_strategy(), 1..20),
            1usize..30,
        )
            .prop_map(|(which, inserts, n)| match which {
                0..=2 => Op::Insert(inserts),
                3 | 4 => Op::Pop(n),
                _ => Op::Cancel(n * 7919),
            });
        prop::collection::vec(op, 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tentpole contract: from any origin, arbitrary interleavings
        /// of insertions (same-tick ties, every level, overflow), pops and
        /// cancels produce exactly the `(deadline, seq)` order of the old
        /// binary heap, less what was cancelled.
        #[test]
        fn wheel_pop_order_matches_heap(ops in ops_strategy(), origin in origin_strategy()) {
            run_script(origin, &ops);
        }
    }

    #[test]
    fn empty_wheel_pops_nothing() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        assert!(w.pop_next_at_or_before(u64::MAX).is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_entries_fire_in_seq_order_across_levels() {
        // Two entries with the same deadline, registered when the deadline
        // sat in different levels: an early registration lands in a coarse
        // slot, a later one (after base advanced) in a fine slot. The tie
        // must still fire in seq order.
        let mut w = TimerWheel::new();
        w.insert(10_000, 0, "coarse"); // level 2 from base 0
        w.insert(9_999, 1, "stepper");
        let e = w.pop_next_at_or_before(u64::MAX).unwrap();
        assert_eq!((e.at, e.value), (9_999, "stepper"));
        // base is now 9_999; a same-deadline late registration is level 0.
        w.insert(10_000, 2, "fine");
        let a = w.pop_next_at_or_before(u64::MAX).unwrap();
        let b = w.pop_next_at_or_before(u64::MAX).unwrap();
        assert_eq!((a.at, a.value), (10_000, "coarse"));
        assert_eq!((b.at, b.value), (10_000, "fine"));
        assert!(w.is_empty());
    }

    #[test]
    fn limit_is_respected_and_never_moves_entries_past_it() {
        let mut w = TimerWheel::new();
        w.insert(500, 0, 0);
        assert!(w.pop_next_at_or_before(499).is_none());
        assert_eq!(w.len(), 1);
        let e = w.pop_next_at_or_before(500).unwrap();
        assert_eq!(e.at, 500);
        // Far-future entry: a small limit must not drag base anywhere near it.
        w.insert(SPAN * 3, 1, 1);
        assert!(w.pop_next_at_or_before(1_000).is_none());
        // A later, nearer registration must still be accepted and win.
        w.insert(2_000, 2, 2);
        let e = w.pop_next_at_or_before(u64::MAX).unwrap();
        assert_eq!((e.at, e.value), (2_000, 2));
        let e = w.pop_next_at_or_before(u64::MAX).unwrap();
        assert_eq!((e.at, e.value), (SPAN * 3, 1));
    }

    #[test]
    fn overflow_entries_cascade_back_in_order() {
        let mut w = TimerWheel::new();
        for i in 0..10u64 {
            w.insert(SPAN + i * 7, 100 - i, i);
        }
        let mut prev = None;
        for _ in 0..10 {
            let e = w.pop_next_at_or_before(u64::MAX).unwrap();
            if let Some(p) = prev {
                assert!(e.at >= p);
            }
            prev = Some(e.at);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn sustained_churn_matches_heap() {
        // Pop-then-rearm churn, the executor's steady state. This drives
        // `base` into the middle of coarse-slot windows, exercising the
        // rotation-straddling current-slot path that short scripted runs
        // rarely reach.
        let mut wheel = TimerWheel::new();
        let mut heap = HeapRef::default();
        let mut rng = 0x1234_5678u64;
        let mut seq = 0u64;
        for i in 0..64u64 {
            wheel.insert(i * 97 + 1, seq, i as u32);
            heap.insert(i * 97 + 1, seq, i as u32);
            seq += 1;
        }
        for _ in 0..200_000 {
            let (at, _, t) = heap.pop_at_or_before(u64::MAX).unwrap();
            let e = wheel.pop_next_at_or_before(u64::MAX).unwrap();
            assert_eq!((e.at, e.value), (at, t));
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = 1 + (rng >> 33) % 5000;
            wheel.insert(at + d, seq, seq as u32);
            heap.insert(at + d, seq, seq as u32);
            seq += 1;
        }
    }

    #[test]
    fn a_cancelled_timer_never_fires_and_never_moves_the_origin() {
        let mut w = TimerWheel::new();
        // A lone slot entry, a chain of three sharing one slot, an overflow
        // entry and a same-instant batch of two.
        let lone = w.insert(5, 0, "lone");
        let chain: Vec<Timer> = ["c1", "c2", "c3"]
            .iter()
            .zip(1..)
            .map(|(&v, s)| w.insert(4_000, s, v))
            .collect();
        let far = w.insert(SPAN * 2, 4, "far");
        let a = w.insert(9_000, 5, "a");
        let b = w.insert(9_000, 6, "b");
        assert_eq!(w.cancel(lone), Some("lone"));
        assert_eq!(w.cancel(lone), None, "a second cancel finds nothing");
        assert_eq!(w.cancel(chain[1]), Some("c2"), "middle of a chain");
        assert_eq!(w.cancel(far), Some("far"));
        assert_eq!(w.len(), 4);
        let e = w.pop_next_at_or_before(u64::MAX).unwrap();
        assert_eq!((e.at, e.value), (4_000, "c1"));
        let e = w.pop_next_at_or_before(u64::MAX).unwrap();
        assert_eq!((e.at, e.value), (4_000, "c3"));
        assert_eq!(w.cancel(chain[0]), None, "a fired timer is gone");
        // `a` fires from the batch; `b` waits there and is cancelled.
        let e = w.pop_next_at_or_before(u64::MAX).unwrap();
        assert_eq!(e.value, "a");
        assert_eq!(w.cancel(b), Some("b"));
        assert_eq!(w.cancel(a), None);
        assert!(w.is_empty());
        assert!(w.pop_next_at_or_before(u64::MAX).is_none());
        assert_eq!(w.next_at_bound(), None, "a tombstone is no deadline");
        // The clock stopped at 9 µs; had the origin run on to `far`'s
        // tombstone, this insert would land behind it.
        let near = w.insert(9_001, 7, "near");
        let e = w.pop_next_at_or_before(u64::MAX).unwrap();
        assert_eq!((e.at, e.value), (9_001, "near"));
        assert!(w.pop_next_at_or_before(u64::MAX).is_none());
        // A reused node is a new generation: old handles stay dead.
        let again = w.insert(10_000, 8, "again");
        for old in [lone, chain[0], chain[1], chain[2], a, b, near] {
            assert_eq!(w.cancel(old), None);
        }
        assert_eq!(w.cancel(again), Some("again"));
    }

    /// A reused node's generation wraps from `u32::MAX` to 1: nothing
    /// panics, no handle from an earlier generation cancels the timer the
    /// node holds now, and the live handle cancels it.
    #[test]
    fn timer_generation_wraps_past_u32_max() {
        let mut w = TimerWheel::new();
        let first = w.insert(1, 0, 0u32);
        let mut live = w.regenerate(first, u32::MAX - 1);
        let mut stale = Vec::new();
        // Each round fires the live timer, freeing its node, and stores the
        // next one there: generations `MAX`, then 1, 2 and 3.
        for round in 1..=4u32 {
            let fired = w.pop_next_at_or_before(u64::MAX).map(|e| e.value);
            assert_eq!(fired, Some(round - 1));
            stale.push(live);
            live = w.insert(u64::from(round) + 1, u64::from(round), round);
            assert_eq!(live.node, first.node, "the freed node is reused");
            for &old in &stale {
                assert_eq!(w.cancel(old), None, "{old:?} cancelled {live:?}'s timer");
            }
        }
        assert_eq!(w.cancel(live), Some(4));
        assert!(w.is_empty());
    }
}
