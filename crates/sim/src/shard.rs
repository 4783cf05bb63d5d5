//! Sharded conservative-lookahead driver: N thread-local [`Sim`]s in
//! deterministic lockstep.
//!
//! The executor in [`crate::executor`] is single-threaded by construction
//! (`!Send` tasks, `Rc` and `Cell` state). This module scales it out without
//! touching its hot path: the model's entities are partitioned across N
//! *shards*, each shard owns a private `Sim` (tasks, timers, wakers all
//! stay thread-local), and shards exchange **time-stamped events** through
//! bounded per-pair channels. Synchronization is conservative, YAWNS-style:
//! virtual time advances in fixed windows of width `lookahead_ns` — the
//! minimum virtual latency any cross-shard message can have — so an event
//! sent during window *i* can never be due before window *i+1* begins, and
//! one barrier per window suffices.
//!
//! # The determinism contract
//!
//! Output must be **bit-identical between 1 shard and N shards** for a
//! fixed seed. Three rules make that hold by construction:
//!
//! 1. **Canonical merge order.** Every event carries `(ts, src_key, seq)`:
//!    its virtual due time, a *stable model-level source key* (not the
//!    shard index — shard numbering changes with N), and a per-source
//!    sequence number. Deliveries drain from a min-heap in exactly that
//!    order, so the merge is a pure function of the event set, not of
//!    which shard produced what when.
//! 2. **Lookahead floor.** `send` asserts `ts >= now + lookahead_ns`. An
//!    event flushed at the end of the window it was sent in is therefore
//!    always drained before the first window that can deliver it.
//! 3. **Timers-then-messages at an instant.** Within a window the engine
//!    runs `Sim::run_until(ts)` (all local timers at-or-before `ts`) and
//!    *then* dispatches the deliveries due at `ts`, ascending. Local
//!    activity at an instant always observes the pre-delivery state, in
//!    every shard configuration.
//!
//! Self-sends (dst shard == src shard) skip the channels and push straight
//! into the local heap — with identical delivery semantics — so a 1-shard
//! run does not allocate or synchronize at all in steady state.
//!
//! # Idle fast-forward
//!
//! Fixed windows are wasteful when the model goes quiet: an open-loop farm
//! with sparse arrivals can cross the barrier millions of times with
//! nothing to do. At each window boundary every shard publishes its
//! *next-activity time* — the minimum of its earliest pending timer, its
//! earliest undelivered event, and the earliest event it just flushed to a
//! sibling — into a parity-double-buffered atomic slot. After the (single,
//! unchanged) barrier, every shard reads all slots; if the global minimum
//! clears the *next* window entirely (`>= end + lookahead`), all shards
//! jump their window start straight to it. The global minimum is a
//! property of the model's event set, not of the partition, so every shard
//! count — including the barrier-free 1-shard path, which computes the
//! same minimum locally — takes identical jumps and the bit-determinism
//! contract is untouched. Skipped windows contain no timers or ready
//! tasks by construction, so the scheduler counters (`polls`, `events`,
//! `timers_fired`) are also unchanged; only `barrier_waits` (and
//! wall-clock) shrink.
//!
//! Events due at or after `horizon_ns` are never delivered (the run ends
//! first); models that need exact accounting at the cutoff should count
//! in-flight work on the sending side, as the webfarm's conservation scan
//! does.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering as CmpOrdering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};

use crate::executor::{add_thread_totals, Sim, SimCounters, SimHandle};
use crate::SimTime;

/// One cross-shard event: a message due at `ts`, merge-ordered by
/// `(ts, src_key, seq)`.
#[derive(Debug, Clone, Copy)]
pub struct Stamped<M> {
    /// Virtual due time at the receiving shard.
    pub ts: SimTime,
    /// Stable model-level source key (entity id, *not* a shard index):
    /// shard numbering changes with N, entity numbering does not.
    pub src_key: u32,
    /// Per-`src_key` sequence number; breaks `(ts, src_key)` ties in the
    /// source's own deterministic send order.
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

impl<M> Stamped<M> {
    #[inline]
    fn key(&self) -> (SimTime, u32, u64) {
        (self.ts, self.src_key, self.seq)
    }
}

impl<M> PartialEq for Stamped<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Stamped<M> {}
impl<M> PartialOrd for Stamped<M> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Stamped<M> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.key().cmp(&other.key())
    }
}

/// Sense-reversing spin barrier. Windows are ~tens of µs of virtual time,
/// so a run crosses the barrier 10^4–10^5 times; parking-lot futex waits
/// (`std::sync::Barrier`) would dominate the speedup this module exists to
/// deliver. All shards arrive within fractions of a window of each other,
/// so spinning is the right trade.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
        }
    }

    /// Block until all `n` participants arrive. `local_sense` is the
    /// caller's thread-local phase flag, flipped every crossing.
    fn wait(&self, local_sense: &mut bool) {
        let sense = !*local_sense;
        *local_sense = sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(sense, Ordering::Release);
        } else {
            // Hybrid wait: a short spin catches siblings that are already
            // at the barrier (the common multicore case); past that, yield
            // the quantum so oversubscribed hosts (shards > cores) hand
            // the CPU to the shard everyone is waiting for instead of
            // burning the rest of the timeslice.
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != sense {
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Static shape of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardCfg {
    /// Worker shard count (clamped to ≥ 1 by [`run_sharded`]).
    pub shards: usize,
    /// Conservative lookahead: the minimum virtual delay of *any*
    /// cross-shard message, and therefore the synchronization window
    /// width. Every `send` is checked against it.
    pub lookahead_ns: SimTime,
    /// Run until the virtual clock reaches this time (exclusive for
    /// message deliveries, inclusive for local timers — exactly like
    /// `Sim::run_until(horizon)` in a single-threaded run).
    pub horizon_ns: SimTime,
    /// Number of distinct `src_key` values the model will send from.
    pub src_keys: usize,
}

struct NetInner<M> {
    shard: usize,
    shards: usize,
    lookahead: SimTime,
    handle: SimHandle,
    /// Per-`src_key` sequence counters. Only the keys hosted by this shard
    /// are ever bumped here, so counters agree across shard counts.
    seqs: RefCell<Vec<u64>>,
    /// Outgoing batches, one per destination shard (own slot unused).
    outbox: Vec<RefCell<Vec<Stamped<M>>>>,
    /// Events awaiting delivery on this shard, canonical min-heap.
    pending: RefCell<BinaryHeap<Reverse<Stamped<M>>>>,
    /// Cross-shard events sent (self-sends excluded).
    cross_sends: Cell<u64>,
}

/// Per-shard send endpoint handed to the model builder. Clone it into
/// tasks freely; it is `Rc`-backed and thread-local like everything else
/// inside a shard.
pub struct ShardNet<M> {
    inner: Rc<NetInner<M>>,
}

impl<M> Clone for ShardNet<M> {
    fn clone(&self) -> Self {
        ShardNet {
            inner: self.inner.clone(),
        }
    }
}

impl<M> ShardNet<M> {
    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.inner.shard
    }

    /// Total shard count for this run.
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    /// The lookahead bound every send must clear.
    pub fn lookahead_ns(&self) -> SimTime {
        self.inner.lookahead
    }

    /// Queue a message from `src_key` for delivery on `dst_shard` at
    /// virtual time `ts`.
    ///
    /// Panics if `ts < now + lookahead_ns`: such a send is a model bug
    /// that would silently break the 1-shard ≡ N-shard invariant, so it
    /// fails loudly even in release builds.
    pub fn send(&self, dst_shard: usize, src_key: u32, ts: SimTime, msg: M) {
        let now = self.inner.handle.now();
        assert!(
            ts >= now + self.inner.lookahead,
            "cross-shard send violates lookahead: ts {ts} < now {now} + L {}",
            self.inner.lookahead
        );
        let seq = {
            let mut seqs = self.inner.seqs.borrow_mut();
            let s = &mut seqs[src_key as usize];
            *s += 1;
            *s
        };
        let ev = Stamped {
            ts,
            src_key,
            seq,
            msg,
        };
        if dst_shard == self.inner.shard {
            self.inner.pending.borrow_mut().push(Reverse(ev));
        } else {
            self.inner.cross_sends.set(self.inner.cross_sends.get() + 1);
            self.inner.outbox[dst_shard].borrow_mut().push(ev);
        }
    }
}

/// What the model builder returns for one shard.
pub struct ShardRun<M, R> {
    /// Called with each delivered event, clock parked exactly at its `ts`,
    /// in canonical `(ts, src_key, seq)` order. May mutate shard state,
    /// wake tasks, and [`ShardNet::send`] follow-on messages.
    pub dispatch: Box<dyn FnMut(SimTime, M)>,
    /// Called once after the horizon; extracts this shard's results.
    pub finish: Box<dyn FnOnce() -> R>,
}

/// Aggregate engine statistics for one sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards the run actually used.
    pub shards: usize,
    /// Barrier crossings summed over shards (0 for a 1-shard run).
    pub barrier_waits: u64,
    /// Cross-shard events sent (self-sends excluded).
    pub cross_sends: u64,
    /// Scheduler counters summed over all shards.
    pub counters: SimCounters,
}

/// Run one sharded simulation to its horizon.
///
/// `build(shard, sim, net)` is invoked once per shard *on that shard's
/// thread*; it spawns the shard's tasks onto `sim` and returns the
/// dispatch/finish pair. Shard 0 runs on the calling thread. Results come
/// back in shard order, and all shards' scheduler counters (plus the
/// barrier-wait count) are folded into the *calling* thread's
/// [`crate::thread_totals`], which `benchmark/` reads to meter a run.
pub fn run_sharded<M, R, F>(cfg: &ShardCfg, build: F) -> (Vec<R>, ShardStats)
where
    M: Send + 'static,
    R: Send,
    F: Fn(usize, &Sim, &ShardNet<M>) -> ShardRun<M, R> + Sync,
{
    let n = cfg.shards.max(1);
    assert!(cfg.lookahead_ns > 0, "lookahead must be positive");
    let barrier = SpinBarrier::new(n);
    // Next-activity slots for the idle fast-forward, one per shard per
    // window parity: a shard writes slot `(w % 2) * n + shard` before the
    // window-`w` barrier and everyone reads the same parity after it, so a
    // sibling racing ahead into window `w + 1` scribbles only on the other
    // half.
    let ff_slots: Vec<AtomicU64> = (0..2 * n).map(|_| AtomicU64::new(0)).collect();

    // chans[src][dst]: one SPSC lane per ordered pair. Batches are one Vec
    // per (src, dst, window), so channel traffic is O(windows), not
    // O(messages).
    let mut rxs: Vec<Vec<BatchRx<M>>> = (0..n).map(|_| Vec::new()).collect();
    let mut txs: Vec<Vec<Option<BatchTx<M>>>> = (0..n)
        .map(|src| {
            (0..n)
                .map(|dst| {
                    if src == dst {
                        None
                    } else {
                        let (tx, rx) = std::sync::mpsc::channel();
                        rxs[dst].push(rx);
                        Some(tx)
                    }
                })
                .collect()
        })
        .collect();

    let mut results: Vec<Option<ShardOut<R>>> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let build = &build;
        let ff_slots = &ff_slots;
        let mut handles = Vec::with_capacity(n.saturating_sub(1));
        // Peel shard 0's channel ends out before moving the rest.
        let txs0 = txs.remove(0);
        let rxs0 = rxs.remove(0);
        for (i, (tx, rx)) in txs.into_iter().zip(rxs).enumerate() {
            let shard = i + 1;
            handles.push(
                scope.spawn(move || drive_shard(shard, cfg, barrier, ff_slots, build, tx, rx)),
            );
        }
        let out0 = drive_shard(0, cfg, barrier, ff_slots, build, txs0, rxs0);
        let mut outs = vec![out0];
        for h in handles {
            outs.push(h.join().expect("shard thread panicked"));
        }
        outs.into_iter().map(Some).collect()
    });

    let mut stats = ShardStats {
        shards: n,
        ..ShardStats::default()
    };
    let mut fold = SimCounters::default();
    let mut out = Vec::with_capacity(n);
    for (shard, slot) in results.iter_mut().enumerate() {
        let (r, counters, barrier_waits, cross) = slot.take().expect("missing shard result");
        stats.barrier_waits += barrier_waits;
        stats.cross_sends += cross;
        stats.counters.polls += counters.polls;
        stats.counters.events += counters.events;
        stats.counters.timers_fired += counters.timers_fired;
        // Shard 0's Sim was dropped on this thread, so its scheduler
        // counters already folded into thread_totals; worker shards' Sims
        // folded into threads that no longer exist and must be re-added.
        if shard > 0 {
            fold.polls += counters.polls;
            fold.events += counters.events;
            fold.timers_fired += counters.timers_fired;
        }
        out.push(r);
    }
    stats.counters.barrier_waits = stats.barrier_waits;
    fold.barrier_waits = stats.barrier_waits;
    add_thread_totals(fold);
    (out, stats)
}

type ShardOut<R> = (R, SimCounters, u64, u64);
/// Sending half of one (src, dst) lane: one batch of stamped events per
/// window.
type BatchTx<M> = Sender<Vec<Stamped<M>>>;
/// Receiving half of one (src, dst) lane.
type BatchRx<M> = Receiver<Vec<Stamped<M>>>;

/// The earliest future work this shard knows about: its next local timer
/// or its earliest undelivered event. `SimTime::MAX` when fully idle.
fn next_activity<M>(sim: &Sim, net: &ShardNet<M>) -> SimTime {
    let timer = sim.next_timer_at().unwrap_or(SimTime::MAX);
    let event = net
        .inner
        .pending
        .borrow()
        .peek()
        .map_or(SimTime::MAX, |Reverse(ev)| ev.ts);
    timer.min(event)
}

/// Where the next window starts: `end` normally, or a fast-forward jump to
/// `next_at` when the whole window `[end, end + L)` is provably empty.
/// `next_at` must bound every timer and every in-flight event of the run.
fn next_window_start(cfg: &ShardCfg, end: SimTime, next_at: SimTime) -> SimTime {
    if next_at >= end.saturating_add(cfg.lookahead_ns) {
        next_at.min(cfg.horizon_ns)
    } else {
        end
    }
}

fn drive_shard<M, R, F>(
    shard: usize,
    cfg: &ShardCfg,
    barrier: &SpinBarrier,
    ff_slots: &[AtomicU64],
    build: &F,
    txs: Vec<Option<BatchTx<M>>>,
    rxs: Vec<BatchRx<M>>,
) -> ShardOut<R>
where
    M: Send + 'static,
    R: Send,
    F: Fn(usize, &Sim, &ShardNet<M>) -> ShardRun<M, R> + Sync,
{
    let n = cfg.shards.max(1);
    let sim = Sim::new();
    let net = ShardNet {
        inner: Rc::new(NetInner {
            shard,
            shards: n,
            lookahead: cfg.lookahead_ns,
            handle: sim.handle(),
            seqs: RefCell::new(vec![0u64; cfg.src_keys]),
            outbox: (0..n).map(|_| RefCell::new(Vec::new())).collect(),
            pending: RefCell::new(BinaryHeap::new()),
            cross_sends: Cell::new(0),
        }),
    };
    let ShardRun {
        mut dispatch,
        finish,
    } = build(shard, &sim, &net);

    let mut local_sense = false;
    let mut barrier_waits = 0u64;
    let mut start: SimTime = 0;
    while start < cfg.horizon_ns {
        // The window width must be exactly the lookahead even at one shard:
        // a send made during `run_until(end)` is only floored to `now + L`,
        // so any wider window would let it land inside the delivery phase
        // this iteration already passed.
        let end = (start + cfg.lookahead_ns).min(cfg.horizon_ns);
        // Deliver everything due strictly before this window's end:
        // advance local timers to each due instant, then dispatch that
        // instant's events in canonical order. Dispatch may send follow-on
        // events, but the lookahead floor puts them at `>= end`, so this
        // loop never revisits an instant.
        loop {
            let ts = match net.inner.pending.borrow().peek() {
                Some(Reverse(ev)) if ev.ts < end => ev.ts,
                _ => break,
            };
            sim.run_until(ts);
            loop {
                let ev = {
                    let mut pending = net.inner.pending.borrow_mut();
                    match pending.peek() {
                        Some(Reverse(ev)) if ev.ts == ts => pending.pop().map(|Reverse(ev)| ev),
                        _ => None,
                    }
                };
                match ev {
                    Some(ev) => dispatch(ev.ts, ev.msg),
                    None => break,
                }
            }
        }
        sim.run_until(end);
        if n > 1 {
            let mut flushed_min = SimTime::MAX;
            for (dst, tx) in txs.iter().enumerate() {
                let Some(tx) = tx else { continue };
                let batch = std::mem::take(&mut *net.inner.outbox[dst].borrow_mut());
                if !batch.is_empty() {
                    for ev in &batch {
                        flushed_min = flushed_min.min(ev.ts);
                    }
                    // Receiver outlives the window loop; a send can only
                    // fail if a sibling shard panicked, which propagates
                    // via the scope join anyway.
                    let _ = tx.send(batch);
                }
            }
            // Publish this shard's next-activity time before the barrier.
            // Events just flushed to siblings are counted *here by the
            // sender*: the receiver only sees them after the barrier, but
            // the global minimum must bound them the moment it is read.
            let parity = (barrier_waits % 2) as usize;
            ff_slots[parity * n + shard].store(
                next_activity(&sim, &net).min(flushed_min),
                Ordering::Release,
            );
            barrier.wait(&mut local_sense);
            barrier_waits += 1;
            let mut pending = net.inner.pending.borrow_mut();
            for rx in &rxs {
                while let Ok(batch) = rx.try_recv() {
                    for ev in batch {
                        pending.push(Reverse(ev));
                    }
                }
            }
            drop(pending);
            let mut global_min = SimTime::MAX;
            for slot in &ff_slots[parity * n..parity * n + n] {
                global_min = global_min.min(slot.load(Ordering::Acquire));
            }
            start = next_window_start(cfg, end, global_min);
        } else {
            // The barrier-free path takes the same jumps: with one shard
            // the local next-activity time *is* the global minimum.
            start = next_window_start(cfg, end, next_activity(&sim, &net));
        }
    }

    let r = finish();
    let counters = sim.counters();
    let cross = net.inner.cross_sends.get();
    (r, counters, barrier_waits, cross)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: `keys` entities spread round-robin over shards, each
    /// forwarding a hop counter to the next entity around the ring with a
    /// fixed per-hop delay. Messages carry their destination entity so
    /// every forward originates from the entity's own host shard (the
    /// `src_key` hosting contract). Returns the merged delivery log.
    fn ring_run(
        shards: usize,
        keys: usize,
        hop_ns: SimTime,
        horizon: SimTime,
    ) -> Vec<(SimTime, u32, u64)> {
        let cfg = ShardCfg {
            shards,
            lookahead_ns: hop_ns,
            horizon_ns: horizon,
            src_keys: keys,
        };
        type Log = Vec<(SimTime, u32, u64)>;
        let (logs, stats) = run_sharded::<(u32, u64), Log, _>(&cfg, |shard, _sim, net| {
            let log: Rc<RefCell<Log>> = Rc::new(RefCell::new(Vec::new()));
            // Seed: every entity this shard hosts fires hop 1 at t = hop
            // to the next entity around the ring.
            for key in 0..keys {
                if key % net.shards() == shard {
                    let dst = ((key + 1) % keys) as u32;
                    net.send(dst as usize % net.shards(), key as u32, hop_ns, (dst, 1u64));
                }
            }
            let net2 = net.clone();
            let log2 = log.clone();
            let keys32 = keys as u32;
            ShardRun {
                dispatch: Box::new(move |ts, (dst_key, hops)| {
                    log2.borrow_mut().push((ts, dst_key, hops));
                    // The hosted entity `dst_key` forwards onward.
                    let next = (dst_key + 1) % keys32;
                    net2.send(
                        next as usize % net2.shards(),
                        dst_key,
                        ts + hop_ns,
                        (next, hops + 1),
                    );
                }),
                finish: Box::new(move || log.borrow().clone()),
            }
        });
        assert_eq!(stats.shards, shards.max(1));
        if shards > 1 {
            assert!(stats.barrier_waits > 0);
        } else {
            assert_eq!(stats.barrier_waits, 0);
        }
        let mut all: Log = logs.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }

    /// A sparse model: two entities ping-pong one message with a 500µs
    /// virtual gap between hops — 500 empty lookahead windows per hop.
    fn sparse_run(shards: usize) -> (Vec<(SimTime, u32, u64)>, ShardStats) {
        let cfg = ShardCfg {
            shards,
            lookahead_ns: 1_000,
            horizon_ns: 10_000_000,
            src_keys: 2,
        };
        const GAP: SimTime = 500_000;
        type Log = Vec<(SimTime, u32, u64)>;
        let (logs, stats) = run_sharded::<(u32, u64), Log, _>(&cfg, |shard, _sim, net| {
            let log: Rc<RefCell<Log>> = Rc::new(RefCell::new(Vec::new()));
            if 0 % net.shards() == shard {
                net.send(1 % net.shards(), 0, GAP, (1, 1u64));
            }
            let net2 = net.clone();
            let log2 = log.clone();
            ShardRun {
                dispatch: Box::new(move |ts, (dst_key, hops)| {
                    log2.borrow_mut().push((ts, dst_key, hops));
                    let next = 1 - dst_key;
                    net2.send(
                        next as usize % net2.shards(),
                        dst_key,
                        ts + GAP,
                        (next, hops + 1),
                    );
                }),
                finish: Box::new(move || log.borrow().clone()),
            }
        });
        let mut all: Log = logs.into_iter().flatten().collect();
        all.sort_unstable();
        (all, stats)
    }

    #[test]
    fn idle_windows_are_fast_forwarded_without_changing_results() {
        let (one, stats1) = sparse_run(1);
        assert_eq!(one.len(), 19, "one hop per 500us gap until the horizon");
        for shards in [2, 4] {
            let (log, stats) = sparse_run(shards);
            assert_eq!(one, log, "{shards} shards");
            assert_eq!(
                stats.counters.timers_fired, stats1.counters.timers_fired,
                "{shards} shards: fast-forward must not invent or drop timers"
            );
            // 10^7 ns / 10^3 ns lookahead = 10^4 fixed windows; the jumps
            // must collapse that to roughly one window per active hop.
            assert!(
                stats.barrier_waits < 100 * shards as u64,
                "{shards} shards: {} barrier waits — idle windows not skipped",
                stats.barrier_waits
            );
        }
    }

    #[test]
    fn ring_delivery_is_shard_count_invariant() {
        let one = ring_run(1, 6, 1_000, 50_000);
        assert!(!one.is_empty());
        for shards in [2, 3, 4] {
            assert_eq!(one, ring_run(shards, 6, 1_000, 50_000), "{shards} shards");
        }
    }

    #[test]
    fn pending_heap_drains_in_canonical_order() {
        let mut heap: BinaryHeap<Reverse<Stamped<u8>>> = BinaryHeap::new();
        let evs = [
            (5u64, 2u32, 1u64),
            (5, 1, 2),
            (3, 9, 1),
            (5, 1, 1),
            (4, 0, 7),
        ];
        for &(ts, src_key, seq) in &evs {
            heap.push(Reverse(Stamped {
                ts,
                src_key,
                seq,
                msg: 0u8,
            }));
        }
        let mut drained = Vec::new();
        while let Some(Reverse(ev)) = heap.pop() {
            drained.push(ev.key());
        }
        let mut want: Vec<(SimTime, u32, u64)> = evs.to_vec();
        want.sort_unstable();
        assert_eq!(drained, want);
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn undershooting_the_lookahead_panics() {
        let cfg = ShardCfg {
            shards: 1,
            lookahead_ns: 1_000,
            horizon_ns: 10_000,
            src_keys: 1,
        };
        run_sharded::<u8, (), _>(&cfg, |_, _, net| {
            net.send(0, 0, 500, 0u8);
            ShardRun {
                dispatch: Box::new(|_, _| {}),
                finish: Box::new(|| ()),
            }
        });
    }

    #[test]
    fn messages_deliver_after_local_timers_at_the_same_instant() {
        // A local timer at t=2000 and a delivery at t=2000: the timer's
        // side effect must be visible to the dispatch, on any shard count.
        for shards in [1usize, 2] {
            let cfg = ShardCfg {
                shards,
                lookahead_ns: 1_000,
                horizon_ns: 4_000,
                src_keys: 2,
            };
            let (outs, _) = run_sharded::<u8, u64, _>(&cfg, |shard, sim, net| {
                let flag = Rc::new(Cell::new(0u64));
                if shard == 0 {
                    let f = flag.clone();
                    let h = sim.handle();
                    sim.spawn(async move {
                        h.sleep_until(2_000).await;
                        f.set(7);
                    });
                } else {
                    // Other shards idle; window loop still runs.
                }
                // Shard hosting key 1 sends to shard 0 at exactly t=2000.
                if 1 % shards.max(1) == shard {
                    net.send(0, 1, 2_000, 0u8);
                }
                let seen = Rc::new(Cell::new(0u64));
                let (f2, s2) = (flag.clone(), seen.clone());
                ShardRun {
                    dispatch: Box::new(move |_, _| s2.set(f2.get())),
                    finish: Box::new(move || seen.get()),
                }
            });
            assert_eq!(outs[0], 7, "{shards} shards: delivery ran before the timer");
        }
    }
}
