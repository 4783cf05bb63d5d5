//! Property-based tests of the core data structures: allocator, LRU store,
//! registered regions, the shared-word table, framing, lock-word encoding,
//! Zipf sampling, and executor timer ordering.

use bytes::Bytes;
use proptest::prelude::*;

use nextgen_datacenter::coopcache::lru::Evicted;
use nextgen_datacenter::coopcache::LruStore;
use nextgen_datacenter::ddss::alloc::FreeListAllocator;
use nextgen_datacenter::dlm::LockWord;
use nextgen_datacenter::fabric::mem::{RegionData, RemoteAddr};
use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId, WordTable};
use nextgen_datacenter::sim::Sim;
use nextgen_datacenter::sockets::flow::{frame, Chunk, Reassembler, CONT_HDR, FIRST_HDR};
use nextgen_datacenter::workloads::Zipf;

proptest! {
    /// Allocated blocks never overlap and never exceed capacity; freeing
    /// everything restores the full capacity in one fragment.
    #[test]
    fn allocator_blocks_are_disjoint_and_conserved(
        sizes in prop::collection::vec(1usize..300, 1..40)
    ) {
        let mut a = FreeListAllocator::new(4096);
        let mut live: Vec<(usize, usize)> = Vec::new();
        for s in &sizes {
            if let Some(off) = a.allocate(*s) {
                let end = off + s;
                prop_assert!(end <= 4096);
                for &(o, l) in &live {
                    let l_end = o + l.div_ceil(8) * 8;
                    let s_end = off + s.div_ceil(8) * 8;
                    prop_assert!(s_end <= o || off >= l_end,
                        "overlap: new ({off},{s}) vs live ({o},{l})");
                }
                live.push((off, *s));
            }
        }
        prop_assert!(a.in_use() <= a.capacity());
        for (off, s) in live.drain(..) {
            a.free(off, s);
        }
        prop_assert_eq!(a.available(), 4096);
        prop_assert_eq!(a.fragments(), 1);
    }

    /// LRU bookkeeping: bytes_used never exceeds capacity; a cached doc is
    /// always retrievable until evicted; eviction lists are consistent.
    #[test]
    fn lru_never_overcommits(
        ops in prop::collection::vec((0u32..30, 1usize..600), 1..80)
    ) {
        let mut s = LruStore::new(2048);
        let mut resident: std::collections::HashSet<u32> = Default::default();
        for (doc, size) in ops {
            if resident.contains(&doc) {
                prop_assert!(s.get(doc).is_some());
                continue;
            }
            match s.insert(doc, size) {
                Some((_, evicted)) => {
                    for (v, _, _) in evicted {
                        prop_assert!(resident.remove(&v), "evicted non-resident {v}");
                    }
                    resident.insert(doc);
                }
                None => prop_assert!(size > 2048),
            }
            prop_assert!(s.bytes_used() <= 2048);
            prop_assert_eq!(s.len(), resident.len());
        }
    }

    /// Any message reassembles exactly from its frames at any capacity, its
    /// chunks are windows of the sent buffer, and their framed lengths add
    /// up to what the prepended byte-tag framing put on the wire.
    #[test]
    fn framing_round_trips(
        data in prop::collection::vec(any::<u8>(), 0..5000),
        cap in 10usize..9000
    ) {
        let data = Bytes::from(data);
        let chunks: Vec<Chunk> = frame(data.clone(), cap).collect();
        for c in &chunks {
            prop_assert!(c.wire_len() <= cap);
        }
        let wire: usize = chunks.iter().map(Chunk::wire_len).sum();
        prop_assert_eq!(wire, data.len() + FIRST_HDR + CONT_HDR * (chunks.len() - 1));
        let mut r = Reassembler::new();
        let mut out = None;
        for c in chunks {
            prop_assert!(out.is_none(), "completed early");
            out = r.feed(c);
        }
        prop_assert_eq!(out.expect("incomplete"), data);
    }

    /// Lock words round trip for every tail/shared combination, and a
    /// shared FAA never corrupts the tail below u32 overflow.
    #[test]
    fn lock_word_round_trips(tail in prop::option::of(0u32..u32::MAX - 1), shared in any::<u32>()) {
        let w = nextgen_datacenter::dlm::LockWord {
            tail: tail.map(NodeId),
            shared,
        };
        prop_assert_eq!(LockWord::decode(w.encode()), w);
        if shared < u32::MAX {
            let bumped = LockWord::decode(w.encode() + 1);
            prop_assert_eq!(bumped.tail, w.tail);
            prop_assert_eq!(bumped.shared, shared + 1);
        }
    }

    /// Zipf samples stay in range and the head outweighs the tail for any
    /// positive alpha.
    #[test]
    fn zipf_is_well_formed(n in 2usize..200, alpha in 0.1f64..1.5, seed in any::<u64>()) {
        let z = Zipf::new(n, alpha);
        let mut rng = nextgen_datacenter::sim::rng::seeded_rng(seed);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let r = z.sample(&mut rng);
            prop_assert!(r < n);
            total += 1;
            if r < n.div_ceil(2) {
                head += 1;
            }
        }
        // The more popular half receives at least its fair share of draws
        // (with slack for sampling noise at near-uniform alphas).
        prop_assert!(
            head as f64 >= 0.44 * total as f64,
            "head {head} of {total}"
        );
        // PMF is a distribution.
        let sum: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// DLM safety/liveness over random interleavings: clients cycle
    /// lock→hold→unlock on randomly chosen locks with random arrival and
    /// hold times; no lock ever has two exclusive holders at once, and
    /// every requested cycle completes (no waiter is ever orphaned).
    #[test]
    fn dlm_random_interleavings_are_safe_and_drain(
        plans in prop::collection::vec(
            // (lock id, exclusive, arrive µs, hold µs, cycles) per client
            (0u32..3, any::<bool>(), 0u64..2_000, 10u64..300, 1usize..4),
            1..8
        )
    ) {
        use std::cell::Cell;
        use std::rc::Rc;
        use nextgen_datacenter::dlm::{LockMode, NcosedDlm};
        use nextgen_datacenter::fabric::{Cluster, FabricModel};
        use nextgen_datacenter::sim::time::{ms, us};

        let sim = nextgen_datacenter::sim::Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 9);
        let members: Vec<NodeId> = (0..9).map(NodeId).collect();
        let dlm = NcosedDlm::new(&cluster, NodeId(0), 3, &members);

        // Per-lock count of concurrent exclusive holders.
        let excl: Rc<[Cell<i32>; 3]> = Rc::default();
        let violations: Rc<Cell<u32>> = Rc::default();
        let completed: Rc<Cell<usize>> = Rc::default();
        let expect: usize = plans.iter().map(|p| p.4).sum();
        for (i, &(lock, exclusive, arrive, hold, cycles)) in plans.iter().enumerate() {
            let client = dlm.client(NodeId(1 + i as u32));
            let excl = Rc::clone(&excl);
            let violations = Rc::clone(&violations);
            let completed = Rc::clone(&completed);
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(us(arrive)).await;
                for _ in 0..cycles {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    client.lock(lock, mode).await;
                    if exclusive {
                        if excl[lock as usize].get() > 0 {
                            violations.set(violations.get() + 1);
                        }
                        excl[lock as usize].set(excl[lock as usize].get() + 1);
                    } else if excl[lock as usize].get() > 0 {
                        violations.set(violations.get() + 1);
                    }
                    h.sleep(us(hold)).await;
                    if exclusive {
                        excl[lock as usize].set(excl[lock as usize].get() - 1);
                    }
                    client.unlock(lock).await;
                    completed.set(completed.get() + 1);
                }
            });
        }
        let reached = sim.run_until(ms(500));
        prop_assert_eq!(reached, ms(500), "lock traffic wedged the executor");
        prop_assert_eq!(violations.get(), 0, "exclusive lock doubly granted");
        prop_assert_eq!(completed.get(), expect, "a lock waiter never drained");
        for c in excl.iter() {
            prop_assert_eq!(c.get(), 0);
        }
    }

    /// Executor timers fire in deadline order regardless of registration
    /// order, and the clock ends at the maximum deadline.
    #[test]
    fn timers_fire_in_deadline_order(durations in prop::collection::vec(0u64..10_000, 1..50)) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let sim = nextgen_datacenter::sim::Sim::new();
        let fired: Rc<RefCell<Vec<u64>>> = Rc::default();
        for &d in &durations {
            let f = Rc::clone(&fired);
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(d).await;
                f.borrow_mut().push(h.now());
            });
        }
        sim.run();
        let fired = fired.borrow();
        let mut sorted = durations.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&*fired, &sorted);
        prop_assert_eq!(sim.now(), *sorted.last().unwrap());
    }
}

/// The LRU store as it was before recency became a list linked through its
/// entries: an ordered map from a strictly increasing touch number to the
/// document. Kept as the reference [`LruStore`] must match step for step.
struct SeqLru {
    map: std::collections::HashMap<u32, (usize, usize, u64)>,
    order: std::collections::BTreeMap<u64, u32>,
    alloc: FreeListAllocator,
    next_seq: u64,
    bytes_used: usize,
}

impl SeqLru {
    fn new(capacity: usize) -> SeqLru {
        SeqLru {
            map: Default::default(),
            order: Default::default(),
            alloc: FreeListAllocator::new(capacity),
            next_seq: 0,
            bytes_used: 0,
        }
    }

    fn bump_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn get(&mut self, doc: u32) -> Option<(usize, usize)> {
        let seq = self.bump_seq();
        let e = self.map.get_mut(&doc)?;
        self.order.remove(&e.2);
        e.2 = seq;
        self.order.insert(seq, doc);
        Some((e.0, e.1))
    }

    fn peek(&self, doc: u32) -> Option<(usize, usize)> {
        self.map.get(&doc).map(|e| (e.0, e.1))
    }

    fn insert(&mut self, doc: u32, size: usize) -> Option<(usize, Vec<Evicted>)> {
        if size == 0 || size > self.alloc.capacity() {
            return None;
        }
        let mut evicted = Vec::new();
        let offset = loop {
            if let Some(off) = self.alloc.allocate(size) {
                break off;
            }
            let (&seq, &victim) = self.order.iter().next()?;
            self.order.remove(&seq);
            let (off, len, _) = self.map.remove(&victim).unwrap();
            self.alloc.free(off, len);
            self.bytes_used -= len;
            evicted.push((victim, off, len));
        };
        let seq = self.bump_seq();
        self.map.insert(doc, (offset, size, seq));
        self.order.insert(seq, doc);
        self.bytes_used += size;
        Some((offset, evicted))
    }

    fn remove(&mut self, doc: u32) -> Option<(usize, usize)> {
        let (off, len, seq) = self.map.remove(&doc)?;
        self.order.remove(&seq);
        self.alloc.free(off, len);
        self.bytes_used -= len;
        Some((off, len))
    }
}

/// One step of an LRU program.
#[derive(Debug, Clone, Copy)]
enum LruOp {
    Get(u32),
    Peek(u32),
    /// Of a resident document, a `Get` (the store refuses a double insert).
    Insert(u32, usize),
    Remove(u32),
    /// Hand the last eviction list back.
    Recycle,
}

/// A step on a store of `cap` bytes: mostly small documents, some a third
/// to all of the store (cascaded evictions), and some at or past its end —
/// including sizes within the capacity that the allocator's 8-byte rounding
/// pushes past it, which evict everything and are then refused.
fn lru_op(cap: usize) -> impl Strategy<Value = LruOp> {
    (0u8..10, 0u32..24, 0usize..100, 0usize..4096).prop_map(move |(kind, doc, class, raw)| {
        let size = match class {
            0 => 0,
            1..=79 => 1 + raw % (cap / 6),
            80..=94 => cap / 3 + raw % (cap * 2 / 3),
            _ => cap - 8 + raw % 24,
        };
        match kind {
            0..=2 => LruOp::Get(doc),
            3 => LruOp::Peek(doc),
            4..=6 => LruOp::Insert(doc, size),
            7 | 8 => LruOp::Remove(doc),
            _ => LruOp::Recycle,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `LruStore` behaves exactly as the touch-ordered store it replaced:
    /// over random get / peek / insert / remove / recycle programs on stores
    /// of any byte capacity, every lookup and placement, every eviction list
    /// in its order, and `len` / `bytes_used` after every step are the
    /// reference's; and a final whole-store insert evicts what is left in
    /// the same order.
    #[test]
    fn lru_matches_the_touch_ordered_reference(
        (cap, ops) in (256usize..4096)
            .prop_flat_map(|cap| (Just(cap), prop::collection::vec(lru_op(cap), 1..150)))
    ) {
        let mut store = LruStore::new(cap);
        let mut reference = SeqLru::new(cap);
        let mut last_evicted = None;
        for op in ops {
            match op {
                LruOp::Get(doc) => prop_assert_eq!(store.get(doc), reference.get(doc), "{:?}", op),
                LruOp::Peek(doc) => {
                    prop_assert_eq!(store.peek(doc), reference.peek(doc), "{:?}", op)
                }
                LruOp::Insert(doc, _) if reference.peek(doc).is_some() => {
                    prop_assert_eq!(store.get(doc), reference.get(doc), "{:?}", op)
                }
                LruOp::Insert(doc, size) => {
                    let got = store.insert(doc, size);
                    prop_assert_eq!(&got, &reference.insert(doc, size), "{:?}", op);
                    if let Some((_, evicted)) = got {
                        last_evicted = Some(evicted);
                    }
                }
                LruOp::Remove(doc) => {
                    prop_assert_eq!(store.remove(doc), reference.remove(doc), "{:?}", op)
                }
                LruOp::Recycle => {
                    if let Some(evicted) = last_evicted.take() {
                        store.recycle(evicted);
                    }
                }
            }
            prop_assert_eq!(store.len(), reference.map.len(), "after {:?}", op);
            prop_assert_eq!(store.bytes_used(), reference.bytes_used, "after {:?}", op);
        }
        let whole = cap / 8 * 8;
        prop_assert_eq!(store.insert(1000, whole), reference.insert(1000, whole));
    }
}

proptest! {
    /// [`StreamHist`] quantiles are within one bucket width of the exact
    /// nearest-rank answer over the raw samples, for any sample set and any
    /// quantile; count/min/max/mean stay exact.
    #[test]
    fn stream_hist_quantile_error_is_bounded(
        samples in prop::collection::vec(0u64..=1_000_000_000_000, 1..400),
        q_bp in 0u32..=10_000,
    ) {
        use nextgen_datacenter::trace::StreamHist;
        let q = q_bp as f64 / 10_000.0;
        let mut h = StreamHist::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let approx = h.quantile_ns(q);
        prop_assert!(
            approx.abs_diff(exact) <= StreamHist::bucket_width(exact),
            "q={q}: approx {approx} vs exact {exact} (width {})",
            StreamHist::bucket_width(exact)
        );
        prop_assert_eq!(h.count(), sorted.len() as u64);
        prop_assert_eq!(h.min_ns(), sorted[0]);
        prop_assert_eq!(h.max_ns(), *sorted.last().unwrap());
        let mean = sorted.iter().map(|&v| v as u128).sum::<u128>() / sorted.len() as u128;
        prop_assert_eq!(h.mean_ns(), mean as u64);
    }

    /// Merging shard histograms is associative, commutative, and lossless:
    /// any merge tree over any split equals recording every sample into one
    /// histogram directly.
    #[test]
    fn stream_hist_merge_is_associative_and_lossless(
        a in prop::collection::vec(0u64..=1_000_000_000_000, 0..150),
        b in prop::collection::vec(0u64..=1_000_000_000_000, 0..150),
        c in prop::collection::vec(0u64..=1_000_000_000_000, 0..150),
    ) {
        use nextgen_datacenter::trace::StreamHist;
        let mk = |v: &[u64]| {
            let mut h = StreamHist::new();
            for &x in v {
                h.record(x);
            }
            h
        };
        // ((a ∪ b) ∪ c)
        let mut ab_c = mk(&a);
        ab_c.merge(&mk(&b));
        ab_c.merge(&mk(&c));
        // (a ∪ (b ∪ c)) — and b∪c merged the other way round for
        // commutativity.
        let mut cb = mk(&c);
        cb.merge(&mk(&b));
        let mut a_cb = mk(&a);
        a_cb.merge(&cb);
        // Everything recorded directly.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let direct = mk(&all);
        prop_assert_eq!(ab_c.summary(), a_cb.summary());
        prop_assert_eq!(ab_c.summary(), direct.summary());
        prop_assert_eq!(ab_c.nonzero_buckets(), direct.nonzero_buckets());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Open-loop Poisson arrivals: the empirical mean interarrival matches
    /// 1/λ and the interarrival CV is ≈1 (the exponential signature), for
    /// any seed and a wide band of rates.
    #[test]
    fn arrival_poisson_mean_and_cv_match_the_rate(
        seed in any::<u64>(),
        rate in 50.0f64..5_000.0,
    ) {
        use nextgen_datacenter::workloads::ArrivalProcess;
        let mut p = ArrivalProcess::poisson(seed, rate);
        let n = 5_000usize;
        let mut prev = 0u64;
        let mut gaps = Vec::with_capacity(n);
        for _ in 0..n {
            let t = p.next_ns();
            prop_assert!(t >= prev, "arrivals must be non-decreasing");
            gaps.push((t - prev) as f64);
            prev = t;
        }
        let mean = gaps.iter().sum::<f64>() / n as f64;
        let expect = 1e9 / rate;
        let dev = (mean - expect).abs() / expect;
        prop_assert!(dev < 0.10, "mean {mean:.0}ns vs 1/λ {expect:.0}ns ({dev:.3})");
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        prop_assert!((cv - 1.0).abs() < 0.10, "Poisson CV {cv:.3} should be ~1");
    }

    /// Bursty (MMPP-2) arrivals keep the configured long-run rate but are
    /// overdispersed: interarrival CV strictly above the Poisson value.
    #[test]
    fn arrival_bursty_preserves_rate_but_is_overdispersed(seed in any::<u64>()) {
        use nextgen_datacenter::workloads::ArrivalProcess;
        let rate = 1_000.0;
        let mut b = ArrivalProcess::bursty(seed, rate);
        // Gaps are phase-correlated, so the rate estimator converges like
        // sqrt(phase cycles), not sqrt(draws): 60k draws ≈ 300 cycles.
        let n = 60_000usize;
        let mut prev = 0u64;
        let mut gaps = Vec::with_capacity(n);
        for _ in 0..n {
            let t = b.next_ns();
            prop_assert!(t >= prev);
            gaps.push((t - prev) as f64);
            prev = t;
        }
        let mean = gaps.iter().sum::<f64>() / n as f64;
        let expect = 1e9 / rate;
        let dev = (mean - expect).abs() / expect;
        prop_assert!(dev < 0.25, "long-run mean {mean:.0}ns vs {expect:.0}ns ({dev:.3})");
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        prop_assert!(cv > 1.15, "bursty CV {cv:.3} must exceed Poisson's 1.0");
    }

    /// Same seed ⇒ byte-identical stream; different seed ⇒ divergence.
    /// Holds for both processes — the determinism contract every
    /// reproducible scenario rides on.
    #[test]
    fn arrival_streams_are_byte_identical_per_seed(
        seed in any::<u64>(),
        bursty in any::<bool>(),
    ) {
        use nextgen_datacenter::workloads::ArrivalProcess;
        let mk = |s: u64| if bursty {
            ArrivalProcess::bursty(s, 800.0)
        } else {
            ArrivalProcess::poisson(s, 800.0)
        };
        let (mut a, mut b, mut c) = (mk(seed), mk(seed), mk(seed.wrapping_add(1)));
        let mut diverged = false;
        for _ in 0..500 {
            let (x, y) = (a.next_ns(), b.next_ns());
            prop_assert_eq!(x, y, "same seed must replay identically");
            diverged |= c.next_ns() != x;
        }
        prop_assert!(diverged, "different seeds must diverge within 500 draws");
    }

    /// Merging per-client streams preserves the global rate (superposition
    /// of Poisson streams is Poisson at the summed rate) and emits a
    /// time-ordered sequence drawing from every stream.
    #[test]
    fn arrival_merge_preserves_global_rate_and_order(
        seed in any::<u64>(),
        n_streams in 4usize..40,
    ) {
        use nextgen_datacenter::workloads::{ArrivalProcess, MergedArrivals};
        let per_rate = 200.0;
        let streams: Vec<ArrivalProcess> = (0..n_streams)
            .map(|i| ArrivalProcess::poisson(seed.wrapping_add(i as u64 * 7919), per_rate))
            .collect();
        let mut m = MergedArrivals::new(streams);
        let horizon = 5_000_000_000u64; // 5 s
        let mut count = 0u64;
        let mut prev = 0u64;
        let mut seen = vec![false; n_streams];
        loop {
            let (t, idx) = m.next();
            if t >= horizon {
                break;
            }
            prop_assert!(t >= prev, "merge must be time-ordered");
            prop_assert!((idx as usize) < n_streams);
            seen[idx as usize] = true;
            prev = t;
            count += 1;
        }
        let expect = per_rate * n_streams as f64 * 5.0;
        let dev = (count as f64 - expect).abs() / expect;
        prop_assert!(dev < 0.15, "merged {count} events vs expected {expect:.0} ({dev:.3})");
        prop_assert!(seen.iter().all(|&s| s), "every stream must surface in the merge");
    }
}

proptest! {
    /// `sockets.credit_stalls` counts calls that blocked on a full eRPC
    /// window, once each. `warmup` sequential calls on a clean fabric block
    /// nothing; then `window + extra` callers arrive at once, and exactly
    /// the `extra` beyond the window wait. A completion nobody waited on
    /// used to bank a wake-up permit, so the first blocked call spun
    /// through one stall per warm-up call.
    #[test]
    fn erpc_credit_stalls_count_the_callers_beyond_the_window(
        window in prop::sample::select(vec![1u32, 2, 4, 8]),
        warmup in 0u32..=16,
        extra in 1u32..=4,
    ) {
        use std::rc::Rc;
        use nextgen_datacenter::sockets::{ErpcCfg, ErpcMux, ErpcServer};

        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let srv = ErpcServer::spawn(&cluster, NodeId(1), 1, window, 0, Rc::new(|_, req| req));
        let cfg = ErpcCfg { window, ..ErpcCfg::default() };
        let sess = ErpcMux::new(&cluster, NodeId(0), cfg).session(NodeId(1), srv.ports()[0], 1);
        let h = sim.handle();
        // The retransmit sweeper never quiesces: run until the calls are done.
        sim.run_to(async move {
            for _ in 0..warmup {
                sess.call(0, Bytes::from_static(b"warm")).await;
            }
            let callers: Vec<_> = (0..window + extra)
                .map(|_| {
                    let s = sess.clone();
                    h.spawn(async move { s.call(0, Bytes::from_static(b"load")).await })
                })
                .collect();
            for c in callers {
                c.await;
            }
        });
        prop_assert_eq!(
            cluster.metrics().snapshot().counter("sockets.credit_stalls"),
            extra as u64
        );
    }

    /// The AIMD rate machine never escapes `[FLOOR_BPS, LINK_BPS]`, for any
    /// seed and any interleaving of ack RTTs (spanning both Timely bands)
    /// and ECN marks.
    #[test]
    fn erpc_rate_stays_within_floor_and_link(
        seed in any::<u64>(),
        events in prop::collection::vec((any::<bool>(), 0u64..2_000_000), 1..300),
    ) {
        use nextgen_datacenter::sockets::erpc::{CongestionState, FLOOR_BPS, LINK_BPS};
        let mut cs = CongestionState::new(seed);
        prop_assert!(cs.rate_bps() >= FLOOR_BPS);
        prop_assert!(cs.rate_bps() <= LINK_BPS);
        for (mark, rtt_ns) in events {
            if mark {
                cs.on_mark();
            } else {
                cs.on_ack(rtt_ns);
            }
            prop_assert!(cs.rate_bps() >= FLOOR_BPS,
                "rate {} fell below the floor", cs.rate_bps());
            prop_assert!(cs.rate_bps() <= LINK_BPS,
                "rate {} exceeded the link", cs.rate_bps());
            prop_assert!(cs.gap_ns(8192) > 0, "pacing gap must stay positive");
        }
    }

    /// Two symmetric AIMD sessions sharing one link converge to the fair
    /// share regardless of their (different) seeded start rates: additive
    /// increase while the link has headroom, synchronized multiplicative
    /// decrease when the offered sum exceeds it — the classic Chiu–Jain
    /// dynamics. Time-averaged over the second half of the run, each
    /// session holds 50% ± 10% of the aggregate.
    #[test]
    fn erpc_aimd_converges_to_fair_share_for_two_sessions(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        use nextgen_datacenter::sockets::erpc::{
            CongestionState, LINK_BPS, RTT_HIGH_NS, RTT_LOW_NS,
        };
        let mut a = CongestionState::new(seed_a);
        let mut b = CongestionState::new(seed_b);
        let rounds = 4_000usize;
        let (mut sum_a, mut sum_b) = (0u128, 0u128);
        for i in 0..rounds {
            let congested = a.rate_bps() + b.rate_bps() > LINK_BPS;
            let rtt = if congested { RTT_HIGH_NS } else { RTT_LOW_NS };
            a.on_ack(rtt);
            b.on_ack(rtt);
            if i >= rounds / 2 {
                sum_a += a.rate_bps() as u128;
                sum_b += b.rate_bps() as u128;
            }
        }
        let share = sum_a as f64 / (sum_a + sum_b) as f64;
        prop_assert!((share - 0.5).abs() < 0.10,
            "session A settled at {share:.3} of the aggregate, expected ~0.5");
    }

    /// The immediate-word header round-trips exactly over its full valid
    /// range: every field survives encode → decode unchanged.
    #[test]
    fn erpc_imm_header_round_trips(
        kind in 0u8..4,
        ece in any::<bool>(),
        op in any::<u8>(),
        session in any::<u16>(),
        seq in 0u32..=nextgen_datacenter::sockets::erpc::SEQ_MASK,
        port in any::<u16>(),
    ) {
        use nextgen_datacenter::sockets::erpc::{decode_imm, encode_imm, ImmHeader};
        let h = ImmHeader { kind, ece, op, session, seq, port };
        prop_assert_eq!(decode_imm(encode_imm(h)), h);
    }

    /// The header layout fills all 64 bits with no gaps, so decode/encode
    /// is a bijection on the whole immediate word — no information can hide
    /// in unused bits.
    #[test]
    fn erpc_imm_word_decode_encode_is_a_bijection(imm in any::<u64>()) {
        use nextgen_datacenter::sockets::erpc::{decode_imm, encode_imm};
        prop_assert_eq!(encode_imm(decode_imm(imm)), imm);
    }
}

/// Length from which a region's flat bytes are kept in granules rather than
/// one buffer.
const PAGE: usize = 4096;

/// Granule of a paged region's flat bytes: what the region-model property's
/// boundary-skewed accesses straddle.
const GRANULE: usize = 512;

/// Region lengths the region-model property draws from: inside one buffer, a
/// byte short of the paging length, exactly it, a byte past it, and several
/// pages with a ragged last granule.
const REGION_LENS: [usize; 6] = [8, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 24, 20_000];

/// Source of the static-backed payloads.
static STATIC_SRC: [u8; 3 * PAGE] = {
    let mut a = [0u8; 3 * PAGE];
    let mut i = 0;
    while i < a.len() {
        a[i] = (i * 7 + 3) as u8;
        i += 1;
    }
    a
};

/// One step against a registered region; ranges are already in bounds.
#[derive(Debug, Clone)]
enum RegionOp {
    Write {
        off: usize,
        len: usize,
        fill: u8,
    },
    /// `backing`: 0 copied (inline when short), 1 static, 2 its own heap
    /// buffer, 3 a window of a larger heap buffer.
    WriteBytes {
        off: usize,
        len: usize,
        fill: u8,
        backing: u8,
    },
    WriteU64 {
        off: usize,
        v: u64,
    },
    Cas {
        off: usize,
        hit: bool,
        swap: u64,
    },
    Faa {
        off: usize,
        add: u64,
    },
    Read {
        off: usize,
        len: usize,
    },
    ReadBytes {
        off: usize,
        len: usize,
    },
    ReadSg {
        off: usize,
        split: usize,
        len: usize,
    },
    ReadU64 {
        off: usize,
    },
    /// Drop the region and register a fresh one of the same length.
    Renew,
}

/// Offsets uniform, on a 64-byte grid, within 64 bytes of a granule boundary,
/// or at the very end (where every access is empty), and lengths from a
/// short list most of the time, so ranges nest, abut, overlap, exactly
/// replace each other and straddle granules; the listed lengths sit around the
/// inline cap of `Bytes` (30) and the size below which `write_bytes` copies
/// (256).
fn region_op(region_len: usize) -> impl Strategy<Value = RegionOp> {
    const LENS: [usize; 14] = [
        0, 1, 8, 30, 31, 64, 255, 256, 257, 320, 512, 1000, 1024, 2048,
    ];
    (
        0u8..13,
        (0u8..8, 0..region_len, -64isize..64),
        (0usize..20, 0usize..3 * PAGE),
        any::<u64>(),
        0u8..4,
    )
        .prop_map(
            move |(kind, (place, at, skew), (pick, any_len), v, backing)| {
                let off = match place {
                    0 | 1 => at,
                    2 | 3 => at / 64 * 64,
                    4..=6 => {
                        let boundary = at % (region_len / GRANULE + 1) * GRANULE;
                        boundary.saturating_add_signed(skew).min(region_len)
                    }
                    _ => region_len,
                };
                let len = LENS
                    .get(pick)
                    .copied()
                    .unwrap_or(any_len)
                    .min(region_len - off);
                let word = off.min(region_len - 8) / 8 * 8;
                let fill = v as u8;
                match kind {
                    0 | 1 => RegionOp::Write { off, len, fill },
                    2..=4 => RegionOp::WriteBytes {
                        off,
                        len,
                        fill,
                        backing,
                    },
                    5 => RegionOp::WriteU64 { off: word, v },
                    6 => RegionOp::Cas {
                        off: word,
                        hit: v % 2 == 0,
                        swap: v,
                    },
                    7 => RegionOp::Faa { off: word, add: v },
                    8 => RegionOp::Read { off, len },
                    9 => RegionOp::ReadBytes { off, len },
                    10 => RegionOp::ReadSg {
                        off,
                        split: (v as usize >> 8) % (len + 1),
                        len,
                    },
                    11 => RegionOp::ReadU64 { off: word },
                    _ => RegionOp::Renew,
                }
            },
        )
}

/// The payload a `WriteBytes` step writes.
fn region_payload(len: usize, fill: u8, backing: u8) -> Bytes {
    let gen = |n: usize| -> Vec<u8> { (0..n).map(|i| fill.wrapping_add(i as u8)).collect() };
    match backing {
        0 => Bytes::copy_from_slice(&gen(len)),
        1 => {
            let at = fill as usize % (STATIC_SRC.len() - len + 1);
            Bytes::from_static(&STATIC_SRC[at..at + len])
        }
        2 => Bytes::from(gen(len)),
        _ => Bytes::from(gen(len + 100)).slice(50..50 + len),
    }
}

proptest! {
    // Many short op sequences: the interesting cases are particular
    // overlaps of two or three ranges.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A registered region is byte-for-byte a flat array, whatever mix of
    /// copied and held payloads it is made of and however its accesses fall
    /// on its granules: every read equals the same read of a plain `Vec<u8>`
    /// model, a `Bytes` handed out keeps the content it was sampled with,
    /// the held extents never overlap, a large held payload reads back as
    /// the writer's own buffer, a fresh region reads as zeros however dirty
    /// the granules a dropped one left behind, and an access past the end still
    /// panics.
    #[test]
    fn region_is_a_flat_byte_array(
        (region_len, ops) in prop::sample::select(REGION_LENS.to_vec())
            .prop_flat_map(|len| (Just(len), prop::collection::vec(region_op(len), 1..60)))
    ) {
        let fresh = || {
            let sim = Sim::new();
            let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
            let id = cluster.register(NodeId(1), region_len);
            let region: RegionData = cluster.region(NodeId(1), id);
            (sim, cluster, id, region)
        };
        let (mut sim, mut cluster, mut id, mut region) = fresh();
        let mut model = vec![0u8; region_len];
        let mut handed: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let word = |m: &[u8], off: usize| u64::from_le_bytes(m[off..off + 8].try_into().unwrap());
        for op in ops {
            match op.clone() {
                RegionOp::Renew => {
                    // The old region's granules go back to be reused before
                    // the new one writes any.
                    drop((region, cluster, sim));
                    (sim, cluster, id, region) = fresh();
                    model.fill(0);
                }
                RegionOp::Write { off, len, fill } => {
                    let buf = vec![fill; len];
                    region.write(off, &buf);
                    model[off..off + len].copy_from_slice(&buf);
                }
                RegionOp::WriteBytes { off, len, fill, backing } => {
                    let buf = region_payload(len, fill, backing);
                    region.write_bytes(off, &buf);
                    model[off..off + len].copy_from_slice(&buf);
                    if len >= 512 {
                        prop_assert_eq!(region.read_bytes(off, len).as_ptr(), buf.as_ptr(),
                            "{:?}: a held payload was copied", op);
                    }
                }
                RegionOp::WriteU64 { off, v } => {
                    region.write_u64(off, v);
                    model[off..off + 8].copy_from_slice(&v.to_le_bytes());
                }
                RegionOp::Cas { off, hit, swap } => {
                    let old = word(&model, off);
                    let expect = if hit { old } else { old.wrapping_add(1) };
                    prop_assert_eq!(region.cas_u64(off, expect, swap), old);
                    if hit {
                        model[off..off + 8].copy_from_slice(&swap.to_le_bytes());
                    }
                }
                RegionOp::Faa { off, add } => {
                    let old = word(&model, off);
                    prop_assert_eq!(region.faa_u64(off, add), old);
                    model[off..off + 8].copy_from_slice(&old.wrapping_add(add).to_le_bytes());
                }
                RegionOp::Read { off, len } => {
                    prop_assert_eq!(&region.read(off, len)[..], &model[off..off + len], "{:?}", op);
                }
                RegionOp::ReadBytes { off, len } => {
                    let got = region.read_bytes(off, len);
                    prop_assert_eq!(&got[..], &model[off..off + len], "{:?}", op);
                    handed.push((got, model[off..off + len].to_vec()));
                }
                RegionOp::ReadSg { off, split, len } => {
                    let addr = RemoteAddr { node: NodeId(1), region: id, offset: off };
                    let c = cluster.clone();
                    let (head, body) = sim
                        .run_to(async move { c.try_rdma_read_sg(NodeId(0), addr, split, len).await })
                        .expect("no fault plan installed");
                    prop_assert_eq!(&head[..], &model[off..off + split], "{:?} head", op);
                    prop_assert_eq!(&body[..], &model[off + split..off + len], "{:?} body", op);
                    handed.push((head, model[off..off + split].to_vec()));
                    handed.push((body, model[off + split..off + len].to_vec()));
                }
                RegionOp::ReadU64 { off } => {
                    prop_assert_eq!(region.read_u64(off), word(&model, off), "{:?}", op);
                }
            }
            let mut free_from = 0;
            for (at, len) in region.extents() {
                prop_assert!(len > 0 && at >= free_from && at + len <= region_len,
                    "after {:?}: extent {}+{} overlaps its predecessor or the end", op, at, len);
                free_from = at + len;
            }
            prop_assert_eq!(&region.read(0, region_len)[..], &model[..], "after {:?}", op);
        }
        for (got, sampled) in &handed {
            prop_assert_eq!(&got[..], &sampled[..], "a handed-out Bytes changed");
        }
        // Out-of-bounds accesses are rkey violations however the region is
        // made up.
        let big = Bytes::from(vec![1u8; 1024]);
        let oob: [&dyn Fn(); 4] = [
            &|| region.write(region_len - 4, &[0; 8]),
            &|| region.write_bytes(region_len.saturating_sub(1000), &big),
            &|| drop(region.read(region_len - 4, 8)),
            &|| drop(region.read_bytes(1, region_len)),
        ];
        for access in oob {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(access));
            prop_assert!(caught.is_err(), "an out-of-bounds access did not panic");
        }
        prop_assert_eq!(&region.read(0, region_len)[..], &model[..], "a refused access wrote");
    }
}

/// Words in the table the word-table property drives.
const WORDS: usize = 8;

/// One step against a shared-word table, issued by node `from` on word `i`.
#[derive(Debug, Clone)]
enum WordOp {
    Cas {
        hit: bool,
        swap: u64,
    },
    Faa {
        add: u64,
    },
    Poke {
        v: u64,
    },
    /// One `update` per amount, each from its own node and all in flight at
    /// once, each adding its amount: the sum needs no order, and an update
    /// lost to a concurrent CAS shows in it.
    Update {
        adds: Vec<u64>,
    },
}

fn word_op() -> impl Strategy<Value = (u32, usize, WordOp)> {
    (
        (0u8..4, 0u32..4, 0..WORDS),
        (any::<u64>(), any::<bool>()),
        prop::collection::vec(any::<u64>(), 1..5),
    )
        .prop_map(|((kind, from, i), (v, hit), adds)| {
            let op = match kind {
                0 => WordOp::Cas { hit, swap: v },
                1 => WordOp::Faa { add: v },
                2 => WordOp::Poke { v },
                _ => WordOp::Update { adds },
            };
            (from, i, op)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `WordTable` is an array of `u64`: whatever mix of remote atomics, CAS
    /// loops racing each other and home-local stores it sees, every word
    /// reads — remotely and at home — as the model's.
    #[test]
    fn word_table_is_an_array_of_words(ops in prop::collection::vec(word_op(), 1..40)) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
        let table = WordTable::new(&cluster, NodeId(0), WORDS);
        let mut model = [0u64; WORDS];
        for (from, i, op) in ops {
            let (node, t) = (NodeId(from), table.clone());
            match op.clone() {
                WordOp::Cas { hit, swap } => {
                    let old = model[i];
                    let expect = if hit { old } else { old.wrapping_add(1) };
                    let got = sim.run_to(async move { t.cas(node, i, expect, swap).await });
                    prop_assert_eq!(got, old, "{:?}", op);
                    if hit {
                        model[i] = swap;
                    }
                }
                WordOp::Faa { add } => {
                    let got = sim.run_to(async move { t.faa(node, i, add).await });
                    prop_assert_eq!(got, model[i], "{:?}", op);
                    model[i] = model[i].wrapping_add(add);
                }
                WordOp::Poke { v } => {
                    table.poke(i, v);
                    model[i] = v;
                }
                WordOp::Update { adds } => {
                    for (n, &add) in adds.iter().enumerate() {
                        let t = table.clone();
                        sim.spawn(async move {
                            t.update(NodeId(n as u32), i, |w| w.wrapping_add(add)).await
                        });
                        model[i] = model[i].wrapping_add(add);
                    }
                    sim.run();
                }
            }
            for (w, &want) in model.iter().enumerate() {
                prop_assert_eq!(table.peek(w), want, "word {} after {:?}", w, op);
            }
            let t = table.clone();
            let read = sim.run_to(async move { t.read(node, i).await });
            prop_assert_eq!(read, model[i], "remote read after {:?}", op);
        }
    }
}
