//! At-scale open-loop web farm: the `ext_webfarm_scale` engine.
//!
//! The closed-loop farm in [`crate::webfarm`] spawns one task per client,
//! which is the right shape for the paper's handful of Figure 6 clients but
//! tops out far below the ROADMAP's "traffic from millions of users".
//! This module drives the same proxy → coopcache → DDSS → backend pipeline
//! from the other side of the telescope:
//!
//! * **Clients are state, not tasks.** Each of the (up to 10^6) clients is
//!   one ~48-byte seeded [`ArrivalProcess`]; a per-proxy driver task merges
//!   its clients' streams through the allocation-free [`MergedArrivals`]
//!   k-way heap and injects requests open-loop. Offered load never slows
//!   down because the farm is slow — which is exactly what makes overload
//!   collapse observable (closed-loop generators self-throttle and hide it).
//! * **Nodes are slab indices, not actors.** Proxy queues, worker pools,
//!   and the two cache tiers live in flat arrays indexed by node id. Service
//!   times come from [`FabricModel::calibrated_2007`] so the cost of a peer
//!   fetch or a directory lookup matches what the message-passing engines
//!   charge wire-for-wire.
//! * **Exact accounting.** Every measured request's latency is partitioned
//!   into the [`STAGES`] taxonomy (queue wait, cpu, wire, remote backend,
//!   retry) with integer arithmetic — stage sums equal the end-to-end total
//!   — and recorded into per-stage [`StreamHist`]s, so a
//!   [`LatencyBreakdown`] falls out without tracing overhead.
//! * **Shardable by construction.** The farm runs on the conservative
//!   sharded driver ([`dc_sim::shard`]): proxies are partitioned
//!   round-robin over N shards, the shared app-tier cache is partitioned
//!   by slot, and the backend station lives on shard 0. Every interaction
//!   that crosses an ownership boundary is a time-stamped message (cache
//!   probe, peer-hit reply, backend forward, completion) whose virtual
//!   delay is the same fabric cost the request would pay anyway, so the
//!   lookahead window is wide (tens of µs) and the result is **bit-
//!   identical at every shard count** — `(ts, src_key, seq)` merge keys
//!   use stable entity ids (proxy id, tier slot, station), never shard
//!   indices. The shard count comes from [`ScaleFarmCfg::shards`] or
//!   `DC_SIM_SHARDS` (see [`resolved_shards`]).
//!
//! Request lifecycle: arrival → admission (shed if the proxy is down or its
//! bounded queue is full while all workers are busy) → parse CPU → cache
//! lookup (proxy-local hit, app-tier peer hit via one RDMA read, or miss:
//! DDSS directory read + backend station with a fixed server pool) →
//! response send CPU + TCP wire. The measured window `[warmup, horizon)`
//! obeys the conservation law checked by [`ScalePoint::conservation_gap`]:
//! `issued == completed + shed + in-flight-at-cutoff`, with in-flight
//! re-counted by an independent scan of queues and workers at the cutoff.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use dc_fabric::faults::inflate;
use dc_fabric::{FabricModel, FaultConfig, NodeId};
use dc_sim::rng::{derive_seed, splitmix64};
use dc_sim::shard::{run_sharded, ShardCfg, ShardNet, ShardRun, ShardStats};
use dc_sim::sync::Semaphore;
use dc_sim::{Sim, SimTime};
use dc_trace::{LatencyBreakdown, StageAgg, StreamHist, STAGES};
use dc_workloads::{ArrivalKind, ArrivalProcess, MergedArrivals, Zipf};

use crate::webfarm::farm_fault_plan;

/// Configuration for one at-scale run (one offered-load point).
#[derive(Debug, Clone)]
pub struct ScaleFarmCfg {
    /// Front-end proxy nodes (NodeId 1..=proxies; each has a worker pool
    /// and a direct-mapped local document cache).
    pub proxies: usize,
    /// Application-tier nodes contributing slots to the shared cooperative
    /// cache tier.
    pub app_nodes: usize,
    /// Open-loop client population; each client is one seeded arrival
    /// stream, partitioned contiguously across proxies.
    pub clients: usize,
    /// Document corpus size.
    pub num_docs: usize,
    /// Document size in bytes (drives wire + copy costs).
    pub doc_size: usize,
    /// Direct-mapped cache slots per node (local tier per proxy, and per
    /// app node in the shared tier).
    pub cache_docs_per_node: usize,
    /// Zipf exponent of document popularity.
    pub zipf_alpha: f64,
    /// Interarrival process each client runs.
    pub arrival: ArrivalKind,
    /// Open-loop streams per proxy: 0 (the default) gives every client its
    /// own stream. A small positive value models edge aggregation instead:
    /// each stream is a gateway/PoP link carrying many clients' traffic, so
    /// a bursty phase flip modulates a whole gateway at once (flash-crowd
    /// shape). Without aggregation the superposition of 10^4–10^6
    /// independent MMPP phases is statistically Poisson and burstiness
    /// washes out of the aggregate.
    pub gateways_per_proxy: usize,
    /// Aggregate offered load across the whole population, requests/s.
    pub offered_rps: f64,
    /// Worker tasks per proxy (in-flight requests a proxy can hold).
    pub proxy_workers: usize,
    /// Bounded admission queue per proxy; arrivals beyond
    /// `proxy_workers + queue_cap` in-station are shed.
    pub queue_cap: usize,
    /// Concurrent request slots at the shared backend/origin station.
    pub backend_workers: usize,
    /// Backend origin service CPU+IO per miss, ns (before SAN transfer).
    pub backend_ns: u64,
    /// Proxy parse/connection-handling CPU per request, ns.
    pub handling_ns: u64,
    /// Virtual run length, ns.
    pub horizon_ns: u64,
    /// Measurement starts here; earlier requests warm caches and queues.
    pub warmup_ns: u64,
    /// Master seed; all client streams and fault draws derive from it.
    pub seed: u64,
    /// Optional seeded fault plan `(fault_seed, config)`. The backend
    /// station (NodeId 0) is always immune so the farm degrades instead of
    /// halting.
    pub faults: Option<(u64, FaultConfig)>,
    /// Worker shards for the parallel driver. `None` defers to the
    /// `DC_SIM_SHARDS` environment knob; see [`resolved_shards`]. Results
    /// are bit-identical at every shard count, so this only trades
    /// wall-clock for threads.
    pub shards: Option<usize>,
}

impl Default for ScaleFarmCfg {
    fn default() -> Self {
        ScaleFarmCfg {
            proxies: 8,
            app_nodes: 4,
            clients: 2_000,
            num_docs: 8_192,
            doc_size: 16 * 1024,
            cache_docs_per_node: 256,
            zipf_alpha: 0.9,
            arrival: ArrivalKind::Poisson,
            gateways_per_proxy: 0,
            offered_rps: 2_000.0,
            proxy_workers: 4,
            queue_cap: 8,
            backend_workers: 2,
            backend_ns: 300_000,
            handling_ns: 20_000,
            horizon_ns: 2_000_000_000,
            warmup_ns: 500_000_000,
            seed: 42,
            faults: None,
            shards: None,
        }
    }
}

/// The shard count a run of `cfg` will use: `cfg.shards`, else
/// `DC_SIM_SHARDS`, else 1 — clamped to `[1, proxies]` (a shard with no
/// proxies would only spin the barrier).
pub fn resolved_shards(cfg: &ScaleFarmCfg) -> usize {
    let n = cfg
        .shards
        .or_else(|| {
            std::env::var("DC_SIM_SHARDS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        })
        .unwrap_or(1);
    n.clamp(1, cfg.proxies.max(1))
}

impl ScaleFarmCfg {
    /// Analytic saturation estimate, requests/s: the binding constraint of
    /// the proxy worker pools and the backend miss station, using the Zipf
    /// head mass reachable by each cache tier (discounted for direct-mapped
    /// conflict evictions). The load sweep expresses offered load as a
    /// multiple of this estimate; the claims pin where the measured knee
    /// actually lands.
    pub fn saturation_rps(&self) -> f64 {
        let m = FabricModel::calibrated_2007();
        let z = Zipf::new(self.num_docs, self.zipf_alpha);
        // Direct-mapped tiers hold at most `slots` docs but conflict-evict
        // within the head; 0.75 discounts the analytic residency mass.
        let local_slots = self.cache_docs_per_node.min(self.num_docs);
        let tier_slots = (self.app_nodes * self.cache_docs_per_node).min(self.num_docs);
        let h_local = 0.75 * z.cdf(local_slots - 1);
        let h_tier = 0.75 * z.cdf(tier_slots - 1);
        let h_peer = (h_tier - h_local).max(0.0);
        let miss = (1.0 - h_local - h_peer).max(0.01);
        let c = ScaleCosts::new(&m, self);
        let t_busy_ns = (c.parse + c.send_cpu + c.resp_wire) as f64
            + h_peer * c.peer_fetch as f64
            + miss * (c.dir_read + c.backend) as f64;
        let proxy_cap = (self.proxies * self.proxy_workers) as f64 / (t_busy_ns / 1e9);
        let backend_cap = self.backend_workers as f64 / (miss * c.backend as f64 / 1e9);
        proxy_cap.min(backend_cap)
    }
}

/// Pre-derived per-request service costs, ns (uninflated).
struct ScaleCosts {
    /// Proxy HTTP parse + connection handling (cpu stage).
    parse: u64,
    /// DDSS directory lookup: one one-sided RDMA read (wire stage).
    dir_read: u64,
    /// Document transfer from the owning app node over the SAN (wire
    /// stage); `dir_read + peer_bytes` is the classic peer-fetch cost.
    peer_bytes: u64,
    /// Cooperative-cache peer fetch: RDMA read + document transfer (wire).
    peer_fetch: u64,
    /// Backend origin service + SAN transfer + completion send (remote).
    backend: u64,
    /// Response copy cost on the proxy CPU (cpu stage).
    send_cpu: u64,
    /// Response bytes on the client-facing TCP wire (wire stage).
    resp_wire: u64,
    /// Timed-out peer fetch reissue penalty (retry stage).
    retry: u64,
}

impl ScaleCosts {
    fn new(m: &FabricModel, cfg: &ScaleFarmCfg) -> ScaleCosts {
        ScaleCosts {
            parse: cfg.handling_ns,
            dir_read: m.rdma_read_base_ns,
            peer_bytes: m.ib_bytes_time(cfg.doc_size),
            peer_fetch: m.rdma_read_base_ns + m.ib_bytes_time(cfg.doc_size),
            backend: cfg.backend_ns + m.ib_bytes_time(cfg.doc_size) + m.rdma_send_base_ns,
            send_cpu: m.tcp_send_cpu(cfg.doc_size),
            resp_wire: m.tcp_bytes_time(cfg.doc_size),
            retry: 2 * m.rdma_read_base_ns,
        }
    }

    /// Conservative lookahead: the floor over every cross-shard message
    /// delay this scenario can send (probe, peer-hit reply, backend
    /// forward, completion). Fault inflation only lengthens delays
    /// (factors are ≥ 1.0 by construction), so the uninflated floor is
    /// safe. The sharded driver hard-asserts every send against it.
    fn lookahead_ns(&self) -> u64 {
        (self.parse + self.dir_read)
            .min(self.peer_bytes)
            .min(self.send_cpu)
            .min(self.backend + self.resp_wire)
            .max(1)
    }
}

/// One admitted request sitting in a proxy queue.
#[derive(Clone, Copy)]
struct Req {
    doc: u32,
    arrive: SimTime,
    measured: bool,
}

/// Stage indices into [`STAGES`] (`["wire","queue","handler","cpu","retry",
/// "remote","other"]`).
const ST_WIRE: usize = 0;
const ST_QUEUE: usize = 1;
const ST_CPU: usize = 3;
const ST_RETRY: usize = 4;
const ST_REMOTE: usize = 5;

const EMPTY: u32 = u32::MAX;

/// Cross-shard traffic. Delays are the same fabric costs the request pays
/// in its latency partition, so sharding never changes any timestamp.
#[derive(Clone, Copy)]
enum NetMsg {
    /// Worker → tier-slot owner: look `doc` up in the shared app tier.
    /// Arrives `parse + dir_read` after dequeue.
    Probe { worker: u32, doc: u32, factor: u64 },
    /// Tier owner → worker: the slot held the doc (peer hit). Arrives
    /// `peer_bytes` after the probe.
    TierHit { worker: u32 },
    /// Tier owner → backend station: miss; fetch from origin. Arrives
    /// `send_cpu` after the probe.
    BackendReq { worker: u32, factor: u64 },
    /// Station → worker: origin fetch done. Arrives `service + resp_wire`
    /// after the station granted a server slot.
    Done {
        worker: u32,
        wait_ns: u64,
        service_ns: u64,
    },
}

/// What a worker learns when its probe resolves.
#[derive(Clone, Copy)]
enum Reply {
    Peer,
    Done { wait_ns: u64, service_ns: u64 },
}

/// One forwarded miss waiting for a backend server slot.
#[derive(Clone, Copy)]
struct StationJob {
    /// Arrival time at the station (the `BackendReq` delivery timestamp).
    ts: SimTime,
    worker: u32,
    factor: u64,
}

/// Cache-lookup outcome for one request.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Local,
    Peer,
    Miss,
}

/// Per-shard mutable run state. Arrays are sized for the whole farm but
/// each shard only ever touches the entities it hosts: proxies with
/// `p % shards == shard`, tier slots with `slot % shards == shard`, and —
/// on shard 0 only — the backend station. Everything is `Cell`/`RefCell`
/// over plain memory; no per-client allocation after setup.
struct ShardFarm {
    queues: Vec<RefCell<VecDeque<Req>>>,
    wakeups: Vec<Semaphore>,
    busy: Vec<Cell<u32>>,
    /// Proxy-local direct-mapped caches, `proxies * k` slots.
    local_cache: RefCell<Vec<u32>>,
    /// Shared app-tier direct-mapped cache, `app_nodes * k` slots,
    /// partitioned by `slot % shards`.
    tier_cache: RefCell<Vec<u32>>,
    /// One in-flight probe reply slot per worker (`proxy * workers + w`).
    reply_slot: Vec<Cell<Option<Reply>>>,
    reply_wake: Vec<Semaphore>,
    /// Per-proxy drop-draw counters for the deterministic per-stream
    /// fault draws ([`dc_fabric::FaultPlan::stream_should_drop`]).
    probe_draws: Vec<Cell<u64>>,
    /// Backend station queue + wakeup (shard 0 only).
    station_q: RefCell<VecDeque<StationJob>>,
    station_wake: Semaphore,
    // Measured-window counters.
    issued: Cell<u64>,
    shed_down: Cell<u64>,
    shed_queue: Cell<u64>,
    completed: Cell<u64>,
    in_service_measured: Cell<u64>,
    hit_local: Cell<u64>,
    hit_peer: Cell<u64>,
    misses: Cell<u64>,
    retries: Cell<u64>,
    total_latency_ns: Cell<u64>,
    // Whole-run gauges.
    backend_busy_ns: Cell<u64>,
    qdepth_hwm: Cell<u64>,
    lat_hist: RefCell<StreamHist>,
    stage_hist: RefCell<Vec<StreamHist>>,
    stage_total: RefCell<Vec<u64>>,
}

impl ShardFarm {
    fn new(cfg: &ScaleFarmCfg) -> ShardFarm {
        let k = cfg.cache_docs_per_node;
        ShardFarm {
            queues: (0..cfg.proxies)
                .map(|_| RefCell::new(VecDeque::with_capacity(cfg.queue_cap + 1)))
                .collect(),
            wakeups: (0..cfg.proxies).map(|_| Semaphore::new(0)).collect(),
            busy: (0..cfg.proxies).map(|_| Cell::new(0)).collect(),
            local_cache: RefCell::new(vec![EMPTY; cfg.proxies * k]),
            tier_cache: RefCell::new(vec![EMPTY; cfg.app_nodes * k]),
            reply_slot: (0..cfg.proxies * cfg.proxy_workers)
                .map(|_| Cell::new(None))
                .collect(),
            reply_wake: (0..cfg.proxies * cfg.proxy_workers)
                .map(|_| Semaphore::new(0))
                .collect(),
            probe_draws: (0..cfg.proxies).map(|_| Cell::new(0)).collect(),
            station_q: RefCell::new(VecDeque::new()),
            station_wake: Semaphore::new(0),
            issued: Cell::new(0),
            shed_down: Cell::new(0),
            shed_queue: Cell::new(0),
            completed: Cell::new(0),
            in_service_measured: Cell::new(0),
            hit_local: Cell::new(0),
            hit_peer: Cell::new(0),
            misses: Cell::new(0),
            retries: Cell::new(0),
            total_latency_ns: Cell::new(0),
            backend_busy_ns: Cell::new(0),
            qdepth_hwm: Cell::new(0),
            lat_hist: RefCell::new(StreamHist::new()),
            stage_hist: RefCell::new((0..STAGES.len()).map(|_| StreamHist::new()).collect()),
            stage_total: RefCell::new(vec![0u64; STAGES.len()]),
        }
    }
}

/// One shard's contribution to the run result: plain sums, maxima, and
/// mergeable histograms, so N-shard totals equal the 1-shard totals
/// exactly (every field is commutative under merge).
struct ShardTally {
    issued: u64,
    shed_down: u64,
    shed_queue: u64,
    completed: u64,
    inflight: u64,
    hit_local: u64,
    hit_peer: u64,
    misses: u64,
    retries: u64,
    total_latency_ns: u64,
    backend_busy_ns: u64,
    qdepth_hwm: u64,
    lat_hist: StreamHist,
    stage_hist: Vec<StreamHist>,
    stage_total: Vec<u64>,
}

/// Result of one offered-load point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Offered load this point ran at, requests/s.
    pub offered_rps: f64,
    /// Requests issued inside the measured window.
    pub issued: u64,
    /// Completions of measured requests.
    pub completed: u64,
    /// Measured requests shed at admission (down proxy + full queue).
    pub shed: u64,
    /// Shed because the target proxy was crashed.
    pub shed_down: u64,
    /// Shed because the admission queue was full with every worker busy.
    pub shed_queue: u64,
    /// Measured requests still queued or in service at the horizon,
    /// re-counted by an independent scan at cutoff.
    pub inflight: u64,
    /// `issued - completed - shed - inflight`; zero iff the run conserved
    /// every request.
    pub conservation_gap: i64,
    /// Completed measured requests per second of measured window.
    pub goodput_rps: f64,
    /// Shed fraction of issued, percent.
    pub shed_pct: f64,
    /// Latency quantiles over completed measured requests, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Proxy-local cache hits (measured).
    pub hit_local: u64,
    /// App-tier peer hits (measured).
    pub hit_peer: u64,
    /// Backend misses (measured).
    pub misses: u64,
    /// Peer-fetch retries after seeded drops (measured).
    pub retries: u64,
    /// High-water mark of any proxy admission queue (whole run).
    pub qdepth_hwm: u64,
    /// Backend station utilisation over the whole run, percent.
    pub backend_busy_pct: f64,
    /// Exact stage partition of completed measured requests.
    pub breakdown: LatencyBreakdown,
}

impl ScalePoint {
    /// Hit rate over measured completions+misses, percent.
    pub fn hit_pct(&self) -> f64 {
        let total = self.hit_local + self.hit_peer + self.misses;
        if total == 0 {
            return 0.0;
        }
        (self.hit_local + self.hit_peer) as f64 * 100.0 / total as f64
    }
}

/// Uniform `[0, 1)` from a stepped splitmix64 counter — the document
/// sampler's compact per-proxy RNG (same construction as the arrival
/// processes; `StdRng` state would dwarf the request itself).
#[inline]
fn step_u01(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    (splitmix64(*state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Run one offered-load point to its horizon and collect the results.
pub fn run_webfarm_scale(cfg: &ScaleFarmCfg) -> ScalePoint {
    run_webfarm_scale_stats(cfg).0
}

/// [`run_webfarm_scale`] plus the sharded driver's engine statistics
/// (shard count, barrier crossings, cross-shard sends). The `ScalePoint`
/// is bit-identical at every shard count; the stats are not (that is what
/// they measure), which is why they ride outside the point.
pub fn run_webfarm_scale_stats(cfg: &ScaleFarmCfg) -> (ScalePoint, ShardStats) {
    assert!(cfg.proxies > 0 && cfg.app_nodes > 0 && cfg.clients >= cfg.proxies);
    assert!(
        cfg.warmup_ns < cfg.horizon_ns,
        "warmup must precede horizon"
    );
    assert!(cfg.proxy_workers > 0 && cfg.backend_workers > 0);
    assert!(cfg.doc_size > 0, "zero-byte documents have no wire cost");

    let shards = resolved_shards(cfg);
    let model = FabricModel::calibrated_2007();
    let costs = ScaleCosts::new(&model, cfg);
    let zipf = Zipf::new(cfg.num_docs, cfg.zipf_alpha);
    let total_nodes = 1 + cfg.proxies + cfg.app_nodes;
    let k = cfg.cache_docs_per_node;
    let tier_len = cfg.app_nodes * k;
    let proxies = cfg.proxies;

    // Stable merge keys: proxies 0..P, tier slots P..P+T, station P+T.
    let station_key = (proxies + tier_len) as u32;
    let shard_cfg = ShardCfg {
        shards,
        lookahead_ns: costs.lookahead_ns(),
        horizon_ns: cfg.horizon_ns,
        src_keys: proxies + tier_len + 1,
    };

    // Open-loop stream layout (global, shard-independent): streams are
    // split contiguously across proxies exactly as the single-threaded
    // farm always did.
    let total_streams = if cfg.gateways_per_proxy > 0 {
        cfg.gateways_per_proxy * cfg.proxies
    } else {
        cfg.clients
    };
    let stream_base = total_streams / cfg.proxies;
    let stream_extra = total_streams % cfg.proxies;
    let per_stream_rps = cfg.offered_rps / total_streams as f64;

    let (tallies, stats) = run_sharded::<NetMsg, ShardTally, _>(&shard_cfg, |shard, sim, net| {
        build_farm_shard(BuildCtx {
            shard,
            shards,
            sim,
            net,
            cfg,
            costs: &costs,
            zipf: &zipf,
            total_nodes,
            k,
            tier_len,
            station_key,
            stream_base,
            stream_extra,
            per_stream_rps,
        })
    });

    // --- merge shard tallies (all commutative) -----------------------------
    let mut issued = 0u64;
    let mut shed_down = 0u64;
    let mut shed_queue = 0u64;
    let mut completed = 0u64;
    let mut inflight = 0u64;
    let mut hit_local = 0u64;
    let mut hit_peer = 0u64;
    let mut misses = 0u64;
    let mut retries = 0u64;
    let mut total_latency = 0u64;
    let mut backend_busy_ns = 0u64;
    let mut qdepth_hwm = 0u64;
    let mut lat = StreamHist::new();
    let mut stage_hist: Vec<StreamHist> = (0..STAGES.len()).map(|_| StreamHist::new()).collect();
    let mut stage_total = vec![0u64; STAGES.len()];
    for t in &tallies {
        issued += t.issued;
        shed_down += t.shed_down;
        shed_queue += t.shed_queue;
        completed += t.completed;
        inflight += t.inflight;
        hit_local += t.hit_local;
        hit_peer += t.hit_peer;
        misses += t.misses;
        retries += t.retries;
        total_latency += t.total_latency_ns;
        backend_busy_ns += t.backend_busy_ns;
        qdepth_hwm = qdepth_hwm.max(t.qdepth_hwm);
        lat.merge(&t.lat_hist);
        for (i, h) in t.stage_hist.iter().enumerate() {
            stage_hist[i].merge(h);
        }
        for (i, v) in t.stage_total.iter().enumerate() {
            stage_total[i] += v;
        }
    }
    let shed = shed_down + shed_queue;
    let gap = issued as i64 - completed as i64 - shed as i64 - inflight as i64;

    let span_s = (cfg.horizon_ns - cfg.warmup_ns) as f64 / 1e9;
    let to_us = |ns: u64| ns as f64 / 1_000.0;
    let stages = STAGES
        .iter()
        .enumerate()
        .map(|(i, stage)| StageAgg {
            stage,
            total_ns: stage_total[i],
            share_pct: if total_latency == 0 {
                0.0
            } else {
                stage_total[i] as f64 * 100.0 / total_latency as f64
            },
            p50_ns: stage_hist[i].quantile_ns(0.50),
            p99_ns: stage_hist[i].quantile_ns(0.99),
            max_ns: stage_hist[i].max_ns(),
        })
        .collect();

    let point = ScalePoint {
        offered_rps: cfg.offered_rps,
        issued,
        completed,
        shed,
        shed_down,
        shed_queue,
        inflight,
        conservation_gap: gap,
        goodput_rps: completed as f64 / span_s,
        shed_pct: if issued == 0 {
            0.0
        } else {
            shed as f64 * 100.0 / issued as f64
        },
        p50_us: to_us(lat.quantile_ns(0.50)),
        p99_us: to_us(lat.quantile_ns(0.99)),
        p999_us: to_us(lat.quantile_ns(0.999)),
        mean_us: if completed == 0 {
            0.0
        } else {
            total_latency as f64 / completed as f64 / 1_000.0
        },
        hit_local,
        hit_peer,
        misses,
        retries,
        qdepth_hwm,
        backend_busy_pct: backend_busy_ns as f64 * 100.0
            / (cfg.backend_workers as u64 * cfg.horizon_ns) as f64,
        breakdown: LatencyBreakdown {
            requests: completed,
            total_ns: total_latency,
            stages,
        },
    };
    (point, stats)
}

/// Everything one shard's builder needs, by reference.
struct BuildCtx<'a> {
    shard: usize,
    shards: usize,
    sim: &'a Sim,
    net: &'a ShardNet<NetMsg>,
    cfg: &'a ScaleFarmCfg,
    costs: &'a ScaleCosts,
    zipf: &'a Zipf,
    total_nodes: usize,
    k: usize,
    tier_len: usize,
    station_key: u32,
    stream_base: usize,
    stream_extra: usize,
    per_stream_rps: f64,
}

fn build_farm_shard(ctx: BuildCtx<'_>) -> ShardRun<NetMsg, ShardTally> {
    let BuildCtx {
        shard,
        shards,
        sim,
        net,
        cfg,
        costs,
        zipf,
        total_nodes,
        k,
        tier_len,
        station_key,
        stream_base,
        stream_extra,
        per_stream_rps,
    } = ctx;
    let proxies = cfg.proxies;
    let workers = cfg.proxy_workers;

    // Each shard derives its own (identical) fault plan; all reads used
    // here are pure functions of (seed, node, time) or of explicit
    // per-stream draw counters, so shards agree without sharing state.
    let plan = cfg
        .faults
        .as_ref()
        .map(|(fseed, fcfg)| Rc::new(farm_fault_plan(*fseed, fcfg, total_nodes)));

    let st = Rc::new(ShardFarm::new(cfg));

    // Per-request cost constants, copied for capture.
    let c_parse = costs.parse;
    let c_dir_read = costs.dir_read;
    let c_peer_bytes = costs.peer_bytes;
    let c_backend = costs.backend;
    let c_send_cpu = costs.send_cpu;
    let c_resp_wire = costs.resp_wire;
    let c_retry = costs.retry;

    // --- workers (own proxies only) ----------------------------------------
    for p in 0..proxies {
        if p % shards != shard {
            continue;
        }
        for w in 0..workers {
            let h = sim.handle();
            let st = st.clone();
            let net = net.clone();
            let plan = plan.clone();
            let wid = (p * workers + w) as u32;
            sim.handle().spawn_detached(async move {
                loop {
                    let req = st.queues[p].borrow_mut().pop_front();
                    let Some(req) = req else {
                        st.wakeups[p].acquire().await;
                        continue;
                    };
                    st.busy[p].set(st.busy[p].get() + 1);
                    if req.measured {
                        st.in_service_measured.set(st.in_service_measured.get() + 1);
                    }
                    let queue_ns = h.now() - req.arrive;
                    let factor = plan
                        .as_ref()
                        .map(|pl| pl.latency_factor_milli(h.now()))
                        .unwrap_or(1000);
                    let parse = inflate(c_parse, factor);
                    let send_cpu = inflate(c_send_cpu, factor);
                    let resp_wire = inflate(c_resp_wire, factor);

                    let slot = p * k + (req.doc as usize % k);
                    let is_local = st.local_cache.borrow()[slot] == req.doc;
                    let (outcome, cpu_ns, wire_ns, retry_ns, remote_ns);
                    if is_local {
                        // Hit path costs two timers and no messages.
                        h.sleep(parse + send_cpu).await;
                        h.sleep(resp_wire).await;
                        outcome = Outcome::Local;
                        cpu_ns = parse + send_cpu;
                        wire_ns = resp_wire;
                        retry_ns = 0;
                        remote_ns = 0;
                    } else {
                        // Install locally at dequeue (the reply will carry
                        // the bytes; a racing request for the same doc on
                        // this proxy can already count on them).
                        st.local_cache.borrow_mut()[slot] = req.doc;
                        let dir_read = inflate(c_dir_read, factor);
                        // One deterministic drop draw per probe, applied
                        // only if the probe resolves to a peer fetch.
                        let draw = {
                            let c = &st.probe_draws[p];
                            let n = c.get();
                            c.set(n + 1);
                            n
                        };
                        let dropped = plan
                            .as_ref()
                            .is_some_and(|pl| pl.stream_should_drop(p as u64, draw));
                        let tslot = req.doc as usize % tier_len;
                        net.send(
                            tslot % shards,
                            p as u32,
                            h.now() + parse + dir_read,
                            NetMsg::Probe {
                                worker: wid,
                                doc: req.doc,
                                factor,
                            },
                        );
                        st.reply_wake[wid as usize].acquire().await;
                        let reply = st.reply_slot[wid as usize]
                            .take()
                            .expect("worker woken without a reply");
                        match reply {
                            Reply::Peer => {
                                let mut r_ns = 0u64;
                                if dropped {
                                    // Timed-out one-sided read: reissue once.
                                    r_ns = inflate(c_retry, factor);
                                    if req.measured {
                                        st.retries.set(st.retries.get() + 1);
                                    }
                                }
                                h.sleep(r_ns + send_cpu + resp_wire).await;
                                outcome = Outcome::Peer;
                                cpu_ns = parse + send_cpu;
                                wire_ns = dir_read + inflate(c_peer_bytes, factor) + resp_wire;
                                retry_ns = r_ns;
                                remote_ns = 0;
                            }
                            Reply::Done {
                                wait_ns,
                                service_ns,
                            } => {
                                // The completion message already paid
                                // send_cpu (forward) and resp_wire (reply),
                                // so the request ends at delivery time.
                                outcome = Outcome::Miss;
                                cpu_ns = parse + send_cpu;
                                wire_ns = dir_read + resp_wire;
                                retry_ns = 0;
                                remote_ns = wait_ns + service_ns;
                            }
                        }
                    }

                    if req.measured {
                        let latency = h.now() - req.arrive;
                        debug_assert_eq!(
                            latency,
                            queue_ns + cpu_ns + wire_ns + retry_ns + remote_ns,
                            "stage partition must sum to end-to-end latency"
                        );
                        st.lat_hist.borrow_mut().record(latency);
                        st.total_latency_ns.set(st.total_latency_ns.get() + latency);
                        {
                            let mut sh = st.stage_hist.borrow_mut();
                            let mut tot = st.stage_total.borrow_mut();
                            for (idx, v) in [
                                (ST_WIRE, wire_ns),
                                (ST_QUEUE, queue_ns),
                                (ST_CPU, cpu_ns),
                                (ST_RETRY, retry_ns),
                                (ST_REMOTE, remote_ns),
                            ] {
                                sh[idx].record(v);
                                tot[idx] += v;
                            }
                        }
                        match outcome {
                            Outcome::Local => st.hit_local.set(st.hit_local.get() + 1),
                            Outcome::Peer => st.hit_peer.set(st.hit_peer.get() + 1),
                            Outcome::Miss => st.misses.set(st.misses.get() + 1),
                        }
                        st.completed.set(st.completed.get() + 1);
                        st.in_service_measured.set(st.in_service_measured.get() - 1);
                    }
                    st.busy[p].set(st.busy[p].get() - 1);
                }
            });
        }
    }

    // --- backend station servers (shard 0 only) ----------------------------
    if shard == 0 {
        for _ in 0..cfg.backend_workers {
            let h = sim.handle();
            let st = st.clone();
            let net = net.clone();
            sim.handle().spawn_detached(async move {
                loop {
                    let job = st.station_q.borrow_mut().pop_front();
                    let Some(job) = job else {
                        st.station_wake.acquire().await;
                        continue;
                    };
                    let wait_ns = h.now() - job.ts;
                    let service = inflate(c_backend, job.factor);
                    st.backend_busy_ns.set(st.backend_busy_ns.get() + service);
                    let resp_wire = inflate(c_resp_wire, job.factor);
                    let dst_proxy = job.worker as usize / workers;
                    net.send(
                        dst_proxy % shards,
                        station_key,
                        h.now() + service + resp_wire,
                        NetMsg::Done {
                            worker: job.worker,
                            wait_ns,
                            service_ns: service,
                        },
                    );
                    // The server is occupied for the service time; the
                    // response wire leg happens after release.
                    h.sleep(service).await;
                }
            });
        }
    }

    // --- drivers (own proxies only) ----------------------------------------
    // Clients (or gateway links, under edge aggregation) are split
    // contiguously across proxies; each driver owns its streams' merged
    // arrival heap and injects open-loop.
    for p in 0..proxies {
        if p % shards != shard {
            continue;
        }
        let n_streams = stream_base + usize::from(p < stream_extra);
        let start_gid = (p * stream_base + p.min(stream_extra)) as u64;
        let streams: Vec<ArrivalProcess> = (0..n_streams)
            .map(|i| {
                let s = derive_seed(cfg.seed, start_gid + i as u64);
                match cfg.arrival {
                    ArrivalKind::Poisson => ArrivalProcess::poisson(s, per_stream_rps),
                    ArrivalKind::Bursty(b) => ArrivalProcess::bursty(s, per_stream_rps, b),
                }
            })
            .collect();
        let mut arrivals = MergedArrivals::new(streams);
        let mut doc_rng = derive_seed(cfg.seed ^ 0xd0c5_a11e, p as u64);
        let h = sim.handle();
        let st = st.clone();
        let zipf = zipf.clone();
        let plan = plan.clone();
        let (warmup, horizon) = (cfg.warmup_ns, cfg.horizon_ns);
        let (max_busy, qcap) = (cfg.proxy_workers as u32, cfg.queue_cap);
        sim.handle().spawn_detached(async move {
            loop {
                let (t, _client) = arrivals.next();
                if t >= horizon {
                    break;
                }
                h.sleep_until(t).await;
                let measured = t >= warmup;
                if measured {
                    st.issued.set(st.issued.get() + 1);
                }
                if plan
                    .as_ref()
                    .is_some_and(|pl| pl.is_down(NodeId(1 + p as u32), t))
                {
                    if measured {
                        st.shed_down.set(st.shed_down.get() + 1);
                    }
                    continue;
                }
                let doc = zipf.sample_u(step_u01(&mut doc_rng)) as u32;
                let mut q = st.queues[p].borrow_mut();
                if st.busy[p].get() >= max_busy && q.len() >= qcap {
                    if measured {
                        st.shed_queue.set(st.shed_queue.get() + 1);
                    }
                    continue;
                }
                q.push_back(Req {
                    doc,
                    arrive: t,
                    measured,
                });
                let depth = q.len() as u64;
                if depth > st.qdepth_hwm.get() {
                    st.qdepth_hwm.set(depth);
                }
                drop(q);
                st.wakeups[p].release();
            }
        });
    }

    // --- delivery: runs with the clock parked at each event's timestamp,
    // in canonical (ts, src_key, seq) order ---------------------------------
    let dispatch = {
        let st = st.clone();
        let net = net.clone();
        Box::new(move |ts: SimTime, msg: NetMsg| match msg {
            NetMsg::Probe {
                worker,
                doc,
                factor,
            } => {
                let tslot = doc as usize % tier_len;
                let mut tier = st.tier_cache.borrow_mut();
                let dst_proxy = worker as usize / workers;
                if tier[tslot] == doc {
                    net.send(
                        dst_proxy % shards,
                        proxies as u32 + tslot as u32,
                        ts + inflate(c_peer_bytes, factor),
                        NetMsg::TierHit { worker },
                    );
                } else {
                    // Install on miss: the backend reply will populate
                    // this tier slot; racing probes for the same doc see
                    // a peer hit, exactly like the single-threaded farm.
                    tier[tslot] = doc;
                    net.send(
                        0,
                        proxies as u32 + tslot as u32,
                        ts + inflate(c_send_cpu, factor),
                        NetMsg::BackendReq { worker, factor },
                    );
                }
            }
            NetMsg::TierHit { worker } => {
                st.reply_slot[worker as usize].set(Some(Reply::Peer));
                st.reply_wake[worker as usize].release();
            }
            NetMsg::BackendReq { worker, factor } => {
                st.station_q
                    .borrow_mut()
                    .push_back(StationJob { ts, worker, factor });
                st.station_wake.release();
            }
            NetMsg::Done {
                worker,
                wait_ns,
                service_ns,
            } => {
                st.reply_slot[worker as usize].set(Some(Reply::Done {
                    wait_ns,
                    service_ns,
                }));
                st.reply_wake[worker as usize].release();
            }
        })
    };

    // --- finish: conservation scan + tally snapshot ------------------------
    let finish = {
        let st = st.clone();
        let own = (0..proxies).filter(move |p| p % shards == shard);
        Box::new(move || {
            // Count measured requests still in the station by walking the
            // shard's queues and its in-service gauge; the gap against the
            // admission-side counters is the structural claim.
            let queued: u64 = own
                .map(|p| st.queues[p].borrow().iter().filter(|r| r.measured).count() as u64)
                .sum();
            ShardTally {
                issued: st.issued.get(),
                shed_down: st.shed_down.get(),
                shed_queue: st.shed_queue.get(),
                completed: st.completed.get(),
                inflight: queued + st.in_service_measured.get(),
                hit_local: st.hit_local.get(),
                hit_peer: st.hit_peer.get(),
                misses: st.misses.get(),
                retries: st.retries.get(),
                total_latency_ns: st.total_latency_ns.get(),
                backend_busy_ns: st.backend_busy_ns.get(),
                qdepth_hwm: st.qdepth_hwm.get(),
                lat_hist: st.lat_hist.borrow().clone(),
                stage_hist: st.stage_hist.borrow().clone(),
                stage_total: st.stage_total.borrow().clone(),
            }
        })
    };

    ShardRun { dispatch, finish }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(offered_rps: f64) -> ScaleFarmCfg {
        ScaleFarmCfg {
            clients: 400,
            offered_rps,
            horizon_ns: 1_000_000_000,
            warmup_ns: 250_000_000,
            ..ScaleFarmCfg::default()
        }
    }

    #[test]
    fn conservation_holds_at_light_load() {
        let p = run_webfarm_scale(&tiny(1_000.0));
        assert!(p.issued > 100, "issued {}", p.issued);
        assert_eq!(p.conservation_gap, 0, "{p:?}");
        assert_eq!(p.shed, 0, "no shedding below saturation: {p:?}");
        assert!(p.goodput_rps > 900.0, "goodput {}", p.goodput_rps);
    }

    #[test]
    fn conservation_holds_under_overload_with_shedding() {
        let sat = tiny(0.0).saturation_rps();
        let p = run_webfarm_scale(&tiny(2.0 * sat));
        assert_eq!(p.conservation_gap, 0, "{p:?}");
        assert!(p.shed_queue > 0, "2x saturation must shed: {p:?}");
        assert!(
            p.goodput_rps < 1.2 * sat,
            "goodput {} cannot exceed saturation {}",
            p.goodput_rps,
            sat
        );
    }

    #[test]
    fn overload_explodes_the_tail_not_the_median_floor() {
        let sat = tiny(0.0).saturation_rps();
        let light = run_webfarm_scale(&tiny(0.3 * sat));
        let heavy = run_webfarm_scale(&tiny(1.5 * sat));
        assert!(
            heavy.p999_us > 5.0 * light.p999_us,
            "light p999 {} vs heavy p999 {}",
            light.p999_us,
            heavy.p999_us
        );
        assert!(heavy.qdepth_hwm >= light.qdepth_hwm);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_webfarm_scale(&tiny(3_000.0));
        let b = run_webfarm_scale(&tiny(3_000.0));
        assert_eq!(a, b);
        let c = run_webfarm_scale(&ScaleFarmCfg {
            seed: 43,
            ..tiny(3_000.0)
        });
        assert_ne!(a, c, "different seed must perturb the run");
    }

    #[test]
    fn sharded_runs_are_bit_identical_to_single_threaded() {
        let base = run_webfarm_scale(&ScaleFarmCfg {
            shards: Some(1),
            ..tiny(3_000.0)
        });
        for shards in [2usize, 3, 4] {
            let (p, stats) = run_webfarm_scale_stats(&ScaleFarmCfg {
                shards: Some(shards),
                ..tiny(3_000.0)
            });
            assert_eq!(stats.shards, shards);
            assert!(stats.barrier_waits > 0, "{shards} shards never synced");
            assert!(stats.cross_sends > 0, "{shards} shards never talked");
            assert_eq!(base, p, "{shards} shards diverged from 1");
        }
    }

    #[test]
    fn sharded_runs_are_bit_identical_under_faults() {
        let cfg = |shards: usize| ScaleFarmCfg {
            faults: Some((
                7,
                FaultConfig {
                    drop_prob: 0.05,
                    ..FaultConfig::default()
                },
            )),
            shards: Some(shards),
            ..tiny(4_000.0)
        };
        let base = run_webfarm_scale(&cfg(1));
        assert_eq!(base.conservation_gap, 0, "{base:?}");
        for shards in [2usize, 4] {
            assert_eq!(base, run_webfarm_scale(&cfg(shards)), "{shards} shards");
        }
    }

    #[test]
    fn shard_resolution_prefers_cfg_then_env_then_one() {
        let cfg = tiny(1_000.0);
        let explicit = ScaleFarmCfg {
            shards: Some(3),
            ..cfg.clone()
        };
        assert_eq!(resolved_shards(&explicit), 3, "cfg wins over the env");
        // No cfg value: DC_SIM_SHARDS (CI's sharded leg sets it), else 1.
        let env = std::env::var("DC_SIM_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok());
        assert_eq!(
            resolved_shards(&cfg),
            env.unwrap_or(1).clamp(1, cfg.proxies)
        );
        // Clamped to the proxy count.
        let few = ScaleFarmCfg {
            shards: Some(64),
            proxies: 4,
            ..cfg.clone()
        };
        assert_eq!(resolved_shards(&few), 4);
    }

    #[test]
    fn conservation_holds_under_faults() {
        let cfg = ScaleFarmCfg {
            faults: Some((7, FaultConfig::default())),
            ..tiny(4_000.0)
        };
        let p = run_webfarm_scale(&cfg);
        assert_eq!(p.conservation_gap, 0, "{p:?}");
        let q = run_webfarm_scale(&cfg);
        assert_eq!(p, q, "faulted runs must stay deterministic");
    }

    #[test]
    fn stage_partition_sums_to_total() {
        let p = run_webfarm_scale(&tiny(2_000.0));
        let sum: u64 = p.breakdown.stages.iter().map(|s| s.total_ns).sum();
        assert_eq!(sum, p.breakdown.total_ns);
        assert_eq!(p.breakdown.requests, p.completed);
        assert!(p.breakdown.total_ns > 0);
    }
}
