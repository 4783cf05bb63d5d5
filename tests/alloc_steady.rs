//! Steady-state allocation proofs, counted by a counting global allocator
//! (this file is its own test binary, so it sees only these tests).
//!
//! Each test measures runs of one configuration that differ only in length.
//! Setup allocates — arrival slabs, queues, histograms, cache regions — and
//! the first measured window may still grow a `VecDeque` or a waiter list
//! to its high-water mark, but the *extra* steady-state work must add
//! (almost) nothing: per-request structures are recycled, and a payload is
//! handed along as one refcounted buffer instead of being copied.
//!
//! The tests run on parallel threads, so the counters are thread-local and
//! count only while a [`Counting`] guard is alive (the design of
//! `benchmark/src/alloc.rs`): process-wide atomics let one test's payload
//! buffers leak into another's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations at least this long are "payload-class": the signature a
/// copied document or response body leaves behind.
const PAYLOAD_BYTES: usize = 8192;

/// Live [`Counting`] guards; a count, not a flag, so parallel tests cannot
/// switch each other off.
static GUARDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and `Drop`-free: touching it inside the allocator
    // neither allocates nor runs a destructor.
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { allocs: 0, payload_sized: 0 }) };
}

/// What the calling thread allocated while a guard was alive.
#[derive(Debug, Clone, Copy)]
struct Counts {
    allocs: u64,
    payload_sized: u64,
}

/// Keeps counting on until dropped; [`Counting::so_far`] reads the calling
/// thread's counts since the guard was taken.
struct Counting(Counts);

impl Counting {
    fn start() -> Counting {
        GUARDS.fetch_add(1, Ordering::Relaxed);
        Counting(COUNTS.with(Cell::get))
    }

    fn so_far(&self) -> Counts {
        let now = COUNTS.with(Cell::get);
        Counts {
            allocs: now.allocs - self.0.allocs,
            payload_sized: now.payload_sized - self.0.payload_sized,
        }
    }
}

impl Drop for Counting {
    fn drop(&mut self) {
        GUARDS.fetch_sub(1, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the bookkeeping touches only an atomic and a `Drop`-free
// thread-local `Cell`, and never allocates. `realloc` and `alloc_zeroed`
// keep their defaults, which route through `alloc`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        // Relaxed: the guard count gates a statistic, it publishes no data.
        if GUARDS.load(Ordering::Relaxed) != 0 {
            // `try_with`: the allocator runs during thread-local teardown.
            let _ = COUNTS.try_with(|c| {
                let mut v = c.get();
                v.allocs += 1;
                v.payload_sized += u64::from(l.size() >= PAYLOAD_BYTES);
                c.set(v);
            });
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from this allocator, which is `System`.
        unsafe { System.dealloc(p, l) }
    }
}
#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn webfarm_scale_steady_state_is_allocation_free() {
    use dc_core::{run_webfarm_scale, ScaleFarmCfg};

    let base = ScaleFarmCfg {
        proxies: 16,
        app_nodes: 8,
        clients: 3_000,
        backend_workers: 1,
        warmup_ns: 200_000_000,
        ..dc_bench::ext_webfarm::gate_cfg()
    };
    let sat = base.saturation_rps();
    let run_for = |horizon_ns: u64| {
        let cfg = ScaleFarmCfg {
            offered_rps: 0.8 * sat,
            horizon_ns,
            ..base.clone()
        };
        let counting = Counting::start();
        let p = run_webfarm_scale(&cfg);
        (counting.so_far().allocs, p)
    };

    // Warm process-wide state (Zipf table cache, allocator arenas).
    let (_, warm) = run_for(800_000_000);
    assert!(warm.completed > 0);

    let (allocs_short, short) = run_for(1_000_000_000);
    let (allocs_long, long) = run_for(2_000_000_000);
    assert!(
        long.completed > short.completed,
        "the longer run must serve more requests"
    );
    // The extra simulated second adds requests but must not add
    // allocations beyond stabilisation noise (well under 1% of a run's
    // setup allocations).
    let delta = allocs_long.saturating_sub(allocs_short);
    eprintln!(
        "alloc_steady: 1s horizon {allocs_short} allocs, 2s horizon {allocs_long}, delta {delta}"
    );
    assert!(
        delta < allocs_short / 100,
        "steady state allocated: {allocs_short} allocs for 1s horizon, \
         {allocs_long} for 2s (delta {delta})"
    );
}

/// The eRPC incast loop moves every response as a refcounted `Bytes` clone
/// of the server's one buffer. Two runs differing only in request count
/// isolate the steady state: the extra requests must add not a single
/// payload-sized allocation — a copying lane would add one 8 KiB buffer
/// per extra response.
#[test]
fn erpc_incast_steady_state_makes_zero_payload_copies() {
    use bytes::Bytes;
    use dc_fabric::{Cluster, FabricModel, NodeId};
    use dc_sim::Sim;
    use dc_sockets::erpc::{ErpcCfg, ErpcMux, ErpcServer};
    use std::rc::Rc;

    let sessions = 16usize;
    let run_for = |reqs_per_session: usize| {
        let counting = Counting::start();
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let resp = Bytes::from(vec![0xA5u8; PAYLOAD_BYTES]);
        let resp_clone = resp.clone();
        let srv = ErpcServer::spawn(
            &cluster,
            NodeId(1),
            2,
            4,
            1_000,
            Rc::new(move |_, _| resp_clone.clone()),
        );
        let mux = ErpcMux::new(&cluster, NodeId(0), ErpcCfg::default());
        let sess: Vec<_> = (0..sessions)
            .map(|i| mux.session(NodeId(1), srv.ports()[i % srv.ports().len()], i as u64))
            .collect();
        let req = Bytes::from_static(&[7u8; 32]);
        let served = sim.run_to(async move {
            let mut served = 0u64;
            for _ in 0..reqs_per_session {
                for s in &sess {
                    let r = s.call(0, req.clone()).await;
                    assert_eq!(r.as_ptr(), resp.as_ptr(), "response was copied");
                    served += 1;
                }
            }
            served
        });
        assert_eq!(served, (sessions * reqs_per_session) as u64);
        let c = counting.so_far();
        (c.allocs, c.payload_sized)
    };

    // Warm process-wide state, then measure two request volumes.
    let _ = run_for(4);
    let (allocs_short, payload_short) = run_for(32);
    let (allocs_long, payload_long) = run_for(64);
    let extra_reqs = (sessions * 32) as u64;
    let payload_delta = payload_long.saturating_sub(payload_short);
    let alloc_delta = allocs_long.saturating_sub(allocs_short);
    eprintln!(
        "alloc_steady incast: {extra_reqs} extra requests, {alloc_delta} extra allocs, \
         {payload_delta} extra payload-sized"
    );
    assert_eq!(
        payload_delta, 0,
        "{payload_delta} payload-sized allocations for {extra_reqs} extra \
         zero-copy requests"
    );
    // The whole extra batch must also stay far below one allocation per
    // request — recycled slots, not per-request buffers.
    assert!(
        alloc_delta < extra_reqs / 8,
        "steady incast allocated {alloc_delta} times for {extra_reqs} extra requests"
    );
}

/// A served document's bytes exist once on the host from origin to client
/// and are never copied: the backend answers with a window of the shared
/// content pattern, the response crosses the RPC as that buffer, `install`
/// makes the cache region hold it, and a local hit or a remote hit's RDMA
/// read returns a window of what the region holds. So extra requests add no
/// payload-class allocation at all — on an AC cell (misses and local hits)
/// and on a CCWR cell (remote hits). (A region of flat bytes costs one per
/// served document, the copy out of it; a path that generates, frames and
/// stages each document about four per miss.)
#[test]
fn webfarm_request_never_copies_its_document() {
    use dc_coopcache::CacheScheme;
    use dc_core::{run_webfarm, WebFarmCfg};

    // A cache of 16 documents out of 512: AC mostly misses, the path with
    // the most hand-offs; CCWR serves the non-owner half of what the owners
    // hold by one-sided read.
    for scheme in [CacheScheme::Ac, CacheScheme::Ccwr] {
        let run_for = |requests: usize| {
            let cfg = WebFarmCfg {
                scheme,
                doc_size: 16 * 1024,
                cache_bytes_per_node: 256 * 1024 + 1024,
                requests,
                warmup_fraction: 0.0,
                ..WebFarmCfg::default()
            };
            let counting = Counting::start();
            let r = run_webfarm(&cfg);
            assert_eq!(r.cache.total(), requests as u64);
            (counting.so_far().payload_sized, r.cache)
        };

        // Warm process-wide state (content pattern, Zipf table cache).
        let _ = run_for(200);
        let (payload_short, _) = run_for(1_000);
        let (payload_long, served) = run_for(2_000);
        match scheme {
            CacheScheme::Ac => assert!(
                served.backend_misses > served.local_hits && served.local_hits > 100,
                "the AC cell must be miss-dominated with local hits: {served:?}"
            ),
            _ => assert!(
                served.remote_hits > 100,
                "the CCWR cell must serve remote hits: {served:?}"
            ),
        }
        let payload_delta = payload_long.saturating_sub(payload_short);
        eprintln!(
            "alloc_steady webfarm {scheme:?}: 1000 extra requests, \
             {payload_delta} extra payload-sized"
        );
        // The set-up constant cancels between the two runs except for the
        // vectors sized by the request count (the request slab, the latency
        // samples), which are larger or double once more: three today.
        assert!(
            payload_delta <= 8,
            "{scheme:?}: {payload_delta} payload-sized allocations for 1000 extra requests"
        );
    }
}

/// What `round_trips` 32 B request / 8 KiB response ping-pongs over one
/// fresh `kind` connection allocate, set-up included. Every response must
/// reach `recv` as the buffer the server sent.
fn stream_ping_pong(kind: dc_sockets::StreamKind, round_trips: usize) -> Counts {
    use bytes::Bytes;
    use dc_fabric::{Cluster, FabricModel, NodeId};
    use dc_sim::Sim;
    use dc_sockets::{connect, SocketsConfig};

    let counting = Counting::start();
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let (mut cli, mut srv) = connect(
        &cluster,
        NodeId(0),
        NodeId(1),
        kind,
        SocketsConfig::default(),
    );
    let resp = Bytes::from(vec![0xA5u8; PAYLOAD_BYTES]);
    let sent = resp.clone();
    sim.handle().spawn_detached(async move {
        for _ in 0..round_trips {
            srv.recv().await;
            srv.send_bytes(sent.clone()).await;
        }
    });
    let req = Bytes::from(vec![7u8; 32]);
    sim.run_to(async move {
        for _ in 0..round_trips {
            cli.send_bytes(req.clone()).await;
            let got = cli.recv().await;
            assert_eq!(got.len(), PAYLOAD_BYTES);
            assert_eq!(got.as_ptr(), resp.as_ptr(), "{kind:?} response was copied");
        }
    });
    counting.so_far()
}

/// A stream message's bytes exist once on the host from `send_bytes` to
/// `recv`, whatever its chunk count: chunks are windows of the sent buffer,
/// their headers ride `Message.imm`, and the receiver rejoins adjacent
/// windows instead of copying them out. Per kind, a 32 B request / 8 KiB
/// response ping-pong at two volumes: `recv` returns the very buffer that was
/// sent — one chunk on HostTCP and AZ-SDP, two on SDP, three on Packetized —
/// and the extra round trips add no payload-class allocation. (A reassembly
/// buffer costs one per chunked response; framing that prepends its headers
/// about three: the chunk, the sequence-numbered wire copy, the growing
/// reassembly buffer.)
#[test]
fn stream_message_is_never_copied() {
    use dc_sockets::StreamKind;

    for kind in StreamKind::ALL {
        let _ = stream_ping_pong(kind, 8); // warm allocator arenas
        let payload_short = stream_ping_pong(kind, 64).payload_sized;
        let payload_long = stream_ping_pong(kind, 128).payload_sized;
        let payload_delta = payload_long.saturating_sub(payload_short);
        eprintln!(
            "alloc_steady stream {}: 64 extra round trips, {payload_delta} extra payload-sized",
            kind.label()
        );
        assert_eq!(
            payload_delta,
            0,
            "{}: {payload_delta} payload-sized allocations for 64 extra 8 KiB responses",
            kind.label()
        );
    }
}

/// A chunk in flight allocates nothing. Every chunk of a windowed stream,
/// every AZ-SDP transfer and every window return runs as a detached task of
/// its own, and a task that finishes leaves its storage to the next spawn of
/// the same future type; the message is rejoined, not reassembled. So on the
/// three kinds that spawn per message, two lengths of the 8 KiB ping-pong
/// differ by exactly 0 allocations. (A box per spawned task, and a
/// reassembly buffer with its `Arc` per chunked response, made it 2 per
/// round trip on AZ-SDP, 6.5 on SDP and 7 on Packetized.)
#[test]
fn chunk_in_flight_allocates_nothing() {
    use dc_sockets::StreamKind;

    for kind in [StreamKind::Sdp, StreamKind::AzSdp, StreamKind::Packetized] {
        let _ = stream_ping_pong(kind, 8); // warm allocator arenas
        let extra = stream_ping_pong(kind, 192).allocs - stream_ping_pong(kind, 64).allocs;
        eprintln!(
            "alloc_steady stream {}: 128 extra round trips, {extra} extra allocs",
            kind.label()
        );
        assert_eq!(
            extra,
            0,
            "{}: 128 extra round trips must allocate nothing",
            kind.label()
        );
    }
}

/// A call through `LockClient` is the concrete client's own future with
/// nothing boxed around it: for every design, the uncontended two-node
/// lock/unlock loop allocates exactly as often per extra grant through
/// `DesignKind::build`'s client as through the concrete manager's. (A
/// type-erased client that boxes its futures costs two more per grant, one
/// for `lock` and one for `unlock`.)
#[test]
fn lock_client_enum_allocates_like_the_concrete_client() {
    use dc_dlm::{
        CasSpinDlm, DesignKind, DlmConfig, DqnlDlm, LeaseDlm, LockMode, McsDlm, NcosedDlm, SrslDlm,
    };
    use dc_fabric::{Cluster, FabricModel, NodeId};
    use dc_sim::Sim;

    let cfg = DlmConfig::default();
    let home = NodeId(0);
    let members = [home, NodeId(1)];
    // Allocations of one whole run of `$grants` grants by the client that
    // `$client` builds on the fresh two-node cluster `$cluster`.
    macro_rules! run_allocs {
        ($grants:expr, |$cluster:ident| $client:expr) => {{
            let counting = Counting::start();
            let sim = Sim::new();
            let $cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
            let client = $client;
            sim.run_to(async move {
                for _ in 0..$grants {
                    client.lock(1, LockMode::Exclusive).await;
                    client.unlock(1).await;
                }
            });
            counting.so_far().allocs
        }};
    }
    // Two lengths cancel set-up: what 128 extra grants allocate.
    macro_rules! extra_grant_allocs {
        (|$cluster:ident| $client:expr) => {{
            let _ = run_allocs!(8, |$cluster| $client); // warm allocator arenas
            let short = run_allocs!(64, |$cluster| $client);
            let long = run_allocs!(192, |$cluster| $client);
            long - short
        }};
    }
    for design in DesignKind::ALL {
        let erased = extra_grant_allocs!(|c| design
            .build(&c, cfg, home, 4, &members)
            .pop()
            .expect("one client per member"));
        let concrete = match design {
            DesignKind::Srsl => {
                extra_grant_allocs!(|c| SrslDlm::new(&c, cfg, home, &members).client(NodeId(1)))
            }
            DesignKind::Dqnl => {
                extra_grant_allocs!(|c| DqnlDlm::new(&c, cfg, home, 4, &members).client(NodeId(1)))
            }
            DesignKind::Ncosed => {
                extra_grant_allocs!(|c| NcosedDlm::new(&c, cfg, home, 4, &members).client(NodeId(1)))
            }
            DesignKind::CasSpin => {
                extra_grant_allocs!(
                    |c| CasSpinDlm::new(&c, cfg, home, 4, &members).client(NodeId(1))
                )
            }
            DesignKind::Lease => {
                extra_grant_allocs!(|c| LeaseDlm::new(&c, cfg, home, 4, &members).client(NodeId(1)))
            }
            DesignKind::McsTicket => {
                extra_grant_allocs!(|c| McsDlm::new(&c, cfg, home, 4, &members).client(NodeId(1)))
            }
        };
        eprintln!(
            "alloc_steady dlm {}: 128 extra grants, {erased} extra allocs through LockClient, \
             {concrete} through the concrete client",
            design.label()
        );
        assert_eq!(
            erased,
            concrete,
            "{}: the design-erased client allocates differently from the concrete one",
            design.label()
        );
    }
}

/// What a contended lock loop saw: hand-offs, exclusive releases that found
/// at least two shared requesters waiting, and grant messages (`dlm.grants`).
#[derive(Default)]
struct LockTally {
    last_holder: Cell<Option<u32>>,
    handoffs: Cell<u64>,
    shared_waiting: Cell<u32>,
    cascades: Cell<u64>,
    grants: Cell<u64>,
}

/// One contender of [`contended_lock_run`]: its node, its mode, and how long
/// it holds the lock and then stays away, in ns.
type Role = (u32, dc_dlm::LockMode, u64, u64);

/// One run of `design` on a fresh four-node cluster (home on node 0): each
/// of `roles` takes lock 1 `rounds` times. Returns what the run allocated,
/// set-up included, and its tally.
fn contended_lock_run(
    design: dc_dlm::DesignKind,
    roles: &[Role],
    rounds: usize,
) -> (u64, std::rc::Rc<LockTally>) {
    use dc_dlm::{DlmConfig, LockMode};
    use dc_fabric::{Cluster, FabricModel, NodeId};
    use dc_sim::Sim;
    use std::rc::Rc;

    let counting = Counting::start();
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 4);
    let members: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut clients: Vec<_> = design
        .build(&cluster, DlmConfig::default(), NodeId(0), 4, &members)
        .into_iter()
        .map(Some)
        .collect();
    let tally = Rc::new(LockTally::default());
    let tasks: Vec<_> = roles
        .iter()
        .map(|&(node, mode, hold, think)| {
            let client = clients[node as usize].take().expect("one role per node");
            let (tally, h) = (Rc::clone(&tally), sim.handle());
            let shared = u32::from(mode == LockMode::Shared);
            sim.spawn(async move {
                for _ in 0..rounds {
                    tally
                        .shared_waiting
                        .set(tally.shared_waiting.get() + shared);
                    client.lock(1, mode).await;
                    tally
                        .shared_waiting
                        .set(tally.shared_waiting.get() - shared);
                    if tally.last_holder.replace(Some(node)) != Some(node) {
                        tally.handoffs.set(tally.handoffs.get() + 1);
                    }
                    h.sleep(hold).await;
                    if shared == 0 && tally.shared_waiting.get() >= 2 {
                        tally.cascades.set(tally.cascades.get() + 1);
                    }
                    client.unlock(1).await;
                    h.sleep(think).await;
                }
            })
        })
        .collect();
    sim.run_to(async move {
        for t in tasks {
            t.await;
        }
    });
    let allocs = counting.so_far().allocs;
    let grants = cluster.metrics().snapshot().counter("dlm.grants");
    tally.grants.set(grants);
    (allocs, tally)
}

/// A lock hand-off allocates nothing, in every design. Two clients contend
/// for one lock and hand it to each other on every grant: SRSL's server
/// builds each grant batch, N-CoSED's requester, holder and home agent
/// theirs, DQNL's and MCS's agents post one message per task, CAS-Spin and
/// Lease retry verbs — and a batch comes out of the manager's pool, each
/// posted task into the storage the previous one left behind. Two lengths of
/// the loop, 64 hand-offs apart, differ by exactly 0 allocations. Both keep
/// the samples of `dlm.lock_wait_ns` (one per grant, the loop's only
/// amortised growth) between 128 and 256, where their buffer does not
/// double. (A `Vec` per protocol message made it 64 extra on SRSL and 128 on
/// N-CoSED before the pool; a box per posted task, 3 per grant on MCS before
/// PR 24.)
#[test]
fn dlm_post_allocates_nothing() {
    use dc_dlm::{DesignKind, LockMode};
    use dc_sim::time::us;

    for design in DesignKind::ALL {
        // A queueing design parks the other contender at once, and every
        // hand-off is a grant message; a retrying one gets in only while the
        // holder stays away, so there the holder stays away longer than a
        // retry pause.
        let queued = !matches!(design, DesignKind::CasSpin | DesignKind::Lease);
        let think = if queued { 0 } else { us(40) };
        let roles = [1, 2].map(|node| (node, LockMode::Exclusive, us(5), think));
        let _ = contended_lock_run(design, &roles, 8); // warm allocator arenas
        let (short, short_tally) = contended_lock_run(design, &roles, 80);
        let (long, long_tally) = contended_lock_run(design, &roles, 112);
        let extra_handoffs = long_tally.handoffs.get() - short_tally.handoffs.get();
        let extra_grants = long_tally.grants.get() - short_tally.grants.get();
        let extra = long - short;
        eprintln!(
            "alloc_steady dlm {}: 64 extra grants, {extra_handoffs} of them handed off, \
             {extra_grants} grant messages, {extra} extra allocs",
            design.label()
        );
        assert_eq!(
            extra_handoffs,
            64,
            "{}: the contenders must hand the lock off",
            design.label()
        );
        assert_eq!(
            extra_grants,
            if queued { 64 } else { 0 },
            "{}",
            design.label()
        );
        assert_eq!(
            extra,
            0,
            "{}: a lock hand-off must allocate nothing",
            design.label()
        );
    }
}

/// A shared cascade allocates nothing either. A writer holds the lock while
/// two readers queue behind it; its release grants both in one batch — one
/// server batch on SRSL, one batch from the anchor on N-CoSED — and the
/// writer's next request waits for both readers' releases. Two lengths, 32
/// cascades apart, differ by exactly 0 allocations, with the lock-wait
/// samples between 128 and 256 in both. (A `Vec` per batch and per protocol
/// message made it 64 extra on SRSL and 256 on N-CoSED before the pool.)
#[test]
fn dlm_shared_cascade_allocates_nothing() {
    use dc_dlm::{DesignKind, LockMode};
    use dc_sim::time::us;

    let roles = [
        (1, LockMode::Exclusive, us(30), us(1)),
        (2, LockMode::Shared, us(5), us(5)),
        (3, LockMode::Shared, us(5), us(5)),
    ];
    for design in [DesignKind::Srsl, DesignKind::Ncosed] {
        let _ = contended_lock_run(design, &roles, 8); // warm allocator arenas
        let (short, short_tally) = contended_lock_run(design, &roles, 48);
        let (long, long_tally) = contended_lock_run(design, &roles, 80);
        let extra_cascades = long_tally.cascades.get() - short_tally.cascades.get();
        let extra = long - short;
        eprintln!(
            "alloc_steady dlm {} cascade: 32 extra rounds, {extra_cascades} extra two-reader \
             cascades, {extra} extra allocs",
            design.label()
        );
        assert_eq!(
            extra_cascades,
            32,
            "{}: every extra writer release must find both readers queued",
            design.label()
        );
        assert_eq!(
            extra,
            0,
            "{}: a shared cascade must allocate nothing",
            design.label()
        );
    }
}

/// A dc-svc round trip allocates nothing: the call's deadline holds the wait
/// inline, the wait parks in the client's rendezvous table instead of a
/// fresh oneshot, and the dispatcher routes to the handler's own future
/// without boxing it — a Serial service awaits it inside the pump, a
/// Concurrent one spawns it as a task, into the storage the previous
/// handler task of that type left behind. Payloads travel as shared
/// `Bytes`, so what is left is the plumbing: 128 extra calls cost exactly 0
/// allocations against an echo service in either mode. (A boxed deadline, a
/// oneshot per attempt and a boxed handler future make it 3 per call; a box
/// per handler task, 1 per Concurrent call.)
#[test]
fn svc_round_trip_allocates_nothing() {
    use bytes::Bytes;
    use dc_fabric::{Cluster, FabricModel, NodeId, Transport};
    use dc_sim::{time::us, Sim};
    use dc_svc::{
        parse_request, respond_bytes, CallPolicy, Cost, Dispatcher, Mode, Service, ServiceSpec,
        Subsys, SvcClient,
    };

    let run_for = |mode: Mode, calls: usize| {
        let counting = Counting::start();
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let port = cluster.alloc_port();
        let spec = ServiceSpec {
            name: "test.echo",
            subsys: Subsys::App,
            node: NodeId(1),
            port,
            cost: Cost::None,
            mode,
            queue_cap: None,
        };
        let echo = Dispatcher::new().fallback(|ctx, msg| async move {
            let req = parse_request(&msg);
            let payload = req.payload.clone();
            respond_bytes(&ctx.cluster, ctx.node, &req, payload, Transport::RdmaSend).await;
        });
        Service::spawn(&cluster, spec, echo);
        // A deadline a few round trips long: expired deadline timers hand
        // their wheel nodes back during the run. (Default 500 ms deadlines
        // would all outlive it and grow the wheel's arena with its length.)
        let policy = CallPolicy {
            timeout_ns: us(200),
            ..CallPolicy::default()
        };
        let client = SvcClient::with_policy(&cluster, NodeId(0), policy);
        let req = Bytes::from(vec![7u8; 256]);
        sim.run_to(async move {
            for _ in 0..calls {
                let resp = client
                    .call_bytes(NodeId(1), port, req.clone(), Transport::RdmaSend)
                    .await;
                assert_eq!(resp.as_ptr(), req.as_ptr(), "payload was copied");
            }
        });
        counting.so_far().allocs
    };

    for mode in [Mode::Serial, Mode::Concurrent] {
        let _ = run_for(mode, 8); // warm allocator arenas
        let extra = run_for(mode, 192) - run_for(mode, 64);
        eprintln!("alloc_steady svc {mode:?}: 128 extra calls, {extra} extra allocs");
        assert_eq!(extra, 0, "{mode:?}: a round trip must allocate nothing");
    }
}

/// A hosted request (`run_hosting`: balance on the monitor's view, submit,
/// wait for the response) allocates nothing, under every scheme: the monitor
/// fans out inside the client's task in a child array recycled through the
/// `Sim`'s join store, a one-sided kstat read decodes on the stack instead of
/// materialising a `Bytes`, a Socket-Sync daemon rewrites a reply buffer no
/// one else holds instead of encoding a fresh one, and the client parks
/// under its index in one rendezvous table instead of carrying a fresh
/// oneshot per job. Two run lengths cancel set-up; what is left is amortised
/// growth (the latency samples doubling once), and 1 % is allowed. (A fresh
/// probe array made it 1 per request, and 1 + 2 × back-ends under
/// Socket-Sync; spawned probes, a `Bytes` per read, a `Vec` grown per reply
/// and a oneshot per job made it 19.)
#[test]
fn hosted_request_allocates_nothing() {
    use dc_core::{run_hosting, HostingCfg};
    use dc_resmon::MonitorScheme;

    const EXTRA: u64 = 800;
    let run_for = |scheme: MonitorScheme, requests: usize| {
        let cfg = HostingCfg {
            scheme,
            backends: 3,
            clients: 12,
            requests,
            ..HostingCfg::default()
        };
        let counting = Counting::start();
        let r = run_hosting(&cfg);
        assert!(r.tps > 0.0);
        counting.so_far().allocs
    };
    for scheme in [
        MonitorScheme::RdmaSync,
        MonitorScheme::ERdmaSync,
        MonitorScheme::RdmaAsync,
        MonitorScheme::SocketAsync,
        MonitorScheme::SocketSync,
    ] {
        let _ = run_for(scheme, 200); // warm allocator arenas
        let extra = run_for(scheme, 800 + EXTRA as usize) - run_for(scheme, 800);
        eprintln!(
            "alloc_steady hosting {}: {EXTRA} extra requests, {extra} extra allocs",
            scheme.label()
        );
        assert!(
            extra <= EXTRA / 100,
            "{}: {extra} allocations for {EXTRA} extra hosted requests",
            scheme.label()
        );
    }
}

/// A join's child array comes back to the `Sim`'s store when its outputs
/// are consumed, and the next join of the same type takes it: after the
/// first, 1,000 sequential four-way joins allocate exactly nothing.
#[test]
fn sequential_joins_reuse_one_array() {
    use dc_sim::time::us;
    use dc_sim::Sim;

    let sim = Sim::new();
    let h = sim.handle();
    let allocs = sim.run_to(async move {
        let join = |h: &dc_sim::SimHandle| {
            let kids = (0..4u64).map(|i| {
                let h = h.clone();
                async move {
                    h.sleep(us(i + 1)).await;
                    i
                }
            });
            h.join_all(kids)
        };
        assert_eq!(join(&h).await.sum::<u64>(), 6);
        let counting = Counting::start();
        for _ in 0..1_000 {
            assert_eq!(join(&h).await.sum::<u64>(), 6);
        }
        counting.so_far().allocs
    });
    assert_eq!(allocs, 0, "a join after the first allocated");
}

/// Touching and evicting allocate nothing in the LRU store: recency is a
/// list linked through the document map's own entries, so once the map has
/// grown to the resident set, a `get` (unlink, push to the back) and an
/// evicting `insert` (pop the head, link the newcomer) reuse what is there,
/// and the eviction list is handed back through `recycle`. After warm-up,
/// 4,096 touch + evicting-insert cycles on a 256-document store cost exactly
/// 0 allocations. (An ordered map from touch number to document cost 1,317:
/// a fresh tree node every few cycles.)
#[test]
fn lru_touch_and_evict_allocate_nothing() {
    use dc_coopcache::LruStore;

    const RESIDENT: u32 = 256;
    const WARM: u32 = 16 * RESIDENT;
    let mut s = LruStore::new(RESIDENT as usize * 1024);
    // Cycle `i` touches one of the half of the store inserted last (at a
    // scattered place in the recency order), then inserts document `i`,
    // which evicts the least recently used one.
    let mut cycle = |i: u32| {
        if i >= RESIDENT {
            let back = 1 + i.wrapping_mul(2_654_435_761) % (RESIDENT / 2);
            assert!(s.get(i - back).is_some(), "doc {} not resident", i - back);
        }
        let (_, evicted) = s.insert(i, 1024).expect("fits");
        assert_eq!(evicted.len(), usize::from(i >= RESIDENT));
        s.recycle(evicted);
    };
    for i in 0..WARM {
        cycle(i); // fill, then grow the map to its steady size
    }
    let counting = Counting::start();
    for i in WARM..WARM + 4096 {
        cycle(i);
    }
    let allocs = counting.so_far().allocs;
    eprintln!("alloc_steady lru: 4096 touch + evict cycles, {allocs} allocs");
    assert_eq!(allocs, 0, "an LRU touch or eviction allocated");
}

/// What `rounds` coalesced misses allocate, set-up included, and how many
/// backend fetches they made: every 3 ms, three requesters ask one cache
/// node for the same document — one fetches it, two join the fetch — and the
/// cache holds four of the eight documents it cycles through, so every round
/// misses and evicts.
fn coalesced_miss_run(rounds: usize) -> (u64, u64) {
    use dc_coopcache::{Backend, CacheCfg, CacheNode, Directory, DOC_HDR};
    use dc_fabric::{Cluster, FabricModel, NodeId};
    use dc_sim::{time::ms, Sim};
    use dc_workloads::FileSet;
    use std::rc::Rc;

    const DOCS: usize = 8;
    let size = PAYLOAD_BYTES;
    let counting = Counting::start();
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 3);
    let fs = Rc::new(FileSet::uniform(DOCS, size));
    let backend = Backend::spawn(&cluster, NodeId(2), fs);
    let dir = Directory::new(&cluster, NodeId(0), DOCS);
    let cfg = CacheCfg {
        per_node_bytes: DOCS / 2 * (size + DOC_HDR),
    };
    let node = CacheNode::new(&cluster, NodeId(1), cfg, dir, backend, DOCS);
    let requesters: Vec<_> = (0..3)
        .map(|_| {
            let (node, h) = (node.clone(), sim.handle());
            sim.spawn(async move {
                for r in 0..rounds {
                    h.sleep_until(ms(3) * r as u64).await;
                    let doc = (r % DOCS) as u32;
                    node.ensure_local(doc, size).await.expect("fits");
                }
            })
        })
        .collect();
    sim.run_to(async move {
        for r in requesters {
            r.await;
        }
    });
    (counting.so_far().allocs, node.backend_fetches())
}

/// A coalesced cache miss allocates nothing: a requester that finds the
/// document being fetched parks under its join index in the node's one
/// rendezvous table, and the fetcher wakes the joiners in join order — no
/// notifier, waiter queue or grant list per miss. Two lengths of a 3-way
/// joined miss, 64 rounds apart and both past the fetch calls' 500 ms
/// deadlines (which hold their timer-wheel nodes until they expire), differ
/// by exactly 0 allocations, and each round is one backend fetch. (A fresh
/// per-miss wait queue — its `Rc`, waiter queue and grant list — made it
/// 192, 3 per round.)
#[test]
fn coalesced_miss_allocates_nothing() {
    let _ = coalesced_miss_run(16); // warm allocator arenas
    let (short, short_fetches) = coalesced_miss_run(200);
    let (long, long_fetches) = coalesced_miss_run(264);
    let extra = long - short;
    eprintln!(
        "alloc_steady coalesced miss: 64 extra 3-way joined misses, \
         {} extra fetches, {extra} extra allocs",
        long_fetches - short_fetches
    );
    assert_eq!(
        (short_fetches, long_fetches),
        (200, 264),
        "misses did not coalesce"
    );
    assert_eq!(extra, 0, "a coalesced miss must allocate nothing");
}

/// A semaphore hand-off allocates nothing: the wait queue, sorted by ticket,
/// is also the ledger of grants not yet observed, so a release that grants
/// the queued head and the head's poll that observes it touch no other
/// collection. Once the first wait has grown the queue, 1,000 release →
/// grant → re-queue cycles on a `Semaphore::new(0)` cost exactly 0
/// allocations. (A side list of granted tickets allocated on the first
/// hand-off of every semaphore.)
#[test]
fn semaphore_handoff_allocates_nothing() {
    use dc_sim::sync::Semaphore;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Waker};

    let sem = Semaphore::new(0);
    let mut cx = Context::from_waker(Waker::noop());
    let mut waiter = sem.acquire();
    assert!(Pin::new(&mut waiter).poll(&mut cx).is_pending());
    let counting = Counting::start();
    for _ in 0..1_000 {
        sem.release();
        assert!(Pin::new(&mut waiter).poll(&mut cx).is_ready());
        waiter = sem.acquire();
        assert!(Pin::new(&mut waiter).poll(&mut cx).is_pending());
    }
    let allocs = counting.so_far().allocs;
    eprintln!("alloc_steady semaphore: 1000 hand-offs, {allocs} allocs");
    assert_eq!(allocs, 0, "a semaphore hand-off allocated");
}

/// Recording into a registry histogram allocates nothing: every registry
/// histogram is a constant-memory `StreamHist`, whose buckets are sized when
/// it is registered. 10,000 samples spread over five decades cost exactly 0
/// allocations. (A sample-keeping histogram grew its sample `Vec` as it
/// went.)
#[test]
fn registry_hist_record_allocates_nothing() {
    let registry = dc_trace::Registry::new();
    let hist = registry.hist("dlm.lock_wait_ns");
    let counting = Counting::start();
    for i in 0..10_000u64 {
        hist.record(i.wrapping_mul(2_654_435_761) % 10_000_000);
    }
    let allocs = counting.so_far().allocs;
    eprintln!("alloc_steady registry hist: 10000 records, {allocs} allocs");
    assert_eq!(allocs, 0, "a histogram record allocated");
    assert_eq!(hist.summary().count, 10_000);
}

/// Binding a port allocates nothing once its node's port table has grown:
/// an endpoint is a mailbox slot in the table, its messages sit in the
/// node's shared arena, and both go back on their free lists when the
/// endpoint drops. After the first, 1,000 cycles of bind, deliver, receive
/// and drop cost exactly 0 allocations. (An endpoint that was a channel
/// allocated 2 per cycle: the channel's cell on bind and its queue buffer
/// on the first delivery.)
#[test]
fn endpoints_reuse_their_slots() {
    use bytes::Bytes;
    use dc_fabric::{Cluster, FabricModel, NodeId, Transport};
    use dc_sim::Sim;

    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let port = cluster.alloc_port_for(NodeId(1), "alloc_steady.endpoint");
    let c = cluster.clone();
    let allocs = sim.run_to(async move {
        let cycle = || async {
            let mut ep = dc_svc::bind_raw(&c, NodeId(1), port);
            let sent = Bytes::from_static(b"ping");
            c.send(NodeId(0), NodeId(1), port, sent, Transport::RdmaSend)
                .await;
            assert_eq!(ep.queued(), 1);
            assert_eq!(&ep.recv().await.data[..], b"ping");
        };
        cycle().await;
        let counting = Counting::start();
        for _ in 0..1_000 {
            cycle().await;
        }
        counting.so_far().allocs
    });
    eprintln!("alloc_steady endpoints: 1000 bind/deliver/recv/drop cycles, {allocs} allocs");
    assert_eq!(allocs, 0, "an endpoint cycle after the first allocated");
}
