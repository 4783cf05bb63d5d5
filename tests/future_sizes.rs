//! Committed sizes of the futures whose size is a per-entity memory cost.
//!
//! A task's future lives as long as the task does, so bytes added to the
//! future of something that exists once per call, per lock request, per
//! service or per connection show up as `peak_rss_mb` long after the change
//! that added them.
//! Each size below is `size_of_val` on this toolchain's layout; a change
//! that moves one by more than [`TOLERANCE_PCT`] fails here, by name, and
//! commits the new number on purpose.

use std::rc::Rc;

use bytes::Bytes;
use dc_dlm::{DesignKind, DlmConfig, LockClient, LockMode};
use dc_fabric::{Cluster, FabricModel, NodeId, Transport};
use dc_resmon::{Monitor, MonitorCfg, MonitorScheme};
use dc_sim::sync::Rendezvous;
use dc_sim::Sim;
use dc_sockets::flow::Chunk;
use dc_sockets::lane::LaneSender;
use dc_sockets::{connect, ErpcCfg, ErpcMux, ErpcServer, SocketsConfig, StreamKind};
use dc_svc::SvcClient;

/// A size may drift this far from its committed value (debug and release
/// layouts differ by a few words) before the test fails.
const TOLERANCE_PCT: usize = 15;

fn check(what: &str, bytes: usize, committed: usize) {
    eprintln!("future_sizes: {what} = {bytes} B (committed {committed} B)");
    let slack = committed * TOLERANCE_PCT / 100;
    assert!(
        bytes.abs_diff(committed) <= slack,
        "{what} is {bytes} B, committed {committed} B ± {TOLERANCE_PCT} %: \
         a fatter future is paid per live call / request / service / \
         connection — shrink it or commit the new size here"
    );
}

#[test]
fn per_entity_futures_keep_their_committed_sizes() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    let (home, members) = (NodeId(0), [NodeId(0), NodeId(1)]);

    let client = SvcClient::new(&cluster, home);
    let call = client.call_bytes(NodeId(1), 9, Bytes::new(), Transport::RdmaSend);
    let call_bytes = std::mem::size_of_val(&call);
    check("SvcClient::call_bytes", call_bytes, 704);
    // A joined task holds its future once, beside the join's completion
    // (one `Rc`). A task that captured the future in an `async move` block
    // and awaited it there held two copies: a 1,744 B cell for an 864 B
    // client future.
    drop(call);
    let owner = client.clone();
    let call = async move {
        let call = owner.call_bytes(NodeId(1), 9, Bytes::new(), Transport::RdmaSend);
        call.await
    };
    let call_bytes = std::mem::size_of_val(&call);
    let before = sim.task_bytes().len();
    drop(sim.spawn(call));
    let cell = sim.task_bytes()[before];
    eprintln!("future_sizes: joined SvcClient::call_bytes task = {cell} B (future {call_bytes} B)");
    assert!(
        cell <= call_bytes + 16,
        "a joined task's cell is {cell} B for a {call_bytes} B future: it holds the future twice"
    );

    // Per design: the future of one lock request through the concrete
    // client, and the largest task `build` spawns — a service pump with the
    // design's handler futures inlined, since the dispatcher boxes none of
    // them (CAS-Spin is all one-sided verbs and spawns no service: 0). The
    // pump is spawned detached, so its task is its future, held once.
    let mode = LockMode::Exclusive;
    let committed = [
        (DesignKind::Srsl, 704, 808),
        (DesignKind::Dqnl, 512, 576),
        (DesignKind::Ncosed, 544, 664),
        (DesignKind::CasSpin, 512, 0),
        (DesignKind::Lease, 544, 488),
        (DesignKind::McsTicket, 448, 576),
    ];
    for (design, lock_bytes, pump_bytes) in committed {
        let label = design.label();
        let before = sim.task_bytes().len();
        let mut clients = design.build(&cluster, DlmConfig, home, 4, &members);
        let pump = sim.task_bytes()[before..].iter().copied().max();
        let pump = pump.unwrap_or(0);
        check(&format!("largest service task ({label})"), pump, pump_bytes);
        let lock = match clients.pop().expect("one client per member") {
            LockClient::Srsl(c) => std::mem::size_of_val(&c.lock(1, mode)),
            LockClient::Dqnl(c) => std::mem::size_of_val(&c.lock(1, mode)),
            LockClient::Ncosed(c) => std::mem::size_of_val(&c.lock(1, mode)),
            LockClient::CasSpin(c) => std::mem::size_of_val(&c.lock(1, mode)),
            LockClient::Lease(c) => std::mem::size_of_val(&c.lock(1, mode)),
            LockClient::McsTicket(c) => std::mem::size_of_val(&c.lock(1, mode)),
        };
        check(&format!("lock ({label})"), lock, lock_bytes);
    }
    // The design-erased client's future: the widest design's plus a tag.
    let erased = DesignKind::Srsl
        .build(&cluster, DlmConfig, home, 4, &members)
        .pop()
        .expect("one client per member");
    let erased = std::mem::size_of_val(&erased.lock(1, mode));
    check("LockClient::lock", erased, 720);
    // One of each is alive per open connection (4,096 of them in
    // `incast_rpc`), one `send_tracked` per chunk in flight. The stream
    // futures are one type over the four kinds, so one kind measures all.
    let (mut tx, mut rx) = connect(&cluster, home, NodeId(1), StreamKind::Sdp, SocketsConfig);
    let send_bytes = std::mem::size_of_val(&tx.send_bytes(Bytes::new()));
    check("StreamEnd::send_bytes", send_bytes, 392);
    check("StreamEnd::send", std::mem::size_of_val(&tx.send(b"")), 424);
    check("StreamEnd::recv", std::mem::size_of_val(&rx.recv()), 168);
    let lane = LaneSender::new(&cluster, home, NodeId(1), 9, Transport::RdmaSend);
    let tracked = lane.send_tracked(Chunk::whole(Bytes::new()));
    check(
        "LaneSender::send_tracked",
        std::mem::size_of_val(&tracked),
        344,
    );
    // One per call in flight (`incast_rpc` runs 2,048 sessions): the
    // session's credit wait and the pacer's sleep live in it.
    let srv = ErpcServer::spawn(&cluster, NodeId(1), 1, 2, 0, Rc::new(|_, req| req));
    let sess =
        ErpcMux::new(&cluster, home, ErpcCfg::default()).session(NodeId(1), srv.ports()[0], 1);
    let call = std::mem::size_of_val(&sess.call(0, Bytes::new()));
    check("ErpcSession::call", call, 360);
    // Every CPU charge holds one: its core `Acquire` and a sleep.
    let execute = std::mem::size_of_val(&cluster.cpu(home).execute(1));
    check("CpuModel::execute", execute, 72);
    // A view is one in-task fan-out, so each probe in flight is a `load`
    // future in the join's child array (an array recycled through the
    // `Sim`'s join store in fig8b, back-ends × that future) and the view's
    // own future holds the rest: the array's `Vec`, the `SimHandle` it goes
    // back to and, for the debug check, the array's address. A fatter
    // `read_verb` or `SvcClient::call` fattens every probe. The future is
    // one type over the five schemes.
    let monitor = Monitor::spawn(
        &cluster,
        MonitorScheme::RdmaSync,
        MonitorCfg::default(),
        home,
        &[NodeId(1)],
    );
    let load = std::mem::size_of_val(&monitor.load(NodeId(1)));
    check("Monitor::load (one probe)", load, 816);
    let least = std::mem::size_of_val(&monitor.least_loaded());
    check("Monitor::least_loaded", least, 56);
    // What a hosting client holds while its job is at a back-end: its key
    // in the one response table, not a oneshot of its own.
    let responses: Rendezvous<usize, ()> = Rendezvous::new();
    let wait = std::mem::size_of_val(&responses.wait(0));
    check("hosting client's Rendezvous wait", wait, 16);
}
