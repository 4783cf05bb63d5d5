//! Layer probes: host nanoseconds per operation of each layer's hot call,
//! measured from outside through the layer's public API, on the thread-CPU
//! clock of `cputime.rs` like everything else.
//!
//! These take the role of the five-function `crates/bench/benches/micro.rs`
//! and cover ROADMAP item 2(b)'s list (wheel, executor, mpsc, `Cluster`
//! send/verbs, `Wire`, histogram record, eRPC, barrier crossing — the last
//! lives in `harness::shard_probe`). Each probe times a batch of `n`
//! operations [`SAMPLES`] times and reports the minimum batch divided by
//! `n`: the same quietest-window estimator the workloads use. Endpoints are
//! bound through `dc_svc::Service` / `dc_svc::bind_raw`, as everything
//! above dc-fabric must.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dc_coopcache::LruStore;
use dc_ddss::{Coherence, Ddss, DdssConfig};
use dc_dlm::{DesignKind, DlmConfig, LockMode};
use dc_fabric::{Cluster, FabricModel, KernelStats, NodeId, RemoteAddr, Transport};
use dc_sim::sync::{channel, oneshot};
use dc_sim::Sim;
use dc_sockets::{connect, ErpcCfg, ErpcMux, ErpcServer, SocketsConfig, StreamKind};
use dc_svc::{
    bind_raw, parse_request, respond, Cost, Dispatcher, Mode, Service, ServiceSpec, Subsys,
    SvcClient, Wire,
};
use dc_trace::{LatencyHist, StreamHist, TraceMode, Tracer};
use dc_workloads::{ArrivalProcess, Zipf};
use rand::SeedableRng;

use crate::cputime::timed;
use crate::spans;

/// Batches timed per probe.
pub const SAMPLES: usize = 5;

/// One probe: `batch` performs `n` operations and returns their host time.
fn per_op(out: &mut Vec<(String, f64)>, name: &str, n: u64, mut batch: impl FnMut() -> Duration) {
    let best =
        spans::scope(name, || (0..SAMPLES).map(|_| batch()).min()).expect("SAMPLES is positive");
    out.push((name.to_string(), best.as_nanos() as f64 / n as f64));
}

fn two_nodes() -> (Sim, Cluster) {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    (sim, cluster)
}

fn sim_probes(out: &mut Vec<(String, f64)>) {
    const N: u64 = 20_000;
    per_op(out, "sim.probe.spawn_poll_ns", N, || {
        let sim = Sim::new();
        timed(|| {
            for _ in 0..N {
                sim.spawn(async {});
            }
            sim.run();
        })
    });
    per_op(out, "sim.probe.timer_ns", N, || {
        let sim = Sim::new();
        let h = sim.handle();
        timed(|| {
            sim.run_to(async move {
                for _ in 0..N {
                    h.sleep(1).await;
                }
            })
        })
    });
    per_op(out, "sim.probe.mpsc_ns", N, || {
        let sim = Sim::new();
        let (ping_tx, mut ping_rx) = channel::<u64>();
        let (pong_tx, mut pong_rx) = channel::<u64>();
        sim.spawn(async move {
            while let Some(v) = ping_rx.recv().await {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        timed(|| {
            sim.run_to(async move {
                for i in 0..N / 2 {
                    ping_tx.send(i).expect("echo task alive");
                    pong_rx.recv().await;
                }
            })
        })
    });
    per_op(out, "sim.probe.oneshot_ns", N, || {
        let sim = Sim::new();
        let h = sim.handle();
        timed(|| {
            sim.run_to(async move {
                for i in 0..N {
                    let (tx, rx) = oneshot::<u64>();
                    h.spawn_detached(async move { tx.send(i) });
                    let _ = rx.await;
                }
            })
        })
    });
}

fn fabric_probes(out: &mut Vec<(String, f64)>) {
    const NODES: u64 = 64;
    per_op(out, "fabric.probe.cluster_new_ns_per_node", NODES, || {
        let sim = Sim::new();
        timed(|| Cluster::new(sim.handle(), FabricModel::calibrated_2007(), NODES as usize))
    });
    const REGIONS: u64 = 64;
    const REGION_KIB: u64 = 64;
    per_op(
        out,
        "fabric.probe.register_ns_per_kib",
        REGIONS * REGION_KIB,
        || {
            let (_sim, cluster) = two_nodes();
            timed(|| {
                for _ in 0..REGIONS {
                    black_box(cluster.register(NodeId(1), (REGION_KIB * 1024) as usize));
                }
            })
        },
    );
    const N: u64 = 5_000;
    per_op(out, "fabric.probe.send_ns", N, || {
        let (sim, cluster) = two_nodes();
        let port = cluster.alloc_port();
        let mut ep = bind_raw(&cluster, NodeId(1), port);
        sim.spawn(async move {
            loop {
                black_box(ep.recv().await);
            }
        });
        let payload = Bytes::from(vec![0x42u8; 64]);
        timed(|| {
            sim.run_to(async move {
                for _ in 0..N {
                    cluster
                        .send(
                            NodeId(0),
                            NodeId(1),
                            port,
                            payload.clone(),
                            Transport::RdmaSend,
                        )
                        .await;
                }
            })
        })
    });
    let verb = |out: &mut Vec<(String, f64)>, name: &str, which: u8| {
        per_op(out, name, N, || {
            let (sim, cluster) = two_nodes();
            let region = cluster.register(NodeId(1), 4096);
            let addr = RemoteAddr {
                node: NodeId(1),
                region,
                offset: 0,
            };
            timed(|| {
                sim.run_to(async move {
                    let data = [0x5au8; 64];
                    for i in 0..N {
                        match which {
                            0 => drop(cluster.rdma_read(NodeId(0), addr, 64).await),
                            1 => cluster.rdma_write(NodeId(0), addr, &data).await,
                            _ => drop(cluster.atomic_cas(NodeId(0), addr, i, i + 1).await),
                        }
                    }
                })
            })
        });
    };
    verb(out, "fabric.probe.rdma_read_ns", 0);
    verb(out, "fabric.probe.rdma_write_ns", 1);
    verb(out, "fabric.probe.cas_ns", 2);
}

fn svc_probes(out: &mut Vec<(String, f64)>) {
    const N: u64 = 5_000;
    per_op(out, "svc.probe.wire_roundtrip_ns", N * 10, || {
        let mut msg = KernelStats {
            run_queue: 3,
            app_threads: 8,
            busy_ns: 123_456_789,
            version: 1,
            conns: 40,
            accept_queue: 2,
        };
        timed(|| {
            for _ in 0..N * 10 {
                let bytes = black_box(&msg).encode_bytes();
                msg = <KernelStats as Wire>::decode(&bytes).expect("round trip");
                msg.version += 1;
            }
        })
    });
    per_op(out, "svc.probe.call_ns", N, || {
        let (sim, cluster) = two_nodes();
        let port = cluster.alloc_port();
        Service::spawn(
            &cluster,
            ServiceSpec {
                name: "benchmark.echo",
                subsys: Subsys::App,
                node: NodeId(1),
                port,
                cost: Cost::None,
                mode: Mode::Serial,
                queue_cap: None,
            },
            Dispatcher::new().fallback(|ctx, msg| async move {
                let req = parse_request(&msg);
                respond(
                    &ctx.cluster,
                    ctx.node,
                    &req,
                    &req.payload,
                    Transport::RdmaSend,
                )
                .await;
            }),
        );
        let client = SvcClient::new(&cluster, NodeId(0));
        timed(|| {
            sim.run_to(async move {
                for _ in 0..N {
                    black_box(
                        client
                            .call(NodeId(1), port, &[7u8; 32], Transport::RdmaSend)
                            .await,
                    );
                }
            })
        })
    });
}

fn sockets_probes(out: &mut Vec<(String, f64)>) {
    const N: u64 = 2_000;
    for kind in StreamKind::ALL {
        let name = format!("sockets.probe.stream_msg_ns.{}", kind.label());
        per_op(out, &name, N, || {
            let (sim, cluster) = two_nodes();
            let (mut tx, mut rx) = connect(
                &cluster,
                NodeId(0),
                NodeId(1),
                kind,
                SocketsConfig::default(),
            );
            sim.spawn(async move {
                let payload = vec![0x77u8; 1024];
                for _ in 0..N {
                    tx.send(&payload).await;
                }
            });
            timed(|| {
                sim.run_to(async move {
                    for _ in 0..N {
                        black_box(rx.recv().await);
                    }
                })
            })
        });
    }
    per_op(out, "sockets.probe.erpc_call_ns", N, || {
        let (sim, cluster) = two_nodes();
        let resp = Bytes::from(vec![0x5au8; 1024]);
        let server = ErpcServer::spawn(&cluster, NodeId(0), 1, 4, 0, {
            let resp = resp.clone();
            Rc::new(move |_, _| resp.clone())
        });
        let mux = ErpcMux::new(&cluster, NodeId(1), ErpcCfg::default());
        let session = mux.session(NodeId(0), server.ports()[0], 1);
        let req = Bytes::from(vec![0x17u8; 32]);
        let t = timed(|| {
            sim.run_to(async move {
                for _ in 0..N {
                    black_box(session.call(0, req.clone()).await);
                }
            })
        });
        drop(mux);
        t
    });
}

fn ddss_probes(out: &mut Vec<(String, f64)>) {
    const N: u64 = 1_000;
    let ddss_client = |cluster: &Cluster| {
        Ddss::new(cluster, DdssConfig::default(), &[NodeId(0), NodeId(1)]).client(NodeId(0))
    };
    for model in Coherence::ALL {
        let name = format!("ddss.probe.put_ns.{model}");
        per_op(out, &name, N, || {
            let (sim, cluster) = two_nodes();
            let client = ddss_client(&cluster);
            timed(|| {
                sim.run_to(async move {
                    let key = client
                        .allocate(NodeId(1), 64, model)
                        .await
                        .expect("allocate");
                    for _ in 0..N {
                        client.put(&key, &[0xa5u8; 64]).await;
                    }
                })
            })
        });
    }
    per_op(out, "ddss.probe.get_ns", N, || {
        let (sim, cluster) = two_nodes();
        let client = ddss_client(&cluster);
        timed(|| {
            sim.run_to(async move {
                let key = client
                    .allocate(NodeId(1), 64, Coherence::Version)
                    .await
                    .expect("allocate");
                client.put(&key, &[0xa5u8; 64]).await;
                for _ in 0..N {
                    black_box(client.get(&key).await);
                }
            })
        })
    });
}

fn dlm_probes(out: &mut Vec<(String, f64)>) {
    const N: u64 = 1_000;
    for design in DesignKind::ALL {
        let name = format!("dlm.probe.acquire_ns.{}", design.label());
        per_op(out, &name, N, || {
            let (sim, cluster) = two_nodes();
            let members = [NodeId(0), NodeId(1)];
            let mut clients = design.build(&cluster, DlmConfig::default(), NodeId(0), 4, &members);
            let client = clients.pop().expect("one client per member");
            timed(|| {
                sim.run_to(async move {
                    for _ in 0..N {
                        client.lock(1, LockMode::Exclusive).await;
                        client.unlock(1).await;
                    }
                })
            })
        });
    }
}

fn data_structure_probes(out: &mut Vec<(String, f64)>) {
    const N: u64 = 100_000;
    per_op(out, "coopcache.probe.lru_ns", N, || {
        // 128 resident 16 KiB documents, 512 distinct ones touched: a mix of
        // hits, inserts and evictions, as on a thrashing proxy.
        let mut lru = LruStore::new(2 * 1024 * 1024);
        timed(|| {
            for i in 0..N {
                let doc = ((i * 2_654_435_761) % 512) as u32;
                if lru.get(doc).is_none() {
                    black_box(lru.insert(doc, 16 * 1024));
                }
            }
        })
    });
    per_op(out, "workloads.probe.zipf_sample_ns", N, || {
        let zipf = Zipf::new(65_536, 0.9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        timed(|| {
            for _ in 0..N {
                black_box(zipf.sample(&mut rng));
            }
        })
    });
    per_op(out, "workloads.probe.arrival_next_ns", N, || {
        let mut arrivals = ArrivalProcess::poisson(42, 10_000.0);
        timed(|| {
            for _ in 0..N {
                black_box(arrivals.next_ns());
            }
        })
    });
    per_op(out, "trace.probe.streamhist_record_ns", N, || {
        let mut h = StreamHist::new();
        timed(|| {
            for i in 0..N {
                h.record(1_000 + i * 37);
            }
            h.p99_ns()
        })
    });
    per_op(out, "trace.probe.latencyhist_record_ns", N, || {
        let mut h = LatencyHist::new();
        timed(|| {
            for i in 0..N {
                h.record(1_000 + i * 37);
            }
            h.count()
        })
    });
    per_op(out, "trace.probe.tracer_off_ns", N, || {
        let sim = Sim::new();
        let tracer = Tracer::new(sim.handle());
        timed(|| {
            for _ in 0..N {
                black_box(black_box(&tracer).begin());
            }
        })
    });
}

fn report_probes(out: &mut Vec<(String, f64)>) {
    let baseline = crate::verify::load_baseline("ext_incast").expect("ext_incast baseline");
    let table = dc_core::Table::from_report(&baseline.tables[0]);
    const N: u64 = 200;
    per_op(out, "core.probe.table_render_ns", N, || {
        timed(|| {
            for _ in 0..N {
                black_box(table.render());
            }
        })
    });
    let mut report = dc_trace::BenchReport::new("ext_incast");
    report.add_table(baseline.tables[0].clone());
    per_op(out, "trace.probe.report_json_ns", N, || {
        timed(|| {
            for _ in 0..N {
                black_box(report.to_json());
            }
        })
    });
    per_op(out, "regress.probe.diff_ns", N, || {
        timed(|| {
            for _ in 0..N {
                let d = dc_regress::diff(&baseline, &baseline, &dc_regress::Tolerance::pct(0.0));
                black_box(d.expect("same bench").regressions());
            }
        })
    });
}

/// Host-time cost of switching the fabric tracer on, percent, on one
/// Figure 6 cell (`run_webfarm_traced` against `run_webfarm`).
fn tracer_on_overhead_pct(out: &mut Vec<(String, f64)>) {
    let cfg = dc_bench::fig6::cell_cfg(2, dc_coopcache::CacheScheme::Hybcc, 16 * 1024);
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    spans::scope("trace.tracer_on_overhead_pct", || {
        for _ in 0..SAMPLES {
            off = off.min(timed(|| dc_core::run_webfarm(&cfg)));
            on = on.min(timed(|| dc_core::run_webfarm_traced(&cfg, TraceMode::Full)));
        }
    });
    let pct = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
    out.push(("trace.tracer_on_overhead_pct".to_string(), pct));
}

/// Run every probe; `(metric name, value)` in a fixed order.
pub fn run_all() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    spans::scope("probes", || {
        sim_probes(&mut out);
        fabric_probes(&mut out);
        svc_probes(&mut out);
        sockets_probes(&mut out);
        ddss_probes(&mut out);
        dlm_probes(&mut out);
        data_structure_probes(&mut out);
        report_probes(&mut out);
        tracer_on_overhead_pct(&mut out);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_finite_cost_under_a_unique_name() {
        let probes = run_all();
        let mut names: Vec<&str> = probes.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), probes.len(), "duplicate probe name");
        for (name, v) in &probes {
            let pct = name.ends_with("_pct");
            assert!(v.is_finite() && (pct || *v > 0.0), "{name} = {v}");
        }
    }
}
