//! Trace determinism: a traced run is observationally free — it changes no
//! result — and its exported artifacts are *byte-identical* across runs with
//! the same seed. Timestamps are sim-time, never wall-clock, so the Perfetto
//! JSON and the metrics snapshot are as reproducible as the numbers
//! themselves.

use dc_bench::scenario::{self, RunCtx};
use nextgen_datacenter::coopcache::CacheScheme;
use nextgen_datacenter::core::{run_webfarm_traced, WebFarmCfg};
use nextgen_datacenter::fabric::FaultConfig;
use nextgen_datacenter::trace::TraceMode;

#[test]
fn traced_webfarm_artifacts_are_byte_identical() {
    let cfg = WebFarmCfg {
        scheme: CacheScheme::Hybcc,
        proxies: 3,
        app_nodes: 2,
        num_docs: 96,
        requests: 600,
        seed: 0xDEC0DE,
        ..WebFarmCfg::default()
    };
    let (ra, ta) = run_webfarm_traced(&cfg, TraceMode::Full);
    let (rb, tb) = run_webfarm_traced(&cfg, TraceMode::Full);
    assert_eq!(ra.tps.to_bits(), rb.tps.to_bits());
    assert!(ta.events > 0, "trace captured nothing");
    assert_eq!(ta.trace_json, tb.trace_json, "Perfetto JSON diverged");
    assert_eq!(
        ta.metrics_json, tb.metrics_json,
        "metrics snapshot diverged"
    );
}

#[test]
fn traced_webfarm_under_faults_is_byte_identical() {
    let cfg = WebFarmCfg {
        scheme: CacheScheme::Bcc,
        requests: 500,
        num_docs: 64,
        seed: 7,
        faults: Some((
            0xFA_017,
            FaultConfig {
                drop_prob: 0.05,
                ..FaultConfig::default()
            },
        )),
        ..WebFarmCfg::default()
    };
    let (_, ta) = run_webfarm_traced(&cfg, TraceMode::Full);
    let (_, tb) = run_webfarm_traced(&cfg, TraceMode::Full);
    assert_eq!(ta.trace_json, tb.trace_json);
    assert_eq!(ta.metrics_json, tb.metrics_json);
}

/// The lock-design shootout, same bar as the webfarm: tracing changes no
/// stat, and the exported artifacts are byte-identical across runs —
/// clean and under a seeded drops+latency fault plan (no crash windows:
/// one-sided atomics cannot ride out a crashed home).
#[test]
fn traced_lock_shootout_is_byte_identical_and_observationally_free() {
    use dc_bench::ext_shootout::{run_cell, run_cell_traced, CELLS, HORIZON_NS};
    use nextgen_datacenter::dlm::DesignKind;
    use nextgen_datacenter::fabric::FaultPlan;

    let cell = CELLS[1];
    let design = DesignKind::McsTicket;
    let (sa, ta) = run_cell_traced(design, cell, None, TraceMode::Full);
    let (sb, tb) = run_cell_traced(design, cell, None, TraceMode::Full);
    assert!(ta.events > 0, "trace captured nothing");
    assert_eq!(ta.trace_json, tb.trace_json, "Perfetto JSON diverged");
    assert_eq!(ta.metrics_json, tb.metrics_json, "metrics diverged");
    assert_eq!(sa.acquires, sb.acquires);

    // Observationally free: the traced stats equal an untraced run's.
    let plain = run_cell(design, cell, None);
    assert_eq!(sa.acquires, plain.acquires);
    assert_eq!(sa.p99_wait_us.to_bits(), plain.p99_wait_us.to_bits());
    assert_eq!(sa.max_wait_us.to_bits(), plain.max_wait_us.to_bits());

    let fault_cfg = FaultConfig {
        horizon_ns: HORIZON_NS,
        max_crashes_per_node: 0,
        max_stalls_per_node: 0,
        drop_prob: 0.05,
        ..FaultConfig::default()
    };
    let nodes = cell.clients + 1;
    let mk = || FaultPlan::generate(0xFA_017, &fault_cfg, nodes);
    let (_, fa) = run_cell_traced(design, cell, Some(mk()), TraceMode::Full);
    let (_, fb) = run_cell_traced(design, cell, Some(mk()), TraceMode::Full);
    assert_eq!(fa.trace_json, fb.trace_json, "faulted trace diverged");
    assert_eq!(fa.metrics_json, fb.metrics_json, "faulted metrics diverged");
    assert_ne!(
        ta.trace_json, fa.trace_json,
        "the fault plan left no mark on the trace"
    );
}

/// FNV-1a 64-bit, the same construction the fabric calibration fingerprint
/// uses; good enough to pin multi-megabyte trace artifacts in a one-line
/// golden.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pull a `"name":123` counter out of a metrics-snapshot JSON object.
fn json_counter(metrics_json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let start = metrics_json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from metrics snapshot"))
        + key.len();
    metrics_json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter is numeric")
}

/// One Figure 6 cell (2 proxies, CCWR, 16 KiB — remote hits dominate) posts
/// the RDMA reads and moves the read bytes it did when a remote hit was one
/// flat `size + DOC_HDR` read out of a copied region (values from PR 15):
/// the scatter read is still one verb of the same length.
#[test]
fn fig6_cell_read_verbs_are_pinned() {
    let cfg = dc_bench::fig6::cell_cfg(2, CacheScheme::Ccwr, 16 * 1024);
    let (_, art) = run_webfarm_traced(&cfg, TraceMode::Full);
    let reads = json_counter(&art.metrics_json, "fabric.verbs.read");
    let bytes = json_counter(&art.metrics_json, "fabric.bytes.read");
    assert_eq!((reads, bytes), (1_088, 5_644_800));
}

/// The fixed workloads pinned by the engine-schedule golden: one clean run
/// and one fault-injected run, both small enough to execute in milliseconds.
fn golden_cases() -> Vec<(&'static str, WebFarmCfg)> {
    vec![
        (
            "hybcc_clean",
            WebFarmCfg {
                scheme: CacheScheme::Hybcc,
                proxies: 3,
                app_nodes: 2,
                num_docs: 96,
                requests: 600,
                seed: 0xDEC0DE,
                ..WebFarmCfg::default()
            },
        ),
        (
            "bcc_faulted",
            WebFarmCfg {
                scheme: CacheScheme::Bcc,
                requests: 500,
                num_docs: 64,
                seed: 7,
                faults: Some((
                    0xFA_017,
                    FaultConfig {
                        drop_prob: 0.05,
                        ..FaultConfig::default()
                    },
                )),
                ..WebFarmCfg::default()
            },
        ),
    ]
}

/// Message sizes of the stream golden's exchange: empty, 1 B, exactly one
/// SDP buffer's payload and one byte more, two multi-chunk sizes, then a
/// back-to-back burst of 3 B messages that outruns SDP's four credits.
fn stream_golden_sizes() -> Vec<usize> {
    let mut sizes = vec![0, 1, 8_183, 8_184, 70_000, 100_000];
    sizes.extend([3; 16]);
    sizes
}

/// A fixed two-node duplex exchange over one `kind` stream: node 0 sends the
/// sizes above in order while node 1 sends them in reverse, then each end
/// receives and checks the other's. Returns both ends' finish times and the
/// traced artifacts.
fn stream_exchange(
    kind: nextgen_datacenter::sockets::StreamKind,
    faults: Option<nextgen_datacenter::fabric::FaultPlan>,
) -> ((u64, u64), nextgen_datacenter::core::TraceArtifacts) {
    use nextgen_datacenter::fabric::{Cluster, FabricModel, NodeId};
    use nextgen_datacenter::sim::Sim;
    use nextgen_datacenter::sockets::{connect, SocketsConfig, StreamEnd};

    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    cluster.tracer().enable(TraceMode::Full);
    if let Some(plan) = faults {
        cluster.install_faults(plan);
    }
    let (a, b) = connect(&cluster, NodeId(0), NodeId(1), kind, SocketsConfig);
    let body = |salt: usize, len: usize| -> Vec<u8> {
        (0..len)
            .map(|j| ((salt * 131 + j * 7) % 256) as u8)
            .collect()
    };
    // Each end salts its payloads differently, so a message delivered to
    // the wrong end or out of order fails the content check.
    let run_end = |mut end: StreamEnd, (mine, my_salt): Side, (theirs, their_salt): Side| {
        let h = sim.handle();
        sim.spawn(async move {
            for (i, &len) in mine.iter().enumerate() {
                end.send(&body(my_salt + i, len)).await;
            }
            for (i, &len) in theirs.iter().enumerate() {
                let got = end.recv().await;
                assert_eq!(&got[..], &body(their_salt + i, len)[..], "{kind:?} msg {i}");
            }
            h.now()
        })
    };
    type Side = (Vec<usize>, usize);
    let fwd: Side = (stream_golden_sizes(), 0);
    let rev: Side = (fwd.0.iter().rev().copied().collect(), 1_000);
    let done_a = run_end(a, fwd.clone(), rev.clone());
    let done_b = run_end(b, rev, fwd);
    sim.run();
    let finish = (
        done_a.try_take().expect("node 0's end did not finish"),
        done_b.try_take().expect("node 1's end did not finish"),
    );
    (
        finish,
        nextgen_datacenter::core::TraceArtifacts::collect(&cluster),
    )
}

/// Eight callers share one eRPC session through a two-deep window while 25 %
/// of messages drop: credit waits, out-of-order completions, retransmits and
/// reply-cache hits. Returns when the last call is answered, with the
/// session's acks and retransmits.
fn erpc_window2_lossy() -> (u64, u64, u64, nextgen_datacenter::core::TraceArtifacts) {
    use bytes::Bytes;
    use nextgen_datacenter::fabric::{Cluster, FabricModel, FaultPlan, NodeId};
    use nextgen_datacenter::sim::Sim;
    use nextgen_datacenter::sockets::{ErpcCfg, ErpcMux, ErpcServer};
    use std::rc::Rc;

    let sim = Sim::new();
    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
    cluster.tracer().enable(TraceMode::Full);
    cluster.install_faults(FaultPlan::from_parts(9, vec![], vec![], vec![], 0.25));
    let srv = ErpcServer::spawn(&cluster, NodeId(1), 1, 2, 1_000, Rc::new(|_, req| req));
    let cfg = ErpcCfg {
        window: 2,
        rto_ns: 200_000,
    };
    let sess = ErpcMux::new(&cluster, NodeId(0), cfg).session(NodeId(1), srv.ports()[0], 1);
    let callers: Vec<_> = (0..8u8)
        .map(|i| {
            let s = sess.clone();
            sim.spawn(async move {
                for k in 0..4u8 {
                    let r = s.call(0, Bytes::from(vec![i, k])).await;
                    assert_eq!(&r[..], &[i, k], "caller {i} got another call's response");
                }
            })
        })
        .collect();
    let h = sim.handle();
    // The retransmit sweeper never quiesces: run until the callers are done.
    let done_ns = sim.run_to(async move {
        for c in callers {
            c.await;
        }
        h.now()
    });
    let artifacts = nextgen_datacenter::core::TraceArtifacts::collect(&cluster);
    (sess.acks(), sess.retx(), done_ns, artifacts)
}

/// The engine-schedule golden: trace/metrics artifact hashes plus raw
/// scheduler counters for fixed seeds, captured on the pre-timer-wheel
/// `BinaryHeap` engine and committed. The hierarchical-wheel engine must
/// reproduce every byte — the poll/event/timer counts are a highly
/// sensitive detector for any reordering or extra wake.
///
/// Regenerate (only for an intentional schedule change) with:
/// `DC_BLESS_ENGINE_GOLDEN=1 cargo test --test trace_determinism`.
#[test]
fn engine_schedule_matches_committed_golden() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/engine_schedule.txt"
    );
    let artifact_fields = |a: &nextgen_datacenter::core::TraceArtifacts| {
        format!(
            "trace_fnv={:016x} trace_events={} metrics_fnv={:016x} polls={} events={} \
             timers_fired={}",
            fnv1a(a.trace_json.as_bytes()),
            a.events,
            fnv1a(a.metrics_json.as_bytes()),
            json_counter(&a.metrics_json, "sim.polls"),
            json_counter(&a.metrics_json, "sim.events"),
            json_counter(&a.metrics_json, "sim.timers_fired"),
        )
    };
    let mut lines = Vec::new();
    for (label, cfg) in golden_cases() {
        let (res, a) = run_webfarm_traced(&cfg, TraceMode::Full);
        lines.push(format!(
            "{label} tps_bits={:016x} {}",
            res.tps.to_bits(),
            artifact_fields(&a)
        ));
    }
    // One line per lock design on the shootout's middle cell: every design's
    // spawns, sleeps, sends, spans and metrics are pinned, not just its table.
    for design in nextgen_datacenter::dlm::DesignKind::ALL {
        let cell = dc_bench::ext_shootout::CELLS[1];
        let (s, a) = dc_bench::ext_shootout::run_cell_traced(design, cell, None, TraceMode::Full);
        lines.push(format!(
            "shootout_{} acquires={} p99_bits={:016x} {}",
            design.label(),
            s.acquires,
            s.p99_wait_us.to_bits(),
            artifact_fields(&a)
        ));
    }
    // Two lines per stream kind, clean and under 15 % drops: each kind's
    // spawns, sleeps, CPU charges, sends, stalls and retransmissions.
    for kind in nextgen_datacenter::sockets::StreamKind::ALL {
        for (mode, drop_prob) in [("clean", None), ("lossy", Some(0.15))] {
            let plan = drop_prob.map(|p| {
                nextgen_datacenter::fabric::FaultPlan::from_parts(7, vec![], vec![], vec![], p)
            });
            let ((a_ns, b_ns), a) = stream_exchange(kind, plan);
            lines.push(format!(
                "stream_{}_{mode} a_done_ns={a_ns} b_done_ns={b_ns} {}",
                kind.label(),
                artifact_fields(&a)
            ));
        }
    }
    let (acks, retx, done_ns, a) = erpc_window2_lossy();
    lines.push(format!(
        "erpc_window2_lossy acks={acks} retx={retx} done_ns={done_ns} {}",
        artifact_fields(&a)
    ));
    // A small Figure 8b run: back-end workers parked on their accept queue,
    // clients parked on their responses, the monitor's probes.
    let hosting = nextgen_datacenter::core::HostingCfg {
        backends: 2,
        clients: 8,
        requests: 200,
        ..Default::default()
    };
    let (r, a) = nextgen_datacenter::core::run_hosting_traced(&hosting, TraceMode::Full);
    lines.push(format!(
        "hosting tps_bits={:016x} p99_ns={} {}",
        r.tps.to_bits(),
        r.p99_latency_ns,
        artifact_fields(&a)
    ));
    let actual = lines.join("\n") + "\n";
    if std::env::var("DC_BLESS_ENGINE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &actual).expect("writing golden");
        return;
    }
    let expected = std::fs::read_to_string(golden_path)
        .expect("missing tests/golden/engine_schedule.txt — bless it first");
    assert_eq!(
        actual, expected,
        "engine schedule diverged from the committed golden: the executor \
         no longer reproduces the pre-overhaul timer/wake order"
    );
}

/// `dc-bench flame` output is a pure function of (scenario, seed): the
/// collapsed stacks and the latency-breakdown report reproduce
/// byte-for-byte, and every sampled request's stage attribution is an
/// exact partition of its end-to-end time.
#[test]
fn flame_profile_is_byte_identical_per_seed() {
    use dc_bench::flame;
    let (ra, a) = flame::profile("fig5a", 42).unwrap();
    let (rb, b) = flame::profile("fig5a_lock_shared", 42).unwrap();
    assert!(a.events > 0, "profile traced nothing");
    let collapsed = nextgen_datacenter::trace::render_collapsed(&a.stacks);
    assert!(!collapsed.is_empty());
    assert_eq!(
        collapsed,
        nextgen_datacenter::trace::render_collapsed(&b.stacks),
        "collapsed stacks diverged"
    );
    assert_eq!(ra.to_json(), rb.to_json(), "breakdown report diverged");
    for r in a.requests.values().flatten() {
        assert_eq!(
            r.stage_ns.iter().sum::<u64>(),
            r.total_ns,
            "stage attribution is not an exact partition"
        );
    }
}

/// The same bar for a traced webfarm: critical-path analysis over the raw
/// events finds the sampled request spans and partitions each exactly.
#[test]
fn webfarm_latency_breakdown_partitions_every_request() {
    use nextgen_datacenter::trace::critical;
    let cfg = WebFarmCfg {
        scheme: CacheScheme::Bcc,
        requests: 400,
        num_docs: 64,
        seed: 11,
        ..WebFarmCfg::default()
    };
    let (_, art) = run_webfarm_traced(&cfg, TraceMode::Full);
    let reqs = critical::analyze_requests(&art.raw_events);
    assert!(
        reqs.len() >= 400,
        "expected a request span per issued request, got {}",
        reqs.len()
    );
    for r in &reqs {
        assert_eq!(r.stage_ns.iter().sum::<u64>(), r.total_ns);
    }
    let agg = critical::aggregate(&reqs);
    assert_eq!(agg.requests, reqs.len() as u64);
    let stage_total: u64 = agg.stages.iter().map(|s| s.total_ns).sum();
    assert_eq!(agg.total_ns, stage_total);
}

#[test]
fn different_seed_changes_the_trace() {
    let base = WebFarmCfg {
        scheme: CacheScheme::Bcc,
        requests: 500,
        num_docs: 64,
        seed: 7,
        ..WebFarmCfg::default()
    };
    let mut other = base.clone();
    other.seed = 8;
    let (_, ta) = run_webfarm_traced(&base, TraceMode::Full);
    let (_, tb) = run_webfarm_traced(&other, TraceMode::Full);
    assert_ne!(ta.trace_json, tb.trace_json, "seed had no effect on trace");
}

/// The at-scale open-loop webfarm, scaled down to tier-1 size: the full
/// report surface (both rendered tables and the exact stage partition)
/// must be byte-identical across runs of the same seed — clean and under
/// a seeded fault plan — and a different seed must move it.
#[test]
fn webfarm_scale_report_is_byte_identical_per_seed() {
    use dc_bench::ext_webfarm::{accounting_table, cells, run_sweep, sweep_table};
    use nextgen_datacenter::core::ScaleFarmCfg;

    let scaled = ScaleFarmCfg {
        proxies: 16,
        app_nodes: 8,
        clients: 3_000,
        backend_workers: 1,
        horizon_ns: 600_000_000,
        warmup_ns: 200_000_000,
        ..dc_bench::ext_webfarm::gate_cfg()
    };
    let sweep = cells();
    let render = |cfg: &ScaleFarmCfg| {
        let points = run_sweep(&RunCtx::pinned(), cfg, &sweep);
        let text = format!(
            "{}{}",
            sweep_table(&points).render(),
            accounting_table(&points).render()
        );
        (text, points)
    };

    let (ta, pa) = render(&scaled);
    let (tb, pb) = render(&scaled);
    assert_eq!(ta, tb, "same seed must render byte-identical tables");
    for ((_, a), (_, b)) in pa.iter().zip(&pb) {
        assert_eq!(a, b, "full point state (incl. breakdown) must replay");
    }

    let (tc, _) = render(&ScaleFarmCfg {
        seed: 43,
        ..scaled.clone()
    });
    assert_ne!(ta, tc, "a different seed must perturb the tables");

    // Under a seeded fault plan the same bar holds.
    let faulted = ScaleFarmCfg {
        faults: Some((
            0xFA_5CA1E,
            FaultConfig {
                drop_prob: 0.05,
                ..FaultConfig::default()
            },
        )),
        ..scaled.clone()
    };
    let (fa, fpa) = render(&faulted);
    let (fb, _) = render(&faulted);
    assert_eq!(fa, fb, "faulted runs must render byte-identical tables");
    assert_ne!(fa, ta, "the fault plan must have an observable effect");
    for (_, p) in &fpa {
        assert_eq!(p.conservation_gap, 0, "conservation under faults: {p:?}");
    }
}

/// The sharded-engine contract at the report surface: the full rendered
/// `ext_webfarm_scale` report (tables + every point, including the stage
/// partition) is byte-identical at 1, 2, and 4 shards — clean and under a
/// seeded fault plan. Shard count trades wall-clock for threads and must
/// never leak into any artifact.
#[test]
fn webfarm_scale_report_is_byte_identical_across_shard_counts() {
    use dc_bench::ext_webfarm::{accounting_table, cells, run_sweep, sweep_table};
    use nextgen_datacenter::core::ScaleFarmCfg;

    let scaled = ScaleFarmCfg {
        proxies: 16,
        app_nodes: 8,
        clients: 3_000,
        backend_workers: 1,
        horizon_ns: 600_000_000,
        warmup_ns: 200_000_000,
        ..dc_bench::ext_webfarm::gate_cfg()
    };
    let faulted = ScaleFarmCfg {
        faults: Some((
            0xFA_5CA1E,
            FaultConfig {
                drop_prob: 0.05,
                ..FaultConfig::default()
            },
        )),
        ..scaled.clone()
    };
    let sweep: Vec<_> = cells()
        .into_iter()
        .filter(|c| c.load_x == 0.9 || c.load_x == 0.3)
        .collect();
    let render = |cfg: &ScaleFarmCfg, shards: usize| {
        let cfg = ScaleFarmCfg {
            shards: Some(shards),
            ..cfg.clone()
        };
        let points = run_sweep(&RunCtx::pinned(), &cfg, &sweep);
        let text = format!(
            "{}{}",
            sweep_table(&points).render(),
            accounting_table(&points).render()
        );
        (text, points)
    };

    for cfg in [&scaled, &faulted] {
        let label = if cfg.faults.is_some() {
            "faulted"
        } else {
            "clean"
        };
        let (t1, p1) = render(cfg, 1);
        for shards in [2usize, 4] {
            let (tn, pn) = render(cfg, shards);
            assert_eq!(
                t1, tn,
                "{label}: {shards}-shard tables diverged from single-shard"
            );
            for ((_, a), (_, b)) in p1.iter().zip(&pn) {
                assert_eq!(a, b, "{label}: {shards}-shard point state diverged");
            }
        }
    }
}

/// The incast sweep with the fault plane armed: seeded drops trigger real
/// retransmits and reply-cache hits, and the resulting report — including
/// the retransmission counts themselves — replays byte-identically per
/// seed.
#[test]
fn ext_incast_report_is_deterministic_under_seeded_drops() {
    use dc_bench::ext_incast::{run, table};
    let render = || table(&run(&RunCtx::pinned(), 0.02)).render();
    let base = render();
    assert!(
        base.contains("retx"),
        "drop-rate report must carry the retransmit column"
    );
    assert_eq!(
        base,
        render(),
        "fault-seeded incast sweep is not replayable"
    );
}

/// Tracing is schedule-neutral at the report surface: each scenario cheap
/// enough for tier-1, run through `flame`'s traced context at seed 0,
/// diffs clean against its committed baseline at 0 % and folds a
/// non-empty profile. (CI runs the same check on fig8b in release.)
#[test]
fn traced_scenarios_match_their_baselines() {
    use dc_bench::diff::{diff, LoadedReport, Tolerance};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    for name in [
        "fig3a_ddss_put",
        "fig3b_storm",
        "fig5a_lock_shared",
        "fig5b_lock_exclusive",
        "fig8a_monitor_accuracy",
        "ext_fine_reconfig",
        "ext_flowcontrol_bw",
    ] {
        let ctx = RunCtx::traced(0);
        let live = (scenario::by_name(name).unwrap().report)(&ctx);
        let base = LoadedReport::from_path(&dir.join(format!("{name}.json"))).unwrap();
        let d = diff(
            &base,
            &LoadedReport::from_bench(&live),
            &Tolerance::pct(0.0),
        )
        .unwrap();
        assert_eq!(
            d.regressions(),
            0,
            "{name}: tracing moved the report:\n{}",
            d.render(false)
        );
        let p = ctx.into_profile().unwrap();
        assert!(
            p.events > 0 && !p.stacks.is_empty(),
            "{name}: empty profile"
        );
    }
}
