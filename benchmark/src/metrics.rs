//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, regression bound and the end-to-end metric it should move.
//! `BENCHMARK.json` and the tables in `README.md` are this list written
//! out (`dc-benchmark describe` prints the former; a test keeps them equal).

use dc_ddss::Coherence;
use dc_dlm::DesignKind;
use dc_sockets::StreamKind;
use dc_trace::json::JsonWriter;

use crate::workloads;

/// One metric.
pub struct Def {
    /// Name as printed.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
    /// What it measures, and for a layer metric what it should move.
    pub note: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str, note: &'static str) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        note,
    }
}

/// The end-to-end metrics, reported per workload by the untraced run.
pub fn end_to_end() -> Vec<Def> {
    let e2e = |name, unit, better, bound, note| Def {
        bound: Some(bound),
        ..def(name, unit, better, note)
    };
    vec![
        e2e(
            "sim_ops_per_s",
            "ops/s",
            "higher",
            0.25,
            "ops per pass / clean_s (host thread-CPU seconds)",
        ),
        e2e(
            "allocs_per_op",
            "count",
            "lower",
            0.03,
            "heap allocations per op in one untimed counted pass; exact for a seed",
        ),
        e2e(
            "peak_rss_mb",
            "MiB",
            "lower",
            0.25,
            "VmHWM of the workload's process",
        ),
        e2e(
            "setup_s",
            "s",
            "lower",
            0.25,
            "thread CPU from process start to first timed pass: input generation, warm-up pass, baseline load and verification; median of the run's 5 to 23 set-ups",
        ),
    ]
}

/// The per-layer metrics, reported per workload by the traced run. A value
/// of 0 on a count or `clean_ms` means the workload does not exercise that
/// layer (or exposes no public entry that reports it).
pub fn per_layer() -> Vec<Def> {
    let mut v = vec![
        def("harness.pass_wall_p50_s", "s", "lower", "median whole-pass time on the wall clock; shows the noise, moves nothing"),
        def("harness.pass_wall_iqr_s", "s", "lower", "interquartile range of whole-pass wall time"),
        def("harness.cpu_share", "fraction", "higher", "thread CPU time / wall time of the timed passes: what the host gave the thread"),
        def("harness.passes", "count", "higher", "untraced passes the traced run timed"),
        def("harness.host_cores", "count", "higher", "available_parallelism of the host"),
        def("harness.trace_overhead_pct", "%", "lower", "clean time of the traced passes over the untraced ones, minus 1"),
        def("harness.setup_cold_s", "s", "lower", "the first, cold set-up of the process (setup_s is the median of all of them)"),
        def("sim.events_per_pass", "count", "lower", "ready-queue events + timers fired per pass; exact"),
        def("sim.events_per_op", "count", "lower", "ready-queue events per op; exact -> sim_ops_per_s everywhere"),
        def("sim.polls_per_op", "count", "lower", "task polls per op; exact -> sim_ops_per_s everywhere"),
        def("sim.timers_per_op", "count", "lower", "timers fired per op; exact -> sim_ops_per_s everywhere"),
        def("sim.host_ns_per_event", "ns", "lower", "clean host ns per (event + timer) -> sim_ops_per_s"),
        def("sim.probe.spawn_poll_ns", "ns", "lower", "spawn + first poll + retire of an empty task -> lock_contention, farm_scale_open"),
        def("sim.probe.timer_ns", "ns", "lower", "one sleep: wheel insert, pop, wake and poll -> lock_contention, farm_scale_open"),
        def("sim.probe.mpsc_ns", "ns", "lower", "one mpsc message between two tasks: send, wake, poll, recv"),
        def("sim.probe.oneshot_ns", "ns", "lower", "one oneshot hand-off through a spawned task"),
        def("sim.est_share", "fraction", "lower", "engine floor: (timers*timer_ns + (polls-timers)*mpsc_ns) / clean ns; its complement is the layers above dc-sim"),
        def("sim.shard.barrier_waits_per_event", "count", "lower", "2-shard knee cell, exact; never gated"),
        def("sim.shard.cross_sends_per_event", "count", "lower", "2-shard knee cell, exact; never gated"),
        def("sim.shard.speedup_2", "x", "higher", "1-shard / 2-shard clean time of the knee cell; informational"),
        def("fabric.probe.cluster_new_ns_per_node", "ns", "lower", "Cluster::new(64 nodes) per node -> setup_s, paper_figures"),
        def("fabric.probe.register_ns_per_kib", "ns", "lower", "region registration per KiB -> setup_s, paper_figures"),
        def("fabric.probe.send_ns", "ns", "lower", "64 B RDMA send delivered into a bound mailbox -> coopcache_farm, incast_rpc"),
        def("fabric.probe.rdma_read_ns", "ns", "lower", "64 B one-sided read -> lock_contention, paper_figures"),
        def("fabric.probe.rdma_write_ns", "ns", "lower", "64 B one-sided write -> paper_figures"),
        def("fabric.probe.cas_ns", "ns", "lower", "one compare-and-swap -> lock_contention"),
        def("fabric.verbs_per_op", "count", "lower", "verbs + sends per op from the traced entry's registry; 0 on farm_scale_open by construction"),
        def("fabric.bytes_per_op", "B", "lower", "one-sided bytes moved per op from the traced entry's registry"),
        def("fabric.qp_active", "count", "lower", "largest fabric.qp.active any cell ended with -> incast_rpc, peak_rss_mb"),
        def("svc.probe.wire_roundtrip_ns", "ns", "lower", "Wire encode_bytes + decode of a KernelStats -> coopcache_farm (sim_ops_per_s, allocs_per_op)"),
        def("svc.probe.call_ns", "ns", "lower", "SvcClient::call to an echo Service -> coopcache_farm"),
    ];
    for kind in StreamKind::ALL {
        v.push(def(
            &format!("sockets.probe.stream_msg_ns.{}", kind.label()),
            "ns",
            "lower",
            "one 1 KiB message over a connected stream -> incast_rpc, paper_figures",
        ));
    }
    v.extend([
        def(
            "sockets.probe.erpc_call_ns",
            "ns",
            "lower",
            "one eRPC call, 32 B request, 1 KiB response -> incast_rpc",
        ),
        def(
            "sockets.retransmits",
            "count",
            "lower",
            "IncastPoint retransmits summed over cells; 0 on a clean run",
        ),
        def(
            "sockets.ecn_marks",
            "count",
            "lower",
            "IncastPoint ECN marks summed over cells",
        ),
    ]);
    for model in Coherence::ALL {
        v.push(def(
            &format!("ddss.probe.put_ns.{model}"),
            "ns",
            "lower",
            "one 64 B DDSS put under this coherence model -> paper_figures",
        ));
    }
    v.push(def(
        "ddss.probe.get_ns",
        "ns",
        "lower",
        "one 64 B DDSS get (Version coherence) -> paper_figures",
    ));
    for design in DesignKind::ALL {
        v.push(def(
            &format!("dlm.probe.acquire_ns.{}", design.label()),
            "ns",
            "lower",
            "one uncontended lock + unlock -> lock_contention",
        ));
    }
    v.extend([
        def(
            "coopcache.hit_ratio",
            "fraction",
            "higher",
            "CacheStats (local + remote hits) / total; exact",
        ),
        def(
            "coopcache.remote_hit_share",
            "fraction",
            "higher",
            "CacheStats remote hits / hits; exact",
        ),
        def(
            "coopcache.probe.lru_ns",
            "ns",
            "lower",
            "one LruStore get-or-insert on a thrashing store -> coopcache_farm",
        ),
    ]);
    for name in workloads::FIGURES {
        v.push(def(
            &format!("figures.{name}.clean_ms"),
            "ms",
            "lower",
            "clean time of this paper_figures cell (0 on other workloads)",
        ));
    }
    v.extend([
        def("core.probe.table_render_ns", "ns", "lower", "Table::render of the 12x9 incast table -> paper_figures"),
        def("workloads.probe.zipf_sample_ns", "ns", "lower", "one Zipf sample over 65,536 docs -> farm_scale_open, coopcache_farm"),
        def("workloads.probe.arrival_next_ns", "ns", "lower", "one Poisson interarrival -> farm_scale_open"),
        def("trace.probe.streamhist_record_ns", "ns", "lower", "StreamHist::record -> farm_scale_open"),
        def("trace.probe.latencyhist_record_ns", "ns", "lower", "LatencyHist::record -> coopcache_farm"),
        def("trace.probe.report_json_ns", "ns", "lower", "BenchReport::to_json of the incast table -> paper_figures"),
        def("trace.probe.tracer_off_ns", "ns", "lower", "Tracer::begin with tracing off: the disabled-path cost every layer pays"),
        def("trace.tracer_on_overhead_pct", "%", "lower", "run_webfarm_traced(Full) over run_webfarm on one Figure 6 cell, minus 1"),
        def("regress.probe.diff_ns", "ns", "lower", "dc_regress::diff of the incast baseline with itself; part of verification, outside clean_s"),
    ]);
    v
}

/// The benchmark's description, as `BENCHMARK.json` holds it.
pub fn benchmark_json() -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command").begin_array();
    for arg in [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ] {
        w.string(arg);
    }
    w.end_array();
    w.key("paths").begin_array().string("benchmark").end_array();
    w.key("run_seconds").u64(crate::RUN_SECONDS);
    w.key("workloads").begin_array();
    for wl in &workloads::ALL {
        w.begin_object();
        w.key("name").string(wl.name);
        w.key("why").string(wl.why);
        w.end_object();
    }
    w.end_array();
    for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        w.key(key).begin_array();
        for d in defs {
            w.begin_object();
            w.key("name").string(&d.name);
            w.key("unit").string(d.unit);
            w.key("better").string(d.better);
            if let Some(bound) = d.bound {
                w.key("bound").f64(bound);
            }
            w.end_object();
        }
        w.end_array();
    }
    w.end_object();
    w.finish()
}

/// The catalogue as the markdown tables `README.md` carries.
pub fn catalogue_markdown() -> String {
    let mut md = String::from("| workload | cells | R per 10 s | op | load (virtual time) | why |\n|---|---|---|---|---|---|\n");
    for w in &workloads::ALL {
        md.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            w.name,
            (w.cells)(0).len(),
            w.passes_per_10s,
            w.op,
            w.load,
            w.why
        ));
    }
    md.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for d in end_to_end() {
        let bound = d.bound.expect("end-to-end metrics carry a bound") * 100.0;
        md.push_str(&format!(
            "| `{}` | {} | {} | {bound:.0} % | {} |\n",
            d.name, d.unit, d.better, d.note
        ));
    }
    md.push_str("\n| per-layer metric | unit | better | what it is -> what it should move |\n|---|---|---|---|\n");
    for d in per_layer() {
        md.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            d.name, d.unit, d.better, d.note
        ));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn every_name_and_unit_fits_the_contract_and_is_used_once() {
        let mut names: Vec<String> = workloads::ALL.iter().map(|w| w.name.to_string()).collect();
        for d in end_to_end().iter().chain(&per_layer()) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "{}: unit {:?}",
                d.name,
                d.unit
            );
            assert!(["higher", "lower"].contains(&d.better), "{}", d.name);
            names.push(d.name.clone());
        }
        for n in &names {
            assert!(
                well_formed(n),
                "name {n:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(!well_formed(".x") && !well_formed("a b") && !well_formed(""));
    }

    #[test]
    fn the_description_stays_inside_the_contracts_limits() {
        let e2e = end_to_end();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!(e2e
            .iter()
            .all(|d| matches!(d.bound, Some(b) if b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            e2e.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(per_layer().iter().all(|d| d.bound.is_none()));
        assert!((1..=60).contains(&crate::RUN_SECONDS));
        for w in &workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let json = benchmark_json();
        assert!(json.len() <= 64 * 1024);
        dc_trace::json::validate(&json).expect("BENCHMARK.json is valid JSON");
    }

    #[test]
    fn the_readme_carries_the_catalogue_verbatim() {
        let readme = include_str!("../README.md");
        assert!(
            readme.contains(&catalogue_markdown()),
            "paste the output of `dc-benchmark catalogue` into benchmark/README.md"
        );
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let parsed = |s: &str| dc_trace::json::parse(s).expect("valid JSON");
        assert_eq!(
            parsed(&on_disk),
            parsed(&benchmark_json()),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- describe`"
        );
    }
}
