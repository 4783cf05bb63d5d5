//! Round-trip tests for the hand-rolled JSON layer: everything the
//! exporters write must come back identically through the strict parser.
//! These guard the `dc-bench-report` contract the regression gate diffs —
//! an escaping bug or an empty-collection edge case in the writer would
//! otherwise only surface as a corrupt baseline.

use dc_trace::json::{parse, validate, JsonValue};
use dc_trace::{BenchReport, LatencyHist, Registry, ReportTable};

/// Walk a parsed tree and re-render it with the writer's own rules, then
/// parse again: the two trees must be identical (idempotent round trip).
fn reencode(v: &JsonValue, w: &mut dc_trace::json::JsonWriter) {
    match v {
        JsonValue::Null => {
            w.f64(f64::NAN); // the writer's only null spelling
        }
        JsonValue::Bool(b) => {
            w.bool(*b);
        }
        JsonValue::Num(n) => {
            w.f64(*n);
        }
        JsonValue::Str(s) => {
            w.string(s);
        }
        JsonValue::Arr(items) => {
            w.begin_array();
            for item in items {
                reencode(item, w);
            }
            w.end_array();
        }
        JsonValue::Obj(members) => {
            w.begin_object();
            for (k, val) in members {
                w.key(k);
                reencode(val, w);
            }
            w.end_object();
        }
    }
}

fn roundtrip(text: &str) -> JsonValue {
    let tree = parse(text).unwrap_or_else(|(off, msg)| panic!("{msg} at byte {off} in: {text}"));
    let mut w = dc_trace::json::JsonWriter::new();
    reencode(&tree, &mut w);
    let again = w.finish();
    parse(&again).unwrap_or_else(|(off, msg)| panic!("re-encoded text invalid: {msg}@{off}"))
}

/// A report, and the metrics snapshot a run records beside it.
#[test]
fn bench_report_with_metrics_round_trips() {
    let r = Registry::new();
    r.counter("fabric.verbs.read").add(41);
    r.gauge("sockets.reorder_depth").set(-2);
    let h = r.hist("dlm.lock_wait_ns");
    h.record(1_000);
    h.record(2_000);
    h.record(1_000_000);

    let mut rep = BenchReport::new("fig5a_lock_shared");
    rep.set_fingerprint("fm1-00ff00ff00ff00ff");
    rep.add_param("mode", "shared");
    rep.add_param("waiters", 16u64);
    rep.add_param("alpha", 0.9f64);
    rep.add_table(ReportTable {
        title: "Fig 5a — Shared-lock cascading latency (us)".into(),
        headers: vec!["scheme".into(), "1 waiters".into(), "16 waiters".into()],
        rows: vec![
            vec!["N-CoSED".into(), "10.0".into(), "40.1".into()],
            vec!["DQNL".into(), "10.0".into(), "160.1".into()],
        ],
    });
    let text = rep.to_json();

    let tree = roundtrip(&text);
    assert_eq!(
        tree.get("schema").unwrap().as_str(),
        Some("dc-bench-report/v2")
    );
    assert_eq!(
        tree.get("fingerprint").unwrap().as_str(),
        Some("fm1-00ff00ff00ff00ff")
    );
    assert_eq!(
        tree.get("params").unwrap().get("waiters").unwrap().as_f64(),
        Some(16.0)
    );
    let tables = tree.get("tables").unwrap().as_arr().unwrap();
    assert_eq!(tables.len(), 1);
    assert_eq!(
        tables[0].get("rows").unwrap().as_arr().unwrap()[1]
            .as_arr()
            .unwrap()[2]
            .as_str(),
        Some("160.1")
    );
    let metrics = roundtrip(&r.snapshot().to_json());
    assert_eq!(
        metrics.get("fabric.verbs.read").unwrap().as_f64(),
        Some(41.0)
    );
    assert_eq!(
        metrics.get("sockets.reorder_depth").unwrap().as_f64(),
        Some(-2.0)
    );
    let hist = metrics.get("dlm.lock_wait_ns").unwrap();
    assert_eq!(hist.get("count").unwrap().as_f64(), Some(3.0));
    assert_eq!(hist.get("max_ns").unwrap().as_f64(), Some(1_000_000.0));
}

#[test]
fn empty_histogram_and_empty_registry_round_trip() {
    // An empty registry serializes to the empty object.
    let empty = Registry::new().snapshot().to_json();
    assert_eq!(empty, "{}");
    assert_eq!(parse(&empty).unwrap(), JsonValue::Obj(vec![]));

    // A histogram that never saw a sample must still serialize to a full,
    // valid summary object (all-zero fields), not panic or emit garbage.
    let r = Registry::new();
    let _ = r.hist("ddss.put_ns");
    let text = r.snapshot().to_json();
    let tree = parse(&text).unwrap_or_else(|e| panic!("{e:?}: {text}"));
    let hist = tree.get("ddss.put_ns").expect("hist key present");
    for field in [
        "count", "min_ns", "max_ns", "mean_ns", "p50_ns", "p99_ns", "p999_ns",
    ] {
        assert_eq!(
            hist.get(field).and_then(JsonValue::as_f64),
            Some(0.0),
            "{field}"
        );
    }
    // Same guard at the type level.
    assert!(LatencyHist::new().is_empty());
    assert_eq!(LatencyHist::new().summary().count, 0);
}

#[test]
fn hostile_strings_survive_the_writer_and_parser() {
    // Table titles and cells are arbitrary UTF-8: quotes, backslashes,
    // control characters, non-ASCII, and the µ/em-dash the real titles use.
    let nasty = [
        "plain",
        "",
        "with \"quotes\" and \\backslashes\\",
        "newline\nand\ttab\rand\u{1}control",
        "µs — naïve 😀 ß",
        "trailing backslash \\",
        "json-ish: {\"a\":[1,2]}",
    ];
    let mut rep = BenchReport::new("escape_torture");
    let mut row = Vec::new();
    for (i, s) in nasty.iter().enumerate() {
        rep.add_param(&format!("p{i}"), *s);
        row.push(s.to_string());
    }
    rep.add_table(ReportTable {
        title: nasty[3].into(),
        headers: nasty.iter().map(|s| s.to_string()).collect(),
        rows: vec![row],
    });
    let text = rep.to_json();
    assert!(
        validate(&text).is_ok(),
        "writer emitted invalid JSON: {text}"
    );
    let tree = parse(&text).unwrap();
    let params = tree.get("params").unwrap();
    for (i, s) in nasty.iter().enumerate() {
        assert_eq!(
            params.get(&format!("p{i}")).unwrap().as_str(),
            Some(*s),
            "param p{i} mangled"
        );
    }
    let t0 = &tree.get("tables").unwrap().as_arr().unwrap()[0];
    assert_eq!(t0.get("title").unwrap().as_str(), Some(nasty[3]));
    let cells = t0.get("rows").unwrap().as_arr().unwrap()[0]
        .as_arr()
        .unwrap();
    let expect: Vec<JsonValue> = nasty
        .iter()
        .map(|s| JsonValue::Str(s.to_string()))
        .collect();
    assert_eq!(cells, &expect[..]);
}

#[test]
fn empty_tables_and_zero_row_tables_are_valid() {
    // No tables at all.
    let rep = BenchReport::new("nothing");
    assert!(parse(&rep.to_json()).is_ok());
    // A table with headers but no rows, and one with no headers.
    let mut rep = BenchReport::new("hollow");
    rep.add_table(ReportTable {
        title: "empty rows".into(),
        headers: vec!["a".into(), "b".into()],
        rows: vec![],
    });
    rep.add_table(ReportTable {
        title: "no headers".into(),
        headers: vec![],
        rows: vec![],
    });
    let tree = parse(&rep.to_json()).unwrap();
    let tables = tree.get("tables").unwrap().as_arr().unwrap();
    assert_eq!(tables[0].get("rows").unwrap().as_arr().unwrap().len(), 0);
    assert_eq!(tables[1].get("headers").unwrap().as_arr().unwrap().len(), 0);
}
