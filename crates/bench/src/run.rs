//! `dc-bench run [NAME...] [--json] [--out PATH] [--series]` — the one
//! command that runs scenarios from the registry and prints them (the
//! binary's usage text documents the flags).
//!
//! Both output modes read the *same* [`BenchReport`], so they can never
//! disagree. All the work happens in [`run`], which returns the process
//! exit code (`0` clean, `2` usage or I/O error) so the surface is
//! unit-testable.

use std::io::{self, Write};
use std::path::PathBuf;

use dc_core::Table;
use dc_trace::BenchReport;

use crate::scenario::{self, Scenario};

const SERIES_SCENARIO: &str = "fig8a_monitor_accuracy";

struct RunArgs {
    scenarios: Vec<&'static Scenario>,
    json: bool,
    out: Option<PathBuf>,
    series: bool,
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut names: Vec<&str> = Vec::new();
    let mut a = RunArgs {
        scenarios: Vec::new(),
        json: false,
        out: None,
        series: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => a.json = true,
            "--out" => {
                a.out = Some(PathBuf::from(it.next().ok_or("--out requires a path")?));
                a.json = true;
            }
            "--series" => a.series = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if scenario::lookup(name).is_some() => names.push(name),
            name => return Err(format!("unknown scenario `{name}`")),
        }
    }
    if a.out.is_some() && names.len() != 1 {
        return Err("--out takes exactly one scenario name".into());
    }
    if a.series && names != [SERIES_SCENARIO] {
        return Err(format!("--series goes with `{SERIES_SCENARIO}` alone"));
    }
    a.scenarios = if names.is_empty() {
        scenario::ALL.iter().collect()
    } else {
        scenario::runnable()
            .filter(|s| names.contains(&s.name))
            .collect()
    };
    Ok(a)
}

/// Write one finished report: the full JSON document (to `--out`, else
/// one line on `w`), or its aligned text tables with a blank line between.
fn emit(report: &BenchReport, a: &RunArgs, w: &mut dyn Write) -> io::Result<()> {
    if !a.json {
        let tables: Vec<String> = report
            .tables()
            .iter()
            .map(|t| Table::from_report(t).render())
            .collect();
        return w.write_all(tables.join("\n").as_bytes());
    }
    match &a.out {
        Some(path) => std::fs::write(path, report.to_json())
            .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", path.display()))),
        None => writeln!(w, "{}", report.to_json()),
    }
}

fn run_parsed(a: &RunArgs, w: &mut dyn Write) -> io::Result<()> {
    for (i, s) in a.scenarios.iter().enumerate() {
        if i > 0 && !a.json {
            writeln!(w)?;
        }
        // `parse` admits `--series` only when `s` is fig8a: run it by hand
        // and keep the samples the report is built from.
        let series = a.series.then(crate::fig8a::run);
        let report = match &series {
            Some(results) => scenario::fig8a_report_from(results),
            None => (s.run)(),
        };
        emit(&report, a, w)?;
        if let (Some(results), false) = (&series, a.json) {
            for r in results {
                writeln!(w, "\n# {} — t(ms), reported, actual", r.scheme.label())?;
                for s in r.samples.iter().step_by(5) {
                    writeln!(
                        w,
                        "{:8.1}  {:>3}  {:>3}",
                        s.at as f64 / 1e6,
                        s.reported,
                        s.actual
                    )?;
                }
            }
        }
    }
    w.flush()
}

/// Run `dc-bench run` against `args` (everything after `run`), writing
/// tables and stdout JSON to `w`; returns the exit code.
pub fn run(args: &[String], w: &mut dyn Write) -> i32 {
    let parsed = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dc-bench run: {e}");
            eprintln!("usage: dc-bench run [NAME...] [--json] [--out PATH] [--series]");
            eprintln!("scenarios:");
            for s in scenario::runnable() {
                eprintln!("    {}", s.name);
            }
            return 2;
        }
    };
    match run_parsed(&parsed, w) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("dc-bench run: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn names(a: &RunArgs) -> Vec<&'static str> {
        a.scenarios.iter().map(|s| s.name).collect()
    }

    #[test]
    fn parses_names_and_flags() {
        let a = parse(&[]).unwrap();
        assert!(!a.json && a.out.is_none() && !a.series);
        assert_eq!(a.scenarios.len(), scenario::ALL.len(), "no name = all 13");

        // Registry order, whatever order (or how often) the names come in;
        // the ungated extra resolves too.
        let a = parse(&sv(&[
            "ext_webfarm_scale_full",
            "fig6_coopcache",
            "--json",
            "fig3b_storm",
            "fig6_coopcache",
        ]))
        .unwrap();
        assert!(a.json);
        assert_eq!(
            names(&a),
            ["fig3b_storm", "fig6_coopcache", "ext_webfarm_scale_full"]
        );

        let a = parse(&sv(&["--out", "/tmp/r.json", "fig5a_lock_shared"])).unwrap();
        assert!(a.json, "--out implies --json");
        assert_eq!(a.out.as_deref(), Some(Path::new("/tmp/r.json")));

        let a = parse(&sv(&[SERIES_SCENARIO, "--series"])).unwrap();
        assert!(a.series && !a.json);
    }

    #[test]
    fn usage_errors_exit_2_and_write_nothing() {
        for bad in [
            &["--out", "/tmp/r.json"][..],
            &["--out", "/tmp/r.json", "fig6_coopcache", "ext_incast"],
            &["fig5a_lock_shared", "--out"],
            &["--series"],
            &["--series", "fig5a_lock_shared"],
            &["--series", SERIES_SCENARIO, "fig5a_lock_shared"],
            &["fig5a_lock_sharedd"],
            &["fig5a_lock_shared", "--runs", "3"],
        ] {
            assert!(parse(&sv(bad)).is_err(), "{bad:?} must be rejected");
            let mut sink = Vec::new();
            assert_eq!(run(&sv(bad), &mut sink), 2, "{bad:?}");
            assert!(sink.is_empty(), "{bad:?} wrote output");
        }
    }

    #[test]
    fn text_and_json_modes_read_the_same_report() {
        let mut t = Table::new("panel", &["a", "b"]);
        t.row(vec!["42".into(), "7".into()]);
        let mut report = BenchReport::new("two_panel");
        report.add_param("mode", "shared");
        report.add_table(t.to_report());
        report.add_table(t.to_report());

        // Text: every table of the report, a blank line between them.
        let mut text = Vec::new();
        emit(&report, &parse(&[]).unwrap(), &mut text).unwrap();
        assert_eq!(
            String::from_utf8(text).unwrap(),
            format!("{}\n{}", t.render(), t.render())
        );

        // JSON: the schema-valid document on one line.
        let mut json = Vec::new();
        emit(&report, &parse(&sv(&["--json"])).unwrap(), &mut json).unwrap();
        let json = String::from_utf8(json).unwrap();
        assert_eq!(json, format!("{}\n", report.to_json()));
        assert!(dc_trace::json::validate(&json).is_ok());
        assert!(json.contains("\"schema\":\"dc-bench-report/v2\""));
        assert!(json.contains("\"bench\":\"two_panel\""));
    }

    #[test]
    fn fig5a_through_the_front_door_matches_its_baseline() {
        let baseline =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/fig5a_lock_shared.json");
        let out = std::env::temp_dir().join(format!("dc-bench-run-{}.json", std::process::id()));
        let mut stdout = Vec::new();
        let args = [
            "fig5a_lock_shared",
            "--json",
            "--out",
            out.to_str().unwrap(),
        ];
        assert_eq!(run(&sv(&args), &mut stdout), 0);
        assert!(stdout.is_empty(), "--out leaves stdout alone");
        let written = std::fs::read(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert_eq!(written, std::fs::read(baseline).unwrap());

        let mut text = Vec::new();
        assert_eq!(run(&sv(&["fig5a_lock_shared"]), &mut text), 0);
        let rendered: Vec<String> = scenario::fig5a_report()
            .tables()
            .iter()
            .map(|t| Table::from_report(t).render())
            .collect();
        assert_eq!(String::from_utf8(text).unwrap(), rendered.join("\n"));
    }
}
