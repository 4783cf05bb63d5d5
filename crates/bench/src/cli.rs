//! The `dc-bench` command line: list, run, bless, check, compare and
//! evaluate the claims of the registered scenarios, and profile or watch
//! them. One table of subcommands drives both dispatch and the usage text,
//! and a subcommand's synopsis there is also the list of flags it accepts,
//! so the three cannot drift. All the work happens in [`run`], which
//! returns the process exit code so the whole surface is unit-testable.

use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};

use dc_core::Table;
use dc_trace::{render_collapsed, BenchReport};

use crate::claims::{claims_for, evaluate};
use crate::diff::{diff, DiffError, LoadedReport, Tolerance};
use crate::scenario::{self, RunCtx, Scenario};
use crate::{flame, top};

/// A subcommand's outcome: its exit code, or a usage or I/O error (exit 2).
type Outcome = Result<i32, Box<dyn Error>>;

struct Command {
    name: &'static str,
    /// The flags and operands the subcommand takes; [`parse`] admits
    /// exactly the flags named here.
    synopsis: &'static str,
    about: &'static str,
    handler: fn(&Opts, &mut dyn Write) -> Outcome,
}

impl Command {
    fn takes(&self, flag: &str) -> bool {
        self.synopsis
            .split(|c: char| c.is_whitespace() || "[]|.".contains(c))
            .any(|t| t == flag)
    }
}

static COMMANDS: [Command; 9] = [
    Command {
        name: "list",
        synopsis: "",
        about: "Print every runnable scenario with its title: the 13 gated ones, then
the ungated ones (too heavy for the gate: no baseline, no claims).",
        handler: list,
    },
    Command {
        name: "run",
        synopsis: "[NAME...] [--json] [--out PATH] [--series]",
        about: "Run scenarios (default: the 13 gated ones) in registry order and print
their tables. --json prints each dc-bench-report/v2 document instead;
--out PATH writes one scenario's to PATH, byte for byte what `bless`
writes. --series (fig8a_monitor_accuracy alone) appends the
reported-vs-actual time series behind the paper's plot.",
        handler: run_scenarios,
    },
    Command {
        name: "bless",
        synopsis: "[--dir DIR] [NAME...]",
        about: "Run gated scenarios and (re)write DIR/<name>.json (default DIR: baselines).",
        handler: bless,
    },
    Command {
        name: "compare",
        synopsis: "OLD NEW [--tol-pct N] [--tol COL=N]... [--report PATH] [-v|--verbose]",
        about: "Diff two reports, or two directories of *.json reports, cell by cell
under a relative tolerance: --tol-pct percent (default 0), overridden for
column COL by --tol. --report also writes the diff to PATH; -v lists
every compared cell, not only failures.",
        handler: compare,
    },
    Command {
        name: "check",
        synopsis: "[--dir DIR] [--tol-pct N] [--tol COL=N]... [-v|--verbose] [NAME...]",
        about: "Run gated scenarios and compare them with DIR's baselines, as `compare` does.",
        handler: check,
    },
    Command {
        name: "claims",
        synopsis: "[--from DIR] [NAME...]",
        about: "Evaluate the transcribed paper-claim tables against live runs, or
against the reports stored in DIR.",
        handler: claims,
    },
    Command {
        name: "flame",
        synopsis: "--scenario NAME [--seed N] [--out PATH] [--report PATH]",
        about: "Run a gated scenario with its sub-runs traced and fold their span trees
into collapsed-stack lines weighted by span self time in ns, to stdout or
PATH. --report also writes the scenario's report plus a latency_breakdown
attributing each sampled request to critical-path stages. The same
(scenario, seed) emits the same bytes; seed 0 (default) is the baseline's run.",
        handler: flame,
    },
    Command {
        name: "top",
        synopsis: "[--seed N] [--interval-us N] [--requests N] [--once]",
        about: "Live metrics dashboard: drive the fig6 web farm and redraw counters,
gauges and histogram sparklines every N virtual µs. --once renders a
single final frame (headless mode).",
        handler: watch,
    },
    Command {
        name: "help",
        synopsis: "",
        about: "Print this text.",
        handler: help,
    },
];

fn usage() -> String {
    let mut s = String::from("dc-bench — run, check and profile the paper's scenarios\n\nUSAGE:\n");
    for c in &COMMANDS {
        s += format!("    dc-bench {} {}", c.name, c.synopsis).trim_end();
        s.push('\n');
        for line in c.about.lines() {
            s += &format!("        {line}\n");
        }
    }
    s + "
A NAME may be a unique prefix (`fig5a`). Exit codes: 0 clean, 1 regression
or claim violation, 2 usage or I/O error, 3 calibration-fingerprint mismatch.
"
}

/// Run the command line `args` (without argv[0]), writing what the
/// subcommand prints to `w`; returns the process exit code.
pub fn run(args: &[String], w: &mut dyn Write) -> i32 {
    let Some((name, rest)) = args.split_first() else {
        eprint!("{}", usage());
        return 2;
    };
    let name = match name.as_str() {
        "-h" | "--help" => "help",
        name => name,
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("dc-bench: unknown subcommand `{name}`\n\n{}", usage());
        return 2;
    };
    let opts = match parse(cmd, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "dc-bench {name}: {e}\nusage: dc-bench {name} {}",
                cmd.synopsis
            );
            return 2;
        }
    };
    (cmd.handler)(&opts, w).unwrap_or_else(|e| {
        eprintln!("dc-bench {name}: {e}");
        2
    })
}

/// Every flag of every subcommand; each handler reads the ones it takes.
#[derive(Default)]
struct Opts {
    /// Operands: scenario names, or `compare`'s OLD and NEW.
    names: Vec<String>,
    json: bool,
    out: Option<PathBuf>,
    series: bool,
    dir: PathBuf,
    from: Option<PathBuf>,
    tol: Tolerance,
    report: Option<PathBuf>,
    verbose: bool,
    scenario: Option<String>,
    /// `--seed`: flame's (default 0) and top's (default its own).
    seed: Option<u64>,
    /// `--interval-us`, `--requests`, `--once`.
    top: top::TopCfg,
}

fn parse(cmd: &Command, args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        dir: PathBuf::from("baselines"),
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !flag.starts_with('-') {
            o.names.push(arg.clone());
            continue;
        }
        if !cmd.takes(flag) {
            return Err(format!("unknown flag `{flag}`"));
        }
        match flag {
            "--json" => o.json = true,
            "--series" => o.series = true,
            "--once" => o.top.once = true,
            "-v" | "--verbose" => o.verbose = true,
            _ => {
                let v = it.next().ok_or(format!("{flag} requires a value"))?;
                match flag {
                    "--out" => o.out = Some(v.into()),
                    "--dir" => o.dir = v.into(),
                    "--from" => o.from = Some(v.into()),
                    "--report" => o.report = Some(v.into()),
                    "--scenario" => o.scenario = Some(v.clone()),
                    "--tol-pct" => o.tol.default_pct = number(flag, v)?,
                    "--tol" => {
                        let (col, n) = v.split_once('=').ok_or("--tol wants COL=N")?;
                        o.tol.per_column.push((col.to_string(), number(flag, n)?));
                    }
                    "--seed" => o.seed = Some(number(flag, v)?),
                    "--interval-us" => o.top.interval_us = at_least_1(flag, v)?,
                    "--requests" => o.top.requests = at_least_1(flag, v)?,
                    _ => return Err(format!("unknown flag `{flag}`")),
                }
            }
        }
    }
    Ok(o)
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
}

fn at_least_1<T: std::str::FromStr + From<u8> + PartialOrd>(
    flag: &str,
    v: &str,
) -> Result<T, String> {
    let n: T = number(flag, v)?;
    if n < T::from(1) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// The scenarios `names` picks among those `admit` accepts, in registry
/// order (none = the 13 gated ones). A name that resolves to nothing is an
/// error, never "run everything".
fn select(
    names: &[String],
    admit: fn(&Scenario) -> bool,
) -> Result<Vec<&'static Scenario>, String> {
    if names.is_empty() {
        return Ok(scenario::ALL.iter().collect());
    }
    let picked = names
        .iter()
        .map(|n| {
            scenario::lookup(n, admit)
                .ok_or_else(|| format!("no scenario `{n}` here (`dc-bench list` names them)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(scenario::runnable()
        .filter(|s| picked.iter().any(|p| p.name == s.name))
        .collect())
}

/// Where a scenario's report lives in a baseline directory.
fn report_path(dir: &Path, s: &Scenario) -> PathBuf {
    dir.join(format!("{}.json", s.name))
}

/// Write `contents` to `path`, naming the path in the error.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The one way a report reaches a file: `bless`, `run --out` and
/// `flame --report` all write through here.
fn write_report(path: &Path, report: &BenchReport) -> Result<(), String> {
    write_file(path, &report.to_json())
}

fn no_operands(o: &Opts) -> Result<(), String> {
    match o.names.first() {
        Some(x) => Err(format!("unexpected argument `{x}`")),
        None => Ok(()),
    }
}

fn list(_: &Opts, w: &mut dyn Write) -> Outcome {
    for s in scenario::runnable() {
        writeln!(w, "{:24} {}", s.name, s.title)?;
    }
    Ok(0)
}

fn help(_: &Opts, w: &mut dyn Write) -> Outcome {
    w.write_all(usage().as_bytes())?;
    Ok(0)
}

const SERIES_SCENARIO: &str = "fig8a_monitor_accuracy";

/// Print one finished report: its JSON document (to `--out`, else one line
/// on `w`), or its aligned text tables with a blank line between them.
/// Both modes read the same [`BenchReport`], so they cannot disagree.
fn emit(report: &BenchReport, o: &Opts, w: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    match &o.out {
        Some(path) => write_report(path, report)?,
        None if o.json => writeln!(w, "{}", report.to_json())?,
        None => {
            let tables: Vec<String> = report
                .tables()
                .iter()
                .map(|t| Table::from_report(t).render())
                .collect();
            w.write_all(tables.join("\n").as_bytes())?;
        }
    }
    Ok(())
}

fn run_scenarios(o: &Opts, w: &mut dyn Write) -> Outcome {
    let scenarios = select(&o.names, |_| true)?;
    if o.out.is_some() && scenarios.len() != 1 {
        return Err("--out takes exactly one scenario name".into());
    }
    if o.series && scenarios.iter().map(|s| s.name).ne([SERIES_SCENARIO]) {
        return Err(format!("--series goes with `{SERIES_SCENARIO}` alone").into());
    }
    let text = !o.json && o.out.is_none();
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 && text {
            writeln!(w)?;
        }
        // `--series` comes with fig8a alone: run it by hand and keep the
        // samples the report is built from.
        let series = o.series.then(|| crate::fig8a::run(&RunCtx::pinned()));
        let report = match &series {
            Some(results) => scenario::fig8a_report_from(results),
            None => (s.report)(&RunCtx::pinned()),
        };
        emit(&report, o, w)?;
        if let (Some(results), true) = (&series, text) {
            for r in results {
                writeln!(w, "\n# {} — t(ms), reported, actual", r.scheme.label())?;
                for s in r.samples.iter().step_by(5) {
                    let t = s.at as f64 / 1e6;
                    writeln!(w, "{t:8.1}  {:>3}  {:>3}", s.reported, s.actual)?;
                }
            }
        }
    }
    w.flush()?;
    Ok(0)
}

fn bless(o: &Opts, w: &mut dyn Write) -> Outcome {
    let scenarios = select(&o.names, scenario::gated)?;
    std::fs::create_dir_all(&o.dir).map_err(|e| format!("creating {}: {e}", o.dir.display()))?;
    for s in scenarios {
        let path = report_path(&o.dir, s);
        write_report(&path, &(s.report)(&RunCtx::pinned()))?;
        writeln!(w, "blessed {}", path.display())?;
    }
    Ok(0)
}

/// Committed in `baselines/` beside the reports but not one of them: the
/// exact host-side counts CI's benchmark step checks.
const HOST_COUNTS: &str = "host_counts.json";

/// Pair up reports to compare: file vs file, or dir vs dir by stem.
fn pairs(old: &Path, new: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if old.is_file() && new.is_file() {
        return Ok(vec![(old.to_path_buf(), new.to_path_buf())]);
    }
    if !(old.is_dir() && new.is_dir()) {
        return Err(format!(
            "{} and {} must both be files or both be directories",
            old.display(),
            new.display()
        ));
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(old)
        .map_err(|e| format!("reading {}: {e}", old.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| p.file_name().is_some_and(|n| n != HOST_COUNTS))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no *.json baselines in {}", old.display()));
    }
    entries
        .into_iter()
        .map(|p| {
            let counterpart = new.join(p.file_name().expect("json files have names"));
            if counterpart.exists() {
                Ok((p, counterpart))
            } else {
                Err(format!("missing counterpart {}", counterpart.display()))
            }
        })
        .collect()
}

/// Diff each (baseline, new) pair under `--tol-pct`/`--tol` and print the
/// result: exit 1 on a regression, 3 on a calibration-fingerprint mismatch.
fn gate(o: &Opts, pairs: &[(LoadedReport, LoadedReport)], w: &mut dyn Write) -> Outcome {
    let mut rendered = String::new();
    let mut regressions = 0usize;
    for (old, new) in pairs {
        match diff(old, new, &o.tol) {
            Ok(d) => {
                regressions += d.regressions();
                rendered.push_str(&d.render(o.verbose));
            }
            Err(e @ DiffError::FingerprintMismatch(_, _)) => {
                eprintln!("{}: {e}", new.bench);
                return Ok(3);
            }
            Err(e) => return Err(e.to_string().into()),
        }
    }
    w.write_all(rendered.as_bytes())?;
    if let Some(path) = &o.report {
        write_file(path, &rendered)?;
    }
    if regressions > 0 {
        eprintln!("{regressions} regression(s) beyond tolerance");
        return Ok(1);
    }
    Ok(0)
}

fn compare(o: &Opts, w: &mut dyn Write) -> Outcome {
    let [old, new] = o.names.as_slice() else {
        return Err("compare wants exactly OLD and NEW".into());
    };
    let loaded = pairs(Path::new(old), Path::new(new))?
        .iter()
        .map(|(a, b)| Ok((LoadedReport::from_path(a)?, LoadedReport::from_path(b)?)))
        .collect::<Result<Vec<_>, String>>()?;
    gate(o, &loaded, w)
}

fn check(o: &Opts, w: &mut dyn Write) -> Outcome {
    let mut loaded = Vec::new();
    for s in select(&o.names, scenario::gated)? {
        let base = LoadedReport::from_path(&report_path(&o.dir, s))
            .map_err(|e| format!("{e} (run `dc-bench bless` first?)"))?;
        let live = LoadedReport::from_bench(&(s.report)(&RunCtx::pinned()));
        loaded.push((base, live));
    }
    gate(o, &loaded, w)
}

fn claims(o: &Opts, w: &mut dyn Write) -> Outcome {
    let mut violations = 0usize;
    for s in select(&o.names, scenario::gated)? {
        let tables = match &o.from {
            Some(dir) => LoadedReport::from_path(&report_path(dir, s))?.tables,
            None => (s.report)(&RunCtx::pinned()).tables().to_vec(),
        };
        let table_claims = claims_for(s.name);
        let v = evaluate(&tables, &table_claims);
        let (n, nv) = (table_claims.len(), v.len());
        writeln!(w, "{:28} {n} claim(s), {nv} violation(s)", s.name)?;
        for viol in &v {
            writeln!(w, "  FAIL {viol}")?;
        }
        violations += v.len();
    }
    if violations > 0 {
        eprintln!("{violations} paper claim(s) violated");
        return Ok(1);
    }
    Ok(0)
}

fn flame(o: &Opts, w: &mut dyn Write) -> Outcome {
    no_operands(o)?;
    let name = o
        .scenario
        .as_deref()
        .ok_or("flame requires --scenario NAME")?;
    let (report, p) = flame::profile(name, o.seed.unwrap_or(0))?;
    let collapsed = render_collapsed(&p.stacks);
    match &o.out {
        Some(path) => write_file(path, &collapsed)?,
        None => w.write_all(collapsed.as_bytes())?,
    }
    if let Some(path) = &o.report {
        write_report(path, &report)?;
    }
    eprintln!(
        "flame: {} — {} events, {} stacks, {} requests attributed",
        report.bench(),
        p.events,
        p.stacks.len(),
        report.latency_breakdown().map_or(0, |b| b.requests),
    );
    Ok(0)
}

fn watch(o: &Opts, _: &mut dyn Write) -> Outcome {
    no_operands(o)?;
    let mut cfg = o.top.clone();
    cfg.seed = o.seed.unwrap_or(cfg.seed);
    top::run(cfg);
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Run a command line, discarding what it prints.
    fn code(args: &[&str]) -> i32 {
        run(&sv(args), &mut Vec::new())
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn names(scenarios: &[&'static Scenario]) -> Vec<&'static str> {
        scenarios.iter().map(|s| s.name).collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dc-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn unknown_subcommand_and_empty_args_are_usage_errors() {
        assert_eq!(code(&["frobnicate"]), 2);
        assert_eq!(code(&[]), 2);
        assert_eq!(code(&["help"]), 0);
        assert_eq!(code(&["list"]), 0);
    }

    #[test]
    fn the_table_drives_dispatch_and_usage() {
        let text = usage();
        for c in &COMMANDS {
            let line = format!("dc-bench {} {}", c.name, c.synopsis);
            assert!(text.contains(line.trim_end()));
        }
        let mut help = Vec::new();
        assert_eq!(run(&sv(&["--help"]), &mut help), 0);
        assert_eq!(String::from_utf8(help).unwrap(), text);

        let mut listed = Vec::new();
        assert_eq!(run(&sv(&["list"]), &mut listed), 0);
        let listed = String::from_utf8(listed).unwrap();
        assert_eq!(listed.lines().count(), scenario::runnable().count());
        for line in listed.lines() {
            let name = line.split_whitespace().next().unwrap();
            assert_eq!(scenario::lookup(name, |_| true).map(|s| s.name), Some(name));
        }
    }

    #[test]
    fn resolve_accepts_exact_and_unique_prefixes() {
        let gated = |n: &str| scenario::lookup(n, scenario::gated).map(|s| s.name);
        assert_eq!(gated("fig5a_lock_shared"), Some("fig5a_lock_shared"));
        assert_eq!(gated("fig5a"), Some("fig5a_lock_shared"));
        assert_eq!(gated("fig5b"), Some("fig5b_lock_exclusive"));
        assert_eq!(gated("ext_l"), Some("ext_lock_shootout"));
        assert_eq!(gated("fig5"), None, "ambiguous prefix must not resolve");
        assert_eq!(gated("ext"), None, "ambiguous prefix must not resolve");
        assert_eq!(gated(""), None);

        // An exact name wins over the longer names it prefixes.
        let s = select(&sv(&["ext_webfarm_scale"]), scenario::gated).unwrap();
        assert_eq!(names(&s), ["ext_webfarm_scale"]);
        // An ungated name: `run` resolves it, `bless` refuses it and writes
        // nothing.
        let full = sv(&["ext_webfarm_scale_full"]);
        assert_eq!(
            names(&select(&full, |_| true).unwrap()),
            ["ext_webfarm_scale_full"]
        );
        assert!(select(&full, scenario::gated).is_err());
        let dir = tmpdir("ungated");
        let dirs = dir.to_str().unwrap();
        assert_eq!(code(&["bless", "--dir", dirs, "ext_webfarm_scale_full"]), 2);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "wrote files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_names_and_flags() {
        let run_cmd = command("run");
        let o = parse(run_cmd, &[]).unwrap();
        assert!(!o.json && o.out.is_none() && !o.series);
        let all = select(&o.names, |_| true).unwrap();
        assert_eq!(all.len(), scenario::ALL.len(), "no name = all 13");

        // Registry order, whatever order (or how often) the names come in;
        // the ungated extra resolves too.
        let o = parse(
            run_cmd,
            &sv(&[
                "ext_webfarm_scale_full",
                "fig6_coopcache",
                "--json",
                "fig3b_storm",
                "fig6_coopcache",
            ]),
        )
        .unwrap();
        assert!(o.json);
        assert_eq!(
            names(&select(&o.names, |_| true).unwrap()),
            ["fig3b_storm", "fig6_coopcache", "ext_webfarm_scale_full"]
        );

        let o = parse(run_cmd, &sv(&["--out", "/tmp/r.json", "fig5a_lock_shared"])).unwrap();
        assert_eq!(o.out.as_deref(), Some(Path::new("/tmp/r.json")));

        let o = parse(run_cmd, &sv(&[SERIES_SCENARIO, "--series"])).unwrap();
        assert!(o.series && !o.json);

        let o = parse(command("top"), &sv(&["--seed", "7", "--once"])).unwrap();
        assert!(o.seed == Some(7) && o.top.once);
        let o = parse(command("flame"), &sv(&["--scenario", "fig5a"])).unwrap();
        assert_eq!(o.seed, None, "flame's default seed is its own");
        // A flag is accepted only by the subcommands whose synopsis names it.
        assert!(parse(command("top"), &sv(&["--json"])).is_err());
        assert!(parse(command("claims"), &sv(&["--dir", "d"])).is_err());
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
            let args: Vec<&str> = ["run"].iter().chain(bad).copied().collect();
            let mut sink = Vec::new();
            assert_eq!(run(&sv(&args), &mut sink), 2, "{bad:?}");
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
        emit(&report, &parse(command("run"), &[]).unwrap(), &mut text).unwrap();
        assert_eq!(
            String::from_utf8(text).unwrap(),
            format!("{}\n{}", t.render(), t.render())
        );

        // JSON: the schema-valid document on one line.
        let mut json = Vec::new();
        let o = parse(command("run"), &sv(&["--json"])).unwrap();
        emit(&report, &o, &mut json).unwrap();
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
        let baseline = std::fs::read(baseline).unwrap();
        let dir = tmpdir("front-door");
        let out = dir.join("run.json");
        let mut stdout = Vec::new();
        let args = [
            "run",
            "fig5a_lock_shared",
            "--json",
            "--out",
            out.to_str().unwrap(),
        ];
        assert_eq!(run(&sv(&args), &mut stdout), 0);
        assert!(stdout.is_empty(), "--out leaves stdout alone");
        assert_eq!(std::fs::read(&out).unwrap(), baseline);

        // `bless` writes the same bytes.
        let blessed = dir.join("blessed");
        let args = [
            "bless",
            "--dir",
            blessed.to_str().unwrap(),
            "fig5a_lock_shared",
        ];
        assert_eq!(code(&args), 0);
        let written = std::fs::read(blessed.join("fig5a_lock_shared.json")).unwrap();
        assert_eq!(written, baseline);
        let _ = std::fs::remove_dir_all(&dir);

        let mut text = Vec::new();
        assert_eq!(run(&sv(&["run", "fig5a_lock_shared"]), &mut text), 0);
        let rendered: Vec<String> = scenario::fig5a_report(&RunCtx::pinned())
            .tables()
            .iter()
            .map(|t| Table::from_report(t).render())
            .collect();
        assert_eq!(String::from_utf8(text).unwrap(), rendered.join("\n"));
    }

    #[test]
    fn bless_then_check_is_clean_and_injected_delta_fails() {
        let dir = tmpdir("blesscheck");
        let dirs = dir.to_str().unwrap();
        // Bless one cheap scenario and self-check at zero tolerance.
        assert_eq!(code(&["bless", "--dir", dirs, "fig5a_lock_shared"]), 0);
        assert_eq!(code(&["check", "--dir", dirs, "fig5a_lock_shared"]), 0);

        // Corrupt one numeric cell by ~7.5% and watch the gate trip…
        let path = dir.join("fig5a_lock_shared.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"160.1\""), "expected DQNL 16-waiter cell");
        std::fs::write(&path, text.replace("\"160.1\"", "\"172.0\"")).unwrap();
        let check = |tol: &[&str]| {
            let mut args = vec!["check", "--dir", dirs];
            args.extend(tol);
            args.push("fig5a_lock_shared");
            code(&args)
        };
        assert_eq!(check(&["--tol-pct", "5"]), 1);
        // …and pass once the tolerance covers the delta.
        assert_eq!(check(&["--tol-pct", "10"]), 0);
        // Per-column override: only the 16-waiter column is loose.
        assert_eq!(check(&["--tol-pct", "0", "--tol", "16 waiters=10"]), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_files_and_dirs() {
        let a = tmpdir("cmp-a");
        let b = tmpdir("cmp-b");
        let (sa, sb) = (a.to_str().unwrap(), b.to_str().unwrap());
        assert_eq!(code(&["bless", "--dir", sa, "ext_fine_reconfig"]), 0);
        assert_eq!(code(&["bless", "--dir", sb, "ext_fine_reconfig"]), 0);
        // Dir vs dir self-comparison: clean, and the host-count file that
        // lives beside the baselines is not taken for a report.
        std::fs::write(a.join(HOST_COUNTS), "{}").unwrap();
        assert_eq!(code(&["compare", sa, sb]), 0);
        // File vs file with an injected 100% delta: exit 1, report written.
        let fa = a.join("ext_fine_reconfig.json");
        let fb = b.join("ext_fine_reconfig.json");
        let text = std::fs::read_to_string(&fb).unwrap();
        std::fs::write(&fb, text.replace("\"5.5\"", "\"11.0\"")).unwrap();
        let report = a.join("diff.txt");
        let (fa, fb) = (fa.to_str().unwrap(), fb.to_str().unwrap());
        let args = [
            "compare",
            fa,
            fb,
            "--tol-pct",
            "50",
            "--report",
            report.to_str().unwrap(),
        ];
        assert_eq!(code(&args), 1);
        assert!(std::fs::read_to_string(&report).unwrap().contains("FAIL"));
        // Mixed file/dir operands are a usage error.
        assert_eq!(code(&["compare", fa, sb]), 2);
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn fingerprint_mismatch_exits_3() {
        let a = tmpdir("fp-a");
        let sa = a.to_str().unwrap();
        assert_eq!(code(&["bless", "--dir", sa, "fig5b_lock_exclusive"]), 0);
        let p = a.join("fig5b_lock_exclusive.json");
        let text = std::fs::read_to_string(&p).unwrap();
        let fp_start = text.find("fm1-").unwrap();
        let old_fp = &text[fp_start..fp_start + 20];
        let swapped = text.replace(old_fp, "fm1-deadbeefdeadbeef");
        std::fs::write(&p, swapped).unwrap();
        assert_eq!(code(&["check", "--dir", sa, "fig5b_lock_exclusive"]), 3);
        let _ = std::fs::remove_dir_all(&a);
    }

    #[test]
    fn claims_subcommand_runs_live_and_from_dir() {
        let a = tmpdir("claims");
        let sa = a.to_str().unwrap();
        assert_eq!(code(&["bless", "--dir", sa, "fig5a_lock_shared"]), 0);
        assert_eq!(code(&["claims", "--from", sa, "fig5a_lock_shared"]), 0);
        assert_eq!(code(&["claims", "fig5a_lock_shared"]), 0);
        // A report violating the claims trips exit 1: swap the DQNL series
        // down so it no longer cascades 3x over N-CoSED.
        let p = a.join("fig5a_lock_shared.json");
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::write(&p, text.replace("\"160.1\"", "\"41.0\"")).unwrap();
        assert_eq!(code(&["claims", "--from", sa, "fig5a_lock_shared"]), 1);
        let _ = std::fs::remove_dir_all(&a);
    }

    #[test]
    fn a_misspelt_scenario_is_a_usage_error_not_a_full_run() {
        let dir = tmpdir("typo");
        let dirs = dir.to_str().unwrap();
        for cmd in [["bless", "--dir"], ["check", "--dir"], ["claims", "--from"]] {
            let [cmd, flag] = cmd;
            assert_eq!(code(&[cmd, flag, dirs, "fig5a_lock_sharedd"]), 2);
            // One good name does not excuse a bad one.
            let mixed = [cmd, flag, dirs, "fig5a_lock_shared", "nope"];
            assert_eq!(code(&mixed), 2, "{cmd}");
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "wrote files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert_eq!(code(&["check", "--tol-pct"]), 2);
        assert_eq!(code(&["check", "--tol", "nonsense"]), 2);
        assert_eq!(code(&["compare", "--wat"]), 2);
        assert_eq!(code(&["compare", "only-one-file.json"]), 2);
        assert_eq!(code(&["compare", "a.json", "b.json", "c.json"]), 2);
        // flame and top: reachable now that they return instead of exiting.
        assert_eq!(code(&["flame"]), 2);
        assert_eq!(code(&["flame", "--scenario"]), 2);
        assert_eq!(code(&["flame", "--scenario", "fig9"]), 2);
        assert_eq!(code(&["flame", "--scenario", "ext_webfarm_scale_full"]), 2);
        assert_eq!(code(&["flame", "--scenario", "fig5a", "--seed", "x"]), 2);
        assert_eq!(code(&["top", "--seed", "x"]), 2);
        assert_eq!(code(&["top", "--interval-us", "0"]), 2);
        assert_eq!(code(&["top", "--requests", "0"]), 2);
        assert_eq!(code(&["top", "--once", "extra"]), 2);
    }

    /// The one gated scenario without a cluster: flame says so and exits 2.
    #[test]
    fn flame_refuses_a_scenario_that_builds_no_cluster() {
        let args = ["flame", "--scenario", "ext_webfarm_scale"];
        assert_eq!(code(&args), 2);
        let err = flame(
            &parse(command("flame"), &sv(&args[1..])).unwrap(),
            &mut Vec::new(),
        );
        let err = err.unwrap_err().to_string();
        assert!(err.contains("builds no `Cluster`"), "{err}");
    }
}
