//! The `dc-regress` command line: bless baselines, compare reports,
//! check live runs against committed baselines, and evaluate the paper
//! claim tables. All the work happens in [`run`], which returns the
//! process exit code so the whole surface is unit-testable.
//!
//! Exit codes: `0` clean, `1` regressions or claim violations, `2`
//! usage or I/O error, `3` calibration-fingerprint mismatch.

use std::path::{Path, PathBuf};

use crate::claims::{claims_for, evaluate};
use crate::diff::{diff, DiffError, LoadedReport, Tolerance};
use dc_bench::scenario;

const USAGE: &str = "\
dc-regress — paper-claims conformance and bench regression gate

USAGE:
    dc-regress list
    dc-regress bless  [--dir DIR] [NAME...]
    dc-regress compare OLD NEW [--tol-pct N] [--tol COL=N]... [--report PATH] [-v]
    dc-regress check  [--dir DIR] [--tol-pct N] [--tol COL=N]... [-v] [NAME...]
    dc-regress claims [--from DIR] [NAME...]

SUBCOMMANDS:
    list      List every registered scenario.
    bless     Run scenarios in-process and (re)write DIR/<name>.json
              baselines (default DIR: baselines).
    compare   Diff two report files, or two directories of *.json
              reports, cell by cell under a relative tolerance.
    check     Run scenarios in-process and compare against the
              baselines in DIR.
    claims    Evaluate the transcribed paper-claim tables against live
              runs (default) or stored reports (--from DIR).

OPTIONS:
    --tol-pct N    Default tolerance, percent (default 0).
    --tol COL=N    Override tolerance for column header COL.
    --report PATH  Also write the rendered diff to PATH.
    -v             List every compared cell, not only failures.
";

/// Run the CLI against `args` (without argv[0]); returns the exit code.
pub fn run(args: &[String]) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return 2;
    };
    match cmd.as_str() {
        "list" => {
            for s in &scenario::ALL {
                println!("{:28} {}", s.name, s.title);
            }
            0
        }
        "bless" => bless(rest),
        "compare" => compare(rest),
        "check" => check(rest),
        "claims" => claims(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            0
        }
        other => {
            eprintln!("unknown subcommand {other:?}\n");
            eprint!("{USAGE}");
            2
        }
    }
}

struct Opts {
    dir: PathBuf,
    tol: Tolerance,
    report: Option<PathBuf>,
    verbose: bool,
    from: Option<PathBuf>,
    /// Non-flag arguments: scenario names for `bless`/`check`/`claims`
    /// (see [`selected`]), the two paths for `compare`.
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        dir: PathBuf::from("baselines"),
        tol: Tolerance::default(),
        report: None,
        verbose: false,
        from: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => o.dir = PathBuf::from(it.next().ok_or("--dir requires a value")?),
            "--from" => o.from = Some(PathBuf::from(it.next().ok_or("--from requires a value")?)),
            "--tol-pct" => {
                o.tol.default_pct = it
                    .next()
                    .ok_or("--tol-pct requires a value")?
                    .parse()
                    .map_err(|_| "--tol-pct wants a number".to_string())?
            }
            "--tol" => {
                let kv = it.next().ok_or("--tol requires COL=N")?;
                let (col, n) = kv.split_once('=').ok_or("--tol wants COL=N")?;
                let n: f64 = n.parse().map_err(|_| format!("bad tolerance in {kv:?}"))?;
                o.tol.per_column.push((col.to_string(), n));
            }
            "--report" => {
                o.report = Some(PathBuf::from(it.next().ok_or("--report requires a path")?))
            }
            "-v" | "--verbose" => o.verbose = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

/// The scenarios `names` selects (none = all 13); a name that is not
/// registered is an error, never "run everything".
fn selected(names: &[String]) -> Result<Vec<&'static scenario::Scenario>, String> {
    if names.is_empty() {
        return Ok(scenario::ALL.iter().collect());
    }
    names
        .iter()
        .map(|n| scenario::by_name(n).ok_or_else(|| format!("unknown scenario {n:?}")))
        .collect()
}

/// Parse a scenario-running subcommand's arguments.
fn parse_run(args: &[String]) -> Result<(Opts, Vec<&'static scenario::Scenario>), String> {
    let o = parse_opts(args)?;
    let scenarios = selected(&o.positional)?;
    Ok((o, scenarios))
}

fn bless(args: &[String]) -> i32 {
    let (o, scenarios) = match parse_run(args) {
        Ok(p) => p,
        Err(e) => return usage_err(&e),
    };
    if let Err(e) = std::fs::create_dir_all(&o.dir) {
        eprintln!("creating {}: {e}", o.dir.display());
        return 2;
    }
    for s in scenarios {
        let rep = (s.run)();
        let path = o.dir.join(format!("{}.json", s.name));
        if let Err(e) = std::fs::write(&path, rep.to_json()) {
            eprintln!("writing {}: {e}", path.display());
            return 2;
        }
        println!("blessed {}", path.display());
    }
    0
}

/// Committed in `baselines/` beside the reports but not one of them: the
/// exact host-side counts CI's benchmark step checks.
const HOST_COUNTS: &str = "host_counts.json";

/// Pair up reports to compare: file vs file, or dir vs dir by stem.
fn pairs(old: &Path, new: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if old.is_dir() && new.is_dir() {
        let mut out = Vec::new();
        let mut entries: Vec<PathBuf> = std::fs::read_dir(old)
            .map_err(|e| format!("reading {}: {e}", old.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|x| x == "json").unwrap_or(false))
            .filter(|p| p.file_name().is_some_and(|n| n != HOST_COUNTS))
            .collect();
        entries.sort();
        if entries.is_empty() {
            return Err(format!("no *.json baselines in {}", old.display()));
        }
        for p in entries {
            let counterpart = new.join(p.file_name().expect("json files have names"));
            if !counterpart.exists() {
                return Err(format!("missing counterpart {}", counterpart.display()));
            }
            out.push((p, counterpart));
        }
        Ok(out)
    } else if old.is_file() && new.is_file() {
        Ok(vec![(old.to_path_buf(), new.to_path_buf())])
    } else {
        Err(format!(
            "{} and {} must both be files or both be directories",
            old.display(),
            new.display()
        ))
    }
}

fn compare(args: &[String]) -> i32 {
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => return usage_err(&e),
    };
    let [old, new] = o.positional.as_slice() else {
        return usage_err("compare wants exactly OLD and NEW");
    };
    let todo = match pairs(Path::new(old), Path::new(new)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut rendered = String::new();
    let mut regressions = 0usize;
    for (op, np) in todo {
        let (orep, nrep) = match (LoadedReport::from_path(&op), LoadedReport::from_path(&np)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return 2;
            }
        };
        match diff(&orep, &nrep, &o.tol) {
            Ok(d) => {
                regressions += d.regressions();
                rendered.push_str(&d.render(o.verbose));
            }
            Err(e @ DiffError::FingerprintMismatch(_, _)) => {
                eprintln!("{}: {e}", nrep.bench);
                return 3;
            }
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    print!("{rendered}");
    if let Some(path) = &o.report {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("writing {}: {e}", path.display());
            return 2;
        }
    }
    if regressions > 0 {
        eprintln!("{regressions} regression(s) beyond tolerance");
        1
    } else {
        0
    }
}

fn check(args: &[String]) -> i32 {
    let (o, scenarios) = match parse_run(args) {
        Ok(p) => p,
        Err(e) => return usage_err(&e),
    };
    let mut regressions = 0usize;
    for s in scenarios {
        let base_path = o.dir.join(format!("{}.json", s.name));
        let base = match LoadedReport::from_path(&base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e} (run `dc-regress bless` first?)");
                return 2;
            }
        };
        let live = LoadedReport::from_bench(&(s.run)());
        match diff(&base, &live, &o.tol) {
            Ok(d) => {
                regressions += d.regressions();
                print!("{}", d.render(o.verbose));
            }
            Err(e @ DiffError::FingerprintMismatch(_, _)) => {
                eprintln!("{}: {e}", s.name);
                return 3;
            }
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    if regressions > 0 {
        eprintln!("{regressions} regression(s) beyond tolerance");
        1
    } else {
        0
    }
}

fn claims(args: &[String]) -> i32 {
    let (o, scenarios) = match parse_run(args) {
        Ok(p) => p,
        Err(e) => return usage_err(&e),
    };
    let mut violations = 0usize;
    for s in scenarios {
        let tables = match &o.from {
            Some(dir) => match LoadedReport::from_path(&dir.join(format!("{}.json", s.name))) {
                Ok(r) => r.tables,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            },
            None => (s.run)().tables().to_vec(),
        };
        let table_claims = claims_for(s.name);
        let v = evaluate(&tables, &table_claims);
        println!(
            "{:28} {} claim(s), {} violation(s)",
            s.name,
            table_claims.len(),
            v.len()
        );
        for viol in &v {
            println!("  FAIL {viol}");
        }
        violations += v.len();
    }
    if violations > 0 {
        eprintln!("{violations} paper claim(s) violated");
        1
    } else {
        0
    }
}

fn usage_err(msg: &str) -> i32 {
    eprintln!("{msg}\n");
    eprint!("{USAGE}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dc-regress-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn unknown_subcommand_and_empty_args_are_usage_errors() {
        assert_eq!(run(&sv(&["frobnicate"])), 2);
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&sv(&["help"])), 0);
        assert_eq!(run(&sv(&["list"])), 0);
    }

    #[test]
    fn bless_then_check_is_clean_and_injected_delta_fails() {
        let dir = tmpdir("blesscheck");
        let dirs = dir.to_str().unwrap();
        // Bless one cheap scenario and self-check at zero tolerance.
        assert_eq!(run(&sv(&["bless", "--dir", dirs, "fig5a_lock_shared"])), 0);
        assert_eq!(run(&sv(&["check", "--dir", dirs, "fig5a_lock_shared"])), 0);

        // Corrupt one numeric cell by ~7.5% and watch the gate trip…
        let path = dir.join("fig5a_lock_shared.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"160.1\""), "expected DQNL 16-waiter cell");
        std::fs::write(&path, text.replace("\"160.1\"", "\"172.0\"")).unwrap();
        assert_eq!(
            run(&sv(&[
                "check",
                "--dir",
                dirs,
                "--tol-pct",
                "5",
                "fig5a_lock_shared"
            ])),
            1
        );
        // …and pass once the tolerance covers the delta.
        assert_eq!(
            run(&sv(&[
                "check",
                "--dir",
                dirs,
                "--tol-pct",
                "10",
                "fig5a_lock_shared"
            ])),
            0
        );
        // Per-column override: only the 16-waiter column is loose.
        assert_eq!(
            run(&sv(&[
                "check",
                "--dir",
                dirs,
                "--tol-pct",
                "0",
                "--tol",
                "16 waiters=10",
                "fig5a_lock_shared",
            ])),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_files_and_dirs() {
        let a = tmpdir("cmp-a");
        let b = tmpdir("cmp-b");
        assert_eq!(
            run(&sv(&[
                "bless",
                "--dir",
                a.to_str().unwrap(),
                "ext_fine_reconfig"
            ])),
            0
        );
        assert_eq!(
            run(&sv(&[
                "bless",
                "--dir",
                b.to_str().unwrap(),
                "ext_fine_reconfig"
            ])),
            0
        );
        // Dir vs dir self-comparison: clean, and the host-count file that
        // lives beside the baselines is not taken for a report.
        std::fs::write(a.join(HOST_COUNTS), "{}").unwrap();
        assert_eq!(
            run(&sv(&["compare", a.to_str().unwrap(), b.to_str().unwrap()])),
            0
        );
        // File vs file with an injected 100% delta: exit 1, report written.
        let fa = a.join("ext_fine_reconfig.json");
        let fb = b.join("ext_fine_reconfig.json");
        let text = std::fs::read_to_string(&fb).unwrap();
        std::fs::write(&fb, text.replace("\"5.5\"", "\"11.0\"")).unwrap();
        let report = a.join("diff.txt");
        assert_eq!(
            run(&sv(&[
                "compare",
                fa.to_str().unwrap(),
                fb.to_str().unwrap(),
                "--tol-pct",
                "50",
                "--report",
                report.to_str().unwrap(),
            ])),
            1
        );
        assert!(std::fs::read_to_string(&report).unwrap().contains("FAIL"));
        // Mixed file/dir operands are a usage error.
        assert_eq!(
            run(&sv(&["compare", fa.to_str().unwrap(), b.to_str().unwrap()])),
            2
        );
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn fingerprint_mismatch_exits_3() {
        let a = tmpdir("fp-a");
        assert_eq!(
            run(&sv(&[
                "bless",
                "--dir",
                a.to_str().unwrap(),
                "fig5b_lock_exclusive"
            ])),
            0
        );
        let p = a.join("fig5b_lock_exclusive.json");
        let text = std::fs::read_to_string(&p).unwrap();
        let fp_start = text.find("fm1-").unwrap();
        let old_fp = &text[fp_start..fp_start + 20];
        let swapped = text.replace(old_fp, "fm1-deadbeefdeadbeef");
        std::fs::write(&p, swapped).unwrap();
        assert_eq!(
            run(&sv(&[
                "check",
                "--dir",
                a.to_str().unwrap(),
                "fig5b_lock_exclusive"
            ])),
            3
        );
        let _ = std::fs::remove_dir_all(&a);
    }

    #[test]
    fn claims_subcommand_runs_live_and_from_dir() {
        let a = tmpdir("claims");
        assert_eq!(
            run(&sv(&[
                "bless",
                "--dir",
                a.to_str().unwrap(),
                "fig5a_lock_shared"
            ])),
            0
        );
        assert_eq!(
            run(&sv(&[
                "claims",
                "--from",
                a.to_str().unwrap(),
                "fig5a_lock_shared"
            ])),
            0
        );
        assert_eq!(run(&sv(&["claims", "fig5a_lock_shared"])), 0);
        // A report violating the claims trips exit 1: swap the DQNL series
        // down so it no longer cascades 3x over N-CoSED.
        let p = a.join("fig5a_lock_shared.json");
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::write(&p, text.replace("\"160.1\"", "\"41.0\"")).unwrap();
        assert_eq!(
            run(&sv(&[
                "claims",
                "--from",
                a.to_str().unwrap(),
                "fig5a_lock_shared"
            ])),
            1
        );
        let _ = std::fs::remove_dir_all(&a);
    }

    #[test]
    fn a_misspelt_scenario_is_a_usage_error_not_a_full_run() {
        let dir = tmpdir("typo");
        let dirs = dir.to_str().unwrap();
        for cmd in ["bless", "check", "claims"] {
            assert_eq!(run(&sv(&[cmd, "--dir", dirs, "fig5a_lock_sharedd"])), 2);
            // One good name does not excuse a bad one.
            let mixed = [cmd, "--dir", dirs, "fig5a_lock_shared", "nope"];
            assert_eq!(run(&sv(&mixed)), 2, "{cmd}");
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "wrote files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert_eq!(run(&sv(&["check", "--tol-pct"])), 2);
        assert_eq!(run(&sv(&["check", "--tol", "nonsense"])), 2);
        assert_eq!(run(&sv(&["compare", "--wat"])), 2);
        assert_eq!(run(&sv(&["compare", "only-one-file.json"])), 2);
        assert_eq!(run(&sv(&["compare", "a.json", "b.json", "c.json"])), 2);
    }
}
