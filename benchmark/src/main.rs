//! `dc-benchmark` — the repo's host-performance benchmark.
//!
//! This is a hardware-simulation benchmark: every timing is **host** time,
//! every simulated statistic is exact, and a change meant only to speed the
//! simulator up must leave the simulated statistics identical (the
//! verification stage checks that it does). See `README.md` beside this
//! crate for the workloads, the metrics and how to read the trace.
//!
//! ```text
//! dc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! dc-benchmark all [--seed <n>] [--seconds <s>] [--trace <out.json>]
//! dc-benchmark selfcheck [--seed <n>] [--seconds <s>]
//! dc-benchmark describe      # BENCHMARK.json
//! dc-benchmark catalogue     # the tables of README.md
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). `all` runs that form once per
//! workload, each in its own child process, one at a time. Everything else
//! goes to standard error.

mod alloc;
mod cputime;
mod estimator;
mod harness;
mod metrics;
mod probes;
mod spans;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::ParsedResult;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `--trace`: `0`/`1` for one workload, an output path for `all`.
    trace: Option<String>,
    spans: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = number()?,
            "--seconds" => {
                out.seconds = number()?;
                if !(1..=600).contains(&out.seconds) {
                    return Err(format!("--seconds {value}: must be 1 to 600"));
                }
            }
            "--trace" => out.trace = Some(value.clone()),
            "--spans" => out.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// Where a traced single-workload run leaves its spans when `--spans` does
/// not say: beside the executable, which is inside the build directory.
fn default_spans_path(workload: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(dir.join(format!("dc-benchmark-spans.{workload}.json")))
}

fn run_one(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let trace = match args.trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    let report = harness::run(w, args.seed, args.seconds, trace)?;
    // Exactly one thread: worker threads are joined before a cell returns,
    // so they cannot be counted afterwards, but the CPU time they used stays
    // on the process clock. (The traced run's 2-shard probe uses a second
    // thread by design; the untraced run of the same cells is the check.)
    let others = cputime::process_cpu().saturating_sub(cputime::thread_cpu());
    if !trace && others.as_secs_f64() > 0.01 * cputime::thread_cpu().as_secs_f64() {
        return Err(format!(
            "{name}: other threads used {others:?} of CPU; every cell must run on the calling thread"
        ));
    }
    let line = harness::result_line(&report, trace)?;
    if let Some(spans) = &report.spans_json {
        let path = match &args.spans {
            Some(p) => p.clone(),
            None => default_spans_path(name)?,
        };
        std::fs::write(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("{name}: spans written to {}", path.display());
    }
    println!("{line}");
    Ok(())
}

/// Run one workload in a child process and read its result line back.
fn child(w: &str, args: &Args, trace: bool, spans: Option<&Path>) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        // Every cell pins its shard count, but a stray override must not be
        // able to turn a single-thread measurement into a threaded one.
        .env_remove("DC_SIM_SHARDS");
    if let Some(p) = spans {
        cmd.arg("--spans").arg(p);
    }
    // Standard error is inherited, so the child's progress shows live; the
    // child has ended by the time `output` returns.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {w}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{w}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{w}: child printed nothing"))?;
    harness::parse_result_line(line)
}

fn print_result(w: &str, r: &ParsedResult) {
    for (name, value, unit) in &r.metrics {
        println!("{w:<16} {name:<48} {value:>18.6} {unit}");
    }
    println!(
        "{w:<16} {:<48} {:>18} of {} ops{}",
        "failed",
        r.failed,
        r.attempted,
        if r.correct { "" } else { "  <-- INCORRECT" }
    );
}

/// One full set: every workload, untraced. `Err` if any is incorrect.
fn run_set(args: &Args) -> Result<Vec<(&'static str, ParsedResult)>, String> {
    let mut set = Vec::new();
    for w in &workloads::ALL {
        let result = child(w.name, args, false, None)?;
        print_result(w.name, &result);
        set.push((w.name, result));
    }
    match set.iter().find(|(_, r)| !r.correct) {
        Some((w, _)) => Err(format!("{w}: outputs are not correct")),
        None => Ok(set),
    }
}

fn all(args: &Args) -> Result<(), String> {
    run_set(args)?;
    let Some(out) = &args.trace else {
        return Ok(());
    };
    // One spans document per workload, joined into one file at the end.
    let mut joined = String::from("{");
    for (i, w) in workloads::ALL.iter().enumerate() {
        let part = PathBuf::from(format!("{out}.{}.part", w.name));
        let result = child(w.name, args, true, Some(&part))?;
        print_result(w.name, &result);
        let spans = std::fs::read_to_string(&part)
            .map_err(|e| format!("reading {}: {e}", part.display()))?;
        std::fs::remove_file(&part).map_err(|e| format!("removing {}: {e}", part.display()))?;
        joined.push_str(if i == 0 { "" } else { "," });
        joined.push_str(&format!("\"{}\":{spans}", w.name));
    }
    joined.push('}');
    std::fs::write(out, joined).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("spans of all workloads written to {out}");
    Ok(())
}

/// Two full sets on the same build; every end-to-end metric of the second
/// must be within its bound of the first, in both directions.
fn selfcheck(args: &Args) -> Result<(), String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    let mut misses = Vec::new();
    for d in metrics::end_to_end() {
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        for ((w, a), (_, b)) in first.iter().zip(&second) {
            let of = |r: &ParsedResult| {
                r.metrics
                    .iter()
                    .find(|(n, ..)| *n == d.name)
                    .map(|(_, v, _)| *v)
                    .ok_or(format!("{w}: {} missing from the result", d.name))
            };
            let (a, b) = (of(a)?, of(b)?);
            let apart = (a - b).abs() / a.min(b);
            let verdict = if apart <= bound { "ok" } else { "MISS" };
            println!(
                "selfcheck {w:<16} {:<14} {a:>16.6} {b:>16.6}  apart {:>6.2}%  bound {:>4.0}%  {verdict}",
                d.name,
                apart * 100.0,
                bound * 100.0
            );
            if apart > bound {
                misses.push(format!("{w}/{}", d.name));
            }
        }
    }
    if misses.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two sets of the same build disagree: {}",
            misses.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags) = match argv.first().map(String::as_str) {
        Some(m @ ("all" | "selfcheck" | "describe" | "catalogue")) => (m, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let outcome = parse_flags(flags).and_then(|args| match mode {
        "all" => all(&args),
        "selfcheck" => selfcheck(&args),
        "describe" => {
            println!("{}", metrics::benchmark_json());
            Ok(())
        }
        "catalogue" => {
            print!("{}", metrics::catalogue_markdown());
            Ok(())
        }
        _ => run_one(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("dc-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The settings under `[profile.release]`, comments and blanks dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    /// The benchmark must measure the build tier-1 ships: a different
    /// `lto` or `codegen-units` here would move every host-time number.
    #[test]
    fn release_profile_equals_the_root_workspaces() {
        let ours = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(ours, root);
    }
}
