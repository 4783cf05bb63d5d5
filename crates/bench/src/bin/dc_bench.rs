//! `dc-bench` — scenario registry front-end.
//!
//! ```text
//! dc-bench list
//!     Print every runnable scenario with its title: the 13 gated ones,
//!     then the ungated `ext_webfarm_scale_full` (10^6 clients; no
//!     baseline, no claims).
//!
//! dc-bench run [NAME...] [--json] [--out PATH] [--series]
//!     Run the named scenarios in registry order (default: all 13 gated
//!     ones) and print their paper-style tables. `--json` prints each
//!     `dc-bench-report/v2` document instead; `--out PATH` writes it to
//!     PATH (implies `--json`, takes exactly one NAME) — byte-identical to
//!     what `dc-regress bless` writes. `--series` (with
//!     `fig8a_monitor_accuracy` alone) appends the reported-vs-actual time
//!     series behind the paper's plot. An unknown name or flag exits 2 and
//!     prints the names.
//!
//! dc-bench flame --scenario NAME [--seed N] [--out PATH] [--report PATH]
//!     Trace a scenario and fold its span tree into collapsed-stack
//!     (inferno) lines, weighted by span self time in ns. Output goes to
//!     stdout, or to `--out PATH`; `--report PATH` also writes a
//!     BenchReport whose `latency_breakdown` section attributes each
//!     sampled request's latency to critical-path stages. Deterministic:
//!     the same (scenario, seed) emits byte-identical bytes. NAME may be a
//!     unique prefix (`fig5a`); traceable: fig5a/fig5b/fig6/ext_lock_*.
//!
//! dc-bench top [--seed N] [--interval-us N] [--requests N] [--once]
//!     Live metrics dashboard: drives the fig6 web farm and redraws
//!     counters, gauges, and histogram sparklines as virtual time
//!     advances. `--once` renders a single final frame (headless/CI mode).
//! ```

use dc_bench::{flame, scenario, top};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for s in scenario::runnable() {
                println!("{:24} {}", s.name, s.title);
            }
        }
        Some("run") => {
            let code = dc_bench::run::run(&args[1..], &mut std::io::stdout().lock());
            std::process::exit(code);
        }
        Some("flame") => run_flame(&args[1..]),
        Some("top") => run_top(&args[1..]),
        Some(other) => {
            eprintln!("unknown subcommand `{other}`; try `list`, `run`, `flame`, or `top`");
            std::process::exit(2);
        }
        None => {
            eprintln!("usage: dc-bench <list|run|flame|top> [flags]");
            std::process::exit(2);
        }
    }
}

fn run_flame(args: &[String]) {
    let mut scenario: Option<String> = None;
    let mut seed: u64 = 42;
    let mut out: Option<std::path::PathBuf> = None;
    let mut report: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| die("--scenario requires a name"));
                scenario = Some(v.clone());
            }
            "--seed" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--seed requires N"));
                seed = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--seed: not a number: {v}")));
            }
            "--out" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--out requires a path"));
                out = Some(std::path::PathBuf::from(v));
            }
            "--report" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| die("--report requires a path"));
                report = Some(std::path::PathBuf::from(v));
            }
            other => die(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    let name = scenario.unwrap_or_else(|| die("flame requires --scenario NAME"));
    let resolved = flame::resolve(&name).unwrap_or_else(|| {
        die(&format!(
            "scenario `{name}` is unknown or not traceable; traceable: {}",
            flame::TRACEABLE.join(", ")
        ))
    });
    let p = flame::profile(resolved, seed);
    if let Some(path) = &out {
        std::fs::write(path, &p.collapsed)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    } else {
        print!("{}", p.collapsed);
    }
    if let Some(path) = &report {
        std::fs::write(path, flame::report(&p).to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
    eprintln!(
        "flame: {} — {} events, {} stacks, {} requests attributed",
        p.scenario,
        p.events,
        p.collapsed.lines().count(),
        p.breakdown.requests,
    );
}

fn run_top(args: &[String]) {
    let mut cfg = top::TopCfg::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--seed requires N"));
                cfg.seed = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--seed: not a number: {v}")));
            }
            "--interval-us" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| die("--interval-us requires N"));
                cfg.interval_us = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--interval-us: not a number: {v}")));
                if cfg.interval_us == 0 {
                    die("--interval-us must be at least 1");
                }
            }
            "--requests" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--requests requires N"));
                cfg.requests = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--requests: not a number: {v}")));
                if cfg.requests == 0 {
                    die("--requests must be at least 1");
                }
            }
            "--once" => cfg.once = true,
            other => die(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    top::run(cfg);
}

fn die(msg: &str) -> ! {
    eprintln!("dc-bench: {msg}");
    std::process::exit(2);
}
