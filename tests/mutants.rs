//! The mutant catalogue, `tests/mutants.txt`: each entry is one small,
//! deliberate bug and the test that must catch it (DESIGN.md §6).
//!
//! `catalogue_still_aims_at_the_code` runs with every `cargo test`: each
//! entry's `find` snippet occurs exactly once in its file, its `replace`
//! differs, and its `kill` names a `#[test]` function of the tree. A
//! refactor that moves or rewrites a snippet fails here, and the entry is
//! re-aimed at the code's new shape, not deleted.
//!
//! `every_mutant_is_killed` is the runner, ignored by default because it
//! builds the tree once per entry:
//!
//! ```text
//! cargo test -q --test mutants -- --ignored --nocapture
//! ```
//!
//! It copies the tree (without `target/` and `.git/`) under the target
//! directory's scratch space, with one target directory for the whole run,
//! and checks first that every `kill` command passes on the unmutated copy.
//! Then it applies each mutant in turn and reverts it. A mutant is killed
//! only if the mutated tree compiles (`cargo test --no-run` with its `kill`
//! arguments) and its `kill` test then fails; a compile error is not a kill.
//! An entry with an empty `find` creates its `file` (which must not exist)
//! with the `replace` text, and deletes it again.

mod common;

use common::{read, root, test_fns, walk};
use std::collections::HashSet;
use std::fs::{self, File};
use std::path::Path;
use std::process::{Command, ExitStatus};
use std::time::Instant;

const CATALOGUE: &str = "tests/mutants.txt";

/// Seconds a build, or a kill test run, may take before it is stopped.
const BUILD_TIMEOUT_S: u32 = 1_800;
const TEST_TIMEOUT_S: u32 = 600;

struct Mutant {
    /// Line of the entry's first key, for messages.
    line: usize,
    name: String,
    file: String,
    find: String,
    replace: String,
    /// `cargo test` arguments; the last one names the test function.
    kill: Vec<String>,
    source: String,
}

impl Mutant {
    fn test_fn(&self) -> &str {
        self.kill.last().map_or("", String::as_str)
    }
}

/// `\n` is a newline and `\\` a backslash; any other backslash stays.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Entries are blocks of `key: value` lines separated by blank lines; a line
/// starting with `#` is a comment.
fn parse(text: &str) -> Result<Vec<Mutant>, String> {
    const KEYS: [&str; 6] = ["name", "file", "find", "replace", "kill", "source"];
    let mut mutants = Vec::new();
    let mut block: Vec<(usize, &str, &str)> = Vec::new();
    let lines = text.lines().chain(std::iter::once(""));
    for (i, line) in (1..).zip(lines) {
        if line.starts_with('#') {
            continue;
        }
        if !line.trim().is_empty() {
            let (key, value) = line
                .split_once(':')
                .ok_or(format!("{CATALOGUE}:{i}: not a `key: value` line"))?;
            if !KEYS.contains(&key) {
                return Err(format!("{CATALOGUE}:{i}: unknown key `{key}`"));
            }
            if block.iter().any(|&(_, k, _)| k == key) {
                return Err(format!("{CATALOGUE}:{i}: `{key}` given twice"));
            }
            block.push((i, key, value.strip_prefix(' ').unwrap_or(value)));
            continue;
        }
        let Some(&(line, ..)) = block.first() else {
            continue;
        };
        let get = |key: &str| {
            block
                .iter()
                .find(|&&(_, k, _)| k == key)
                .map(|&(_, _, v)| v.to_string())
                .ok_or(format!("{CATALOGUE}:{line}: entry has no `{key}`"))
        };
        mutants.push(Mutant {
            line,
            name: get("name")?,
            file: get("file")?,
            find: unescape(&get("find")?),
            replace: unescape(&get("replace")?),
            kill: get("kill")?.split_whitespace().map(String::from).collect(),
            source: get("source")?,
        });
        block.clear();
    }
    Ok(mutants)
}

/// What is wrong with the catalogue against the tree: one line per problem,
/// empty when every entry still aims at its code.
fn problems(mutants: &[Mutant]) -> Vec<String> {
    let tests = test_fns();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for m in mutants {
        let at = format!("{CATALOGUE}:{} `{}`", m.line, m.name);
        if !seen.insert(m.name.as_str()) {
            out.push(format!("{at}: name used twice"));
        }
        if m.find == m.replace {
            out.push(format!("{at}: `replace` equals `find`"));
        }
        let path = root().join(&m.file);
        match fs::read_to_string(&path) {
            // An empty `find` creates the file.
            _ if m.find.is_empty() && path.exists() => {
                out.push(format!("{at}: creates {}, which exists", m.file))
            }
            _ if m.find.is_empty() => {}
            Err(e) => out.push(format!("{at}: reading {}: {e}", m.file)),
            Ok(text) => match text.matches(m.find.as_str()).count() {
                1 => {}
                0 => out.push(format!("{at}: `find` no longer occurs in {}", m.file)),
                n => out.push(format!("{at}: `find` occurs {n} times in {}", m.file)),
            },
        }
        let test = m.test_fn();
        if !tests.contains(test) {
            out.push(format!(
                "{at}: `kill` must end with a test's name; no `#[test] fn {test}` in the tree"
            ));
        }
        if m.source.trim().is_empty() {
            out.push(format!("{at}: empty `source`"));
        }
    }
    out
}

fn catalogue() -> Vec<Mutant> {
    parse(&read(CATALOGUE)).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn catalogue_still_aims_at_the_code() {
    let mutants = catalogue();
    assert!(
        mutants.len() >= 30,
        "{} entries: the catalogue shrank",
        mutants.len()
    );
    let problems = problems(&mutants);
    assert!(
        problems.is_empty(),
        "the catalogue no longer matches the tree; re-aim each entry:\n{}",
        problems.join("\n")
    );
}

/// The check above can fail: a snippet that moved, one that is no longer
/// unique, a no-op replacement, a test that does not exist, a `kill` that
/// names a helper, not a test, and a file to create that exists are each
/// reported; a file to create that does not exist is not.
#[test]
fn catalogue_check_reports_each_kind_of_stale_entry() {
    let real = "catalogue_still_aims_at_the_code";
    let entries = [
        ("fine", "[workspace]\\n", "[workspace.x]\\n", real),
        ("moved", "[workspace]]", "x", real),
        ("ambiguous", "workspace", "x", real),
        ("no_op", "[workspace]\\n", "[workspace]\\n", real),
        ("no_test", "[workspace]\\n", "x", "renamed_away"),
        ("helper", "[workspace]\\n", "x", "copy_tree"),
        ("creates", "", "x", real),
    ];
    let text: String = entries
        .iter()
        .map(|(name, find, replace, test)| {
            format!(
                "name: {name}\nfile: Cargo.toml\nfind: {find}\nreplace: {replace}\n\
                 kill: --lib {test}\nsource: this test\n\n"
            )
        })
        .chain(["name: new_file\nfile: src/new.rs\nfind:\nreplace: x\n\
                 kill: --lib catalogue_still_aims_at_the_code\nsource: this test\n\n"
            .to_string()])
        .collect();
    let mutants = parse(&text).unwrap();
    let found = problems(&mutants);
    let flagged = |name: &str, what: &str| {
        found
            .iter()
            .any(|p| p.contains(&format!("`{name}`")) && p.contains(what))
    };
    assert!(!found.iter().any(|p| p.contains("`fine`")), "{found:?}");
    assert!(flagged("moved", "no longer occurs"), "{found:?}");
    assert!(flagged("ambiguous", "times in"), "{found:?}");
    assert!(flagged("no_op", "equals"), "{found:?}");
    assert!(flagged("no_test", "no `#[test] fn "), "{found:?}");
    assert!(flagged("helper", "no `#[test] fn "), "{found:?}");
    assert!(flagged("creates", "which exists"), "{found:?}");
    assert!(!found.iter().any(|p| p.contains("`new_file`")), "{found:?}");
    assert_eq!(found.len(), 6, "{found:?}");
}

/// Copy the tree to `to`, leaving out build output and version control.
fn copy_tree(to: &Path) {
    fs::create_dir_all(to).unwrap();
    for p in walk("") {
        let (src, dst) = (root().join(&p), to.join(&p));
        if p.ends_with('/') {
            fs::create_dir_all(dst).unwrap();
        } else if let Err(e) = fs::copy(src, dst) {
            panic!("copying {p}: {e}");
        }
    }
}

/// `cargo test <extra> <kill>` in `tree`, its output appended to `log`,
/// stopped (with every process it started) after `timeout_s` seconds.
fn cargo_test(
    tree: &Path,
    target: &Path,
    extra: &[&str],
    kill: &[String],
    timeout_s: u32,
    log: &Path,
) -> ExitStatus {
    let out = File::options().create(true).append(true).open(log).unwrap();
    Command::new("timeout")
        .args([
            "-s",
            "KILL",
            &timeout_s.to_string(),
            env!("CARGO"),
            "test",
            "--offline",
            "-q",
        ])
        .arg("--target-dir")
        .arg(target)
        .args(extra)
        .args(kill)
        .current_dir(tree)
        .stdout(out.try_clone().unwrap())
        .stderr(out)
        .status()
        .expect("running cargo under timeout")
}

#[test]
#[ignore = "builds the tree once per mutant; run with `-- --ignored`"]
fn every_mutant_is_killed() {
    let started = Instant::now();
    let mutants = catalogue();
    let problems = problems(&mutants);
    assert!(
        problems.is_empty(),
        "stale catalogue:\n{}",
        problems.join("\n")
    );

    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mutants");
    let (tree, target, logs) = (work.join("tree"), work.join("target"), work.join("logs"));
    for dir in [&tree, &logs] {
        if dir.exists() {
            fs::remove_dir_all(dir).unwrap();
        }
    }
    fs::create_dir_all(&logs).unwrap();
    copy_tree(&tree);
    eprintln!(
        "mutants: {} entries, tree copied to {}",
        mutants.len(),
        tree.display()
    );

    // A kill test that already fails proves nothing about its mutant.
    let mut baselines: Vec<&[String]> = Vec::new();
    for m in &mutants {
        if baselines.contains(&m.kill.as_slice()) {
            continue;
        }
        baselines.push(&m.kill);
        let log = logs.join(format!("baseline-{}.log", m.name));
        let status = cargo_test(&tree, &target, &[], &m.kill, BUILD_TIMEOUT_S, &log);
        assert!(
            status.success(),
            "`cargo test {}` fails on the unmutated tree (see {})",
            m.kill.join(" "),
            log.display()
        );
    }
    eprintln!(
        "mutants: {} kill commands pass unmutated ({:.0} s)",
        baselines.len(),
        started.elapsed().as_secs_f64()
    );

    let mut survivors = Vec::new();
    for m in &mutants {
        let t0 = Instant::now();
        let path = tree.join(&m.file);
        let original = if m.find.is_empty() {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            None
        } else {
            Some(fs::read_to_string(&path).unwrap())
        };
        let mutated = original
            .as_ref()
            .map_or(m.replace.clone(), |o| o.replacen(&m.find, &m.replace, 1));
        fs::write(&path, mutated).unwrap();
        let log = logs.join(format!("{}.log", m.name));
        let built = cargo_test(
            &tree,
            &target,
            &["--no-run"],
            &m.kill,
            BUILD_TIMEOUT_S,
            &log,
        );
        let verdict = if !built.success() {
            "did not compile"
        } else {
            match cargo_test(&tree, &target, &[], &m.kill, TEST_TIMEOUT_S, &log).code() {
                Some(0) => "SURVIVED",
                // `timeout -s KILL` stops its own process group with the
                // command, so only a timed-out run has no exit code.
                None => "killed (test timed out)",
                Some(_) => "killed",
            }
        };
        match &original {
            Some(original) => fs::write(&path, original).unwrap(),
            None => {
                fs::remove_file(&path).unwrap();
                let _ = fs::remove_dir(path.parent().unwrap());
            }
        }
        eprintln!(
            "mutants: {:<48} {verdict:<24} {:>5.0} s  cargo test {}",
            m.name,
            t0.elapsed().as_secs_f64(),
            m.kill.join(" ")
        );
        if !verdict.starts_with("killed") {
            survivors.push(format!("{} ({verdict}; log {})", m.name, log.display()));
        }
    }
    eprintln!(
        "mutants: {} of {} killed in {:.0} s",
        mutants.len() - survivors.len(),
        mutants.len(),
        started.elapsed().as_secs_f64()
    );
    assert!(
        survivors.is_empty(),
        "mutants not killed — each is a missing test, or an entry to re-aim:\n{}",
        survivors.join("\n")
    );
}
