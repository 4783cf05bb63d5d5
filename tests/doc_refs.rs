//! The docs cite code that exists. Every backticked or quoted reference in
//! DESIGN.md, EXPERIMENTS.md and README.md must resolve against the tree:
//!
//! * a repo path exists, and a `path.rs::name` names something that file
//!   defines; a `file.rs:NN` line reference is refused outright, since line
//!   numbers move with every edit;
//! * a `dc-x::…` / `dc_x::…` chain names modules or items of that crate's
//!   `src/`, a `Type::member` a member defined in the crate that defines
//!   `Type`, and a `module::item` an item of that module's file;
//! * a scenario name is in `dc_bench::scenario::runnable()`;
//! * a dotted metric or span name is a literal of non-test code in
//!   `crates/` or `benchmark/src/` (format holes match any segment);
//! * a bare `snake_case` or `CamelCase` name occurs in the Rust sources, or
//!   is a mutant in `tests/mutants.txt`;
//! * CI's "…" is a step of `.github/workflows/ci.yml`, and CI job `…` one
//!   of its jobs;
//! * no `ROADMAP item <n>`: item numbers change at every re-anchor, so a
//!   cite says why in words (this also holds for comments in
//!   `crates/*/src`);
//! * a `DESIGN.md §N` cite, anywhere in the tree's docs, code or CI, names
//!   a heading that exists.
//! * a number a figure section of EXPERIMENTS.md quotes on its `**Measured**`
//!   lines or tables, an integer of at least 1,000 or a `k` number, is a
//!   cell or header of its scenario's baseline.
//!
//! DESIGN.md also gives every crate one contract section, and
//! EXPERIMENTS.md's metric table lists every metric that non-test code
//! registers, its span table every span, instant and flow name it records. A rename re-aims the docs in the same change (DESIGN.md §6).

mod common;

use common::{entries, is_ident_char, matching, read, root, sources, test_fns, walk};
use common::{Kind, Source, Tok, SKIPPED_DIRS};
use dc_bench::diff::LoadedReport;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;

/// A slash-separated word ending in one of these is a file path.
const FILE_EXTS: [&str; 8] = ["rs", "md", "json", "txt", "toml", "yml", "lock", "sh"];
/// Heads of `A::b` chains that are std's to check, not the workspace's.
const STD_HEADS: [&str; 2] = ["std", "Waker"];
/// This file: the broken names its self-test spells out in string literals
/// must not count as defined.
const THIS_FILE: &str = "tests/doc_refs.rs";
/// The one `dc-…` word that names a report schema, not a crate.
const REPORT_SCHEMA: &str = "dc-bench-report";
/// `Tracer` methods that name what they record, and which argument the
/// name is.
const TRACER_CALLS: [(&str, usize); 6] = [
    ("complete", 3),
    ("complete_at", 4),
    ("instant", 2),
    ("instant_at", 3),
    ("flow_start", 3),
    ("flow_end", 3),
];
/// The one crate exempt from having a contract: an 11-line re-export shim.
const SHIM_CRATE: &str = "dc-regress";
/// The file that builds dc-svc's per-service metric names.
const SVC_FAMILY_FILE: &str = "crates/svc/src/service.rs";

/// One Rust source file, with the crate and the modules it is.
struct File {
    src: &'static Source,
    /// The package whose `src/` holds the file (`dc-sim`, `bytes`), if any.
    krate: Option<String>,
    /// The modules the file is, below its crate's `src/` (`sync`, `semaphore`).
    modules: Vec<String>,
}

/// What the docs may point at, read once from the tree.
#[derive(Default)]
struct Tree {
    /// Every file, and every directory with a trailing `/`, relative to the root.
    paths: HashSet<String>,
    files: Vec<File>,
    crates: HashSet<String>,
    /// Every identifier in code and string literals of the Rust sources.
    idents: HashSet<String>,
    /// Dotted literals of non-test code, format holes as `*`.
    dotted: Vec<String>,
    /// First segments of `dotted`: a doc name in one of these is checked.
    namespaces: HashSet<String>,
    /// Metric names non-test code in `crates/*/src` registers.
    registered: BTreeSet<String>,
    /// Literal span, instant and flow names non-test code passes the tracer.
    traced: BTreeSet<String>,
    mutants: HashSet<String>,
    ci_steps: HashSet<String>,
    ci_jobs: HashSet<String>,
    scenarios: HashSet<&'static str>,
}

fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(Tree::load)
}

fn idents_of(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// `{a,b}x{c,d}` → `axc`, `axd`, `bxc`, `bxd`; text outside braces is kept.
fn expand_braces(s: &str) -> Vec<String> {
    let Some(open) = s.find('{') else {
        return vec![s.to_string()];
    };
    let Some(len) = s[open..].find('}') else {
        return vec![s.to_string()];
    };
    let (head, alts, tail) = (&s[..open], &s[open + 1..open + len], &s[open + len + 1..]);
    alts.split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{}{tail}", alt.trim())))
        .collect()
}

/// A dotted literal as a pattern: `{…}` format holes become `*`.
fn as_pattern(lit: &str) -> Option<String> {
    let mut out = String::new();
    let mut depth = 0;
    for c in lit.chars() {
        match c {
            '{' => {
                depth += 1;
                if depth == 1 {
                    out.push('*');
                }
            }
            '}' => depth -= 1,
            _ if depth > 0 => {}
            c if is_ident_char(c) || c == '.' || c == '-' || c == '*' => out.push(c),
            _ => return None,
        }
    }
    let segs: Vec<&str> = out.split('.').collect();
    let dotted = segs.len() >= 2
        && segs[0].starts_with(|c: char| c.is_ascii_lowercase())
        && segs.iter().all(|s| !s.is_empty());
    dotted.then_some(out)
}

/// Whether two dotted patterns can name the same metric: segment by
/// segment, `*` on either side matches one segment, and a trailing `*` on
/// the doc side matches the rest.
fn dotted_match(doc: &str, known: &str) -> bool {
    let (d, k): (Vec<&str>, Vec<&str>) = (doc.split('.').collect(), known.split('.').collect());
    let open_tail = d.last() == Some(&"*") && d.len() <= k.len();
    if d.len() != k.len() && !open_tail {
        return false;
    }
    d.iter()
        .zip(&k)
        .all(|(a, b)| a == b || *a == "*" || *b == "*")
}

impl Tree {
    fn load() -> Tree {
        let all = walk("");
        // `crates/x/src/` and `vendored/x/src/` → the package's name.
        let crate_dirs: Vec<(String, String)> = all
            .iter()
            .filter_map(|p| p.strip_suffix("/Cargo.toml").map(|dir| (p, dir)))
            .filter(|(_, dir)| dir.starts_with("crates/") || dir.starts_with("vendored/"))
            .map(|(p, dir)| {
                let name = read(p)
                    .lines()
                    .find_map(|l| {
                        l.strip_prefix("name = \"")?
                            .strip_suffix('"')
                            .map(String::from)
                    })
                    .unwrap_or_else(|| panic!("{p}: no package name"));
                (format!("{dir}/src/"), name)
            })
            .collect();
        let mut t = Tree {
            crates: crate_dirs.iter().map(|(_, name)| name.clone()).collect(),
            scenarios: dc_bench::scenario::runnable().map(|s| s.name).collect(),
            ..Tree::default()
        };

        for src in sources() {
            let p = src.path.as_str();
            for tok in &src.toks {
                if tok.kind == Kind::Ident {
                    t.idents.insert(tok.text.to_string());
                }
                let lit = tok.str_lit().filter(|_| p != THIS_FILE);
                t.idents
                    .extend(lit.into_iter().flat_map(idents_of).map(String::from));
            }
            let home = crate_dirs
                .iter()
                .find(|(dir, _)| p.starts_with(dir.as_str()));
            t.files.push(File {
                src,
                krate: home.map(|(_, name)| name.clone()),
                modules: home.map_or(Vec::new(), |(dir, _)| {
                    p[dir.len()..]
                        .trim_end_matches(".rs")
                        .split('/')
                        .map(String::from)
                        .collect()
                }),
            });

            // Names non-test code defines and registers.
            let in_scope =
                p.starts_with("crates/") && p.contains("/src/") || p.starts_with("benchmark/src/");
            if !in_scope {
                continue;
            }
            let live: Vec<Tok> = src.toks.iter().filter(|t| !t.test).copied().collect();
            t.dotted
                .extend(live.iter().filter_map(|l| as_pattern(l.str_lit()?)));
            for (i, w) in live.windows(3).enumerate() {
                if !(p.starts_with("crates/") && w[0].is(".") && w[2].is("(")) {
                    continue;
                }
                // The method's arguments, and the literal one at `pos`.
                let args = entries(&live, i + 3, matching(&live, i + 2));
                let lit = |pos: usize| args.get(pos).and_then(|a| a[0].str_lit()).map(String::from);
                if matches!(w[1].text, "counter" | "gauge" | "hist") {
                    t.registered.extend(lit(0));
                }
                if let Some(&(_, pos)) = TRACER_CALLS.iter().find(|(name, _)| w[1].is(name)) {
                    t.traced.extend(lit(pos));
                }
            }
            if p == SVC_FAMILY_FILE {
                for suffix in live
                    .iter()
                    .filter_map(|l| l.str_lit())
                    .filter(|l| l.starts_with('.'))
                {
                    t.registered.insert(format!("svc.<name>{suffix}"));
                    t.dotted.push(format!("svc.*{suffix}"));
                }
            }
        }
        t.namespaces = t
            .dotted
            .iter()
            .map(|d| d.split('.').next().unwrap().to_string())
            .collect();
        t.paths = all.into_iter().collect();

        t.mutants = read("tests/mutants.txt")
            .lines()
            .filter_map(|l| l.strip_prefix("name: "))
            .map(String::from)
            .collect();
        let mut in_jobs = false;
        for line in read(".github/workflows/ci.yml")
            .lines()
            .filter(|l| !l.is_empty())
        {
            if let Some(step) = line.trim_start().strip_prefix("- name: ") {
                t.ci_steps.insert(step.trim().trim_matches('"').to_string());
            }
            if !line.starts_with(' ') {
                in_jobs = line == "jobs:";
            } else if in_jobs && !line.starts_with("   ") {
                if let Some(job) = line.trim().strip_suffix(':') {
                    t.ci_jobs.insert(job.to_string());
                }
            }
        }
        t
    }

    /// A path from the root, or a bare file name anywhere in the tree.
    fn path_exists(&self, path: &str) -> bool {
        let p = path.trim_end_matches('/');
        if p.contains('/') {
            self.paths.contains(p) || self.paths.contains(&format!("{p}/"))
        } else {
            self.paths
                .iter()
                .any(|q| q.trim_end_matches('/').rsplit('/').next() == Some(p))
        }
    }

    /// Whether the source files `which` selects define `name` (an item or a
    /// module); `None` when it selects none.
    fn defined_in(&self, which: impl Fn(&File) -> bool, name: &str) -> Option<bool> {
        let mut files = self.files.iter().filter(|f| which(f)).peekable();
        files.peek()?;
        Some(files.any(|f| f.src.defs.names.contains(name) || f.modules.iter().any(|m| m == name)))
    }

    fn crate_defines(&self, krate: &str, name: &str) -> bool {
        self.defined_in(|s| s.krate.as_deref() == Some(krate), name) == Some(true)
    }
}

/// Inline code spans of a markdown text, fenced blocks skipped, a span that
/// wraps a line joined with a space.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            prose.push_str(line.trim_start());
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// The doc's prose on one line per paragraph: what quoted names and `§`
/// cites are searched in, since both may wrap.
fn flat(doc: &str) -> String {
    doc.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Every `a::b::…` chain in `span`, `{x, y::z}` groups expanded; a chain of
/// one segment only when it is a `dc-…` crate name.
fn chains(span: &str) -> Vec<Vec<String>> {
    let b = span.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let starts = (b[i] as char).is_ascii_alphabetic()
            && (i == 0
                || !(is_ident_char(b[i - 1] as char)
                    || matches!(b[i - 1], b':' | b'.' | b'-' | b'/')));
        if !starts {
            i += 1;
            continue;
        }
        let crate_head = span[i..].starts_with("dc-") || span[i..].starts_with("dc_");
        let mut j = i;
        while j < b.len() && (is_ident_char(b[j] as char) || (crate_head && b[j] == b'-')) {
            j += 1;
        }
        let head = span[i..j].to_string();
        let mut tails = vec![vec![head.clone()]];
        while span[j..].starts_with("::") {
            j += 2;
            if span[j..].starts_with('{') {
                let close = span[j..].find('}').map_or(span.len(), |c| j + c);
                let group: Vec<Vec<String>> = span[j + 1..close]
                    .split(',')
                    .map(|alt| alt.trim().split("::").map(String::from).collect())
                    .collect();
                tails = tails
                    .iter()
                    .flat_map(|t| group.iter().map(move |g| [t.clone(), g.clone()].concat()))
                    .collect();
                j = close + 1;
                break;
            }
            let k = j + span[j..]
                .find(|c: char| !is_ident_char(c) && c != '*')
                .unwrap_or(span.len() - j);
            if k == j {
                break;
            }
            for t in &mut tails {
                t.push(span[j..k].to_string());
            }
            j = k;
        }
        if tails[0].len() > 1 || crate_head {
            out.extend(tails);
        }
        i = j.max(i + 1);
    }
    out
}

/// Words of `span` that are repo paths, with trailing punctuation dropped.
fn path_words(t: &Tree, span: &str) -> Vec<String> {
    span.split_whitespace()
        .map(|w| w.trim_matches(|c: char| matches!(c, ',' | ';' | '(' | ')' | '"' | '\'')))
        .filter(|w| {
            // `a/b.rs`, `a/b.rs::item` or the refused `a/b.rs:12`.
            let path = w.split(':').next().unwrap();
            let ext = path.rsplit_once('.').map(|(_, e)| e);
            let first = path.split('/').next().unwrap();
            let fits = path
                .chars()
                .all(|c| is_ident_char(c) || matches!(c, '.' | '-' | '/' | '{' | '}' | ',' | '*'));
            fits && (path.contains('/')
                && (t.paths.contains(&format!("{first}/")) || SKIPPED_DIRS.contains(&first))
                || ext.is_some_and(|e| FILE_EXTS.contains(&e)))
        })
        .map(String::from)
        .collect()
}

fn is_snake(s: &str) -> bool {
    s.contains('_')
        && s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn is_camel(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase())
        && s.chars().any(|c| c.is_ascii_lowercase())
        && s.chars().all(|c| c.is_ascii_alphanumeric())
}

fn is_scenario_like(s: &str) -> bool {
    let head = s.split('_').next().unwrap();
    s.contains('_')
        && (head == "ext"
            || head
                .strip_prefix("fig")
                .is_some_and(|n| n.starts_with(|c: char| c.is_ascii_digit())))
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// What in one code span does not resolve.
fn span_problems(t: &Tree, span: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bad = |what: &str| format!("`{span}`: {what}");

    // Paths.
    let words = path_words(t, span);
    for word in &words {
        let (path, item) = match word.split_once("::") {
            Some((p, i)) => (p, Some(i)),
            None => (word.as_str(), None),
        };
        if let Some((_, line)) = path.rsplit_once(".rs:") {
            if line.starts_with(|c: char| c.is_ascii_digit()) {
                out.push(bad("a line reference; cite the item by name"));
                continue;
            }
        }
        if SKIPPED_DIRS
            .iter()
            .any(|d| path.starts_with(&format!("{d}/")))
        {
            continue;
        }
        for p in expand_braces(path) {
            let globbed = p
                .split_once('*')
                .map(|(pre, _)| pre.rsplit_once('/').map_or("", |(d, _)| d));
            let exists = match globbed {
                Some(dir) => t.path_exists(&format!("{dir}/")),
                None => t.path_exists(&p),
            };
            if !exists {
                out.push(bad(&format!("no path `{p}` in the repository")));
            } else if let Some(item) = item {
                let item = item.trim_end_matches("()");
                let file = |f: &File| {
                    f.src.path == p || !p.contains('/') && f.src.path.ends_with(&format!("/{p}"))
                };
                if t.defined_in(file, item) != Some(true) {
                    out.push(bad(&format!("`{p}` defines no `{item}`")));
                }
            }
        }
    }
    let chain_text: String = words
        .iter()
        .fold(span.to_string(), |s, w| s.replace(w.as_str(), " "));

    // `dc-x::…`, `Type::member` and `module::item` chains.
    for chain in chains(&chain_text) {
        let head = chain[0].as_str();
        let rest = &chain[1..];
        if head.starts_with("dc-") || head.starts_with("dc_") {
            let name = head.replace('_', "-");
            if name == REPORT_SCHEMA {
                continue;
            }
            if !t.crates.contains(&name) {
                out.push(bad(&format!("no crate `{name}`")));
                continue;
            }
            for seg in rest.iter().filter(|s| *s != "*") {
                if !t.crate_defines(&name, seg) {
                    out.push(bad(&format!("`{name}` defines no `{seg}`")));
                }
            }
        } else if rest[0] == "*" || STD_HEADS.contains(&head) {
            continue;
        } else if head.starts_with(|c: char| c.is_ascii_uppercase()) {
            let homes: Vec<&str> = t
                .files
                .iter()
                .filter(|f| f.src.defs.types.iter().any(|ty| ty == head))
                .filter_map(|f| f.krate.as_deref())
                .collect();
            if homes.is_empty() {
                out.push(bad(&format!("no type `{head}` in the workspace")));
            } else if !homes.iter().any(|k| t.crate_defines(k, &rest[0])) {
                out.push(bad(&format!("no `{}` where `{head}` is defined", rest[0])));
            }
        } else if t.crates.contains(head) {
            if !t.crate_defines(head, &rest[0]) {
                out.push(bad(&format!("`{head}` defines no `{}`", rest[0])));
            }
        } else {
            let module = |f: &File| f.src.path.rsplit('/').next() == Some(&format!("{head}.rs"));
            match t.defined_in(module, &rest[0]) {
                None => out.push(bad(&format!("no module `{head}`"))),
                Some(false) => out.push(bad(&format!("`{head}` defines no `{}`", rest[0]))),
                Some(true) => {}
            }
        }
    }

    // Dotted metric and span names.
    let s = span.trim_end_matches("()");
    let ext = s.rsplit_once('.').map(|(_, e)| e);
    let metric_like = s.contains('.')
        && !s.contains(' ')
        && !ext.is_some_and(|e| FILE_EXTS.contains(&e))
        && t.namespaces.contains(s.split('.').next().unwrap())
        && s.chars()
            .all(|c| is_ident_char(c) || ".<>{},*-".contains(c));
    if metric_like && words.is_empty() {
        for name in expand_braces(s) {
            let pattern: String = name
                .split('.')
                .map(|seg| if seg.starts_with('<') { "*" } else { seg })
                .collect::<Vec<_>>()
                .join(".");
            if !t.dotted.iter().any(|k| dotted_match(&pattern, k)) {
                out.push(bad(&format!("no non-test code defines `{name}`")));
            }
        }
    }

    // Scenarios and bare names.
    if is_scenario_like(span) {
        if !t.scenarios.contains(span) {
            out.push(bad("not a scenario of `dc_bench::scenario::runnable()`"));
        }
    } else if is_snake(span) || is_camel(span) {
        let known = t.idents.contains(span) || t.mutants.contains(span) || t.ci_jobs.contains(span);
        if !known {
            out.push(bad(
                "no such name in the Rust sources or the mutant catalogue",
            ));
        }
    }
    out
}

/// The `§N` / `§N.M` / `§N item K` cites in `text`: all of them in DESIGN.md
/// itself (except the paper's own sections), elsewhere those after `DESIGN.md`.
fn section_cites(text: &str, in_design: bool) -> Vec<(String, Option<u32>)> {
    let text = flat(text);
    let mut out = Vec::new();
    for (at, _) in text.match_indices('§') {
        let before = &text[..at];
        let cited = if in_design {
            !before.trim_end().ends_with("paper") && !before.trim_end().ends_with("paper's")
        } else {
            before
                .trim_end()
                .trim_end_matches('`')
                .ends_with("DESIGN.md")
        };
        if !cited {
            continue;
        }
        let after = &text[at + '§'.len_utf8()..];
        let sec: String = after
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let sec = sec.trim_end_matches('.').to_string();
        let item = after[sec.len()..]
            .strip_prefix(" item ")
            .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok());
        out.push((sec, item));
    }
    out
}

/// DESIGN.md's section numbers (`4`, `7.1`) and, per section, its numbered items.
fn design_outline() -> HashMap<String, HashSet<u32>> {
    let mut outline: HashMap<String, HashSet<u32>> = HashMap::new();
    let mut current = String::new();
    for line in read("DESIGN.md").lines() {
        let heading = line.strip_prefix("## ").or(line.strip_prefix("### "));
        if let Some(h) = heading {
            current = h
                .split(' ')
                .next()
                .unwrap()
                .trim_end_matches('.')
                .to_string();
            outline.entry(current.clone()).or_default();
        } else if let Some((n, _)) = line.split_once(". ") {
            if let Ok(n) = n.parse() {
                outline.get_mut(&current).map(|items| items.insert(n));
            }
        }
    }
    outline
}

/// Everything in one doc that does not resolve.
fn doc_problems(t: &Tree, doc: &str) -> Vec<String> {
    let mut out: Vec<String> = code_spans(doc)
        .iter()
        .flat_map(|s| span_problems(t, s))
        .collect();
    let text = flat(doc);
    for (at, _) in text.match_indices("CI's \"") {
        let step = text[at + 6..].split('"').next().unwrap();
        if !t.ci_steps.contains(step) {
            out.push(format!("CI's \"{step}\": no such step in ci.yml"));
        }
    }
    for (at, _) in text.match_indices("CI job `") {
        let job = text[at + 8..].split('`').next().unwrap();
        if !t.ci_jobs.contains(job) {
            out.push(format!("CI job `{job}`: no such job in ci.yml"));
        }
    }
    if text.contains("ROADMAP item") {
        out.push("cites a `ROADMAP item` number; say why in words".to_string());
    }
    out
}

fn assert_resolves(doc: &str) {
    let problems = doc_problems(tree(), &read(doc));
    assert!(
        problems.is_empty(),
        "{doc} cites {} thing(s) the tree does not have; fix the doc or the name:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn design_md_references_resolve() {
    assert_resolves("DESIGN.md");
}

#[test]
fn experiments_md_references_resolve() {
    assert_resolves("EXPERIMENTS.md");
}

#[test]
fn readme_references_resolve() {
    assert_resolves("README.md");
}

/// The numbers a line quotes as written: integers of at least 1,000 (commas
/// allowed) and `k` numbers (`75.2k`, `8k`).
fn quoted_numbers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident_char(c) && c != ',' && c != '.')
        .map(|w| w.trim_end_matches([',', '.']))
        .filter(|w| {
            let digits = w.strip_suffix('k').unwrap_or(w).replace(',', "");
            w.starts_with(|c: char| c.is_ascii_digit())
                && if w.ends_with('k') {
                    digits.parse::<f64>().is_ok()
                } else {
                    digits.parse::<u64>().is_ok_and(|v| v >= 1_000)
                }
        })
}

/// Whether a quoted number is one of `cells` as the doc writes it: the same
/// text, an integer by value, or a `k` number rounded to the decimals shown.
fn is_cell(n: &str, cells: &[&str]) -> bool {
    let n = n.replace(',', "");
    let decimals = n.split_once('.').map_or(0, |(_, d)| d.len() - 1);
    cells.iter().any(|&c| {
        let value = c.replace(',', "").parse::<f64>();
        c == n || value.is_ok_and(|v| v.to_string() == n || format!("{:.decimals$}k", v / 1e3) == n)
    })
}

/// Each number a figure section of `doc` quotes on its `**Measured**` lines
/// and table rows that is no cell or header of the baseline of the scenario
/// its `*Regenerate:*` line names.
fn stale_numbers(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    for section in doc.split("\n## ").skip(1) {
        let Some(scenario) = section
            .split_once("*Regenerate:* `")
            .and_then(|(_, rest)| rest.split('`').next()?.split_whitespace().last())
        else {
            continue;
        };
        let baseline = root().join(format!("baselines/{scenario}.json"));
        let report = LoadedReport::from_path(&baseline).unwrap_or_else(|e| panic!("{e}"));
        let cells: Vec<&str> = report
            .tables
            .iter()
            .flat_map(|t| t.headers.iter().chain(t.rows.iter().flatten()))
            .map(String::as_str)
            .collect();
        let mut measured = false;
        for line in section.lines() {
            if line.is_empty() || line.starts_with("**") {
                measured = line.starts_with("**Measured");
            }
            if measured || line.starts_with('|') {
                out.extend(
                    quoted_numbers(line)
                        .filter(|n| !is_cell(n, &cells))
                        .map(|n| format!("{scenario}: {n}")),
                );
            }
        }
    }
    out
}

/// Every number EXPERIMENTS.md quotes from a figure's measurement is the
/// committed baseline's: a re-bless that moves one fails here until the doc
/// moves with it.
#[test]
fn experiments_md_quotes_the_baselines_numbers() {
    let stale = stale_numbers(&read("EXPERIMENTS.md"));
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md quotes numbers its baselines do not hold; copy each from \
         baselines/<scenario>.json:\n{}",
        stale.join("\n")
    );
}

/// The check above can fail: on a made-up section, a stale integer, a stale
/// `k` number and a stale table cell are reported, and the numbers the
/// baseline holds, the prose outside `**Measured**` and small integers are not.
#[test]
fn a_stale_quoted_number_is_reported() {
    let doc = "# x\n\n## Figure 6\n*Regenerate:* `… dc-bench -- run fig6_coopcache`\n\n\
               AC 99999 in prose is not checked.\n\
               **Measured** (8k/16k): AC 10046/10,188 (10.0k, 10k), 12 runs;\n\
               BCC 12939 and 13.3k.\n**Verdict:** 99999 is not checked either.\n\n\
               | scheme | 8k |\n|---|---|\n| AC | 5,361 |\n| BCC | 7,325 |\n";
    let stale = stale_numbers(doc).join(", ");
    assert_eq!(
        stale,
        "fig6_coopcache: 12939, fig6_coopcache: 13.3k, fig6_coopcache: 7,325"
    );
}

/// The metric table in EXPERIMENTS.md "Tracing a run" lists every name
/// non-test code registers; a new metric gets its row in the same change.
#[test]
fn every_registered_metric_is_in_the_catalogue() {
    let missing = unlisted("| metric |", &tree().registered);
    assert!(
        missing.is_empty(),
        "registered but not in EXPERIMENTS.md's metric table: {missing:?}"
    );
}

/// The span table in EXPERIMENTS.md "Tracing a run" lists every literal
/// name non-test code passes the tracer; a new span, instant or flow gets
/// its row in the same change.
#[test]
fn every_traced_name_is_in_the_catalogue() {
    assert!(
        tree().traced.len() >= 25,
        "{} traced names found: the scan lost its calls",
        tree().traced.len()
    );
    let missing = unlisted("| name | kind |", &tree().traced);
    assert!(
        missing.is_empty(),
        "traced but not in EXPERIMENTS.md's span table: {missing:?}"
    );
}

/// The `names` that the EXPERIMENTS.md table under `header` does not list.
fn unlisted<'a>(header: &str, names: &'a BTreeSet<String>) -> Vec<&'a String> {
    let table: HashSet<String> = read("EXPERIMENTS.md")
        .lines()
        .skip_while(|l| !l.starts_with(header))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.split('`').nth(1))
        .flat_map(expand_braces)
        .collect();
    assert!(!table.is_empty(), "EXPERIMENTS.md has no `{header}` table");
    names.iter().filter(|m| !table.contains(*m)).collect()
}

/// DESIGN.md's crate contracts: each `## N. `dc-x` …` section by crate.
fn contracts(doc: &str) -> HashMap<&str, Vec<&str>> {
    let mut sections: HashMap<&str, Vec<&str>> = HashMap::new();
    for section in doc.split("\n## ").skip(1) {
        let heading = section.lines().next().unwrap();
        if let Some(name) = heading
            .split('`')
            .nth(1)
            .filter(|_| heading.contains(". `dc-"))
        {
            sections.entry(name).or_default().push(section);
        }
    }
    sections
}

/// The test functions a contract cites as its guards.
fn guards(section: &str, tests: &HashSet<&str>) -> BTreeSet<String> {
    let names = code_spans(section).into_iter();
    let names = names.map(|s| s.rsplit("::").next().unwrap().to_string());
    names.filter(|n| tests.contains(n.as_str())).collect()
}

/// Every crate but the re-export shim has exactly one `## N. `dc-x` …`
/// section, naming at least one test function and at least one CI step or
/// mutant entry that guards it.
#[test]
fn every_crate_has_one_contract() {
    let (t, tests) = (tree(), test_fns());
    let doc = read("DESIGN.md");
    let mut sections = contracts(&doc);
    let mut problems = Vec::new();
    let mut crates: Vec<&String> = t.crates.iter().filter(|c| c.starts_with("dc-")).collect();
    crates.sort();
    for name in crates {
        let found = sections.remove(name.as_str()).unwrap_or_default();
        if name == SHIM_CRATE {
            continue;
        }
        if found.len() != 1 {
            problems.push(format!("{name}: {} contract sections, want 1", found.len()));
            continue;
        }
        let spans = code_spans(found[0]);
        if guards(found[0], &tests).is_empty() {
            problems.push(format!("{name}: the contract names no test function"));
        }
        let text = flat(found[0]);
        let steps = text.match_indices("CI's \"").any(|(at, _)| {
            t.ci_steps
                .contains(text[at + 6..].split('"').next().unwrap())
        });
        if !steps && !spans.iter().any(|s| t.mutants.contains(s)) {
            problems.push(format!(
                "{name}: the contract names no CI step or mutant entry"
            ));
        }
    }
    problems.extend(
        sections
            .keys()
            .map(|n| format!("{n}: a contract for a crate that does not exist")),
    );
    assert!(
        problems.is_empty(),
        "DESIGN.md contracts:\n{}",
        problems.join("\n")
    );
}

/// README's test list says how many tests the crate contracts cite as
/// guards, and how many of those no mutant has shown able to fail (no
/// `kill` in `tests/mutants.txt` names them). The failure lists them.
#[test]
fn readme_counts_the_guards_no_mutant_kills() {
    let tests = test_fns();
    let killed: HashSet<String> = read("tests/mutants.txt")
        .lines()
        .filter_map(|l| l.strip_prefix("kill: ")?.split_whitespace().last())
        .map(String::from)
        .collect();
    let doc = read("DESIGN.md");
    let mut sections: Vec<_> = contracts(&doc).into_iter().collect();
    sections.sort();
    let (mut cited, mut unkilled) = (BTreeSet::new(), BTreeSet::new());
    let mut listing = Vec::new();
    for (name, found) in sections {
        let guards: BTreeSet<String> = found.iter().flat_map(|s| guards(s, &tests)).collect();
        let open: Vec<&String> = guards.iter().filter(|g| !killed.contains(*g)).collect();
        listing.push(format!(
            "{name} ({} of {}): {open:?}",
            open.len(),
            guards.len()
        ));
        unkilled.extend(open.into_iter().cloned());
        cited.extend(guards);
    }
    let want = format!(
        "cite {} test guards, and {} of them",
        cited.len(),
        unkilled.len()
    );
    assert!(
        flat(&read("README.md")).contains(&want),
        "README.md must say \"{want}\" no mutant kills yet; by contract:\n{}",
        listing.join("\n")
    );
}

/// A `DESIGN.md §N` cite names an existing heading, wherever it is written.
#[test]
fn design_section_cites_resolve() {
    let outline = design_outline();
    let docs = [
        "DESIGN.md",
        "EXPERIMENTS.md",
        "README.md",
        "tests/mutants.txt",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ];
    let code = sources().iter().filter(|s| s.path != THIS_FILE);
    let code = code.map(|s| (s.path.as_str(), s.text.to_string()));
    let mut problems = Vec::new();
    for (file, text) in docs.map(|d| (d, read(d))).into_iter().chain(code) {
        for (sec, item) in section_cites(&text, file == "DESIGN.md") {
            match (outline.get(&sec), item) {
                (None, _) => problems.push(format!("{file}: §{sec} is no heading of DESIGN.md")),
                (Some(items), Some(n)) if !items.contains(&n) => {
                    problems.push(format!("{file}: §{sec} has no item {n}"))
                }
                _ => {}
            }
        }
    }
    assert!(
        problems.is_empty(),
        "stale DESIGN.md cites:\n{}",
        problems.join("\n")
    );
}

/// Comments in `crates/*/src` give reasons, not ROADMAP item numbers.
#[test]
fn code_comments_cite_no_roadmap_item_numbers() {
    let offenders: Vec<&str> = sources()
        .iter()
        .filter(|s| s.path.starts_with("crates/") && s.path.contains("/src/"))
        .filter(|s| {
            let text: Vec<&str> = s
                .comments
                .iter()
                .map(|c| c.text.trim_start_matches(['/', '!']))
                .collect();
            flat(&text.join(" ")).contains("ROADMAP item")
        })
        .map(|s| s.path.as_str())
        .collect();
    assert!(
        offenders.is_empty(),
        "`ROADMAP item` in comments of {offenders:?}"
    );
}

/// The checks above can fail: one broken reference of each kind is
/// reported, and its working twin is not.
#[test]
fn each_kind_of_broken_reference_is_reported() {
    let t = tree();
    let cases = [
        ("crates/sim/src/wheel.rs", "crates/sim/src/whee.rs"),
        (
            "crates/sim/src/wheel.rs::wheel_pop_order_matches_heap",
            "crates/sim/src/wheel.rs::wheel_pops",
        ),
        ("wheel.rs", "dc-fabric/src/model.rs"),
        ("dc_sim::sync::Semaphore", "dc_sim::sync::Notify"),
        ("dc-fabric::{kstat, faults}", "dc-fabric::{kstat, model2}"),
        ("Cluster::try_rdma_read_sg", "Cluster::try_rdma_read_all"),
        ("flow::pack_imm", "flow::pack_header"),
        ("fig5a_lock_shared", "fig5c_lock_shared"),
        ("fabric.verbs.cas", "fabric.verbs.xor"),
        (
            "svc.<name>.{requests,shed}",
            "svc.<name>.{requests,dropped}",
        ),
        ("endpoints_reuse_their_slots", "endpoints_reuse_their_slot"),
        ("monitor_spawns_a_task_per_probe", "monitor_spawns_a_task"),
    ];
    for (good, broken) in cases {
        assert_eq!(
            span_problems(t, good),
            Vec::<String>::new(),
            "`{good}` must resolve"
        );
        assert!(
            !span_problems(t, broken).is_empty(),
            "`{broken}` must be reported"
        );
    }
    assert!(!span_problems(t, "crates/sim/src/wheel.rs:120").is_empty());
    let doc = "CI's \"rustfmt\" and CI job `mutants` hold; ROADMAP item 3 is no reason.\n\
               CI's \"No task-per-probe fan-out\" is gone. CI job `lints` never was.";
    let found = doc_problems(t, doc);
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(
        found.iter().any(|p| p.contains("No task-per-probe")),
        "{found:?}"
    );
    assert!(found.iter().any(|p| p.contains("`lints`")), "{found:?}");
    assert!(
        found.iter().any(|p| p.contains("ROADMAP item")),
        "{found:?}"
    );
    let cites = section_cites(
        "as DESIGN.md §4 item 11 and `DESIGN.md` §7.1 say; the paper's §6",
        false,
    );
    assert_eq!(
        cites,
        [("4".to_string(), Some(11)), ("7.1".to_string(), None)]
    );
}
