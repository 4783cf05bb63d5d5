//! Structural lints: each rule keeps a deleted structure deleted, or a
//! structure in the one place it belongs. The rules read the tree through
//! `tests/common`, so they match tokens, not text: a string literal or a
//! comment that spells a banned name is not that name. The executor rule
//! is the one that reads comments too.
//!
//! `RULES` is the one table. Each `#[test]` below holds the tree to the
//! rules of its `step`; `each_rule_rejects_its_form_in_code_only` proves,
//! on in-memory source, that each rule can fail, and `tests/mutants.txt`
//! brings each banned structure back into real source (DESIGN.md §6).

mod common;

use common::{sources, walk, Defs, Kind, Source, Tok};
use std::collections::{BTreeMap, HashSet};
use std::sync::OnceLock;

/// Where the workspace's own Rust code lives.
const CODE: [&str; 4] = ["crates/", "src/", "tests/", "examples/"];
const EXECUTOR: &str = "crates/sim/src/executor.rs";
/// Indices in `RULES` of the two rules with self-tests of their own.
const BOX_PIN: usize = 1;
const SAFETY: usize = 3;

/// One occurrence of a rule's form: its line and what it reads as.
struct Hit {
    line: usize,
    form: String,
}

/// What a rule's in-memory sample shows it reads.
#[derive(Clone, Copy, PartialEq)]
enum Reads {
    /// Code tokens: the form inside a string literal or comment is no hit.
    Code,
    /// Code tokens and comments, but not string literals.
    CodeAndComments,
    /// A file's path alone.
    Paths,
}

struct Rule {
    /// The `#[test]` that holds the tree to this rule.
    step: &'static str,
    /// What the rule keeps, in a line.
    what: &'static str,
    paths: fn(&str) -> bool,
    find: Find,
    /// The hits the tree must have, each exactly once, as `path: form`
    /// (`path` alone for a path rule); empty for a ban.
    allowed: &'static [&'static str],
    reads: Reads,
    /// A file, and text in it that the rule must reject.
    sample: (&'static str, &'static str),
}

enum Find {
    /// Any of these token patterns (see `pattern`).
    Tokens(&'static [&'static [&'static str]]),
    /// A predicate of its own.
    By(fn(&Source) -> Vec<Hit>),
}

const RULES: [Rule; 17] = [
    Rule {
        step: "only_dc_svc_and_dc_fabric_bind_ports",
        what: "no `cluster.bind(` outside dc-svc and dc-fabric; bind through dc_svc::bind_raw",
        paths: |p| code(p) && !p.starts_with("crates/svc/") && !p.starts_with("crates/fabric/"),
        find: Find::Tokens(&[&["*cluster", ".", "bind", "("]]),
        allowed: &[],
        reads: Reads::Code,
        sample: ("crates/dlm/src/x.rs", "let ep = cluster.bind(node, port);"),
    },
    Rule {
        step: "the_executor_is_safe_code_with_one_box_pin",
        what: "non-test executor code boxes a task only in the registry-miss arm",
        paths: |p| p == EXECUTOR,
        find: Find::By(box_pin_lines),
        allowed: &["crates/sim/src/executor.rs: None=>Box::pin(fut),"],
        reads: Reads::Code,
        sample: (EXECUTOR, "let task = Box::pin(fut);"),
    },
    Rule {
        step: "the_executor_is_safe_code_with_one_box_pin",
        what: "the executor names no `unsafe` and no `RawWaker`, not even in a comment",
        paths: |p| p == EXECUTOR,
        find: Find::By(unsafe_or_raw_waker),
        allowed: &[],
        reads: Reads::CodeAndComments,
        sample: (EXECUTOR, "let w = RawWaker::new(p, &VTABLE);"),
    },
    Rule {
        step: "every_unsafe_site_has_a_safety_comment",
        what: "a `// SAFETY:` comment line right above each `unsafe {` and `unsafe impl`",
        paths: code,
        find: Find::By(unsafe_without_safety),
        allowed: &[],
        reads: Reads::Code,
        sample: (
            "crates/sim/src/join.rs",
            "let p = unsafe { Pin::new_unchecked(f) };",
        ),
    },
    Rule {
        step: "no_per_kind_stream_structs",
        what: "SDP and packetized flow control are one pipeline: no per-kind sender or receiver",
        paths: code,
        find: Find::Tokens(&[
            &["*CreditTx*"],
            &["*PackTx*"],
            &["*CreditRx*"],
            &["*PackRx*"],
        ]),
        allowed: &[],
        reads: Reads::Code,
        sample: (
            "crates/sockets/src/stream.rs",
            "struct CreditTx { window: u32 }",
        ),
    },
    Rule {
        step: "no_hand_rolled_word_table",
        what: "a table of u64 words is dc_fabric::WordTable: no `offset: i * 8`, no hand decoding",
        paths: |p| {
            let dirs = ["dlm", "coopcache", "reconfig", "ddss"].map(|c| format!("crates/{c}/src/"));
            dirs.iter()
                .any(|d| p.starts_with(d.as_str()) && p.ends_with(".rs"))
        },
        find: Find::By(word_by_hand),
        allowed: &[],
        reads: Reads::Code,
        sample: (
            "crates/dlm/src/x.rs",
            "let a = RemoteAddr { node, offset: i * 8 };",
        ),
    },
    Rule {
        step: "one_fifo_wait_queue",
        what: "a task that parks until another hands it something parks in Semaphore",
        paths: code,
        find: Find::Tokens(&[&["Notify"]]),
        allowed: &[],
        reads: Reads::Code,
        sample: ("crates/sim/src/sync/mod.rs", "pub struct Notify;"),
    },
    Rule {
        step: "one_fifo_wait_queue",
        what: "`struct Waiter` is the semaphore's alone",
        paths: |p| {
            code(p)
                || p.ends_with(".rs")
                    && ["benchmark/src/", "vendored/"]
                        .iter()
                        .any(|d| p.starts_with(d))
        },
        find: Find::Tokens(&[&["struct", "Waiter"]]),
        allowed: &["crates/sim/src/sync/semaphore.rs: struct Waiter"],
        reads: Reads::Code,
        sample: (
            "crates/sim/src/sync/mpsc.rs",
            "struct Waiter { waker: Waker }",
        ),
    },
    Rule {
        step: "one_record_per_fact",
        what: "a semaphore's wait queue is its ledger: no side list of granted tickets",
        paths: |p| p == "crates/sim/src/sync/semaphore.rs",
        find: Find::Tokens(&[&["granted", ":"], &[".", "granted"]]),
        allowed: &[],
        reads: Reads::Code,
        sample: ("crates/sim/src/sync/semaphore.rs", "granted: Vec<u64>,"),
    },
    Rule {
        step: "one_record_per_fact",
        what: "one histogram backing, and the `fault.*` counters are the only fault count",
        paths: code,
        find: Find::Tokens(&[
            &["*hist_streaming*"],
            &["*HistBacking*"],
            &["*FaultMirror*"],
            &["*bind_counters*"],
        ]),
        allowed: &[],
        reads: Reads::Code,
        sample: (
            "crates/trace/src/metrics.rs",
            "enum HistBacking { Streaming, Exact }",
        ),
    },
    Rule {
        step: "one_record_per_fact",
        what: "SplitMix64 is dc_sim::rng::splitmix64",
        paths: |p| code(p) && p != "crates/sim/src/rng.rs",
        find: Find::Tokens(&[&["fn", "splitmix64*"]]),
        allowed: &[],
        reads: Reads::Code,
        sample: (
            "crates/fabric/src/faults.rs",
            "fn splitmix64(x: u64) -> u64 { x }",
        ),
    },
    Rule {
        step: "one_record_per_fact",
        what: "an eRPC slot table is the only record of outstanding requests",
        paths: code,
        find: Find::Tokens(&[&["struct", "Credits*"]]),
        allowed: &[],
        reads: Reads::Code,
        sample: ("crates/sockets/src/erpc.rs", "struct Credits { free: u32 }"),
    },
    Rule {
        step: "one_record_per_fact",
        what: "an eRPC slot is outstanding iff it holds its request: no `busy` flag",
        paths: |p| p == "crates/sockets/src/erpc.rs",
        find: Find::Tokens(&[&["busy", ":"]]),
        allowed: &[],
        reads: Reads::Code,
        sample: ("crates/sockets/src/erpc.rs", "busy: Cell<bool>,"),
    },
    Rule {
        step: "one_record_per_fact",
        what: "the vendored serde derive expands to nothing, so none is written",
        paths: |p| code(p) && p.starts_with("crates/"),
        find: Find::By(serde_derives),
        allowed: &[],
        reads: Reads::Code,
        sample: (
            "crates/core/src/x.rs",
            "#[derive(Debug, Serialize)]\nstruct Report;",
        ),
    },
    Rule {
        step: "one_front_door",
        what: "`dc-bench` is the only binary under crates/",
        paths: |p| p.starts_with("crates/") && p.contains("/src/bin/") && p.ends_with(".rs"),
        find: Find::By(whole_file),
        allowed: &["crates/bench/src/bin/dc_bench.rs"],
        reads: Reads::Paths,
        sample: ("crates/regress/src/bin/regress.rs", "fn main() {}"),
    },
    Rule {
        step: "one_front_door",
        what: "dc-regress is its lib.rs of re-exports and nothing else",
        paths: |p| p.starts_with("crates/regress/src/"),
        find: Find::By(whole_file),
        allowed: &["crates/regress/src/lib.rs"],
        reads: Reads::Paths,
        sample: ("crates/regress/src/main.rs", "fn main() {}"),
    },
    Rule {
        step: "one_front_door",
        what: "dc-regress declares no `[[bin]]`",
        paths: |p| p == "crates/regress/Cargo.toml",
        find: Find::By(toml_bins),
        allowed: &[],
        reads: Reads::Code,
        sample: ("crates/regress/Cargo.toml", "[[bin]]\nname = \"regress\""),
    },
];

/// A Rust file of the workspace's own code.
fn code(path: &str) -> bool {
    path.ends_with(".rs") && CODE.iter().any(|d| path.starts_with(d))
}

/// `t` against one element of a pattern: `x*` is a prefix, `*x` a suffix,
/// `*x*` a part, anything else the whole text.
fn glob(p: &str, t: &str) -> bool {
    match (p.strip_prefix('*'), p.strip_suffix('*')) {
        (Some(_), Some(_)) => t.contains(&p[1..p.len() - 1]),
        (Some(suffix), None) => t.ends_with(suffix),
        (None, Some(prefix)) => t.starts_with(prefix),
        (None, None) => t == p,
    }
}

/// Each place where consecutive tokens, none of them a literal, match
/// `pat` element by element.
fn pattern(toks: &[Tok], pat: &[&str]) -> Vec<Hit> {
    let at = |i: usize| {
        let run = toks[i..].iter().zip(pat);
        run.into_iter()
            .all(|(t, p)| t.kind != Kind::Lit && glob(p, t.text))
    };
    let starts = 0..(toks.len() + 1).saturating_sub(pat.len());
    starts
        .filter(|&i| at(i))
        .map(|i| Hit {
            line: toks[i].line,
            form: pat.join(" "),
        })
        .collect()
}

/// Each `Box::pin` of non-test code, as its whole line.
fn box_pin_lines(s: &Source) -> Vec<Hit> {
    let code: Vec<Tok> = s.toks.iter().filter(|t| !t.test).copied().collect();
    let line = |l: usize| {
        code.iter()
            .filter(|t| t.line == l)
            .map(|t| t.text)
            .collect()
    };
    let pins = pattern(&code, &["Box", ":", ":", "pin"]).into_iter();
    pins.map(|h| Hit {
        form: line(h.line),
        ..h
    })
    .collect()
}

fn unsafe_or_raw_waker(s: &Source) -> Vec<Hit> {
    let banned = |text: &str| text.contains("unsafe") || text.contains("RawWaker");
    let comments = s.comments.iter().filter(|c| banned(c.text));
    let comments = comments.map(|c| Hit {
        line: c.line,
        form: c.text.to_string(),
    });
    let code = [["*unsafe*"], ["*RawWaker*"]]
        .into_iter()
        .flat_map(|p| pattern(&s.toks, &p));
    code.chain(comments).collect()
}

/// Each `unsafe {` and `unsafe impl` whose block of whole-line `//`
/// comments directly above has no `SAFETY:` line.
fn unsafe_without_safety(s: &Source) -> Vec<Hit> {
    let code_lines: HashSet<usize> = s.toks.iter().map(|t| t.line).collect();
    let whole_line = s
        .comments
        .iter()
        .filter(|c| c.text.starts_with("//") && !code_lines.contains(&c.line));
    let above: BTreeMap<usize, &str> = whole_line.map(|c| (c.line, c.text)).collect();
    let says_why = |line: usize| {
        (1..line)
            .rev()
            .map_while(|l| above.get(&l))
            .any(|c| c.contains("SAFETY:"))
    };
    let sites = [["unsafe", "{"], ["unsafe", "impl"]]
        .into_iter()
        .flat_map(|p| pattern(&s.toks, &p));
    sites.filter(|h| !says_why(h.line)).collect()
}

/// A word address computed as `offset: … * 8` on one line, or an 8-byte
/// read decoded by hand.
fn word_by_hand(s: &Source) -> Vec<Hit> {
    let t = &s.toks;
    let mut out = pattern(t, &["u64", ":", ":", "from_le_bytes", "(", "raw*"]);
    for (i, field) in t.iter().enumerate() {
        if !field.is("offset") || !t.get(i + 1).is_some_and(|c| c.is(":")) {
            continue;
        }
        let value = t[i + 2..]
            .iter()
            .take_while(|v| v.line == field.line && !v.is(",") && !v.is("}"));
        let value: Vec<&Tok> = value.collect();
        let times_8 =
            |w: &[&Tok]| w[0].is("*") && w[1].kind == Kind::Lit && w[1].text.starts_with('8');
        if value.windows(2).any(times_8) {
            out.push(Hit {
                line: field.line,
                form: "offset: .. * 8".to_string(),
            });
        }
    }
    out
}

/// A `derive(…)` that names `Serialize` or `Deserialize`.
fn serde_derives(s: &Source) -> Vec<Hit> {
    let t = &s.toks;
    let serde = |i: usize| {
        let close = common::matching(t, i + 1);
        t[i + 2..close]
            .iter()
            .any(|x| x.is("Serialize") || x.is("Deserialize"))
    };
    let derives =
        (0..t.len()).filter(|&i| t[i].is("derive") && t.get(i + 1).is_some_and(|n| n.is("(")));
    derives
        .filter(|&i| serde(i))
        .map(|i| Hit {
            line: t[i].line,
            form: "derive(Serialize)".to_string(),
        })
        .collect()
}

/// A path rule's one hit per file.
fn whole_file(_: &Source) -> Vec<Hit> {
    vec![Hit {
        line: 1,
        form: String::new(),
    }]
}

fn toml_bins(s: &Source) -> Vec<Hit> {
    let lines = (1..)
        .zip(s.text.lines())
        .filter(|(_, l)| l.starts_with("[[bin]]"));
    lines
        .map(|(line, _)| Hit {
            line,
            form: "[[bin]]".to_string(),
        })
        .collect()
}

/// Every Rust source the self-checks read, plus the other files under
/// `crates/` (manifests), those as text only.
fn tree() -> &'static [&'static Source] {
    static TREE: OnceLock<Vec<&'static Source>> = OnceLock::new();
    TREE.get_or_init(|| {
        let other = walk("crates").into_iter();
        let other = other.filter(|p| !p.ends_with('/') && !p.ends_with(".rs"));
        let other = other.map(|p| {
            let text = Box::leak(common::read(&p).into_boxed_str());
            let file = Source {
                path: p,
                text,
                toks: Vec::new(),
                comments: Vec::new(),
                defs: Defs::default(),
            };
            &*Box::leak(Box::new(file))
        });
        sources().iter().chain(other).collect()
    })
}

/// `path:line: form` for each hit of `rule` in `files`, keyed by what the
/// `allowed` list spells.
fn hits<'a>(rule: &Rule, files: impl IntoIterator<Item = &'a Source>) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for s in files.into_iter().filter(|s| (rule.paths)(&s.path)) {
        let found = match rule.find {
            Find::Tokens(pats) => pats.iter().flat_map(|p| pattern(&s.toks, p)).collect(),
            Find::By(find) => find(s),
        };
        for h in found {
            let (key, at) = match h.form.as_str() {
                "" => (s.path.clone(), s.path.clone()),
                form => (
                    format!("{}: {form}", s.path),
                    format!("{}:{}: {form}", s.path, h.line),
                ),
            };
            out.push((key, at));
        }
    }
    out
}

/// What is wrong with `files` under `rule`: a hit it does not allow, or an
/// allowed hit missing or repeated.
fn violations<'a>(rule: &Rule, files: impl IntoIterator<Item = &'a Source>) -> Vec<String> {
    let found = hits(rule, files);
    let mut out: Vec<String> = found
        .iter()
        .filter(|(key, _)| !rule.allowed.contains(&key.as_str()))
        .map(|(_, at)| format!("{at}   [{}]", rule.what))
        .collect();
    for want in rule.allowed {
        let n = found.iter().filter(|(key, _)| key == want).count();
        if n != 1 {
            out.push(format!(
                "`{want}` occurs {n} times, want 1   [{}]",
                rule.what
            ));
        }
    }
    out
}

fn holds(step: &str) {
    let rules: Vec<&Rule> = RULES.iter().filter(|r| r.step == step).collect();
    assert!(!rules.is_empty(), "no rule has step `{step}`");
    let found: Vec<String> = rules
        .iter()
        .flat_map(|r| violations(r, tree().iter().copied()))
        .collect();
    assert!(found.is_empty(), "{step}:\n{}", found.join("\n"));
}

/// The service runtime owns the recv pump; data-plane endpoints bind
/// through `dc_svc::bind_raw`.
#[test]
fn only_dc_svc_and_dc_fabric_bind_ports() {
    holds("only_dc_svc_and_dc_fabric_bind_ports");
}

/// Task wakers are std's `Wake` over an `Arc` (DESIGN.md §7), and a
/// finished task's cell is refilled by the next spawn of its future type:
/// only a registry miss boxes.
#[test]
fn the_executor_is_safe_code_with_one_box_pin() {
    holds("the_executor_is_safe_code_with_one_box_pin");
}

#[test]
fn every_unsafe_site_has_a_safety_comment() {
    holds("every_unsafe_site_has_a_safety_comment");
}

/// What differs between SDP and packetized flow control lives in `Window`.
#[test]
fn no_per_kind_stream_structs() {
    holds("no_per_kind_stream_structs");
}

/// Where word i lives and how it decodes are written once, in `WordTable`.
#[test]
fn no_hand_rolled_word_table() {
    holds("no_hand_rolled_word_table");
}

/// `dc_sim::sync::Semaphore` is the wake-up signal, the CPU's cores and
/// every stream send window.
#[test]
fn one_fifo_wait_queue() {
    holds("one_fifo_wait_queue");
}

#[test]
fn one_record_per_fact() {
    holds("one_record_per_fact");
}

/// `dc-bench` lists, runs, blesses, checks, compares and evaluates claims.
#[test]
fn one_front_door() {
    holds("one_front_door");
}

/// The sample as code, inside a string literal, and commented out.
fn variants(path: &str, text: &str) -> [String; 3] {
    if path.ends_with(".toml") {
        return [text.into(), format!("x = '{text}'"), format!("# {text}")];
    }
    let commented: Vec<String> = text.lines().map(|l| format!("// {l}")).collect();
    [
        text.into(),
        format!("const S: &str = r#\"{text}\"#;"),
        commented.join("\n"),
    ]
}

/// Each rule rejects its sample in code, and ignores it inside a string
/// literal and a comment; the executor rule rejects a comment too.
#[test]
fn each_rule_rejects_its_form_in_code_only() {
    for rule in &RULES {
        let (path, text) = rule.sample;
        let [code, literal, comment] = variants(path, text).map(|v| {
            let file = Source::new(path, Box::leak(v.into_boxed_str()));
            !hits(rule, [&file])
                .iter()
                .all(|(key, _)| rule.allowed.contains(&key.as_str()))
        });
        let want = match rule.reads {
            Reads::Code => [true, false, false],
            Reads::CodeAndComments => [true, false, true],
            Reads::Paths => [true, true, true],
        };
        assert_eq!(
            [code, literal, comment],
            want,
            "`{}` on {path}: rejected as [code, literal, comment]",
            rule.what
        );
    }
}

/// The comment block must sit directly above the `unsafe`: a SAFETY line
/// above a blank or code line does not count, nor one in a trailing comment.
#[test]
fn safety_comment_must_sit_directly_above() {
    let rule = &RULES[SAFETY];
    let cases = [
        (
            "// SAFETY: f is pinned.\n// More.\nlet p = unsafe { g(f) };",
            true,
        ),
        (
            "// SAFETY: the impl is sound.\nunsafe impl Send for X {}",
            true,
        ),
        ("// SAFETY: f is pinned.\n\nlet p = unsafe { g(f) };", false),
        (
            "// SAFETY: f is pinned.\nlet q = 1;\nlet p = unsafe { g(f) };",
            false,
        ),
        ("let p = unsafe { g(f) }; // SAFETY: f is pinned.", false),
        (
            "/* SAFETY: f is pinned. */\nlet p = unsafe { g(f) };",
            false,
        ),
        ("// Why not.\nunsafe impl Send for X {}", false),
        ("// SAFETY: not an unsafe block.\nunsafe fn f() {}", true),
    ];
    for (text, ok) in cases {
        let file = Source::new("src/x.rs", text);
        assert_eq!(violations(rule, [&file]).is_empty(), ok, "{text}");
    }
}

/// The executor's one `Box::pin` may move lines, but a second one, or a
/// miss arm that stops boxing, is reported.
#[test]
fn the_box_pin_rule_wants_exactly_the_miss_arm() {
    let rule = &RULES[BOX_PIN];
    let check = |text: &'static str| violations(rule, [&Source::new(EXECUTOR, text)]).len();
    assert_eq!(check("match x {\n    None => Box::pin(fut),\n}"), 0);
    assert_eq!(check("match x {\n    None => Box::new(fut),\n}"), 1);
    assert_eq!(check("None => Box::pin(fut),\nlet b = Box::pin(g);"), 1);
    assert_eq!(
        check("None => Box::pin(fut),\n#[cfg(test)]\nfn t() { Box::pin(g); }"),
        0
    );
}

/// Every `step` is a test of this file, and every rule of the former
/// shell steps is in the table.
#[test]
fn every_step_is_a_test() {
    let this = sources()
        .iter()
        .find(|s| s.path == "tests/lints.rs")
        .unwrap();
    let steps: HashSet<&str> = RULES.iter().map(|r| r.step).collect();
    for step in &steps {
        assert!(
            this.defs.tests.iter().any(|t| t == step),
            "`{step}` is no #[test] here"
        );
    }
    assert_eq!(steps.len(), 8);
}
