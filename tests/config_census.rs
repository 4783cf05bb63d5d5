//! One value, one constant (DESIGN.md §4 item 4), and a public surface
//! that something reads, checked on every `cargo test`.
//!
//! * **Config fields.** A `pub` field of a `*Cfg`, `*Config`, `*Policy` or
//!   `*Spec` struct defined under `crates/*/src` exists only while some
//!   caller sets it to something other than its default. Every struct
//!   literal (`T { f: e, .. }`, shorthand `T { f }`, `Self { .. }` inside
//!   `impl T`) and every `.f = e` assignment in `crates/`, `src/`, `tests/`,
//!   `examples/` and `benchmark/src` is a setter; the `Default` impl, a
//!   derived `Default` and named profiles such as `AdaptCfg::coarse` count
//!   too. A field whose setters all give it the same expression (comments
//!   and spacing ignored) is reported: it is a `const` in the module that
//!   reads it. An assignment names no type, so it counts for every config
//!   type with a field of that name.
//! * **Environment variables.** Non-test code under `crates/*/src` reads
//!   none: a knob is a field some caller sets, never a variable a process
//!   inherits.
//! * **Public surface.** Every `pub` fn, method, const and named field in
//!   non-test code under `crates/*/src` has a reader: a token naming it,
//!   outside its own definition, in non-test code of `crates/`, `src/`,
//!   `examples/` or `benchmark/src`, or in the tests of another crate
//!   (`tests/` included). For a field only a `.f` that is not assigned to,
//!   or a pattern binding, reads it; a struct literal does not. rustc's
//!   `dead_code` stops at `pub`, and `unreachable_pub` only flags what no
//!   other crate can reach, so this is what keeps the surface to what the
//!   layer above uses. Matching is by name, so an item sharing a name with
//!   anything read (`len`, `version`) is hidden: the census can miss a dead
//!   item, but never reports one that has a reader. An item read only by
//!   its own crate's tests is deleted, or gated `#[cfg(test)]` when those
//!   tests check a real promise through it. The items only `benchmark/src`
//!   reads are exactly `BENCHMARK_ONLY`.
//!
//! No check has an exceptions list; `BENCHMARK_ONLY` only shrinks.

mod common;

use common::{attrs_before, entries, matching, scan_to, sources, Kind, Source, Tok};
use std::collections::{BTreeMap, HashSet};

/// The suffixes that make a struct a config type.
const CONFIG_SUFFIXES: [&str; 4] = ["Cfg", "Config", "Policy", "Spec"];

fn join(toks: &[Tok]) -> String {
    toks.iter().map(|t| t.text).collect::<Vec<_>>().join(" ")
}

/// One `pub` field of a config type.
struct Field {
    at: String,
    /// Each distinct expression a setter gives it, with where.
    setters: BTreeMap<String, Vec<String>>,
}

/// Every config type under `crates/*/src`: type → field → its setters.
type Census = BTreeMap<String, BTreeMap<String, Field>>;

/// Read the config types `toks` (non-test code of `path`) defines: the
/// named fields of `pub struct Name<..> where .. { .. }` (generics and
/// `where` optional), and those of a tuple struct `pub struct Name<..>(..);`
/// as `0`, `1`, and so on.
fn define_configs(census: &mut Census, path: &str, toks: &[Tok]) {
    for i in 0..toks.len().saturating_sub(3) {
        let name = toks[i + 2].text;
        let is_config = toks[i].is("pub")
            && toks[i + 1].is("struct")
            && CONFIG_SUFFIXES.iter().any(|s| name.ends_with(s));
        let Some(open) = is_config.then(|| fields_open(toks, i + 3)).flatten() else {
            continue;
        };
        let tuple = toks[open].is("(");
        // `#[derive(.., Default, ..)]` gives every field its type's default.
        let derived_default = attrs_before(toks, i)
            .iter()
            .any(|a| a.iter().any(|t| t.is("derive")) && a.iter().any(|t| t.is("Default")));
        let close = matching(toks, open);
        let fields = census.entry(name.to_string()).or_default();
        for (n, e) in entries(toks, open + 1, close).into_iter().enumerate() {
            // Skip attributes; keep `pub name: T` but not `pub(crate) name: T`.
            let mut k = 0;
            while k < e.len() && e[k].is("#") {
                k += 1 + (matching(e, k + 1) - k);
            }
            let e = &e[k..];
            let field = match e {
                [vis, ty, ..] if tuple && vis.is("pub") && !ty.is("(") => n.to_string(),
                [vis, f, colon, ..]
                    if !tuple && vis.is("pub") && f.kind == Kind::Ident && colon.is(":") =>
                {
                    f.text.to_string()
                }
                _ => continue,
            };
            let mut f = Field {
                at: format!("{path}:{}", e[0].line),
                setters: BTreeMap::new(),
            };
            if derived_default {
                f.setters
                    .entry("<#[derive(Default)]>".to_string())
                    .or_default()
                    .push(f.at.clone());
            }
            fields.insert(field, f);
        }
    }
}

/// Where the fields of the struct whose name ends before `at` open: the
/// `{` or `(` after its generics and any `where` clause, or `None` for a
/// unit struct.
fn fields_open(toks: &[Tok], mut at: usize) -> Option<usize> {
    if toks.get(at)?.is("<") {
        // Past the generics: a `>` closes a `<` unless it ends a `->`.
        let mut angle = 0;
        let mut pairs = toks[at..].iter().zip(&toks[at - 1..]);
        at += 1 + pairs.position(|(t, prev)| {
            angle += i32::from(t.is("<")) - i32::from(t.is(">") && !prev.is("-"));
            angle == 0
        })?;
    }
    let t = toks.get(at)?;
    if t.is("{") || t.is("(") {
        return Some(at);
    }
    // A `where` clause; a bound's own brackets (`Fn(u8) -> u8`) are stepped over.
    let open = scan_to(toks, at, |t| t.is("{") || t.is(";"));
    (t.is("where") && toks.get(open)?.is("{")).then_some(open)
}

/// Record every setter `toks` (all of `path`, tests included) holds.
fn record_setters(census: &mut Census, path: &str, toks: &[Tok]) {
    let impls = impl_scopes(toks);
    for i in 0..toks.len() {
        let t = &toks[i];
        let next_is = |k: usize, s: &str| toks.get(i + k).is_some_and(|t| t.is(s));
        // `T { … }` (or `Self { … }` in `impl T`), and `T(…)` of a tuple
        // config type.
        if t.kind == Kind::Ident && (next_is(1, "{") || next_is(1, "(")) {
            let ty = if t.text == "Self" {
                impls[i].unwrap_or("")
            } else {
                t.text
            };
            let prev = |k: usize| i.checked_sub(k).map_or("", |j| toks[j].text);
            let declares = ["struct", "enum", "union", "impl", "for", "trait", "mod"]
                .contains(&prev(1))
                || prev(1) == ">" && prev(2) == "-";
            let shape_fits = census
                .get(ty)
                .is_some_and(|fields| next_is(1, "(") == fields.contains_key("0"));
            if !declares && shape_fits {
                literal(census, path, ty, toks, i + 1);
            }
        }
        // `.f = e` and `.f op= e`, `.0 = e` for a tuple field.
        let field_name = |f: &Tok| {
            f.kind == Kind::Ident
                || f.kind == Kind::Lit && f.text.bytes().all(|c| c.is_ascii_digit())
        };
        if t.is(".") && toks.get(i + 1).is_some_and(field_name) {
            let f = toks[i + 1].text;
            let mut k = i + 2;
            let mut op = "";
            if toks.get(k).is_some_and(|o| {
                o.kind == Kind::Punct
                    && matches!(o.text, "+" | "-" | "*" | "/" | "%" | "|" | "&" | "^")
            }) {
                op = toks[k].text;
                k += 1;
            }
            let assigns = toks.get(k).is_some_and(|e| e.is("="))
                && !toks.get(k + 1).is_some_and(|e| e.is("=") || e.is(">"));
            if assigns {
                let end = scan_to(toks, k + 1, |e| e.is(";") || e.is(","));
                let expr = format!("{op}= {}", join(&toks[k + 1..end]));
                let at = format!("{path}:{}", t.line);
                for fields in census.values_mut() {
                    if let Some(field) = fields.get_mut(f) {
                        field
                            .setters
                            .entry(expr.clone())
                            .or_default()
                            .push(at.clone());
                    }
                }
            }
        }
    }
}

/// For each token of `toks`, the type of the innermost `impl` block it is
/// in, if any.
fn impl_scopes<'a>(toks: &[Tok<'a>]) -> Vec<Option<&'a str>> {
    let mut impls: Vec<(usize, &str)> = Vec::new();
    let mut pending_impl: Option<&str> = None;
    let mut depth = 0;
    let mut out = Vec::with_capacity(toks.len());
    for (i, t) in toks.iter().enumerate() {
        if t.is("impl") {
            pending_impl = impl_type(toks, i);
        } else if t.is("{") {
            if let Some(ty) = pending_impl.take() {
                impls.push((depth, ty));
            }
            depth += 1;
        } else if t.is("}") {
            depth -= 1;
            if impls.last().is_some_and(|&(d, _)| d == depth) {
                impls.pop();
            }
        } else if t.is(";") {
            pending_impl = None;
        }
        out.push(impls.last().map(|&(_, ty)| ty));
    }
    out
}

/// The type an `impl` at `at` is for: the last path segment after `for`,
/// or after `impl` and its generics.
fn impl_type<'a>(toks: &[Tok<'a>], at: usize) -> Option<&'a str> {
    let mut j = at + 1;
    let mut ty = None;
    let mut angle = 0;
    while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
        let t = &toks[j];
        if t.is("<") {
            angle += 1;
        } else if t.is(">") && !toks[j - 1].is("-") {
            angle -= 1;
        } else if t.is("where") {
            break;
        } else if t.is("for") && angle == 0 {
            ty = None;
        } else if angle == 0 && t.kind == Kind::Ident && !matches!(t.text, "dyn" | "unsafe") {
            ty = Some(t.text);
        }
        j += 1;
    }
    ty
}

/// Record the fields a struct literal of `ty`, braces opening at `open`,
/// sets; a parenthesis there opens a tuple literal, whose entries set `0`,
/// `1`, and so on. A pattern (`T { a, .. } =`, `=> `, a bare `..`) sets
/// nothing.
fn literal(census: &mut Census, path: &str, ty: &str, toks: &[Tok], open: usize) {
    if is_pattern(toks, open) {
        return;
    }
    let close = matching(toks, open);
    let parts = entries(toks, open + 1, close);
    let fields = census.get_mut(ty).expect("a config type");
    let tuple = toks[open].is("(");
    for (n, e) in parts.into_iter().enumerate() {
        let (name, expr) = match e {
            _ if tuple => (n.to_string(), join(e)),
            [f] if f.kind == Kind::Ident => (f.text.to_string(), f.text.to_string()),
            [f, colon, rest @ ..] if f.kind == Kind::Ident && colon.is(":") && !rest.is_empty() => {
                if rest[0].is(":") {
                    continue;
                }
                (f.text.to_string(), join(rest))
            }
            _ => continue,
        };
        if let Some(field) = fields.get_mut(&name) {
            field
                .setters
                .entry(expr)
                .or_default()
                .push(format!("{path}:{}", e[0].line));
        }
    }
}

/// Whether the bracket group opening at `open` after a type name is a
/// pattern, not a literal: it is followed by `=` (`let`, `=>`) or `:` (a
/// parameter), or holds a bare `..`.
fn is_pattern(toks: &[Tok], open: usize) -> bool {
    let close = matching(toks, open);
    let after = |k: usize| toks.get(close + k).map_or("", |t| t.text);
    after(1) == "=" && after(2) != "="
        || after(1) == ":" && after(2) != ":"
        || entries(toks, open + 1, close)
            .iter()
            .any(|e| e.len() == 2 && e[0].is(".") && e[1].is("."))
}

fn in_crate_src(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|p| p.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// What the two checks find over `files` (path, text).
struct Findings {
    /// `Type.field = expr (setters)`, one per unvaried field.
    unvaried: Vec<String>,
    /// `path:line: env::var`, one per environment read.
    env_reads: Vec<String>,
}

fn census_of(files: &[Source]) -> Findings {
    let files: Vec<&Source> = files
        .iter()
        .filter(|s| !s.path.starts_with("vendored/"))
        .collect();
    let mut census = Census::new();
    let mut env_reads = Vec::new();
    for s in files.iter().filter(|s| in_crate_src(&s.path)) {
        let live: Vec<Tok> = s.toks.iter().filter(|t| !t.test).copied().collect();
        define_configs(&mut census, &s.path, &live);
        for w in live.windows(4) {
            let read = match [w[0].text, w[1].text, w[2].text, w[3].text] {
                ["env", ":", ":", f @ ("var" | "var_os" | "vars" | "vars_os")] => {
                    format!("env::{f}")
                }
                ["option_env", "!", ..] => "option_env!".to_string(),
                _ => continue,
            };
            env_reads.push(format!("{}:{}: {read}", s.path, w[0].line));
        }
    }
    for s in &files {
        record_setters(&mut census, &s.path, &s.toks);
    }
    let unvaried = census
        .iter()
        .flat_map(|(ty, fields)| fields.iter().map(move |(name, f)| (ty, name, f)))
        .filter(|(_, _, f)| f.setters.len() <= 1)
        .map(|(ty, name, f)| match f.setters.iter().next() {
            Some((expr, at)) => format!(
                "{ty}.{name} = {expr} ({} setters: {})",
                at.len(),
                at.join(", ")
            ),
            None => format!("{ty}.{name} is never set ({})", f.at),
        })
        .collect();
    Findings {
        unvaried,
        env_reads,
    }
}

#[test]
fn every_config_field_is_varied_by_some_caller() {
    let found = census_of(sources());
    assert!(
        found.unvaried.is_empty(),
        "config fields no caller varies; make each a `const` in the module that \
         reads it and delete the field (DESIGN.md §4 item 4):\n{}",
        found.unvaried.join("\n")
    );
}

#[test]
fn no_crate_reads_an_environment_variable() {
    let found = census_of(sources());
    assert!(
        found.env_reads.is_empty(),
        "non-test code under crates/*/src reads the environment; make it a \
         config field a caller sets:\n{}",
        found.env_reads.join("\n")
    );
}

/// The checks above can fail: on a two-file tree, each kind of setter is
/// read, a pattern sets nothing, and test code may read the environment.
#[test]
fn census_reads_each_kind_of_setter() {
    let lib = r#"
pub struct KnobCfg { pub a: u32, pub b: u32, pub c: u32, pub d: u32, pub(crate) e: u32 }
impl Default for KnobCfg {
    fn default() -> Self { Self { a: 1, b: 2, c: 3 /* three */, d: 4, e: 5 } }
}
#[derive(Debug, Default)]
pub struct FlagSpec { pub on: bool }
pub fn shards() -> usize { std::env::var("N").map_or(1, |v| v.len()) }
#[cfg(test)]
mod tests {
    fn knob() -> super::KnobCfg { super::KnobCfg { a: 7, ..Default::default() } }
    fn env() { let _ = std::env::var_os("X"); }
}
"#;
    let caller = r#"
fn f(b: u32) -> KnobCfg {
    let KnobCfg { c, .. } = KnobCfg::default();
    let _ = FlagSpec { on: c > 3 };
    let mut k = KnobCfg { b, ..KnobCfg::default() };
    k.d += 1;
    k
}
"#;
    let files = [
        Source::new("crates/x/src/lib.rs", lib),
        Source::new("tests/caller.rs", caller),
    ];
    let found = census_of(&files);
    assert_eq!(
        found.unvaried,
        ["KnobCfg.c = 3 (1 setters: crates/x/src/lib.rs:4)"],
        "a, b, d and FlagSpec.on are varied; e is not `pub`"
    );
    assert_eq!(found.env_reads, ["crates/x/src/lib.rs:8: env::var"]);
}

/// A generic config type, with or without a `where` clause, and a tuple
/// config type (fields `0`, `1`, …) are read like a plain one: each
/// default-only field is reported, and a varied one is not.
#[test]
fn census_reads_generic_and_tuple_config_types() {
    let lib = r#"
pub struct PlainCfg { pub a: u32 }
impl Default for PlainCfg { fn default() -> Self { Self { a: 1 } } }
pub struct GenCfg<T> { pub a: u32, pub b: T }
impl<T: Default> Default for GenCfg<T> { fn default() -> Self { Self { a: 2, b: T::default() } } }
pub struct WhereCfg<F> where F: Fn(u8) -> u8 { pub f: F }
pub struct TupCfg(pub u32, pub u32, pub(crate) u32);
impl Default for TupCfg { fn default() -> Self { Self(3, 4, 5) } }
"#;
    let caller = r#"
fn g() -> TupCfg {
    let _ = GenCfg { b: 7u8, ..GenCfg::default() };
    let _ = (WhereCfg { f: |x| x }, WhereCfg { f: |x| x + 1 });
    let TupCfg(_, b, _) = TupCfg::default();
    let mut t = TupCfg::default();
    t.1 = b + 1;
    t
}
"#;
    let files = [
        Source::new("crates/x/src/lib.rs", lib),
        Source::new("tests/caller.rs", caller),
    ];
    assert_eq!(
        census_of(&files).unvaried,
        [
            "GenCfg.a = 2 (1 setters: crates/x/src/lib.rs:5)",
            "PlainCfg.a = 1 (1 setters: crates/x/src/lib.rs:3)",
            "TupCfg.0 = 3 (1 setters: crates/x/src/lib.rs:8)",
        ],
        "GenCfg.b, WhereCfg.f and TupCfg.1 are varied; TupCfg.2 is not `pub`"
    );
}

/// The `pub` items only `benchmark/src` reads: they go when the benchmark
/// stops naming them, and this list may only shrink.
const BENCHMARK_ONLY: [&str; 5] = [
    "Cluster::alloc_port",
    "JsonValue::as_f64",
    "JsonValue::as_obj",
    "executor::thread_totals",
    "oneshot::oneshot",
];

/// One `pub` item of non-test code under `crates/*/src`.
struct PubItem {
    /// `Type::method`, `Type.field`, or `module::name` for a free item.
    label: String,
    name: &'static str,
    /// A named field, which only a `.f` or a pattern binding reads.
    field: bool,
    /// `crates/<dir>/`: the item's own crate.
    krate: String,
    path: String,
    line: usize,
    /// The token range of its definition in `path`, which reads nothing.
    span: (usize, usize),
}

/// Every `pub` fn, method, const and named field `s` defines outside test
/// code; `pub(crate)` and narrower are rustc's `dead_code` lint's.
fn pub_items(s: &Source<'static>) -> Vec<PubItem> {
    let toks = &s.toks;
    let parts: Vec<&str> = s.path.trim_end_matches(".rs").split('/').collect();
    let krate = format!("{}/{}/", parts[0], parts[1]);
    let module = match parts[..] {
        [_, krate, _, "lib"] => krate,
        [.., dir, "mod"] => dir,
        [.., stem] => stem,
        [] => "",
    };
    let mut out = Vec::new();
    let impls = impl_scopes(toks);
    for (i, t) in toks.iter().enumerate() {
        if t.test || !t.is("pub") || toks.get(i + 1).is_some_and(|n| n.is("(")) {
            continue;
        }
        // Past `const`, `async`, `unsafe` and `extern "C"` to the keyword.
        let mut k = i + 1;
        while toks.get(k).is_some_and(|q| {
            matches!(q.text, "async" | "unsafe" | "extern")
                || q.kind == Kind::Lit
                || q.is("const") && toks.get(k + 1).is_some_and(|f| f.is("fn"))
        }) {
            k += 1;
        }
        let (Some(kw), Some(name)) = (toks.get(k), toks.get(k + 1)) else {
            continue;
        };
        let owner = impls[i].unwrap_or(module);
        let mut item = |field, label: String, at: usize, span| {
            out.push(PubItem {
                label,
                name: toks[at].text,
                field,
                krate: krate.clone(),
                path: s.path.clone(),
                line: toks[at].line,
                span,
            })
        };
        if name.kind != Kind::Ident {
            continue;
        } else if kw.is("fn") || kw.is("const") {
            let end = scan_to(toks, k + 2, |b| b.is("{") || b.is(";"));
            let end = if toks.get(end).is_some_and(|b| b.is("{")) {
                matching(toks, end)
            } else {
                end
            };
            item(
                false,
                format!("{owner}::{}", name.text),
                k + 1,
                (i, end + 1),
            );
        } else if kw.is("struct") {
            let Some(open) = fields_open(toks, k + 2).filter(|&o| toks[o].is("{")) else {
                continue;
            };
            let close = matching(toks, open);
            let mut at = open + 1;
            while at < close {
                let end = scan_to(toks, at, |t| t.is(",")).min(close);
                let mut f = at;
                while toks[f].is("#") {
                    f = matching(toks, f + 1) + 1;
                }
                if toks[f].is("pub") && toks[f + 2].is(":") && !toks[f + 3].is(":") {
                    let label = format!("{}.{}", name.text, toks[f + 1].text);
                    item(true, label, f + 1, (f + 1, f + 2));
                }
                at = end + 1;
            }
        }
    }
    out
}

/// Whether `path` is a test file: under the root `tests/` or a crate's.
fn test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.starts_with("crates/") && path.contains("/tests/")
}

/// The tokens of `toks` that bind a field in a struct pattern (see
/// `is_pattern`): `f`, `mut f` and `f: p` in `Type { .. }`.
fn pattern_heads(toks: &[Tok]) -> HashSet<usize> {
    let mut heads = HashSet::new();
    for i in 0..toks.len().saturating_sub(1) {
        let ty = &toks[i];
        let typed = ty.kind == Kind::Ident && ty.text.starts_with(|c: char| c.is_ascii_uppercase());
        if !typed || !toks[i + 1].is("{") || !is_pattern(toks, i + 1) {
            continue;
        }
        let close = matching(toks, i + 1);
        let mut at = i + 2;
        while at < close {
            let mut e = at;
            at = scan_to(toks, at, |t| t.is(",")).min(close) + 1;
            e += toks[e..close]
                .iter()
                .take_while(|t| t.is("mut") || t.is("ref"))
                .count();
            let then = |k: usize| toks.get(e + k).map_or("", |t| t.text);
            let binds = matches!(then(1), "," | "}") || then(1) == ":" && then(2) != ":";
            if toks[e].kind == Kind::Ident && binds {
                heads.insert(e);
            }
        }
    }
    heads
}

/// What the public-surface census finds over `files`.
struct Surface {
    /// `path:line: label`, one per item with no reader at all.
    unread: Vec<String>,
    /// The labels of the items only `benchmark/src` reads, sorted.
    benchmark_only: Vec<String>,
}

/// Read every `pub` item's readers: a token naming it outside its own
/// definition and outside `use` and `mod` declarations; for a field, only
/// a `.f` that is not assigned to, or a pattern binding. A reader counts
/// in non-test code, or in the tests of a crate other than the item's own.
fn surface_of(files: &[Source<'static>]) -> Surface {
    let files: Vec<&Source> = files
        .iter()
        .filter(|s| !s.path.starts_with("vendored/"))
        .collect();
    let items: Vec<PubItem> = files
        .iter()
        .filter(|s| in_crate_src(&s.path))
        .flat_map(|s| pub_items(s))
        .collect();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (n, item) in items.iter().enumerate() {
        by_name.entry(item.name).or_default().push(n);
    }
    // Per item: read by the workspace, read by `benchmark/src`.
    let mut read = vec![(false, false); items.len()];
    for s in &files {
        let heads = pattern_heads(&s.toks);
        // Inside a `use` declaration (to its `;`) or a `mod` name.
        let mut declaring = None;
        for (j, t) in s.toks.iter().enumerate() {
            if t.is("use") || t.is("mod") {
                declaring = Some(t.text);
            } else if t.is(";") || t.is("{") && declaring == Some("mod") {
                declaring = None;
            }
            let Some(named) = by_name
                .get(t.text)
                .filter(|_| declaring.is_none() && t.kind == Kind::Ident)
            else {
                continue;
            };
            let next = |k: usize| s.toks.get(j + k).map_or("", |n| n.text);
            let assigned = next(1) == "=" && !matches!(next(2), "=" | ">")
                || matches!(next(1), "+" | "-" | "*" | "/" | "%" | "|" | "&" | "^")
                    && next(2) == "="
                    && next(3) != "=";
            let dotted = j > 0 && s.toks[j - 1].is(".");
            let field_read = dotted && !assigned || heads.contains(&j);
            let test = t.test || test_file(&s.path);
            for &n in named {
                let item = &items[n];
                let own_def = s.path == item.path && (item.span.0..item.span.1).contains(&j);
                if own_def || item.field && !field_read {
                    continue;
                }
                if s.path.starts_with("benchmark/") {
                    read[n].1 = true;
                } else if !test || !s.path.starts_with(&item.krate) {
                    read[n].0 = true;
                }
            }
        }
    }
    let mut surface = Surface {
        unread: Vec::new(),
        benchmark_only: Vec::new(),
    };
    for (item, (workspace, benchmark)) in items.iter().zip(read) {
        if workspace {
            continue;
        } else if benchmark {
            surface.benchmark_only.push(item.label.clone());
        } else {
            let at = format!("{}:{}: {}", item.path, item.line, item.label);
            surface.unread.push(at);
        }
    }
    surface.benchmark_only.sort();
    surface
}

#[test]
fn every_pub_item_has_a_reader() {
    let found = surface_of(sources());
    assert!(
        found.unread.is_empty(),
        "`pub` items nothing outside their own crate's tests reads; delete each \
         (with any test that checks only it), or gate it `#[cfg(test)]` if its \
         crate's tests use it to check a real promise:\n{}",
        found.unread.join("\n")
    );
}

#[test]
fn only_the_benchmark_only_list_is_read_by_the_benchmark_alone() {
    let found = surface_of(sources());
    assert_eq!(
        found.benchmark_only, BENCHMARK_ONLY,
        "the `pub` items only `benchmark/src` reads must be exactly \
         `BENCHMARK_ONLY`: drop an entry the workspace reads again or that \
         is gone, and never add one"
    );
}

/// The census can fail: on an in-memory tree, an item read only by its own
/// crate's tests is reported, one read by another crate's test is not, and
/// one read only from `benchmark/src` is benchmark-only.
#[test]
fn surface_census_tells_its_readers_apart() {
    let lib = r#"
pub fn own_test_only() {}
pub fn other_crates_test() {}
pub fn benchmark_alone() {}
pub fn recursive(n: u32) -> u32 { if n == 0 { 0 } else { recursive(n - 1) } }
pub(crate) fn crate_only() {}
pub const LIMIT: u32 = 3;
pub struct Knob { pub written: u32, pub dotted: u32, pub bound: u32 }
impl Knob {
    pub fn new() -> Knob { Knob { written: LIMIT, dotted: 0, bound: 0 } }
    pub fn get(&self) -> u32 { let Knob { bound, .. } = self; self.dotted + bound }
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::own_test_only(); let mut k = super::Knob::new(); k.written = 1; }
}
"#;
    let files = [
        Source::new("crates/a/src/lib.rs", lib),
        Source::new(
            "crates/a/tests/t.rs",
            "use a::own_test_only;\nfn t() { own_test_only(); }",
        ),
        Source::new("crates/b/tests/t.rs", "fn t() { a::other_crates_test(); }"),
        Source::new(
            "benchmark/src/main.rs",
            "fn main() { a::benchmark_alone(); }",
        ),
        Source::new("src/lib.rs", "pub fn f() -> u32 { a::Knob::new().get() }"),
    ];
    let found = surface_of(&files);
    assert_eq!(
        found.unread,
        [
            "crates/a/src/lib.rs:2: a::own_test_only",
            "crates/a/src/lib.rs:5: a::recursive",
            "crates/a/src/lib.rs:8: Knob.written",
        ],
        "own-crate tests, a self-call, a literal and an assignment are no readers"
    );
    assert_eq!(found.benchmark_only, ["a::benchmark_alone"]);
}
