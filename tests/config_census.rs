//! One value, one constant (DESIGN.md §4 item 4), checked on every
//! `cargo test`.
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
//!
//! Neither check has exceptions.

mod common;

use common::{attrs_before, entries, matching, scan_to, sources, Kind, Source, Tok};
use std::collections::BTreeMap;

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
    let mut impls: Vec<(usize, &str)> = Vec::new();
    let mut pending_impl: Option<&str> = None;
    let mut depth = 0;
    for i in 0..toks.len() {
        let t = &toks[i];
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
        let next_is = |k: usize, s: &str| toks.get(i + k).is_some_and(|t| t.is(s));
        // `T { … }` (or `Self { … }` in `impl T`), and `T(…)` of a tuple
        // config type.
        if t.kind == Kind::Ident && (next_is(1, "{") || next_is(1, "(")) {
            let ty = if t.text == "Self" {
                impls.last().map_or("", |&(_, ty)| ty)
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
    let close = matching(toks, open);
    let after = |k: usize| toks.get(close + k).map_or("", |t| t.text);
    if after(1) == "=" && after(2) != "=" || after(1) == ":" && after(2) != ":" {
        return;
    }
    let parts = entries(toks, open + 1, close);
    if parts
        .iter()
        .any(|e| e.len() == 2 && e[0].is(".") && e[1].is("."))
    {
        return;
    }
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
