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

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Where setters are looked for.
const SCAN_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];
/// Build output: never walked.
const SKIPPED_DIRS: [&str; 2] = ["target", ".git"];
/// The suffixes that make a struct a config type.
const CONFIG_SUFFIXES: [&str; 4] = ["Cfg", "Config", "Policy", "Spec"];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Ident,
    Lit,
    Punct,
}

#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    kind: Kind,
    text: &'a str,
    line: usize,
}

impl Tok<'_> {
    fn is(&self, text: &str) -> bool {
        self.text == text && self.kind != Kind::Lit
    }
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Rust source as tokens: comments dropped, every string, char and number
/// literal one token, every other punctuation character its own token.
fn tokens(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut line) = (0, 1);
    while i < b.len() {
        let c = b[i];
        let start = (i, line);
        let kind = if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        } else if c.is_ascii_whitespace() {
            i += 1;
            continue;
        } else if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    line += usize::from(b[i] == b'\n');
                    i += 1;
                }
            }
            continue;
        } else if let Some(end) = string_end(b, i) {
            line += b[i..end].iter().filter(|&&c| c == b'\n').count();
            i = end;
            Kind::Lit
        } else if c == b'\'' {
            // A char literal (`'x'`, `'\n'`) or a lifetime (`'a`).
            if b.get(i + 1) == Some(&b'\\') {
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else if b.get(i + 2) == Some(&b'\'') {
                i += 3;
            } else {
                i += 1;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
            }
            Kind::Lit
        } else if c.is_ascii_digit() {
            while i < b.len()
                && (is_ident_char(b[i])
                    || b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit))
            {
                i += 1;
            }
            Kind::Lit
        } else if is_ident_char(c) {
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            Kind::Ident
        } else {
            i += src[i..].chars().next().map_or(1, char::len_utf8);
            Kind::Punct
        };
        out.push(Tok {
            kind,
            text: &src[start.0..i],
            line: start.1,
        });
    }
    out
}

/// The end of a string literal starting at `i` (`"…"`, `b"…"`, `r#"…"#`,
/// `br"…"`), if one starts there.
fn string_end(b: &[u8], i: usize) -> Option<usize> {
    if i > 0 && is_ident_char(b[i - 1]) {
        return None;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    let raw = b.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
    if !raw && hashes > 0 || b.get(j + hashes) != Some(&b'"') {
        return None;
    }
    j += hashes + 1;
    while j < b.len() {
        if !raw && b[j] == b'\\' {
            j += 2;
        } else if b[j] == b'"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return Some(j + 1 + hashes);
        } else {
            j += 1;
        }
    }
    Some(b.len())
}

fn opens(t: &Tok) -> bool {
    t.kind == Kind::Punct && matches!(t.text, "(" | "[" | "{")
}

fn closes(t: &Tok) -> bool {
    t.kind == Kind::Punct && matches!(t.text, ")" | "]" | "}")
}

/// Index of the token closing the bracket opened at `open`.
fn matching(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if opens(t) {
            depth += 1;
        } else if closes(t) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// The comma-separated entries of `toks[from..to]`, split at depth 0.
fn entries<'t, 'a>(toks: &'t [Tok<'a>], from: usize, to: usize) -> Vec<&'t [Tok<'a>]> {
    let (mut out, mut depth, mut start) = (Vec::new(), 0, from);
    for j in from..to {
        let t = &toks[j];
        if opens(t) {
            depth += 1;
        } else if closes(t) {
            depth -= 1;
        } else if depth == 0 && t.is(",") {
            out.push(&toks[start..j]);
            start = j + 1;
        }
    }
    out.push(&toks[start..to]);
    out.into_iter().filter(|e| !e.is_empty()).collect()
}

fn join(toks: &[Tok]) -> String {
    toks.iter().map(|t| t.text).collect::<Vec<_>>().join(" ")
}

/// `toks` without its `#[cfg(test)]` items.
fn without_tests<'a>(toks: &[Tok<'a>]) -> Vec<Tok<'a>> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let attr: Vec<&str> = toks[i..].iter().take(7).map(|t| t.text).collect();
        if attr == ["#", "[", "cfg", "(", "test", ")", "]"] {
            // Skip the item: up to its `;`, or through its `{ … }` body.
            let mut j = i + 7;
            while j < toks.len() && !toks[j].is(";") && !toks[j].is("{") {
                j += if opens(&toks[j]) {
                    matching(toks, j) + 1 - j
                } else {
                    1
                };
            }
            i = if j < toks.len() && toks[j].is("{") {
                matching(toks, j) + 1
            } else {
                j + 1
            };
            continue;
        }
        out.push(toks[i]);
        i += 1;
    }
    out
}

/// One `pub` field of a config type.
struct Field {
    at: String,
    /// Each distinct expression a setter gives it, with where.
    setters: BTreeMap<String, Vec<String>>,
}

/// Every config type under `crates/*/src`: type → field → its setters.
type Census = BTreeMap<String, BTreeMap<String, Field>>;

/// Read the config types `toks` (non-test code of `path`) defines.
fn define_configs(census: &mut Census, path: &str, toks: &[Tok]) {
    for i in 0..toks.len().saturating_sub(3) {
        let name = toks[i + 2].text;
        let is_config = toks[i].is("pub")
            && toks[i + 1].is("struct")
            && toks[i + 3].is("{")
            && CONFIG_SUFFIXES.iter().any(|s| name.ends_with(s));
        if !is_config {
            continue;
        }
        let derived_default = derives_default(toks, i);
        let close = matching(toks, i + 3);
        let fields = census.entry(name.to_string()).or_default();
        for e in entries(toks, i + 4, close) {
            // Skip attributes; keep `pub name: T` but not `pub(crate) name: T`.
            let mut k = 0;
            while k < e.len() && e[k].is("#") {
                k += 1 + (matching(e, k + 1) - k);
            }
            let e = &e[k..];
            if e.len() >= 3 && e[0].is("pub") && e[1].kind == Kind::Ident && e[2].is(":") {
                let mut f = Field {
                    at: format!("{path}:{}", e[1].line),
                    setters: BTreeMap::new(),
                };
                if derived_default {
                    f.setters
                        .entry("<#[derive(Default)]>".to_string())
                        .or_default()
                        .push(f.at.clone());
                }
                fields.insert(e[1].text.to_string(), f);
            }
        }
    }
}

/// Whether the item starting at `item` carries `#[derive(.., Default, ..)]`.
fn derives_default(toks: &[Tok], item: usize) -> bool {
    let mut end = item;
    while end >= 2 && toks[end - 1].is("]") {
        let Some(open) = (0..end - 1)
            .rev()
            .find(|&j| toks[j].is("[") && matching(toks, j) == end - 1)
        else {
            return false;
        };
        let attr = &toks[open..end];
        if attr.iter().any(|t| t.is("derive")) && attr.iter().any(|t| t.is("Default")) {
            return true;
        }
        end = open.saturating_sub(1);
    }
    false
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
        // `T { … }` (or `Self { … }` in `impl T`).
        if t.kind == Kind::Ident && next_is(1, "{") {
            let ty = if t.text == "Self" {
                impls.last().map_or("", |&(_, ty)| ty)
            } else {
                t.text
            };
            let prev = |k: usize| i.checked_sub(k).map_or("", |j| toks[j].text);
            let declares = ["struct", "enum", "union", "impl", "for", "trait", "mod"]
                .contains(&prev(1))
                || prev(1) == ">" && prev(2) == "-";
            if !declares && census.contains_key(ty) {
                literal(census, path, ty, toks, i + 1);
            }
        }
        // `.f = e` and `.f op= e`.
        if t.is(".") && toks.get(i + 1).is_some_and(|f| f.kind == Kind::Ident) {
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
                let end = expr_end(toks, k + 1);
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

/// One past the last token of the expression starting at `from`: the first
/// `;` or `,` at depth 0, or the bracket that closes around it.
fn expr_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0;
    let mut j = from;
    while j < toks.len() {
        let t = &toks[j];
        if opens(t) {
            depth += 1;
        } else if closes(t) {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is(";") || t.is(",")) {
            break;
        }
        j += 1;
    }
    j
}

/// Record the fields a struct literal of `ty`, braces opening at `open`,
/// sets. A pattern (`T { a, .. } =`, `=> `, a bare `..`) sets nothing.
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
    for e in parts {
        let (name, expr) = match e {
            [f] if f.kind == Kind::Ident => (f.text, f.text.to_string()),
            [f, colon, rest @ ..] if f.kind == Kind::Ident && colon.is(":") && !rest.is_empty() => {
                if rest[0].is(":") {
                    continue;
                }
                (f.text, join(rest))
            }
            _ => continue,
        };
        if let Some(field) = fields.get_mut(name) {
            field
                .setters
                .entry(expr)
                .or_default()
                .push(format!("{path}:{}", e[0].line));
        }
    }
}

/// Every `.rs` file under `dir`, relative to `root`.
fn rust_files(root: &Path, dir: &str, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(root.join(dir)) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{dir}/{name}");
        if entry.path().is_dir() {
            if !SKIPPED_DIRS.contains(&name.as_str()) {
                rust_files(root, &rel, out);
            }
        } else if name.ends_with(".rs") {
            out.push(rel);
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

fn census_of(files: &[(String, String)]) -> Findings {
    let lexed: Vec<(&str, Vec<Tok>)> = files.iter().map(|(p, t)| (p.as_str(), tokens(t))).collect();
    let mut census = Census::new();
    let mut env_reads = Vec::new();
    for (path, toks) in &lexed {
        if !in_crate_src(path) {
            continue;
        }
        let live = without_tests(toks);
        define_configs(&mut census, path, &live);
        for w in live.windows(4) {
            let read = match [w[0].text, w[1].text, w[2].text, w[3].text] {
                ["env", ":", ":", f @ ("var" | "var_os" | "vars" | "vars_os")] => {
                    format!("env::{f}")
                }
                ["option_env", "!", ..] => "option_env!".to_string(),
                _ => continue,
            };
            env_reads.push(format!("{path}:{}: {read}", w[0].line));
        }
    }
    for (path, toks) in &lexed {
        record_setters(&mut census, path, toks);
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

fn repo_files() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in SCAN_DIRS {
        rust_files(root, dir, &mut paths);
    }
    paths
        .into_iter()
        .map(|p| {
            let text =
                fs::read_to_string(root.join(&p)).unwrap_or_else(|e| panic!("reading {p}: {e}"));
            (p, text)
        })
        .collect()
}

#[test]
fn every_config_field_is_varied_by_some_caller() {
    let found = census_of(&repo_files());
    assert!(
        found.unvaried.is_empty(),
        "config fields no caller varies; make each a `const` in the module that \
         reads it and delete the field (DESIGN.md §4 item 4):\n{}",
        found.unvaried.join("\n")
    );
}

#[test]
fn no_crate_reads_an_environment_variable() {
    let found = census_of(&repo_files());
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
        ("crates/x/src/lib.rs".to_string(), lib.to_string()),
        ("tests/caller.rs".to_string(), caller.to_string()),
    ];
    let found = census_of(&files);
    assert_eq!(
        found.unvaried,
        ["KnobCfg.c = 3 (1 setters: crates/x/src/lib.rs:4)"],
        "a, b, d and FlagSpec.on are varied; e is not `pub`"
    );
    assert_eq!(found.env_reads, ["crates/x/src/lib.rs:8: env::var"]);
}
