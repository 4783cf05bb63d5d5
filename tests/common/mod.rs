//! The plumbing the repo's self-checks share (`doc_refs`, `config_census`,
//! `mutants`): one walker over the tree, one Rust lexer and one definition
//! index. Each check keeps its own rules; this module only reads the tree.
#![allow(dead_code, reason = "each test binary uses a different part")]

use std::collections::HashSet;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// The directories whose Rust sources the checks read. A check that needs
/// fewer files filters `sources()` by path.
const SOURCE_DIRS: [&str; 6] = [
    "crates",
    "src",
    "tests",
    "examples",
    "benchmark/src",
    "vendored",
];
/// Build output and version control: never walked, never copied.
pub(crate) const SKIPPED_DIRS: [&str; 2] = ["target", ".git"];

pub(crate) fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub(crate) fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every path under `dir` (relative to the root, `""` for the root itself)
/// in sorted order, a directory with a trailing `/` before its contents.
pub(crate) fn walk(dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(root().join(dir)) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{dir}/{name}").trim_start_matches('/').to_string();
        if !entry.path().is_dir() {
            out.push(rel);
        } else if !SKIPPED_DIRS.contains(&name.as_str()) {
            out.push(format!("{rel}/"));
            out.extend(walk(&rel));
        }
    }
    out
}

/// One Rust file: its text, tokens, comments and what it defines.
pub(crate) struct Source {
    pub(crate) path: String,
    pub(crate) text: &'static str,
    pub(crate) toks: Vec<Tok<'static>>,
    pub(crate) comments: Vec<Comment<'static>>,
    pub(crate) defs: Defs,
}

impl Source {
    pub(crate) fn new(path: &str, text: &'static str) -> Source {
        let (toks, comments) = lex(text);
        Source {
            path: path.to_string(),
            text,
            defs: Defs::of(&toks),
            toks,
            comments,
        }
    }
}

/// Every `#[test]` function of the tree, by name.
pub(crate) fn test_fns() -> HashSet<&'static str> {
    let tests = sources().iter().flat_map(|s| &s.defs.tests);
    tests.map(String::as_str).collect()
}

/// Every `.rs` file under `SOURCE_DIRS`, read and lexed once per process.
pub(crate) fn sources() -> &'static [Source] {
    static SOURCES: OnceLock<Vec<Source>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let paths: Vec<String> = SOURCE_DIRS.iter().flat_map(|d| walk(d)).collect();
        let load = |paths: &[String]| -> Vec<Source> {
            let rust = paths.iter().filter(|p| p.ends_with(".rs"));
            rust.map(|p| Source::new(p, Box::leak(read(p).into_boxed_str())))
                .collect()
        };
        // Lexing is most of a check's time: half the files on a second thread.
        let (first, second) = paths.split_at(paths.len() / 2);
        std::thread::scope(|s| {
            let second = s.spawn(|| load(second));
            let first = load(first);
            first.into_iter().chain(second.join().unwrap()).collect()
        })
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kind {
    Ident,
    Lit,
    Punct,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Tok<'a> {
    pub(crate) kind: Kind,
    pub(crate) text: &'a str,
    pub(crate) line: usize,
    /// Part of a `#[cfg(test)]` item, the attribute included.
    pub(crate) test: bool,
}

impl<'a> Tok<'a> {
    pub(crate) fn is(&self, text: &str) -> bool {
        self.text == text && self.kind != Kind::Lit
    }

    /// What a string literal (`"…"`, `b"…"`, `r#"…"#`) holds, escapes as
    /// written; `None` for any other token.
    pub(crate) fn str_lit(&self) -> Option<&'a str> {
        let t = self.text.trim_start_matches(['b', 'r']);
        let hashes = &t[..t.len() - t.trim_start_matches('#').len()];
        t[hashes.len()..]
            .strip_prefix('"')?
            .strip_suffix(hashes)?
            .strip_suffix('"')
    }
}

/// One `//` or `/* */` comment: its text and the line it starts on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Comment<'a> {
    pub(crate) text: &'a str,
    pub(crate) line: usize,
}

/// Rust source as tokens and comments: every string, char and number
/// literal one token, every other punctuation character its own token, and
/// each token of a `#[cfg(test)]` item marked.
pub(crate) fn lex(src: &str) -> (Vec<Tok<'_>>, Vec<Comment<'_>>) {
    let b = src.as_bytes();
    let ident = |i: usize| i < b.len() && is_ident_char(b[i] as char);
    let (mut toks, mut comments) = (Vec::new(), Vec::new());
    let (mut i, mut line) = (0, 1);
    while i < b.len() {
        let (start, start_line) = (i, line);
        let kind = if b[i].is_ascii_whitespace() {
            line += usize::from(b[i] == b'\n');
            i += 1;
            continue;
        } else if b[i..].starts_with(b"//") {
            i += b[i..].iter().take_while(|&&c| c != b'\n').count();
            comments.push(Comment {
                text: &src[start..i],
                line: start_line,
            });
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
            comments.push(Comment {
                text: &src[start..i.min(b.len())],
                line: start_line,
            });
            continue;
        } else if let Some(end) = string_end(b, i) {
            line += b[i..end].iter().filter(|&&c| c == b'\n').count();
            i = end;
            Kind::Lit
        } else if b[i] == b'\'' {
            // A char literal (`'x'`, `'\n'`) or a lifetime (`'a`).
            i += match (b.get(i + 1), b.get(i + 2)) {
                (Some(b'\\'), _) => 3 + b[i + 2..].iter().take_while(|&&c| c != b'\'').count(),
                (_, Some(b'\'')) => 3,
                _ => 1 + (i + 1..).take_while(|&j| ident(j)).count(),
            };
            Kind::Lit
        } else if b[i].is_ascii_digit() {
            while ident(i)
                || b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(u8::is_ascii_digit)
            {
                i += 1;
            }
            Kind::Lit
        } else if ident(i) {
            while ident(i) {
                i += 1;
            }
            Kind::Ident
        } else {
            i += src[i..].chars().next().map_or(1, char::len_utf8);
            Kind::Punct
        };
        toks.push(Tok {
            kind,
            text: &src[start..i.min(b.len())],
            line: start_line,
            test: false,
        });
    }
    // Mark each `#[cfg(test)]` item: up to its `;`, or through its body.
    let mut i = 0;
    while i < toks.len() {
        let attr = toks[i..].iter().take(7).map(|t| t.text);
        if toks[i].text != "#" || !attr.eq(["#", "[", "cfg", "(", "test", ")", "]"]) {
            i += 1;
            continue;
        }
        let j = scan_to(&toks, i + 7, |t| t.is(";") || t.is("{"));
        let end = match toks.get(j) {
            Some(t) if t.is("{") => matching(&toks, j) + 1,
            Some(t) if t.is(";") => j + 1,
            _ => j,
        };
        toks[i..end].iter_mut().for_each(|t| t.test = true);
        i = end;
    }
    (toks, comments)
}

/// The end of a string literal starting at `i` (`"…"`, `b"…"`, `r#"…"#`,
/// `br"…"`), if one starts there.
fn string_end(b: &[u8], i: usize) -> Option<usize> {
    if i > 0 && is_ident_char(b[i - 1] as char) {
        return None;
    }
    let mut j = i + usize::from(b[i] == b'b');
    let raw = b.get(j) == Some(&b'r');
    j += usize::from(raw);
    let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
    if !raw && hashes > 0 || b.get(j + hashes) != Some(&b'"') {
        return None;
    }
    j += hashes + 1;
    while j < b.len() {
        if !raw && b[j] == b'\\' {
            j += 2;
        } else if b[j] == b'"' && b[j + 1..].iter().take(hashes).all(|&c| c == b'#') {
            return Some((j + 1 + hashes).min(b.len()));
        } else {
            j += 1;
        }
    }
    Some(b.len())
}

/// +1 for a token that opens a bracket, -1 for one that closes it.
fn nesting(t: &Tok) -> i32 {
    match (t.kind, t.text) {
        (Kind::Punct, "(" | "[" | "{") => 1,
        (Kind::Punct, ")" | "]" | "}") => -1,
        _ => 0,
    }
}

/// Index of the token closing the bracket opened at `open` (`open` itself
/// when it opens none).
pub(crate) fn matching(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0;
    (open..toks.len())
        .find(|&j| {
            depth += nesting(&toks[j]);
            depth == 0
        })
        .unwrap_or(toks.len())
}

/// The first token from `at` on that `stop` accepts, a bracketed group
/// stepped over whole, or the bracket that closes around `at`.
pub(crate) fn scan_to(toks: &[Tok], mut at: usize, stop: impl Fn(&Tok) -> bool) -> usize {
    while at < toks.len() && !stop(&toks[at]) && nesting(&toks[at]) >= 0 {
        at = matching(toks, at) + 1;
    }
    at
}

/// The comma-separated entries of `toks[from..to]`, split at depth 0.
pub(crate) fn entries<'t, 'a>(toks: &'t [Tok<'a>], from: usize, to: usize) -> Vec<&'t [Tok<'a>]> {
    let (mut out, mut start) = (Vec::new(), from);
    while start < to {
        let end = scan_to(toks, start, |t| t.is(",")).min(to);
        out.push(&toks[start..end]);
        start = end + 1;
    }
    out.into_iter().filter(|e| !e.is_empty()).collect()
}

/// The `#[…]` attributes right before the item starting at `item`,
/// nearest first.
pub(crate) fn attrs_before<'t, 'a>(toks: &'t [Tok<'a>], item: usize) -> Vec<&'t [Tok<'a>]> {
    let (mut out, mut end) = (Vec::new(), item);
    while end > 0 && toks[end - 1].is("]") {
        let mut depth = 0;
        let open = (0..end).rev().find(|&j| {
            depth -= nesting(&toks[j]);
            depth == 0
        });
        match open {
            Some(open) if open > 0 && toks[open - 1].is("#") => {
                out.push(&toks[open - 1..end]);
                end = open - 1;
            }
            _ => break,
        }
    }
    out
}

/// What one file defines, read from its tokens.
#[derive(Default)]
pub(crate) struct Defs {
    /// Items after their keyword, and what starts a line the way a field or
    /// a variant does (`name: T,`, `Variant(..)`).
    pub(crate) names: HashSet<String>,
    /// The names after `struct`, `enum`, `trait` and `type`.
    pub(crate) types: Vec<String>,
    /// Functions carrying `#[test]`, those in `proptest!` blocks included.
    pub(crate) tests: Vec<String>,
}

impl Defs {
    fn of(toks: &[Tok]) -> Defs {
        const ITEMS: [&str; 9] = [
            "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
        ];
        let mut d = Defs::default();
        let ident = |j: usize| toks.get(j).filter(|t| t.kind == Kind::Ident);
        let is_test = |a: &&[Tok]| a.iter().map(|t| t.text).eq(["#", "[", "test", "]"]);
        for (i, t) in toks.iter().enumerate() {
            let name_at = if t.kind == Kind::Ident && ITEMS.contains(&t.text) {
                Some(i + 1)
            } else if t.is("macro_rules") && toks.get(i + 1).is_some_and(|b| b.is("!")) {
                Some(i + 2)
            } else {
                None
            };
            if let Some(name) = name_at.and_then(ident) {
                d.names.insert(name.text.to_string());
                if matches!(t.text, "struct" | "enum" | "trait" | "type") {
                    d.types.push(name.text.to_string());
                }
                if t.is("fn") && attrs_before(toks, i).iter().any(is_test) {
                    d.tests.push(name.text.to_string());
                }
            }
            if i > 0 && toks[i - 1].line == t.line {
                continue;
            }
            let mut j = i + usize::from(t.is("pub"));
            if j > i && toks.get(j).is_some_and(|p| p.is("(")) {
                j = matching(toks, j) + 1;
            }
            let Some(name) = ident(j) else {
                continue;
            };
            let next_is = |k: usize, s: &str| toks.get(j + k).is_some_and(|n| n.is(s));
            let field_or_variant = toks.get(j + 1).is_none_or(|n| n.line != name.line)
                || next_is(1, ":") && !next_is(2, ":")
                || next_is(1, "=") && !next_is(2, "=")
                || next_is(1, ",")
                || next_is(1, "(")
                || next_is(1, "{");
            if field_or_variant {
                d.names.insert(name.text.to_string());
            }
        }
        d
    }
}
