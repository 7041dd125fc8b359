//! Per-function effect summaries: direct allocations, IO, blocking,
//! RNG/clock sources, lock acquisitions (with guard extents), and call
//! sites. The call graph ([`crate::graph`]) propagates these
//! transitively; this module only records what a body does *directly*.
//!
//! Detection is token-pattern based and deliberately conservative in the
//! "flag too much, never too little" direction for must-not rules: a
//! `.collect()` counts as an allocation even when it collects into a
//! fixed array, because hot-path rules (H1) would rather see a justified
//! `lint:allow` than miss a real allocation.

use crate::lexer::{Tok, TokKind};
use crate::parse::{matching_close, FnItem};
use crate::rules::{ident_at, is_punct};

/// A direct effect kind observed in a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Heap allocation (`Vec::new`, `collect`, `format!`, …).
    Alloc,
    /// Filesystem / stdio traffic.
    Io,
    /// Blocking primitives (`sleep`, `recv`, `wait`, `park`).
    Block,
    /// Unseeded RNG source (`thread_rng`, `from_entropy`).
    Rng,
    /// Raw clock source (`Instant::now`, `SystemTime::now`).
    Clock,
}

impl Effect {
    /// Name used in `lint.toml` deny lists and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Alloc => "alloc",
            Effect::Io => "io",
            Effect::Block => "block",
            Effect::Rng => "rng",
            Effect::Clock => "clock",
        }
    }

    /// Parses a `lint.toml` deny-list entry.
    pub fn from_name(s: &str) -> Option<Effect> {
        Some(match s {
            "alloc" => Effect::Alloc,
            "io" => Effect::Io,
            "block" => Effect::Block,
            "rng" => Effect::Rng,
            "clock" => Effect::Clock,
            _ => return None,
        })
    }
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Lock identity: the last identifier of the receiver/argument path
    /// (`self.cache.lock()` -> `cache`; `lock_unpoisoned(registry())` ->
    /// `registry`). The graph prefixes the crate name to form the full
    /// id (`serve.cache`).
    pub lock: String,
    /// Line of the acquiring call.
    pub line: u32,
    /// Token range `[start, end)` over which the returned guard is
    /// conservatively considered held (see `guard_extent`).
    pub extent: (usize, usize),
    /// Token index of the acquiring call's name, so L2 can skip the
    /// acquiring call itself when scanning the extent for callees.
    pub at: usize,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Path segment immediately before `::name(` when present
    /// (`metrics::histogram(` -> `metrics`; `Matrix::zeros(` -> `Matrix`).
    pub qualifier: Option<String>,
    /// Whether the call is a method call (`recv.name(…)`).
    pub is_method: bool,
    /// Line of the call.
    pub line: u32,
    /// Token index of the callee name.
    pub at: usize,
}

/// Everything a single function does directly.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Direct effects with the line of each site (deduped per line).
    pub effects: Vec<(Effect, u32)>,
    /// Direct lock acquisitions.
    pub acquisitions: Vec<Acquisition>,
    /// Direct call sites.
    pub calls: Vec<CallSite>,
}

const ALLOC_TYPES: [&str; 10] = [
    "Vec", "String", "Box", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];
const ALLOC_TYPE_FNS: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];
const ALLOC_METHODS: [&str; 6] = [
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "into_owned",
    "into_boxed_slice",
];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
const IO_MACROS: [&str; 4] = ["println", "eprintln", "print", "eprint"];
const IO_FNS: [&str; 12] = [
    "read_to_string",
    "write_all",
    "sync_all",
    "flush",
    "read_dir",
    "create_dir_all",
    "remove_file",
    "rename",
    "copy",
    "stdout",
    "stderr",
    "stdin",
];
const IO_TYPES: [&str; 2] = ["File", "OpenOptions"];
const BLOCK_FNS: [&str; 6] = [
    "sleep",
    "park",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
];
const RNG_FNS: [&str; 2] = ["thread_rng", "from_entropy"];

/// Rust keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "fn", "loop", "move", "in", "as",
];

/// Summarizes one function body. `toks` is the whole file's stream;
/// `item.body` bounds the scan. `skip` holds token ranges of *nested*
/// `fn` items whose effects belong to themselves, not this function.
/// `acquire_fns` are helper names (e.g. `lock_unpoisoned`) whose call is
/// itself a lock acquisition of the lock named by the first argument.
pub fn summarize(
    toks: &[Tok],
    item: &FnItem,
    skip: &[(usize, usize)],
    acquire_fns: &[String],
) -> FnSummary {
    let mut s = FnSummary::default();
    let (start, end) = item.body;
    let mut i = start;
    while i < end {
        if let Some((ns, ne)) = skip.iter().find(|(ns, _)| *ns == i).copied() {
            i = ne.max(ns + 1);
            continue;
        }
        step(toks, i, start, end, acquire_fns, &mut s);
        i += 1;
    }
    // One effect report per (kind, line).
    s.effects.sort_unstable();
    s.effects.dedup();
    s
}

/// Examines the token at `i`, appending any effect/acquisition/call that
/// *starts* here.
fn step(
    toks: &[Tok],
    i: usize,
    body_start: usize,
    body_end: usize,
    acquire_fns: &[String],
    s: &mut FnSummary,
) {
    let line = toks[i].line;
    let Some(id) = ident_at(toks, i) else {
        return;
    };

    // Macros: `name ! (`.
    if is_punct(toks, i + 1, '!') {
        if ALLOC_MACROS.contains(&id) {
            s.effects.push((Effect::Alloc, line));
        }
        if IO_MACROS.contains(&id) {
            s.effects.push((Effect::Io, line));
        }
        return;
    }

    let prev_dot = is_punct(toks, i.wrapping_sub(1), '.');
    let prev_path =
        is_punct(toks, i.wrapping_sub(1), ':') && is_punct(toks, i.wrapping_sub(2), ':');
    let next_call = is_punct(toks, i + 1, '(');

    // `Type::fn(` allocation constructors and `fs::`/`File::` IO.
    if ALLOC_TYPES.contains(&id) && is_punct(toks, i + 1, ':') && is_punct(toks, i + 2, ':') {
        if let Some(f) = ident_at(toks, i + 3) {
            if ALLOC_TYPE_FNS.contains(&f) {
                s.effects.push((Effect::Alloc, line));
            }
        }
    }
    if (id == "fs" || IO_TYPES.contains(&id))
        && is_punct(toks, i + 1, ':')
        && is_punct(toks, i + 2, ':')
    {
        s.effects.push((Effect::Io, line));
    }

    if next_call {
        if prev_dot && ALLOC_METHODS.contains(&id) {
            s.effects.push((Effect::Alloc, line));
        }
        if IO_FNS.contains(&id) {
            s.effects.push((Effect::Io, line));
        }
        if BLOCK_FNS.contains(&id) {
            s.effects.push((Effect::Block, line));
        }
        if RNG_FNS.contains(&id) {
            s.effects.push((Effect::Rng, line));
        }
    }

    // `Instant::now()` / `SystemTime::now()`.
    if (id == "Instant" || id == "SystemTime")
        && is_punct(toks, i + 1, ':')
        && is_punct(toks, i + 2, ':')
        && ident_at(toks, i + 3) == Some("now")
    {
        s.effects.push((Effect::Clock, line));
    }

    // Lock acquisitions: `recv.lock()` or `acquire_fn(lock_path)`.
    if id == "lock" && prev_dot && next_call {
        if let Some(lock) = receiver_path_tail(toks, i.wrapping_sub(2), body_start) {
            s.acquisitions.push(Acquisition {
                lock,
                line,
                extent: guard_extent(toks, i, body_start, body_end),
                at: i,
            });
        }
        return;
    }
    if acquire_fns.iter().any(|f| f == id) && next_call && !prev_dot {
        if let Some(lock) = argument_path_tail(toks, i + 1) {
            s.acquisitions.push(Acquisition {
                lock,
                line,
                extent: guard_extent(toks, i, body_start, body_end),
                at: i,
            });
        }
        return;
    }

    // Plain calls. Skip keywords, struct literals handled implicitly
    // (they use `{`), and definitions (`fn name(` is skipped because the
    // parser owns that token — but nested bodies are scanned here, so
    // check the previous token).
    if next_call
        && !NON_CALL_KEYWORDS.contains(&id)
        && ident_at(toks, i.wrapping_sub(1)) != Some("fn")
    {
        let qualifier = if prev_path {
            ident_at(toks, i.wrapping_sub(3)).map(str::to_string)
        } else {
            None
        };
        s.calls.push(CallSite {
            name: id.to_string(),
            qualifier,
            is_method: prev_dot,
            line,
            at: i,
        });
    }
}

/// Walks a receiver path backward from `end_ix` (the token before the
/// `.lock` dot), returning the last *field/call* identifier:
/// `self.cache` -> `cache`, `shared.queue` -> `queue`,
/// `registry()` -> `registry`, `&self.inner[i]` -> `inner`.
fn receiver_path_tail(toks: &[Tok], end_ix: usize, floor: usize) -> Option<String> {
    let mut j = end_ix;
    // Skip trailing index/call groups: `registry()` or `slots[i]`.
    loop {
        if j < floor {
            return None;
        }
        match toks[j].kind {
            TokKind::Punct(')') | TokKind::Punct(']') => {
                // Walk back to the matching opener.
                let (o, c) = if toks[j].kind == TokKind::Punct(')') {
                    ('(', ')')
                } else {
                    ('[', ']')
                };
                let mut depth = 0i32;
                while j >= floor {
                    match toks[j].kind {
                        TokKind::Punct(p) if p == c => depth += 1,
                        TokKind::Punct(p) if p == o => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == floor {
                        return None;
                    }
                    j -= 1;
                }
                if j == floor && depth != 0 {
                    return None;
                }
                j = j.checked_sub(1)?;
            }
            _ => break,
        }
    }
    ident_at(toks, j).map(str::to_string)
}

/// For `acquire_fn(arg)`: the last identifier of the argument path
/// before the closing paren or a `(`/`[` group:
/// `lock_unpoisoned(&self.cache)` -> `cache`,
/// `lock_unpoisoned(registry())` -> `registry`.
fn argument_path_tail(toks: &[Tok], open: usize) -> Option<String> {
    let close = matching_close(toks, open);
    let mut last = None;
    let mut j = open + 1;
    while j < close {
        match &toks[j].kind {
            TokKind::Ident(s) if s != "mut" && s != "self" => last = Some(s.clone()),
            TokKind::Punct('(') | TokKind::Punct('[') => {
                // `registry()` — the callee ident was already captured;
                // do not descend into arguments of the inner call.
                j = matching_close(toks, j);
            }
            _ => {}
        }
        j += 1;
    }
    last
}

/// Token range over which the guard returned by the acquisition at `at`
/// is considered held.
///
/// * `let g = ACQ…;` — held from the acquisition to the end of the
///   enclosing block (or a `drop(g)` statement, which ends it early).
/// * Temporary (`ACQ.method(…)` inside a larger expression) — held to
///   the end of the enclosing statement. A `{` at statement level
///   extends the extent through the matching `}` (modeling Rust 2021
///   `if let Some(x) = m.lock().… { body }` temporary lifetimes, where
///   the guard lives for the whole `if`).
fn guard_extent(toks: &[Tok], at: usize, body_start: usize, body_end: usize) -> (usize, usize) {
    // Find the start of the enclosing statement: walk back to the
    // nearest `;`, `{`, or `}` at or above our nesting level.
    let mut stmt_start = at;
    let mut depth = 0i32;
    while stmt_start > body_start {
        let k = stmt_start - 1;
        match toks[k].kind {
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        stmt_start = k;
    }

    let bound_name =
        let_binding_name(toks, stmt_start, at).filter(|_| initializer_is_guard(toks, at));
    if let Some(name) = bound_name {
        // Held to the end of the enclosing block, or an early `drop(g)`.
        let mut j = at;
        let mut d = 0i32;
        while j < body_end {
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => d -= 1,
                TokKind::Punct('}') => {
                    d -= 1;
                    if d < 0 {
                        return (at, j);
                    }
                }
                TokKind::Ident(ref s)
                    if s == "drop"
                        && d == 0
                        && is_punct(toks, j + 1, '(')
                        && ident_at(toks, j + 2) == Some(name.as_str())
                        && is_punct(toks, j + 3, ')') =>
                {
                    return (at, j);
                }
                _ => {}
            }
            j += 1;
        }
        return (at, body_end);
    }

    // Temporary: scan forward to the statement's `;`. Depth may go
    // negative while we climb out of the groups the acquisition sits in.
    let mut j = at + 1;
    let mut d = 0i32;
    while j < body_end {
        match toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => d -= 1,
            TokKind::Punct('{') if d <= 0 => {
                // Statement-level block: `if let … = ACQ… { body }` — the
                // temporary guard lives through the body.
                let close = matching_close(toks, j);
                return (at, close + 1);
            }
            TokKind::Punct('{') => d += 1,
            TokKind::Punct('}') => {
                d -= 1;
                if d < 0 {
                    return (at, j);
                }
            }
            TokKind::Punct(';') if d <= 0 => return (at, j),
            _ => {}
        }
        j += 1;
    }
    (at, body_end)
}

/// Adapters that forward the guard itself (`LockResult` unwrapping), so
/// `let g = m.lock().unwrap();` still binds the guard.
const GUARD_ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// True when the acquisition expression — plus `?` and unwrap-family
/// adapters — is the *entire* rest of the statement, so a `let` binds
/// the guard itself. `let v = lock_unpoisoned(m).get(k);` binds `v` to
/// the result of `get`; the guard is a temporary dropped at the `;`.
fn initializer_is_guard(toks: &[Tok], at: usize) -> bool {
    let mut j = matching_close(toks, at + 1) + 1; // past the acquisition's args
    loop {
        match toks.get(j).map(|t| &t.kind) {
            Some(TokKind::Punct('?')) => j += 1,
            Some(TokKind::Punct('.')) => {
                let Some(name) = ident_at(toks, j + 1) else {
                    return false;
                };
                if !GUARD_ADAPTERS.contains(&name) || !is_punct(toks, j + 2, '(') {
                    return false;
                }
                j = matching_close(toks, j + 2) + 1;
            }
            Some(TokKind::Punct(';')) | None => return true,
            _ => return false,
        }
    }
}

/// If the statement starting at `stmt_start` is `let [mut] name = …` and
/// the acquisition at `at` belongs to its initializer, returns `name`.
fn let_binding_name(toks: &[Tok], stmt_start: usize, at: usize) -> Option<String> {
    let mut j = stmt_start;
    if ident_at(toks, j) != Some("let") {
        return None;
    }
    j += 1;
    if ident_at(toks, j) == Some("mut") {
        j += 1;
    }
    let name = ident_at(toks, j)?.to_string();
    // Plain binding only: `let g = …`. Patterns (`let Some(g) = …`,
    // `let (a, b) = …`) fall back to temporary semantics, which is the
    // conservative direction for `if let` guards.
    if !is_punct(toks, j + 1, '=') || is_punct(toks, j + 2, '=') {
        return None;
    }
    (j + 2 <= at).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn summarize_src(src: &str) -> Vec<FnSummary> {
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens, &[]);
        let acq = vec!["lock_unpoisoned".to_string()];
        items
            .iter()
            .map(|it| {
                let nested: Vec<(usize, usize)> = items
                    .iter()
                    .filter(|o| o.body.0 > it.body.0 && o.body.1 <= it.body.1)
                    .map(|o| o.body)
                    .collect();
                summarize(&lexed.tokens, it, &nested, &acq)
            })
            .collect()
    }

    fn effects(s: &FnSummary) -> Vec<Effect> {
        let mut e: Vec<Effect> = s.effects.iter().map(|(k, _)| *k).collect();
        e.dedup();
        e
    }

    #[test]
    fn detects_alloc_io_block_sources() {
        let src = r#"
fn a() { let v: Vec<u32> = Vec::with_capacity(4); let _ = v; }
fn b() { println!("x"); }
fn c(rx: &Receiver<u32>) { let _ = rx.recv(); }
fn d() { let mut r = rand::thread_rng(); }
fn e() { let t = std::time::Instant::now(); }
fn pure(x: u32) -> u32 { x + 1 }
"#;
        let got = summarize_src(src);
        assert_eq!(effects(&got[0]), vec![Effect::Alloc]);
        assert_eq!(effects(&got[1]), vec![Effect::Io]);
        assert_eq!(effects(&got[2]), vec![Effect::Block]);
        assert_eq!(effects(&got[3]), vec![Effect::Rng]);
        assert_eq!(effects(&got[4]), vec![Effect::Clock]);
        assert!(effects(&got[5]).is_empty());
    }

    #[test]
    fn lock_method_and_acquire_fn() {
        let src = r#"
fn f(&self) {
    let g = self.cache.lock().unwrap();
    let h = lock_unpoisoned(&self.queue);
}
"#;
        let got = summarize_src(src);
        let locks: Vec<&str> = got[0]
            .acquisitions
            .iter()
            .map(|a| a.lock.as_str())
            .collect();
        assert_eq!(locks, vec!["cache", "queue"]);
    }

    #[test]
    fn acquire_fn_with_call_receiver() {
        let src = "fn f() { let g = lock_unpoisoned(registry()); }";
        let got = summarize_src(src);
        assert_eq!(got[0].acquisitions[0].lock, "registry");
    }

    #[test]
    fn let_guard_held_to_block_end_unless_dropped() {
        let src = r#"
fn f(&self) {
    let g = lock_unpoisoned(&self.a);
    first();
    drop(g);
    second();
}
"#;
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens, &[]);
        let s = summarize(
            &lexed.tokens,
            &items[0],
            &[],
            &["lock_unpoisoned".to_string()],
        );
        let ext = s.acquisitions[0].extent;
        let in_extent = |name: &str| {
            s.calls
                .iter()
                .any(|c| c.name == name && c.at >= ext.0 && c.at < ext.1)
        };
        assert!(in_extent("first"));
        assert!(!in_extent("second"));
    }

    #[test]
    fn temporary_guard_ends_at_statement_but_spans_if_let_body() {
        let src = r#"
fn f(&self) {
    self.m.lock().push(1);
    after_stmt();
    if let Some(x) = self.m.lock().get(0) { inside(x); }
    outside();
}
"#;
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens, &[]);
        let s = summarize(&lexed.tokens, &items[0], &[], &[]);
        let in_extent = |ext: (usize, usize), name: &str| {
            s.calls
                .iter()
                .any(|c| c.name == name && c.at >= ext.0 && c.at < ext.1)
        };
        let first = s.acquisitions[0].extent;
        assert!(!in_extent(first, "after_stmt"));
        let second = s.acquisitions[1].extent;
        assert!(in_extent(second, "inside"), "if-let temporary spans body");
        assert!(!in_extent(second, "outside"));
    }

    #[test]
    fn let_binding_of_lookup_result_is_a_temporary_guard() {
        // `cached` binds the *result* of `get`, not the guard — the
        // guard is a temporary dropped at the `;`, so the call on the
        // next statement is outside the extent.
        let src = r#"
fn f(&self) {
    let cached = lock_unpoisoned(&self.cache).get(0);
    counter();
    let g = lock_unpoisoned(&self.cache).unwrap_or_else(|p| p);
    second();
}
"#;
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens, &[]);
        let s = summarize(
            &lexed.tokens,
            &items[0],
            &[],
            &["lock_unpoisoned".to_string()],
        );
        let in_extent = |ext: (usize, usize), name: &str| {
            s.calls
                .iter()
                .any(|c| c.name == name && c.at >= ext.0 && c.at < ext.1)
        };
        assert!(!in_extent(s.acquisitions[0].extent, "counter"));
        // Unwrap-family adapters still bind the guard itself.
        assert!(in_extent(s.acquisitions[1].extent, "second"));
    }

    #[test]
    fn calls_capture_qualifier_and_method_flag() {
        let src = "fn f(&self) { metrics::counter(\"x\"); self.step(); helper(); }";
        let got = summarize_src(src);
        let c = &got[0].calls;
        assert_eq!(c[0].name, "counter");
        assert_eq!(c[0].qualifier.as_deref(), Some("metrics"));
        assert!(!c[0].is_method);
        assert!(c[1].is_method);
        assert!(c[2].qualifier.is_none() && !c[2].is_method);
    }

    #[test]
    fn nested_fn_effects_not_charged_to_parent() {
        let src = r#"
fn outer() {
    fn inner() { println!("io"); }
    inner();
}
"#;
        let got = summarize_src(src);
        assert!(effects(&got[0]).is_empty(), "{:?}", got[0].effects);
        assert_eq!(effects(&got[1]), vec![Effect::Io]);
    }

    #[test]
    fn clone_is_not_an_alloc() {
        let src = "fn f(v: &Vec<u32>) -> Vec<u32> { v.clone() }";
        let got = summarize_src(src);
        assert!(effects(&got[0]).is_empty());
    }
}
