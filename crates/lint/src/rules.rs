//! The eight lint rules, evaluated over the token stream of one file.
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no iteration over `HashMap`/`HashSet` in numeric/data crates |
//! | D2   | no unseeded RNG (`thread_rng`, `from_entropy`) outside tests |
//! | D3   | no ad-hoc `Instant::now`/`SystemTime::now` (obs clock shims are allowlisted) |
//! | N1   | literal span names are dotted `snake_case` paths (`serve.batch.score`) |
//! | R1   | no `unwrap()`/`expect()`/`panic!` in library crates |
//! | R2   | every `unsafe` block carries a `// SAFETY:` comment |
//! | R3   | no `process::exit`/`process::abort` in library crates |
//! | S1   | every `#[target_feature]` fn is `unsafe` with a `SAFETY` comment naming the guarding dispatch check |
//!
//! Tests (`#[cfg(test)]` regions, `#[test]` functions, `tests/` and
//! `benches/` trees) are exempt from every rule. Inline
//! `// lint:allow(RULE)` comments suppress a rule on the next line, and
//! `lint.toml` carries a file-level allowlist.

use crate::config::{Config, ALL_RULES};
use crate::lexer::{lex, Comment, Tok, TokKind};
use std::collections::BTreeSet;
use std::ops::RangeInclusive;

/// One diagnostic: a rule violated at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (`D1` … `R2`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a file participates in the rule set, derived from its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// `crates/<name>/src/…` library source.
    Lib(String),
    /// `crates/<name>/src/bin/…` or `crates/<name>/src/main.rs` binary
    /// source.
    Bin(String),
    /// Test/bench/example code: exempt from everything.
    Exempt,
}

pub(crate) fn classify(path: &str) -> FileKind {
    let parts: Vec<&str> = path.split('/').collect();
    if parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples" || *p == "fixtures")
    {
        return FileKind::Exempt;
    }
    if let Some(i) = parts.iter().position(|p| *p == "crates") {
        if let Some(name) = parts.get(i + 1) {
            let name = name.to_string();
            if parts.get(i + 2) == Some(&"src")
                && (parts.get(i + 3) == Some(&"bin") || parts.get(i + 3) == Some(&"main.rs"))
            {
                return FileKind::Bin(name);
            }
            return FileKind::Lib(name);
        }
    }
    FileKind::Exempt
}

/// Runs every applicable rule over one source file.
pub fn check_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let kind = classify(path);
    if kind == FileKind::Exempt {
        return Vec::new();
    }
    let lexed = lex(src);
    let ctx = FileCtx {
        path,
        kind,
        test_regions: test_regions(&lexed.tokens),
        suppressions: suppressions(&lexed.comments, &lexed.tokens),
        file_allow: cfg.allow.get(path).cloned().unwrap_or_default(),
    };

    let mut out = Vec::new();
    let crate_name = match &ctx.kind {
        FileKind::Lib(n) | FileKind::Bin(n) => n.clone(),
        FileKind::Exempt => unreachable!("exempt files return early"),
    };

    if cfg.d1_crates.contains(&crate_name) {
        rule_d1(&lexed.tokens, &ctx, &mut out);
    }
    if !cfg.d2_exempt_crates.contains(&crate_name) {
        rule_d2(&lexed.tokens, &ctx, &mut out);
    }
    if cfg.d3_crates.contains(&crate_name) {
        rule_d3(&lexed.tokens, &ctx, &mut out);
    }
    // N1 guards the trace namespace everywhere: a misnamed span pollutes
    // every Perfetto view and digest downstream, so no crate is exempt.
    rule_n1(&lexed.tokens, &ctx, &mut out);
    let r1_applies =
        matches!(ctx.kind, FileKind::Lib(_)) && !cfg.r1_exempt_crates.contains(&crate_name);
    if r1_applies {
        rule_r1(&lexed.tokens, &ctx, &mut out);
    }
    rule_r2(&lexed.tokens, &lexed.comments, &ctx, &mut out);
    rule_s1(&lexed.tokens, &lexed.comments, &ctx, &mut out);
    let r3_applies =
        matches!(ctx.kind, FileKind::Lib(_)) && !cfg.r3_exempt_crates.contains(&crate_name);
    if r3_applies {
        rule_r3(&lexed.tokens, &ctx, &mut out);
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

struct FileCtx<'a> {
    path: &'a str,
    kind: FileKind,
    test_regions: Vec<RangeInclusive<u32>>,
    /// `(line, rule)` pairs silenced by inline `lint:allow` comments.
    suppressions: BTreeSet<(u32, String)>,
    /// Rules silenced for the whole file by `lint.toml`.
    file_allow: BTreeSet<String>,
}

impl FileCtx<'_> {
    fn emit(&self, out: &mut Vec<Violation>, line: u32, rule: &'static str, message: String) {
        if self.file_allow.contains(rule) {
            return;
        }
        if self.test_regions.iter().any(|r| r.contains(&line)) {
            return;
        }
        if self.suppressions.contains(&(line, rule.to_string())) {
            return;
        }
        out.push(Violation {
            file: self.path.to_string(),
            line,
            rule,
            message,
        });
    }
}

/// Finds `#[cfg(test)]`/`#[test]` items and returns their line ranges.
///
/// An attribute whose tokens include the ident `test` marks what it
/// decorates. An item extends to the matching `}` of its first brace
/// (or to the `;` of a brace-less item such as `#[cfg(test)] use …;`);
/// a field, variant or statement also stops at its `,` or at the
/// closing bracket of the list it sits in.
pub(crate) fn test_regions(toks: &[Tok]) -> Vec<RangeInclusive<u32>> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_punct(toks, i, '#') || !is_punct(toks, i + 1, '[') {
            i += 1;
            continue;
        }
        // Scan the attribute body for the `test` / `cfg(test)` idents.
        let start_line = toks[i].line;
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut has_test = false;
        let mut has_not = false;
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                TokKind::Ident(s) if s == "test" => has_test = true,
                TokKind::Ident(s) if s == "not" => has_not = true,
                _ => {}
            }
            j += 1;
        }
        // `#[cfg(not(test))]` guards non-test code: do not exempt it.
        if !has_test || has_not {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while is_punct(toks, j, '#') && is_punct(toks, j + 1, '[') {
            let mut depth = 1usize;
            j += 2;
            while j < toks.len() && depth > 0 {
                match &toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // Find the extent. An item (`fn`, `impl`, `mod`, …) runs to the
        // `}` matching its first `{`, or to a `;` that arrives before any
        // `{` (`#[cfg(test)] use …;`). A field, variant or statement also
        // ends at a `,` or at an unmatched closing bracket that arrives
        // before any `{`, so a `#[cfg(test)]` field exempts that field
        // and never the code after its struct.
        let item = starts_item(toks, j);
        let mut end_line = start_line;
        let mut k = j;
        let mut found = false;
        // Open `(`/`[` (and braces inside them), and open `<` of a
        // field's type, so a `,` or `;` inside them ends nothing.
        let (mut depth, mut angles) = (0usize, 0usize);
        while k < toks.len() {
            match &toks[k].kind {
                TokKind::Punct(';') if depth == 0 => {
                    end_line = toks[k].line;
                    found = true;
                    k += 1;
                    break;
                }
                TokKind::Punct(',') if !item && depth == 0 && angles == 0 => {
                    end_line = toks[k].line;
                    found = true;
                    k += 1;
                    break;
                }
                TokKind::Punct('{') if depth == 0 => {
                    let mut depth = 1usize;
                    k += 1;
                    while k < toks.len() && depth > 0 {
                        match &toks[k].kind {
                            TokKind::Punct('{') => depth += 1,
                            TokKind::Punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    end_line = toks[k].line;
                                    found = true;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    break;
                }
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') if depth == 0 => {
                    // The enclosing list closed: the field or variant
                    // ended on the token before.
                    end_line = toks[k - 1].line.max(start_line);
                    found = true;
                    break;
                }
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                TokKind::Punct('<') if !item => angles += 1,
                // `->` and `=>` close no `<`.
                TokKind::Punct('>')
                    if !item && !is_punct(toks, k - 1, '-') && !is_punct(toks, k - 1, '=') =>
                {
                    angles = angles.saturating_sub(1);
                }
                _ => {}
            }
            k += 1;
        }
        if found {
            regions.push(start_line..=end_line);
            i = k;
        } else {
            i = j;
        }
    }
    regions
}

/// Whether the tokens from `j` open an item (`fn`, `impl`, `mod`, …),
/// after any visibility, rather than a field, variant or statement.
fn starts_item(toks: &[Tok], mut j: usize) -> bool {
    if ident_at(toks, j) == Some("pub") {
        j += 1;
        if is_punct(toks, j, '(') {
            while j < toks.len() && !is_punct(toks, j, ')') {
                j += 1;
            }
            j += 1;
        }
    }
    matches!(
        ident_at(toks, j),
        Some(
            "fn" | "impl"
                | "mod"
                | "struct"
                | "enum"
                | "trait"
                | "union"
                | "type"
                | "use"
                | "static"
                | "const"
                | "extern"
                | "unsafe"
                | "async"
                | "macro_rules"
        )
    )
}

/// Parses `lint:allow(R1)` / `lint:allow(D1, R1): reason` comments into
/// `(line, rule)` suppressions covering the comment's own line(s) and
/// the *entire statement that follows* — a multi-line call chain is one
/// statement, so a single allow above it covers every continuation
/// line. (Trailing comments work because the comment's own line is
/// always covered.)
pub(crate) fn suppressions(comments: &[Comment], toks: &[Tok]) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for c in comments {
        let Some(idx) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[idx + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let covered = statement_lines(toks, c.end_line);
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if ALL_RULES.contains(&rule) {
                out.insert((c.line, rule.to_string()));
                for &line in &covered {
                    out.insert((line, rule.to_string()));
                }
            }
        }
    }
    out
}

/// Lines spanned by the statement that starts at the first token after
/// `after_line`: forward to the statement's `;` (tracking `()`/`[]`
/// nesting so a `;` inside arguments cannot end it early), stopping
/// before a statement-level `{` (an item body gets no blanket
/// suppression) or at the `}` that closes the enclosing block.
fn statement_lines(toks: &[Tok], after_line: u32) -> Vec<u32> {
    let Some(start) = toks.iter().position(|t| t.line > after_line) else {
        return vec![after_line + 1];
    };
    let mut lines = vec![toks[start].line];
    let mut depth = 0i32;
    for t in &toks[start..] {
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokKind::Punct('{') => {
                if depth == 0 {
                    break;
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokKind::Punct(';') if depth <= 0 => {
                lines.push(t.line);
                break;
            }
            _ => {}
        }
        lines.push(t.line);
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

pub(crate) fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

pub(crate) fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some(Tok {
            kind: TokKind::Ident(s),
            ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Collects identifiers bound to `HashMap`/`HashSet` in this file:
/// type-annotated bindings/params/fields (`name: [&mut] [path::]HashMap`)
/// and inferred lets (`let [mut] name = [path::]HashMap::…`).
fn hash_bound_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        // `name : … HashMap`
        if is_punct(toks, i, ':')
            && !is_punct(toks, i + 1, ':')
            && !is_punct(toks, i.wrapping_sub(1), ':')
        {
            if let Some(name) = ident_at(toks, i.wrapping_sub(1)) {
                if let Some(ty) = head_type_after(toks, i + 1) {
                    if HASH_TYPES.contains(&ty) {
                        names.insert(name.to_string());
                    }
                }
            }
        }
        // `let [mut] name = … HashMap ::`
        if ident_at(toks, i) == Some("let") {
            let mut j = i + 1;
            if ident_at(toks, j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ident_at(toks, j) {
                if is_punct(toks, j + 1, '=') {
                    if let Some(ty) = head_type_after(toks, j + 2) {
                        if HASH_TYPES.contains(&ty) {
                            names.insert(name.to_string());
                        }
                    }
                }
            }
        }
    }
    names
}

/// Resolves the head type name starting at `i`, skipping `&`, `mut`,
/// lifetimes, and leading path segments (`std :: collections ::`).
/// Returns the final identifier of the path.
fn head_type_after(toks: &[Tok], mut i: usize) -> Option<&str> {
    loop {
        match toks.get(i)?.kind {
            TokKind::Punct('&') => i += 1,
            TokKind::Lifetime => i += 1,
            TokKind::Ident(ref s) if s == "mut" => i += 1,
            _ => break,
        }
    }
    let mut last = ident_at(toks, i)?;
    loop {
        if is_punct(toks, i + 1, ':') && is_punct(toks, i + 2, ':') {
            match ident_at(toks, i + 3) {
                Some(next) => {
                    last = next;
                    i += 3;
                }
                None => break,
            }
        } else {
            break;
        }
    }
    Some(last)
}

/// D1: iteration over `HashMap`/`HashSet` has a randomized order that
/// leaks straight into sums, graphs, and serialized output.
fn rule_d1(toks: &[Tok], ctx: &FileCtx, out: &mut Vec<Violation>) {
    let names = hash_bound_names(toks);
    for i in 0..toks.len() {
        // `receiver.method(` where method is an iteration method.
        if is_punct(toks, i, '.') {
            if let Some(m) = ident_at(toks, i + 1) {
                if ITER_METHODS.contains(&m) && is_punct(toks, i + 2, '(') {
                    if let Some(recv) = ident_at(toks, i.wrapping_sub(1)) {
                        if names.contains(recv) {
                            ctx.emit(
                                out,
                                toks[i + 1].line,
                                "D1",
                                format!(
                                    "`.{m}()` on `{recv}` (HashMap/HashSet) iterates in \
                                     randomized order; use BTreeMap/BTreeSet or extract \
                                     and sort first"
                                ),
                            );
                        }
                    }
                }
            }
        }
        // `for pat in [&][mut] receiver {`
        if ident_at(toks, i) == Some("in") {
            let mut j = i + 1;
            while is_punct(toks, j, '&') || ident_at(toks, j) == Some("mut") {
                j += 1;
            }
            // Walk a `self.field` / `a.b` / plain `name` path.
            let mut last = match ident_at(toks, j) {
                Some(s) => s,
                None => continue,
            };
            while is_punct(toks, j + 1, '.') {
                match ident_at(toks, j + 2) {
                    Some(next) => {
                        last = next;
                        j += 2;
                    }
                    None => break,
                }
            }
            if names.contains(last) && is_punct(toks, j + 1, '{') {
                ctx.emit(
                    out,
                    toks[j].line,
                    "D1",
                    format!(
                        "`for … in {last}` iterates a HashMap/HashSet in randomized \
                         order; use BTreeMap/BTreeSet or extract and sort first"
                    ),
                );
            }
        }
    }
}

/// D2: unseeded RNG makes runs unreproducible.
fn rule_d2(toks: &[Tok], ctx: &FileCtx, out: &mut Vec<Violation>) {
    for t in toks {
        if let TokKind::Ident(s) = &t.kind {
            if s == "thread_rng" || s == "from_entropy" {
                ctx.emit(
                    out,
                    t.line,
                    "D2",
                    format!("`{s}` draws entropy from the OS; seed an explicit StdRng instead"),
                );
            }
        }
    }
}

/// D3: ad-hoc clocks in model/data code; timing belongs to `obs` spans.
fn rule_d3(toks: &[Tok], ctx: &FileCtx, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        let Some(ty) = ident_at(toks, i) else {
            continue;
        };
        if (ty == "Instant" || ty == "SystemTime")
            && is_punct(toks, i + 1, ':')
            && is_punct(toks, i + 2, ':')
            && ident_at(toks, i + 3) == Some("now")
        {
            ctx.emit(
                out,
                toks[i].line,
                "D3",
                format!(
                    "`{ty}::now()` in model/data code; use a `scenerec_obs::trace` span \
                     or `scenerec_obs::Stopwatch` so timing stays in the obs layer"
                ),
            );
        }
    }
}

/// The trace-API entry points whose first literal argument is a span
/// name subject to N1.
const SPAN_FNS: [&str; 3] = ["start_span", "record_span", "record_span_at"];

/// Whether `name` is a dotted `snake_case` path: one or more segments
/// joined by single dots, each matching `[a-z][a-z0-9_]*`.
fn is_dotted_snake_case(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            let mut chars = seg.chars();
            chars.next().is_some_and(|c| c.is_ascii_lowercase())
                && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// N1: literal span names passed to `start_span`, `record_span` or
/// `record_span_at` must be dotted `snake_case` paths, so traces group
/// cleanly in Perfetto and structure digests stay greppable
/// (`serve.batch.score`, not `Serve/BatchScore`).
fn rule_n1(toks: &[Tok], ctx: &FileCtx, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        let Some(f) = ident_at(toks, i) else {
            continue;
        };
        if !SPAN_FNS.contains(&f) || !is_punct(toks, i + 1, '(') {
            continue;
        }
        let Some(Tok {
            kind: TokKind::Str(name),
            line,
        }) = toks.get(i + 2)
        else {
            continue;
        };
        if !is_dotted_snake_case(name) {
            ctx.emit(
                out,
                *line,
                "N1",
                format!(
                    "span name `{name}` is not a dotted snake_case path; \
                     use segments like `serve.batch.score`"
                ),
            );
        }
    }
}

/// R1: `unwrap`/`expect`/`panic!` in library code aborts callers that
/// could have handled the error.
fn rule_r1(toks: &[Tok], ctx: &FileCtx, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if is_punct(toks, i, '.') {
            if let Some(m) = ident_at(toks, i + 1) {
                if (m == "unwrap" || m == "expect") && is_punct(toks, i + 2, '(') {
                    ctx.emit(
                        out,
                        toks[i + 1].line,
                        "R1",
                        format!("`.{m}()` in library code; propagate a Result or handle the None/Err arm"),
                    );
                }
            }
        }
        if ident_at(toks, i) == Some("panic") && is_punct(toks, i + 1, '!') {
            ctx.emit(
                out,
                toks[i].line,
                "R1",
                "`panic!` in library code; return an error instead".to_string(),
            );
        }
    }
}

/// R3: `process::exit`/`process::abort` in library code tears down the
/// whole process — skipping destructors, in-flight requests, and the
/// caller's chance to checkpoint or degrade. Library crates must
/// propagate errors; only binary entry points may choose an exit code.
fn rule_r3(toks: &[Tok], ctx: &FileCtx, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("process")
            || !is_punct(toks, i + 1, ':')
            || !is_punct(toks, i + 2, ':')
        {
            continue;
        }
        let Some(f) = ident_at(toks, i + 3) else {
            continue;
        };
        if (f == "exit" || f == "abort") && is_punct(toks, i + 4, '(') {
            ctx.emit(
                out,
                toks[i].line,
                "R3",
                format!(
                    "`process::{f}` in library code kills the whole process; \
                     return an error and let the binary decide the exit code"
                ),
            );
        }
    }
}

/// R2: every `unsafe` block needs a `// SAFETY:` comment within the
/// three preceding lines (or on its own line).
fn rule_r2(toks: &[Tok], comments: &[Comment], ctx: &FileCtx, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("unsafe") || !is_punct(toks, i + 1, '{') {
            continue;
        }
        let line = toks[i].line;
        let documented = comments
            .iter()
            .any(|c| c.text.contains("SAFETY") && c.end_line + 3 >= line && c.line <= line);
        if !documented {
            ctx.emit(
                out,
                line,
                "R2",
                "`unsafe` block without a `// SAFETY:` comment explaining the invariant"
                    .to_string(),
            );
        }
    }
}

/// S1: a `#[target_feature]` function is a contract with its runtime
/// dispatcher — calling it on a CPU without the feature is immediate
/// undefined behavior, invisible to the type system once the fn is
/// safe-wrapped. The fn must therefore be declared `unsafe`, and a
/// `// SAFETY:` comment within the four preceding lines must name the
/// guarding dispatch check (it must mention "dispatch") so the reader
/// can find the one place allowed to prove the CPU supports it.
fn rule_s1(toks: &[Tok], comments: &[Comment], ctx: &FileCtx, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        // `#[target_feature(...)]` — the attribute form only; a
        // `#[cfg(target_feature = ...)]` has `cfg` here instead.
        if !is_punct(toks, i, '#')
            || !is_punct(toks, i + 1, '[')
            || ident_at(toks, i + 2) != Some("target_feature")
        {
            continue;
        }
        let attr_line = toks[i].line;
        // Scan forward to the decorated `fn`, noting whether `unsafe`
        // appears on the way (other attributes may sit in between).
        let mut is_unsafe = false;
        let mut found_fn = false;
        for j in i + 3..toks.len().min(i + 64) {
            match ident_at(toks, j) {
                Some("unsafe") => is_unsafe = true,
                Some("fn") => {
                    found_fn = true;
                    break;
                }
                _ => {}
            }
        }
        if !found_fn {
            continue;
        }
        if !is_unsafe {
            ctx.emit(
                out,
                attr_line,
                "S1",
                "`#[target_feature]` function must be declared `unsafe`; \
                 a safe wrapper hides the wrong-CPU UB from every caller"
                    .to_string(),
            );
        }
        let window = |needle: &str| {
            comments.iter().any(|c| {
                c.text.contains(needle) && c.end_line + 4 >= attr_line && c.line <= attr_line
            })
        };
        if !(window("SAFETY") && window("dispatch")) {
            ctx.emit(
                out,
                attr_line,
                "S1",
                "`#[target_feature]` function needs a `// SAFETY:` comment \
                 naming the guarding dispatch check (mention `dispatch`)"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_source(path, src, &Config::default())
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/core/src/model.rs"),
            FileKind::Lib("core".into())
        );
        assert_eq!(
            classify("crates/bench/src/bin/table1.rs"),
            FileKind::Bin("bench".into())
        );
        assert_eq!(
            classify("crates/lint/src/main.rs"),
            FileKind::Bin("lint".into())
        );
        assert_eq!(classify("crates/tensor/tests/props.rs"), FileKind::Exempt);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Exempt);
    }

    #[test]
    fn d1_flags_iteration_not_lookup() {
        let src = r#"
use std::collections::HashMap;
fn f() {
    let mut m: HashMap<u32, f32> = HashMap::new();
    m.insert(1, 2.0);           // fine: no iteration
    let _ = m.get(&1);          // fine
    for (k, v) in &m { let _ = (k, v); }   // D1
    let _: Vec<_> = m.keys().collect();    // D1
}
"#;
        let v = check("crates/data/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "D1").count(), 2, "{v:?}");
    }

    #[test]
    fn d1_sees_struct_fields_and_self() {
        let src = r#"
use std::collections::HashMap;
struct S { counts: HashMap<u32, u64> }
impl S {
    fn g(&self) -> u64 { self.counts.values().sum() }  // D1
}
"#;
        let v = check("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D1");
    }

    #[test]
    fn d1_ignores_vec_and_btreemap() {
        let src = r#"
use std::collections::BTreeMap;
fn f() {
    let v: Vec<u32> = Vec::new();
    for x in &v { let _ = x; }
    let m: BTreeMap<u32, u32> = BTreeMap::new();
    for (k, _) in &m { let _ = k; }
}
"#;
        assert!(check("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn d1_only_in_configured_crates() {
        let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) { for (k, _) in m { let _ = k; } }
"#;
        assert!(!check("crates/core/src/x.rs", src).is_empty());
        assert!(check("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d2_flags_entropy_rng() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }";
        let v = check("crates/data/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D2");
    }

    #[test]
    fn d3_flags_clocks_everywhere_including_obs() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }";
        assert_eq!(check("crates/core/src/x.rs", src).len(), 1);
        // Since obs v2 the rule covers obs too: only its allowlisted
        // clock file (clock.rs via lint.toml) may call `now`.
        assert_eq!(check("crates/obs/src/x.rs", src).len(), 1);
        assert!(check("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn n1_flags_non_snake_case_span_names() {
        let src = r#"
fn f(trace: &mut Trace) {
    let a = trace.start_span("serve.batch.score");   // fine
    trace.end_span(a);
    trace.record_span("trainer.forward", 10);        // fine
    let b = trace.start_span("Serve.Request");       // N1
    trace.end_span(b);
    trace.record_span("serve/batch", 10);            // N1
    let c = trace.start_span("serve..score");        // N1
    trace.end_span(c);
    trace.record_span_at("trainer.step", 5, 10);     // fine
    trace.record_span_at("Trainer Step", 5, 10);     // N1
}
"#;
        let v = check("crates/serve/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "N1").count(), 4, "{v:?}");
    }

    #[test]
    fn n1_ignores_dynamic_names_and_other_calls() {
        let src = r#"
fn f(trace: &mut Trace, name: &str) {
    let a = trace.start_span(name);        // dynamic: not checked
    trace.end_span(a);
    other_fn("Not A Span Name");           // different callee
}
"#;
        assert!(check("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn n1_applies_in_every_crate_and_respects_allows() {
        let bad = r#"fn f(t: &mut Trace) { t.record_span("Bad Name", 1); }"#;
        assert_eq!(check("crates/bench/src/x.rs", bad).len(), 1);
        let allowed = r#"
fn f(t: &mut Trace) {
    // lint:allow(N1): legacy name kept for dashboard continuity
    t.record_span("Bad Name", 1);
}
"#;
        assert!(check("crates/bench/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn r1_flags_unwrap_expect_panic_but_not_variants() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();                  // R1
    let b = x.expect("boom");            // R1
    if a + b > 100 { panic!("no"); }     // R1
    x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()
}
"#;
        let v = check("crates/graph/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R1").count(), 3, "{v:?}");
    }

    #[test]
    fn r1_exempt_in_bins_and_bench() {
        let src = "fn main() { Some(1).unwrap(); }";
        assert!(check("crates/core/src/bin/tool.rs", src).is_empty());
        assert!(check("crates/bench/src/harness.rs", src).is_empty());
    }

    #[test]
    fn r3_flags_process_exit_and_abort_in_libraries() {
        let src = r#"
fn f(code: i32) {
    std::process::exit(code);    // R3
}
fn g() {
    std::process::abort();       // R3
}
fn h() {
    // fine: not a process teardown.
    let id = std::process::id();
    let _ = id;
}
"#;
        let v = check("crates/core/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R3").count(), 2, "{v:?}");
    }

    #[test]
    fn r3_exempt_in_bins_main_and_configured_crates() {
        let src = "fn main() { std::process::exit(2); }";
        assert!(check("crates/core/src/bin/tool.rs", src).is_empty());
        assert!(check("crates/lint/src/main.rs", src).is_empty());
        let mut cfg = Config::default();
        cfg.r3_exempt_crates.insert("core".to_string());
        assert!(check_source("crates/core/src/x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn r3_respects_inline_allow() {
        let src = r#"
fn f() {
    // lint:allow(R3): double-panic guard, nothing left to unwind
    std::process::abort();
}
"#;
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn r2_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let v = check("crates/tensor/src/x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R2");

        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}";
        assert!(check("crates/tensor/src/x.rs", good).is_empty());
    }

    #[test]
    fn s1_requires_unsafe_and_dispatch_safety_comment() {
        // Safe-wrapped target_feature fn with no comment: both halves fire.
        let bad = "#[target_feature(enable = \"avx2\")]\nfn f(a: &[f32]) -> f32 { a[0] }\n";
        let v = check("crates/tensor/src/x.rs", bad);
        assert_eq!(v.iter().filter(|v| v.rule == "S1").count(), 2, "{v:?}");

        // Unsafe but the comment names no dispatch check: one violation.
        let half = "// SAFETY: trust me.\n#[target_feature(enable = \"avx2\")]\nunsafe fn f(a: &[f32]) -> f32 { a[0] }\n";
        let v = check("crates/tensor/src/x.rs", half);
        assert_eq!(v.iter().filter(|v| v.rule == "S1").count(), 1, "{v:?}");

        let good = "// SAFETY: callers must hold the guarding dispatch check\n// `dispatch::resolve(..) == Backend::Avx2`.\n#[target_feature(enable = \"avx2\")]\nunsafe fn f(a: &[f32]) -> f32 { a[0] }\n";
        assert!(check("crates/tensor/src/x.rs", good).is_empty());

        // `#[cfg(target_feature = ...)]` is not the attribute form.
        let cfg = "#[cfg(target_feature = \"avx2\")]\nfn f() {}\n";
        assert!(check("crates/tensor/src/x.rs", cfg).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = r#"
fn lib() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        let mut rng = rand::thread_rng();
        let _ = std::time::Instant::now();
    }
}
"#;
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_use_does_not_swallow_following_code() {
        let src = r#"
#[cfg(test)]
use std::collections::HashMap;

fn lib(x: Option<u32>) -> u32 { x.unwrap() }
"#;
        let v = check("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R1");
    }

    /// A `#[cfg(test)]` field, struct-literal field or statement exempts
    /// only itself: it ends at its `,`, its `;`, or the bracket that
    /// closes its list, never at the next `{ … }` group.
    #[test]
    fn cfg_test_field_exempts_only_that_field() {
        let src = r#"
struct TopK {
    k: usize,
    #[cfg(test)]
    cuts: usize,
}
impl TopK {
    fn f(x: Option<u32>) -> u32 { x.unwrap() }
}
struct Last {
    #[cfg(test)]
    seen: HashMap<u32, Vec<u64>>
}
fn g(x: Option<u32>) -> u32 { x.unwrap() }
fn h(x: Option<u32>) -> TopK {
    #[cfg(test)]
    log(|a, b| a + b, [0; 2]);
    TopK {
        #[cfg(test)]
        cuts: 0,
        k: x.unwrap() as usize,
    }
}
"#;
        let v = check("crates/serve/src/x.rs", src);
        let lines: Vec<(u32, &str)> = v.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(lines, vec![(8, "R1"), (14, "R1"), (21, "R1")], "{v:?}");
    }

    /// Items keep their whole extent: commas and semicolons inside a
    /// signature's brackets or generics, or in a `where` clause, do not
    /// end a `#[test]` fn or a `#[cfg(test)]` impl.
    #[test]
    fn cfg_test_items_span_their_signatures() {
        let src = r#"
#[test]
fn t(a: Option<u32>, b: [u8; 2]) -> Vec<u32> {
    vec![a.unwrap(), b[0] as u32]
}
#[cfg(test)]
impl<A, B> Pair<A, B>
where
    A: Clone,
    B: Copy,
{
    fn f() -> u32 { None::<u32>.unwrap() }
}
fn lib(x: Option<u32>) -> u32 { x.unwrap() }
"#;
        let v = check("crates/core/src/x.rs", src);
        let lines: Vec<(u32, &str)> = v.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(lines, vec![(14, "R1")], "{v:?}");
    }

    #[test]
    fn inline_allow_suppresses_next_line() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    // lint:allow(R1): infallible by construction
    x.unwrap()
}
fn g(x: Option<u32>) -> u32 {
    x.unwrap() // lint:allow(R1)
}
fn h(x: Option<u32>) -> u32 {
    x.unwrap() // still flagged
}
"#;
        let v = check("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 10);
    }

    #[test]
    fn file_allowlist_suppresses_whole_file() {
        let mut cfg = Config::default();
        cfg.allow
            .entry("crates/core/src/x.rs".to_string())
            .or_default()
            .insert("R1".to_string());
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(check_source("crates/core/src/x.rs", src, &cfg).is_empty());
        assert!(!check_source("crates/core/src/y.rs", src, &cfg).is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = r#"
// this mentions unwrap() and panic! and thread_rng
fn f() -> &'static str { "unwrap() panic! Instant::now()" }
"#;
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }
}
