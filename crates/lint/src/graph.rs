//! Workspace call graph: per-crate symbol tables, conservative
//! name-based call resolution, and transitive effect propagation.
//!
//! Resolution is name-based (no type inference), scoped to keep false
//! edges rare without ever dropping a within-workspace edge the rules
//! need:
//!
//! * Method calls (`recv.m(…)`) resolve only to workspace *methods*
//!   named `m` — a free function can never be called with dot syntax.
//! * Free calls (`m(…)`) resolve only to free functions.
//! * Qualified calls (`seg::m(…)`) use the segment to refine: an
//!   uppercase or primitive-type segment selects methods of that type
//!   (`Matrix::zeros`, `u64::from`), any other lowercase one selects
//!   functions from that module or crate (`metrics::histogram`,
//!   `linalg::dot`).
//! * A callee is visible only from its own crate or from files that
//!   mention its `scenerec_*` crate.
//! * When candidates remain in several crates, same-crate ones win.
//!
//! Unresolved names (std/vendored callees) simply contribute no edge —
//! their effects are covered by the direct-effect token lists in
//! [`crate::summary`].

use crate::config::Config;
use crate::lexer::{lex, TokKind};
use crate::parse::{parse_items, FnItem};
use crate::rules::{classify, suppressions, test_regions, FileKind};
use crate::summary::{summarize, Effect, FnSummary};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

/// Primitive type names: as a call qualifier (`u64::from(…)`) each
/// names a type, like an uppercase segment, never a module.
const PRIMITIVE_TYPES: [&str; 17] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str",
];

/// Index into [`Workspace::fns`].
pub type FnId = usize;

/// One function in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Parsed item (name, impl type, body span).
    pub item: FnItem,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Owning crate (`serve`, `obs`, …).
    pub crate_name: String,
    /// Module implied by the file stem (`linalg` for `linalg.rs`),
    /// `None` for `lib.rs`/`main.rs`/`mod.rs`.
    pub file_module: Option<String>,
    /// Whether the file is library (not bin) source.
    pub is_lib: bool,
    /// Direct effects, acquisitions, and call sites.
    pub summary: FnSummary,
    /// Resolved targets of each call site, parallel to `summary.calls`.
    pub call_targets: Vec<Vec<FnId>>,
    /// Resolved callees, deduped, ascending (union of `call_targets`).
    pub callees: Vec<FnId>,
    /// Transitive effect kinds (own direct effects included).
    pub trans_effects: BTreeSet<Effect>,
    /// Transitive lock set: full ids (`serve.cache`) this function may
    /// acquire, directly or through any callee.
    pub may_acquire: BTreeSet<String>,
}

impl FnNode {
    /// `crate::Type::name` / `crate::name` for diagnostics.
    pub fn qual_name(&self) -> String {
        format!("{}::{}", self.crate_name, self.item.display_name())
    }
}

/// Per-file context the workspace rules need when emitting diagnostics.
#[derive(Debug, Default)]
pub struct FileInfo {
    /// `(line, rule)` pairs silenced by inline `lint:allow`.
    pub suppressions: BTreeSet<(u32, String)>,
    /// Rules silenced for the whole file by `lint.toml`.
    pub file_allow: BTreeSet<String>,
    /// `#[cfg(test)]` line ranges.
    pub test_regions: Vec<RangeInclusive<u32>>,
    /// Workspace crates the file references (`scenerec_*` idents).
    pub imports: BTreeSet<String>,
}

/// The whole-workspace analysis model.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All non-test, non-exempt functions, in (file, position) order.
    pub fns: Vec<FnNode>,
    /// Per-file diagnostic context, keyed by workspace-relative path.
    pub files: BTreeMap<String, FileInfo>,
}

impl Workspace {
    /// Builds the graph from `(path, source)` pairs and propagates
    /// effects to a fixpoint.
    pub fn build(files: &[(String, String)], cfg: &Config) -> Workspace {
        let mut ws = Workspace::default();
        let acquire_fns: Vec<String> = cfg.acquire_fns.iter().cloned().collect();

        for (path, src) in files {
            let (crate_name, is_lib) = match classify(path) {
                FileKind::Lib(c) => (c, true),
                FileKind::Bin(c) => (c, false),
                FileKind::Exempt => continue,
            };
            let lexed = lex(src);
            let regions = test_regions(&lexed.tokens);
            let info = FileInfo {
                suppressions: suppressions(&lexed.comments, &lexed.tokens),
                file_allow: cfg.allow.get(path).cloned().unwrap_or_default(),
                test_regions: regions.clone(),
                imports: crate_imports(&lexed.tokens),
            };
            let items = parse_items(&lexed.tokens, &regions);
            let file_module = file_stem_module(path);
            for (ix, item) in items.iter().enumerate() {
                if item.in_test_region {
                    continue;
                }
                // Ranges of fns nested inside this one; their effects
                // belong to themselves.
                let nested: Vec<(usize, usize)> = items
                    .iter()
                    .enumerate()
                    .filter(|(ox, o)| {
                        *ox != ix && o.body.0 > item.body.0 && o.body.1 <= item.body.1
                    })
                    .map(|(_, o)| o.body)
                    .collect();
                let mut summary = summarize(&lexed.tokens, item, &nested, &acquire_fns);
                strip_allowed_sources(&mut summary, &info, item);
                ws.fns.push(FnNode {
                    item: item.clone(),
                    file: path.clone(),
                    crate_name: crate_name.clone(),
                    file_module: file_module.clone(),
                    is_lib,
                    summary,
                    call_targets: Vec::new(),
                    callees: Vec::new(),
                    trans_effects: BTreeSet::new(),
                    may_acquire: BTreeSet::new(),
                });
            }
            ws.files.insert(path.clone(), info);
        }

        ws.resolve_calls();
        ws.propagate();
        ws
    }

    /// Resolves every call site to workspace callees.
    fn resolve_calls(&mut self) {
        // name -> ids, split by methodness at lookup time.
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, f) in self.fns.iter().enumerate() {
            by_name.entry(f.item.name.as_str()).or_default().push(id);
        }
        let empty = BTreeSet::new();
        let mut all_targets: Vec<Vec<Vec<FnId>>> = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
            let imports = self
                .files
                .get(&f.file)
                .map(|i| &i.imports)
                .unwrap_or(&empty);
            let mut targets: Vec<Vec<FnId>> = Vec::new();
            for call in &f.summary.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    targets.push(Vec::new());
                    continue;
                };
                let mut set: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let c = &self.fns[id];
                        // Methodness must match the call syntax.
                        if call.is_method != c.item.impl_type.is_some() && call.qualifier.is_none()
                        {
                            return false;
                        }
                        if call.is_method && c.item.impl_type.is_none() {
                            return false;
                        }
                        // Visibility: own crate, or imported crate.
                        c.crate_name == f.crate_name || imports.contains(&c.crate_name)
                    })
                    .collect();
                // Qualifier refinement, when it keeps at least one.
                if let Some(q) = &call.qualifier {
                    let is_type = q.chars().next().is_some_and(|ch| ch.is_ascii_uppercase())
                        || PRIMITIVE_TYPES.contains(&q.as_str());
                    let refined: Vec<FnId> = set
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let c = &self.fns[id];
                            if is_type {
                                c.item.impl_type.as_deref() == Some(q.as_str())
                            } else {
                                let q_crate = q.strip_prefix("scenerec_").unwrap_or(q);
                                c.item.impl_type.is_none()
                                    && (c.file_module.as_deref() == Some(q.as_str())
                                        || c.item.modules.last().map(String::as_str)
                                            == Some(q.as_str())
                                        || c.crate_name == q_crate)
                            }
                        })
                        .collect();
                    if is_type {
                        // `Type::fn(` or `u64::fn(` — trust the type
                        // segment fully: no workspace type of that name
                        // means a std or primitive type.
                        set = refined;
                    } else if !refined.is_empty() {
                        set = refined;
                    }
                }
                // Same-crate candidates shadow cross-crate ones.
                if set
                    .iter()
                    .any(|&id| self.fns[id].crate_name == f.crate_name)
                {
                    set.retain(|&id| self.fns[id].crate_name == f.crate_name);
                }
                targets.push(set);
            }
            all_targets.push(targets);
        }
        for (f, t) in self.fns.iter_mut().zip(all_targets) {
            let mut callees: Vec<FnId> = t.iter().flatten().copied().collect();
            callees.sort_unstable();
            callees.dedup();
            f.call_targets = t;
            f.callees = callees;
        }
    }

    /// Fixpoint propagation of effects and lock sets over the graph
    /// (handles recursion/cycles).
    fn propagate(&mut self) {
        for f in &mut self.fns {
            f.trans_effects = f.summary.effects.iter().map(|(k, _)| *k).collect();
            f.may_acquire = f
                .summary
                .acquisitions
                .iter()
                .map(|a| format!("{}.{}", f.crate_name, a.lock))
                .collect();
        }
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.fns.len() {
                let mut eff = self.fns[i].trans_effects.clone();
                let mut locks = self.fns[i].may_acquire.clone();
                for &c in &self.fns[i].callees.clone() {
                    eff.extend(self.fns[c].trans_effects.iter().copied());
                    locks.extend(self.fns[c].may_acquire.iter().cloned());
                }
                if eff.len() != self.fns[i].trans_effects.len()
                    || locks.len() != self.fns[i].may_acquire.len()
                {
                    self.fns[i].trans_effects = eff;
                    self.fns[i].may_acquire = locks;
                    changed = true;
                }
            }
        }
    }

    /// Shortest call path from `from` to any function for which `hit`
    /// returns true, as a list of node ids (`from` first). BFS with
    /// ascending-id tie-breaks keeps diagnostics deterministic.
    pub fn path_to(&self, from: FnId, hit: &dyn Fn(&FnNode) -> bool) -> Option<Vec<FnId>> {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        let mut seen = BTreeSet::new();
        seen.insert(from);
        while let Some(cur) = queue.pop_front() {
            if hit(&self.fns[cur]) {
                let mut path = vec![cur];
                let mut node = cur;
                while let Some(&p) = parent.get(&node) {
                    path.push(p);
                    node = p;
                }
                path.reverse();
                return Some(path);
            }
            for &n in &self.fns[cur].callees {
                if seen.insert(n) {
                    parent.insert(n, cur);
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// All fns reachable from `root` (root included), with the BFS
    /// parent map for path reconstruction.
    pub fn reachable(&self, root: FnId) -> (Vec<FnId>, BTreeMap<FnId, FnId>) {
        let mut parent = BTreeMap::new();
        let mut order = vec![root];
        let mut seen: BTreeSet<FnId> = [root].into();
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(cur) = queue.pop_front() {
            for &n in &self.fns[cur].callees {
                if seen.insert(n) {
                    parent.insert(n, cur);
                    order.push(n);
                    queue.push_back(n);
                }
            }
        }
        (order, parent)
    }

    /// Formats `path` (node ids) as `a -> b -> c` with qualified names.
    pub fn render_path(&self, path: &[FnId]) -> String {
        path.iter()
            .map(|&id| self.fns[id].qual_name())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Crates a file references via `scenerec_<name>` identifiers (covers
/// both `use scenerec_x::…` and inline `scenerec_x::…` paths).
fn crate_imports(toks: &[crate::lexer::Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for t in toks {
        if let TokKind::Ident(s) = &t.kind {
            if let Some(rest) = s.strip_prefix("scenerec_") {
                if !rest.is_empty() {
                    out.insert(rest.to_string());
                }
            }
        }
    }
    out
}

/// Module implied by the file name: `crates/x/src/linalg.rs` -> `linalg`;
/// `lib.rs`, `main.rs`, `mod.rs`, and `bin/*` entry points -> `None`.
fn file_stem_module(path: &str) -> Option<String> {
    let stem = path.rsplit('/').next()?.strip_suffix(".rs")?;
    if stem == "lib" || stem == "main" || stem == "mod" {
        return None;
    }
    Some(stem.to_string())
}

/// Removes RNG/clock *sources* that per-file rules already sanction:
/// an `Instant::now` on a line covered by a D3 allow (file-level or
/// inline) is a blessed clock shim, so it must not taint callers via
/// T1. Same for D2 and RNG sources.
fn strip_allowed_sources(summary: &mut FnSummary, info: &FileInfo, _item: &FnItem) {
    summary.effects.retain(|(kind, line)| {
        let rule = match kind {
            Effect::Rng => "D2",
            Effect::Clock => "D3",
            _ => return true,
        };
        !(info.file_allow.contains(rule) || info.suppressions.contains(&(*line, rule.to_string())))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::build(&owned, &Config::default())
    }

    fn node<'a>(w: &'a Workspace, name: &str) -> &'a FnNode {
        w.fns
            .iter()
            .find(|f| f.item.display_name() == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn same_crate_free_call_resolves() {
        let w = ws(&[(
            "crates/serve/src/a.rs",
            "fn callee() { println!(\"x\"); }\npub fn caller() { callee(); }",
        )]);
        let caller = node(&w, "caller");
        assert_eq!(caller.callees.len(), 1);
        assert!(caller.trans_effects.contains(&Effect::Io));
    }

    #[test]
    fn cross_crate_needs_import() {
        let files = [
            (
                "crates/obs/src/metrics.rs",
                "pub fn counter() { let _ = Vec::<u32>::new(); }",
            ),
            (
                "crates/serve/src/a.rs",
                "pub fn with_import() { scenerec_obs::metrics::counter(); }",
            ),
            (
                "crates/faults/src/b.rs",
                "pub fn without_import() { counter(); }",
            ),
        ];
        let w = ws(&files);
        assert_eq!(node(&w, "with_import").callees.len(), 1);
        assert!(node(&w, "without_import").callees.is_empty());
    }

    #[test]
    fn method_calls_never_resolve_to_free_fns() {
        let w = ws(&[(
            "crates/serve/src/a.rs",
            "pub fn drain() { let _: Vec<u32> = Vec::new(); }\n\
             pub fn run(q: &mut Vec<u32>) { q.drain(..); }",
        )]);
        assert!(node(&w, "run").callees.is_empty());
    }

    #[test]
    fn method_calls_resolve_to_workspace_methods() {
        let w = ws(&[(
            "crates/serve/src/a.rs",
            "struct C;\nimpl C { fn get(&self) { println!(\"io\"); } }\n\
             pub fn f(c: &C) { c.get(); }",
        )]);
        let f = node(&w, "f");
        assert_eq!(f.callees.len(), 1);
        assert!(f.trans_effects.contains(&Effect::Io));
    }

    #[test]
    fn lock_sets_propagate_transitively() {
        let w = ws(&[(
            "crates/serve/src/a.rs",
            "fn inner(m: &std::sync::Mutex<u32>) { let _g = m.lock(); }\n\
             fn mid(m: &std::sync::Mutex<u32>) { inner(m); }\n\
             pub fn outer(m: &std::sync::Mutex<u32>) { mid(m); }",
        )]);
        assert!(node(&w, "outer").may_acquire.contains("serve.m"));
    }

    #[test]
    fn recursion_terminates() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "pub fn ping(n: u32) { if n > 0 { pong(n - 1); } }\n\
             pub fn pong(n: u32) { ping(n); format!(\"x\"); }",
        )]);
        assert!(node(&w, "ping").trans_effects.contains(&Effect::Alloc));
    }

    #[test]
    fn uppercase_qualifier_is_trusted() {
        // `String::from` must not resolve to a workspace free fn `from`.
        let w = ws(&[(
            "crates/core/src/a.rs",
            "pub fn from() { println!(\"io\"); }\n\
             pub fn f() -> String { String::from(\"x\") }",
        )]);
        assert!(node(&w, "f").callees.is_empty());
    }

    #[test]
    fn primitive_qualifier_is_trusted() {
        // `u64::from` must resolve neither to a workspace type's `from`
        // nor to a free fn `from`.
        let w = ws(&[(
            "crates/core/src/a.rs",
            "pub struct FrozenSnapshot;\n\
             impl FrozenSnapshot { pub fn from(x: u32) -> Self { println!(\"io {x}\"); FrozenSnapshot } }\n\
             pub fn from() { println!(\"io\"); }\n\
             pub fn f(x: u32) -> u64 { u64::from(x) }",
        )]);
        assert!(node(&w, "f").callees.is_empty());
    }

    #[test]
    fn allowed_clock_shim_does_not_taint() {
        let mut cfg = Config::default();
        cfg.allow
            .entry("crates/obs/src/clock.rs".to_string())
            .or_default()
            .insert("D3".to_string());
        let files = vec![
            (
                "crates/obs/src/clock.rs".to_string(),
                "pub fn monotonic() -> u64 { let _ = std::time::Instant::now(); 0 }".to_string(),
            ),
            (
                "crates/obs/src/other.rs".to_string(),
                "pub fn raw() -> u64 { let _ = std::time::Instant::now(); 0 }".to_string(),
            ),
        ];
        let w = Workspace::build(&files, &cfg);
        assert!(!node(&w, "monotonic").trans_effects.contains(&Effect::Clock));
        assert!(node(&w, "raw").trans_effects.contains(&Effect::Clock));
    }
}
