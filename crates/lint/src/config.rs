//! Lint configuration: which crates each rule applies to, plus the
//! checked-in allowlist (`lint.toml` at the workspace root).
//!
//! The vendored dependency set has no TOML crate, so a small subset of
//! TOML is parsed here: `[section]` headers and `key = value` pairs
//! where `value` is a quoted string or an array of quoted strings.
//! That subset is exactly what `lint.toml` needs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// All rule identifiers the pass knows about. D/N/R/S rules are
/// per-file token rules; L/H/T rules run on the workspace call graph.
pub const ALL_RULES: [&str; 12] = [
    "D1", "D2", "D3", "H1", "L1", "L2", "N1", "R1", "R2", "R3", "S1", "T1",
];

/// Effect names accepted in `[rules.H1]` deny lists.
const EFFECT_NAMES: [&str; 6] = ["alloc", "io", "block", "lock", "rng", "clock"];

/// Rule applicability plus the file-level allowlist.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose sources rule D1 (no HashMap/HashSet iteration)
    /// applies to.
    pub d1_crates: BTreeSet<String>,
    /// Crates whose sources rule D3 (no ad-hoc clocks) applies to.
    pub d3_crates: BTreeSet<String>,
    /// Crates exempt from rule R1 (no unwrap/expect/panic) entirely —
    /// benchmark harnesses and binaries.
    pub r1_exempt_crates: BTreeSet<String>,
    /// Crates exempt from rule D2 (no unseeded RNG).
    pub d2_exempt_crates: BTreeSet<String>,
    /// Crates exempt from rule R3 (no `process::exit`/`process::abort`
    /// in library code). Binaries (`src/bin`, `src/main.rs`) are already
    /// exempt by path, so this is empty by default.
    pub r3_exempt_crates: BTreeSet<String>,
    /// `workspace-relative path -> rules` file-level allowlist.
    pub allow: BTreeMap<String, BTreeSet<String>>,
    /// L1 lock hierarchy: full lock ids (`crate.lock`), outermost
    /// first. Nested acquisitions must follow this order.
    pub l1_hierarchy: Vec<String>,
    /// Helper functions whose call *is* a lock acquisition of the lock
    /// named by their argument (`lock_unpoisoned(&self.cache)`).
    pub acquire_fns: BTreeSet<String>,
    /// H1 hot-path roots, as listed in `lint.toml` (none are built in):
    /// `fn` / `crate::fn` / `crate::Type::fn` spec -> effect names the
    /// root's reachable set must not perform.
    pub h1_roots: BTreeMap<String, BTreeSet<String>>,
    /// Crates exempt from T1 (transitive determinism taint).
    pub t1_exempt_crates: BTreeSet<String>,
}

impl Default for Config {
    fn default() -> Self {
        let set = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        Config {
            d1_crates: set(&[
                "tensor",
                "autodiff",
                "graph",
                "data",
                "eval",
                "core",
                "baselines",
                "obs",
            ]),
            d3_crates: set(&[
                "tensor",
                "autodiff",
                "graph",
                "data",
                "eval",
                "core",
                "baselines",
                // obs is covered too since v2: its only sanctioned clock
                // file (`clock.rs`) carries a lint.toml allow, so any
                // *new* ad-hoc clock in obs is flagged.
                "obs",
            ]),
            r1_exempt_crates: set(&["bench"]),
            d2_exempt_crates: BTreeSet::new(),
            r3_exempt_crates: BTreeSet::new(),
            allow: BTreeMap::new(),
            // Declared lock order; outermost first. The only sanctioned
            // nesting today is the flight recorder walking its rings.
            l1_hierarchy: vec!["obs.rings".to_string(), "obs.events".to_string()],
            acquire_fns: set(&["lock_unpoisoned"]),
            h1_roots: BTreeMap::new(),
            t1_exempt_crates: set(&["bench"]),
        }
    }
}

/// A `lint.toml` syntax or semantic error.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in `lint.toml`.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses `lint.toml` text over the built-in defaults.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unterminated section header `{line}`"),
                    });
                };
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = unquote(key.trim());
            let values = parse_string_array(value.trim()).ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected an array of strings, got `{}`", value.trim()),
            })?;
            apply(&mut cfg, &section, &key, values).map_err(|message| ConfigError {
                line: lineno,
                message,
            })?;
        }
        Ok(cfg)
    }
}

fn unquote(s: &str) -> String {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
        .to_string()
}

/// Parses `["a", "b"]` into its elements; `None` on anything else.
fn parse_string_array(v: &str) -> Option<Vec<String>> {
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let s = part.strip_prefix('"')?.strip_suffix('"')?;
        out.push(s.to_string());
    }
    Some(out)
}

fn apply(cfg: &mut Config, section: &str, key: &str, values: Vec<String>) -> Result<(), String> {
    match section {
        "allow" => {
            let known: BTreeSet<String> = values
                .iter()
                .filter(|r| ALL_RULES.contains(&r.as_str()))
                .cloned()
                .collect();
            if known.len() != values.len() {
                return Err(format!("unknown rule in allowlist for `{key}`: {values:?}"));
            }
            cfg.allow.entry(key.to_string()).or_default().extend(known);
            Ok(())
        }
        "rules.D1" if key == "crates" => {
            cfg.d1_crates = values.into_iter().collect();
            Ok(())
        }
        "rules.D3" if key == "crates" => {
            cfg.d3_crates = values.into_iter().collect();
            Ok(())
        }
        "rules.R1" if key == "exempt-crates" => {
            cfg.r1_exempt_crates = values.into_iter().collect();
            Ok(())
        }
        "rules.D2" if key == "exempt-crates" => {
            cfg.d2_exempt_crates = values.into_iter().collect();
            Ok(())
        }
        "rules.R3" if key == "exempt-crates" => {
            cfg.r3_exempt_crates = values.into_iter().collect();
            Ok(())
        }
        "rules.L1" if key == "hierarchy" => {
            cfg.l1_hierarchy = values;
            Ok(())
        }
        "rules.L1" if key == "acquire-fns" => {
            cfg.acquire_fns = values.into_iter().collect();
            Ok(())
        }
        "rules.T1" if key == "exempt-crates" => {
            cfg.t1_exempt_crates = values.into_iter().collect();
            Ok(())
        }
        // `[rules.H1]` maps root specs to denied-effect lists; there are
        // no built-in roots, so `lint.toml` is the whole list.
        "rules.H1" => {
            if let Some(bad) = values.iter().find(|v| !EFFECT_NAMES.contains(&v.as_str())) {
                return Err(format!(
                    "unknown effect `{bad}` for H1 root `{key}` (expected one of {EFFECT_NAMES:?})"
                ));
            }
            cfg.h1_roots
                .insert(key.to_string(), values.into_iter().collect());
            Ok(())
        }
        _ => Err(format!("unknown setting `{key}` in section `[{section}]`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_numeric_crates() {
        let cfg = Config::default();
        assert!(cfg.d1_crates.contains("core"));
        assert!(cfg.d1_crates.contains("data"));
        assert!(
            cfg.d3_crates.contains("obs"),
            "obs clock shims are allowlisted per file, not per crate"
        );
        assert!(cfg.r1_exempt_crates.contains("bench"));
        assert!(
            cfg.r3_exempt_crates.is_empty(),
            "no crate may exit by default"
        );
    }

    #[test]
    fn parses_sections_and_allowlist() {
        let cfg = Config::parse(
            r#"
# comment
[rules.D1]
crates = ["core", "data"]

[rules.R1]
exempt-crates = ["bench", "lint"]

[rules.R3]
exempt-crates = ["bench"]

[allow]
"crates/foo/src/bar.rs" = ["R1", "D3"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.d1_crates.len(), 2);
        assert!(cfg.r1_exempt_crates.contains("lint"));
        assert!(cfg.r3_exempt_crates.contains("bench"));
        let rules = &cfg.allow["crates/foo/src/bar.rs"];
        assert!(rules.contains("R1") && rules.contains("D3"));
    }

    #[test]
    fn rejects_unknown_rules_and_bad_syntax() {
        assert!(Config::parse("[allow]\n\"p\" = [\"Z9\"]").is_err());
        assert!(Config::parse("[rules.D1\ncrates = []").is_err());
        assert!(Config::parse("[rules.D1]\ncrates = 3").is_err());
        assert!(Config::parse("[nope]\nx = [\"a\"]").is_err());
    }
}
