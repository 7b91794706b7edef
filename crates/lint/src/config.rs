//! `lint.toml` — the checked-in allowlist and per-rule scoping.
//!
//! The parser covers exactly the TOML subset the config needs (tables,
//! string values, single- or multi-line string arrays, `#` comments), in
//! the same spirit as the JSON-schema-subset validator in `acq-obs`:
//! anything fancier would be over-engineering for an offline tool.
//!
//! ```toml
//! [allow]
//! # rule = list of workspace-relative path prefixes exempted wholesale
//! panic-hygiene = ["crates/compat/"]
//!
//! [determinism]
//! ordered_paths = ["crates/core/src/driver.rs"]
//! clock_allowed = ["crates/obs/"]
//! sleep_allowed = ["crates/core/src/fault.rs"]
//!
//! [obs-discipline]
//! worker_paths = ["crates/core/src/pool.rs"]
//! progress_sink_paths = ["crates/core/src/driver.rs"]
//!
//! [commit-reachability]
//! # serial-emission commit functions: `<file>::<fn>` or `<file>::*`
//! roots = ["crates/serve/src/telemetry.rs::*"]
//! ```

use std::collections::BTreeMap;

use crate::rules;

/// One configuration entry with its `lint.toml` position, recorded so the
/// suppression audit can point at stale prefixes.
#[derive(Debug, Clone)]
pub struct ConfigEntry {
    /// Section name (`allow`, `determinism`, …).
    pub section: String,
    /// Key inside the section (`panic-hygiene`, `clock_allowed`, …).
    pub key: String,
    /// One array element (a path prefix or a commit root).
    pub value: String,
    /// 1-based line of the key in `lint.toml`.
    pub line: u32,
}

/// Parsed configuration. Path values are workspace-relative prefixes: an
/// entry matches a file when it is a prefix of the file's relative path, so
/// `crates/compat/` exempts a whole directory and
/// `crates/core/src/driver.rs` names one file.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Per-rule wholesale path exemptions (`[allow]`).
    pub allow: BTreeMap<String, Vec<String>>,
    /// Emission-path files where unordered containers are forbidden.
    pub ordered_paths: Vec<String>,
    /// Paths allowed to read wall clocks (`Instant::now`, `SystemTime::now`).
    pub clock_allowed: Vec<String>,
    /// Paths allowed to call `thread::sleep`.
    pub sleep_allowed: Vec<String>,
    /// Worker-closure files where metric commits need `worker-metric-ok`.
    pub worker_paths: Vec<String>,
    /// Serial-emission commit functions (`<file>::<fn>` or `<file>::*`):
    /// the roots of the commit-reachability closure. Everything transitively
    /// callable from a root must stay wait-free unless a blocking site
    /// carries `// commit-io-ok: <reason>`.
    pub commit_roots: Vec<String>,
    /// The only files allowed to push into a progress sink
    /// (`.try_push(…)`): the driver's serial layer-boundary commits, the
    /// sink's own implementation, and the serve-side broker.
    pub progress_sink_paths: Vec<String>,
    /// Every entry with its `lint.toml` line, for the suppression audit.
    pub entries: Vec<ConfigEntry>,
}

fn prefix_match(prefixes: &[String], rel_path: &str) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p.as_str()))
}

impl Config {
    /// Whether `rule` is exempted wholesale for `rel_path` by `[allow]`.
    #[must_use]
    pub fn allows(&self, rule: &str, rel_path: &str) -> bool {
        self.allow
            .get(rule)
            .is_some_and(|paths| prefix_match(paths, rel_path))
    }

    /// Whether `rel_path` is an ordered emission path.
    #[must_use]
    pub fn is_ordered_path(&self, rel_path: &str) -> bool {
        prefix_match(&self.ordered_paths, rel_path)
    }

    /// Whether `rel_path` may read wall clocks.
    #[must_use]
    pub fn clock_allowed(&self, rel_path: &str) -> bool {
        prefix_match(&self.clock_allowed, rel_path)
    }

    /// Whether `rel_path` may sleep.
    #[must_use]
    pub fn sleep_allowed(&self, rel_path: &str) -> bool {
        prefix_match(&self.sleep_allowed, rel_path)
    }

    /// Whether `rel_path` is a worker-closure path.
    #[must_use]
    pub fn is_worker_path(&self, rel_path: &str) -> bool {
        prefix_match(&self.worker_paths, rel_path)
    }

    /// Parses a commit root entry into `(file, fn-or-star)`.
    #[must_use]
    pub fn parse_root(entry: &str) -> Option<(&str, &str)> {
        entry.rsplit_once("::")
    }

    /// Whether `rel_path` may push progress events into a sink.
    #[must_use]
    pub fn is_progress_sink_path(&self, rel_path: &str) -> bool {
        prefix_match(&self.progress_sink_paths, rel_path)
    }

    /// Parses the configuration text, rejecting unknown sections, unknown
    /// keys and unknown rule names so a typo cannot silently disable a rule.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "allow" | "determinism" | "obs-discipline" | "commit-reachability" => {}
                    other => return Err(format!("line {lineno}: unknown section [{other}]")),
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets close.
            while value.starts_with('[') && !balanced(&value) {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("line {lineno}: unterminated array for {key}"));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            let values =
                parse_string_array(&value).map_err(|e| format!("line {lineno}: {key}: {e}"))?;
            cfg.entries.extend(values.iter().map(|v| ConfigEntry {
                section: section.clone(),
                key: key.to_string(),
                value: v.clone(),
                line: lineno as u32,
            }));
            match (section.as_str(), key) {
                ("allow", rule) => {
                    if !rules::ALL.contains(&rule) {
                        return Err(format!(
                            "line {lineno}: unknown rule {rule:?} in [allow] (known: {})",
                            rules::ALL.join(", ")
                        ));
                    }
                    cfg.allow.insert(rule.to_string(), values);
                }
                ("determinism", "ordered_paths") => cfg.ordered_paths = values,
                ("determinism", "clock_allowed") => cfg.clock_allowed = values,
                ("determinism", "sleep_allowed") => cfg.sleep_allowed = values,
                ("obs-discipline", "worker_paths") => cfg.worker_paths = values,
                ("obs-discipline", "progress_sink_paths") => cfg.progress_sink_paths = values,
                ("commit-reachability", "roots") => cfg.commit_roots = values,
                (s, k) => return Err(format!("line {lineno}: unknown key {k:?} in [{s}]")),
            }
        }
        Ok(cfg)
    }
}

/// Strips a `#` comment, honouring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// Parses `"a"` or `["a", "b"]` into a vector of strings.
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = if let Some(stripped) = value.strip_prefix('[') {
        stripped
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?
    } else {
        value
    };
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let unq = part
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("expected a double-quoted string, found {part:?}"))?;
        out.push(unq.to_string());
    }
    Ok(out)
}

fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let cfg = Config::parse(
            "# header\n\
             [allow]\n\
             panic-hygiene = [\"crates/compat/\", \"crates/bench/src/\"] # stubs\n\
             \n\
             [determinism]\n\
             ordered_paths = [\n\
                 \"crates/core/src/driver.rs\", # serial loop\n\
                 \"crates/core/src/store.rs\",\n\
             ]\n\
             clock_allowed = [\"crates/obs/\"]\n\
             sleep_allowed = [\"crates/core/src/fault.rs\"]\n\
             \n\
             [obs-discipline]\n\
             worker_paths = [\"crates/core/src/pool.rs\"]\n\
             progress_sink_paths = [\"crates/core/src/driver.rs\"]\n\
             \n\
             [commit-reachability]\n\
             roots = [\"crates/serve/src/telemetry.rs::*\", \
             \"crates/core/src/driver.rs::emit_progress\"]\n",
        )
        .unwrap();
        assert!(cfg.allows("panic-hygiene", "crates/compat/rand/src/lib.rs"));
        assert!(!cfg.allows("panic-hygiene", "crates/core/src/pool.rs"));
        assert!(cfg.is_ordered_path("crates/core/src/store.rs"));
        assert!(cfg.clock_allowed("crates/obs/src/lib.rs"));
        assert!(cfg.sleep_allowed("crates/core/src/fault.rs"));
        assert!(cfg.is_worker_path("crates/core/src/pool.rs"));
        assert_eq!(
            Config::parse_root(&cfg.commit_roots[0]),
            Some(("crates/serve/src/telemetry.rs", "*"))
        );
        assert_eq!(
            Config::parse_root(&cfg.commit_roots[1]),
            Some(("crates/core/src/driver.rs", "emit_progress"))
        );
        assert!(cfg.is_progress_sink_path("crates/core/src/driver.rs"));
        assert!(!cfg.is_progress_sink_path("crates/core/src/pool.rs"));
    }

    #[test]
    fn unknown_rule_and_section_are_rejected() {
        assert!(Config::parse("[allow]\npanic-hygeine = [\"x\"]\n")
            .unwrap_err()
            .contains("unknown rule"));
        assert!(Config::parse("[allows]\n")
            .unwrap_err()
            .contains("unknown section"));
        assert!(Config::parse("[determinism]\nordered = [\"x\"]\n")
            .unwrap_err()
            .contains("unknown key"));
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse("[allow]\ndeterminism = [\"a#b/\"]\n").unwrap();
        assert!(cfg.allows("determinism", "a#b/x.rs"));
    }

    #[test]
    fn entries_record_lint_toml_lines() {
        let cfg = Config::parse(
            "[allow]\n\
             panic-hygiene = [\"crates/compat/\"]\n\
             [determinism]\n\
             clock_allowed = [\n\
                 \"crates/obs/\",\n\
                 \"crates/bench/\",\n\
             ]\n",
        )
        .unwrap();
        let summary: Vec<(String, String, u32)> = cfg
            .entries
            .iter()
            .map(|e| (e.key.clone(), e.value.clone(), e.line))
            .collect();
        assert_eq!(
            summary,
            [
                ("panic-hygiene".into(), "crates/compat/".into(), 2),
                ("clock_allowed".into(), "crates/obs/".into(), 4),
                ("clock_allowed".into(), "crates/bench/".into(), 4),
            ]
        );
    }
}
