//! SLO alert engine: declarative rules over the flight-recorder windows.
//!
//! Rules live in a hand-rolled TOML subset (`alerts.toml`, parsed by
//! [`parse_alerts`] — `[[rule]]` array-of-tables with string / number /
//! boolean values only, same spirit as acq-lint's `Config::parse`). Two
//! rule kinds:
//!
//! - **threshold** — fires while `signal` compared against `threshold`
//!   (default op `>`) breaches over a single trailing `window_secs`.
//! - **burn_rate** — the multi-window SRE pattern: fires only while *both*
//!   a short and a long trailing window burn above `budget × factor`, so a
//!   brief spike (short window only) and a slow drift still inside recent
//!   budget (long window only) both stay quiet.
//!
//! Signals resolve through a probe closure supplied by the server:
//! `p99_latency_ms` reads the decaying request-latency histogram, and any
//! `<counter>_per_sec` name reads [`FlightRecorder::rate`] over the rule's
//! window — which covers shed/429 rates, fault rates, and the journal drop
//! counter exported as a recorder column.
//!
//! Each rule walks Inactive → Pending (breach observed, `for_secs` not yet
//! served) → Firing → Resolved (clear for `keep_firing_secs`). The engine
//! itself is clock-free: [`AlertEngine::evaluate`] takes elapsed time from
//! the caller, which keeps this file off the determinism lint's clock list
//! and makes the state machine unit-testable at exact tick boundaries.
//! Firing/resolved transitions are returned to the caller (the
//! `acq-serve-alerts` thread), which journals them and re-renders the
//! `acq_alert_firing{rule=…}` gauges.
//!
//! [`FlightRecorder::rate`]: acq_obs::FlightRecorder::rate

use std::collections::BTreeMap;
use std::time::Duration;

/// Schema version of the `GET /alerts` JSON rendering.
pub const ALERTS_VERSION: u32 = 1;

/// Default trailing window for threshold rules.
pub const DEFAULT_RULE_WINDOW: Duration = Duration::from_secs(10);

/// How a rule decides it is breaching.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Single-window comparison against a fixed bound.
    Threshold {
        /// Trailing window the signal is evaluated over.
        window: Duration,
        /// Comparison operator (`>`, `>=`, `<`, `<=`).
        op: Op,
        /// The bound.
        threshold: f64,
    },
    /// Multi-window burn rate: short AND long window above `budget * factor`.
    BurnRate {
        /// Sustainable signal level (the SLO budget).
        budget: f64,
        /// Burn multiplier that counts as "too fast".
        factor: f64,
        /// Short (spike-detection) window.
        short_window: Duration,
        /// Long (sustained-burn) window.
        long_window: Duration,
    },
}

/// Threshold comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `signal > threshold`
    Gt,
    /// `signal >= threshold`
    Ge,
    /// `signal < threshold`
    Lt,
    /// `signal <= threshold`
    Le,
}

impl Op {
    fn apply(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Gt => value > bound,
            Op::Ge => value >= bound,
            Op::Lt => value < bound,
            Op::Le => value <= bound,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Lt => "<",
            Op::Le => "<=",
        }
    }
}

/// One declarative SLO rule from `alerts.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name — the `rule` label on `acq_alert_firing` and in journal
    /// transition records.
    pub name: String,
    /// Signal name resolved by the server's probe (`p99_latency_ms` or any
    /// `<counter>_per_sec` recorder column).
    pub signal: String,
    /// Breach condition.
    pub kind: RuleKind,
    /// How long a breach must persist before the rule fires.
    pub for_duration: Duration,
    /// How long the signal must stay clear before a firing rule resolves.
    pub keep_firing: Duration,
}

impl AlertRule {
    /// The bound the observed value is compared against (for burn-rate
    /// rules, `budget × factor`).
    pub fn bound(&self) -> f64 {
        match &self.kind {
            RuleKind::Threshold { threshold, .. } => *threshold,
            RuleKind::BurnRate { budget, factor, .. } => budget * factor,
        }
    }
}

/// Where a rule is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Inactive,
    /// Breaching, but `for_duration` not yet served.
    Pending {
        since: Duration,
    },
    /// Alerting; `clear_since` tracks a candidate resolution.
    Firing {
        since: Duration,
        clear_since: Option<Duration>,
    },
}

/// A state edge the caller must journal and export.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Rule name.
    pub rule: String,
    /// `true` = firing edge, `false` = resolved edge.
    pub firing: bool,
    /// Observed signal value at the edge.
    pub value: f64,
    /// The configured bound it was compared against.
    pub threshold: f64,
}

impl AlertTransition {
    /// The `kind:"alert"` journal NDJSON record for this edge
    /// (`schemas/journal.schema.json`).
    #[must_use]
    pub fn to_journal_record(&self, at_ms: u64) -> String {
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        format!(
            "{{\"v\":{},\"kind\":\"alert\",\"at_ms\":{at_ms},\"rule\":{},\
             \"transition\":\"{}\",\"value\":{},\"threshold\":{}}}",
            acq_obs::JOURNAL_VERSION,
            json_str(&self.rule),
            if self.firing { "firing" } else { "resolved" },
            fmt_f64(finite(self.value)),
            fmt_f64(finite(self.threshold)),
        )
    }
}

/// Point-in-time view of one rule, for `GET /alerts` and `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertView {
    /// Rule name.
    pub name: String,
    /// Signal name.
    pub signal: String,
    /// `"inactive"`, `"pending"`, or `"firing"`.
    pub state: &'static str,
    /// Milliseconds the rule has been in this state (0 for inactive).
    pub state_ms: u64,
    /// Last observed signal value (`None` until the signal resolves).
    pub value: Option<f64>,
    /// Configured bound.
    pub threshold: f64,
}

/// The evaluation loop's state: rules plus per-rule phases.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    phases: Vec<Phase>,
    last_values: Vec<Option<f64>>,
}

impl AlertEngine {
    /// An engine with every rule inactive.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let n = rules.len();
        Self {
            rules,
            phases: vec![Phase::Inactive; n],
            last_values: vec![None; n],
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluates every rule at `now` (elapsed since process start), reading
    /// signals through `probe(signal, window)`. Returns the transitions
    /// taken this tick, in rule order. An unresolvable signal (probe returns
    /// `None`) is treated as not breaching — an absent metric must not page.
    pub fn evaluate(
        &mut self,
        now: Duration,
        probe: &dyn Fn(&str, Duration) -> Option<f64>,
    ) -> Vec<AlertTransition> {
        let mut transitions = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let (breach, value) = match &rule.kind {
                RuleKind::Threshold {
                    window,
                    op,
                    threshold,
                } => {
                    let value = probe(&rule.signal, *window);
                    (value.is_some_and(|v| op.apply(v, *threshold)), value)
                }
                RuleKind::BurnRate {
                    budget,
                    factor,
                    short_window,
                    long_window,
                } => {
                    let bound = budget * factor;
                    let short = probe(&rule.signal, *short_window);
                    let long = probe(&rule.signal, *long_window);
                    let breach =
                        short.is_some_and(|v| v > bound) && long.is_some_and(|v| v > bound);
                    // Report the short window (the faster-moving signal).
                    (breach, short)
                }
            };
            self.last_values[i] = value;
            let phase = &mut self.phases[i];
            match (*phase, breach) {
                (Phase::Inactive, true) => {
                    if rule.for_duration.is_zero() {
                        *phase = Phase::Firing {
                            since: now,
                            clear_since: None,
                        };
                        transitions.push(AlertTransition {
                            rule: rule.name.clone(),
                            firing: true,
                            value: value.unwrap_or(0.0),
                            threshold: rule.bound(),
                        });
                    } else {
                        *phase = Phase::Pending { since: now };
                    }
                }
                (Phase::Inactive, false) => {}
                (Phase::Pending { since }, true) => {
                    if now.saturating_sub(since) >= rule.for_duration {
                        *phase = Phase::Firing {
                            since: now,
                            clear_since: None,
                        };
                        transitions.push(AlertTransition {
                            rule: rule.name.clone(),
                            firing: true,
                            value: value.unwrap_or(0.0),
                            threshold: rule.bound(),
                        });
                    }
                }
                (Phase::Pending { .. }, false) => *phase = Phase::Inactive,
                (Phase::Firing { since, .. }, true) => {
                    *phase = Phase::Firing {
                        since,
                        clear_since: None,
                    };
                }
                (Phase::Firing { since, clear_since }, false) => {
                    let clear = clear_since.unwrap_or(now);
                    if now.saturating_sub(clear) >= rule.keep_firing {
                        *phase = Phase::Inactive;
                        transitions.push(AlertTransition {
                            rule: rule.name.clone(),
                            firing: false,
                            value: value.unwrap_or(0.0),
                            threshold: rule.bound(),
                        });
                    } else {
                        *phase = Phase::Firing {
                            since,
                            clear_since: Some(clear),
                        };
                    }
                }
            }
        }
        transitions
    }

    /// Per-rule views at `now`, in rule order.
    pub fn views(&self, now: Duration) -> Vec<AlertView> {
        self.rules
            .iter()
            .zip(&self.phases)
            .zip(&self.last_values)
            .map(|((rule, phase), value)| {
                let (state, since) = match phase {
                    Phase::Inactive => ("inactive", None),
                    Phase::Pending { since } => ("pending", Some(*since)),
                    Phase::Firing { since, .. } => ("firing", Some(*since)),
                };
                AlertView {
                    name: rule.name.clone(),
                    signal: rule.signal.clone(),
                    state,
                    state_ms: since
                        .map(|s| now.saturating_sub(s).as_millis().min(u128::from(u64::MAX)) as u64)
                        .unwrap_or(0),
                    value: *value,
                    threshold: rule.bound(),
                }
            })
            .collect()
    }

    /// Names of currently firing rules, in rule order.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.phases)
            .filter(|(_, p)| matches!(p, Phase::Firing { .. }))
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Renders the `GET /alerts` JSON document.
    pub fn to_json(&self, now: Duration) -> String {
        let mut out = format!("{{\"version\":{ALERTS_VERSION},\"rules\":[");
        for (i, v) in self.views(now).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (kind, detail) = match &self.rules[i].kind {
                RuleKind::Threshold { window, op, .. } => (
                    "threshold",
                    format!(
                        "\"op\":\"{}\",\"window_ms\":{}",
                        op.as_str(),
                        window.as_millis()
                    ),
                ),
                RuleKind::BurnRate {
                    budget,
                    factor,
                    short_window,
                    long_window,
                } => (
                    "burn_rate",
                    format!(
                        "\"budget\":{},\"factor\":{},\"short_window_ms\":{},\"long_window_ms\":{}",
                        fmt_f64(*budget),
                        fmt_f64(*factor),
                        short_window.as_millis(),
                        long_window.as_millis()
                    ),
                ),
            };
            out.push_str(&format!(
                "{{\"name\":{},\"signal\":{},\"kind\":\"{kind}\",{detail},\
                 \"state\":\"{}\",\"state_ms\":{},\"value\":{},\"threshold\":{}}}",
                json_str(&v.name),
                json_str(&v.signal),
                v.state,
                v.state_ms,
                v.value.map_or("null".to_string(), fmt_f64),
                fmt_f64(v.threshold),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders the `acq_alert_firing{rule=…}` gauge block for `/metrics`.
    pub fn render_prometheus(&self) -> String {
        let mut s = String::from(
            "# HELP acq_alert_firing Whether the named SLO rule is firing\n\
             # TYPE acq_alert_firing gauge\n",
        );
        for (rule, phase) in self.rules.iter().zip(&self.phases) {
            let v = i32::from(matches!(phase, Phase::Firing { .. }));
            s.push_str(&format!(
                "acq_alert_firing{{rule=\"{}\"}} {v}\n",
                rule.name.replace('"', "'")
            ));
        }
        s
    }
}

fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", acq_obs::snapshot::json_escape(s))
}

/// One parsed TOML value (the subset `alerts.toml` needs).
#[derive(Debug, Clone, PartialEq)]
enum TomlVal {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl TomlVal {
    fn as_str(&self) -> Option<&str> {
        match self {
            TomlVal::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            TomlVal::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses `alerts.toml`: `[[rule]]` tables with `key = value` entries where
/// values are strings, numbers, or booleans. Unknown keys, malformed lines,
/// and semantically incomplete rules are hard errors — a typo'd alert file
/// must fail startup, not silently never page.
pub fn parse_alerts(text: &str) -> Result<Vec<AlertRule>, String> {
    let mut tables: Vec<BTreeMap<String, TomlVal>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        if line == "[[rule]]" {
            tables.push(BTreeMap::new());
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: only [[rule]] tables are supported"));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let Some(table) = tables.last_mut() else {
            return Err(format!(
                "line {lineno}: `{}` outside any [[rule]]",
                key.trim()
            ));
        };
        let value = parse_value(value.trim())
            .ok_or_else(|| format!("line {lineno}: unparseable value `{}`", value.trim()))?;
        table.insert(key.trim().to_string(), value);
    }
    tables
        .into_iter()
        .enumerate()
        .map(|(i, t)| build_rule(i, t))
        .collect()
}

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

fn parse_value(s: &str) -> Option<TomlVal> {
    if let Some(rest) = s.strip_prefix('"') {
        let inner = rest.strip_suffix('"')?;
        if inner.contains('"') {
            return None;
        }
        return Some(TomlVal::Str(inner.to_string()));
    }
    match s {
        "true" => return Some(TomlVal::Bool(true)),
        "false" => return Some(TomlVal::Bool(false)),
        _ => {}
    }
    s.parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(TomlVal::Num)
}

fn build_rule(index: usize, table: BTreeMap<String, TomlVal>) -> Result<AlertRule, String> {
    let ctx = |key: &str| format!("rule #{}: `{key}`", index + 1);
    let get_str = |key: &str| -> Result<String, String> {
        table
            .get(key)
            .and_then(TomlVal::as_str)
            .map(String::from)
            .ok_or_else(|| format!("{} missing or not a string", ctx(key)))
    };
    let get_num = |key: &str| -> Result<f64, String> {
        table
            .get(key)
            .and_then(TomlVal::as_num)
            .ok_or_else(|| format!("{} missing or not a number", ctx(key)))
    };
    let opt_secs = |key: &str, default: Duration| -> Result<Duration, String> {
        match table.get(key) {
            None => Ok(default),
            // `try_from` refuses negatives and what a `Duration` cannot hold.
            Some(v) => v
                .as_num()
                .and_then(|n| Duration::try_from_secs_f64(n).ok())
                .ok_or_else(|| format!("{} must be a non-negative number", ctx(key))),
        }
    };

    let name = get_str("name")?;
    let signal = get_str("signal")?;
    let kind_name = table
        .get("kind")
        .and_then(TomlVal::as_str)
        .unwrap_or("threshold");
    let kind = match kind_name {
        "threshold" => {
            let op = match table.get("op").and_then(TomlVal::as_str).unwrap_or(">") {
                ">" => Op::Gt,
                ">=" => Op::Ge,
                "<" => Op::Lt,
                "<=" => Op::Le,
                other => return Err(format!("{} unknown op `{other}`", ctx("op"))),
            };
            RuleKind::Threshold {
                window: opt_secs("window_secs", DEFAULT_RULE_WINDOW)?,
                op,
                threshold: get_num("threshold")?,
            }
        }
        "burn_rate" => {
            let short = opt_secs("short_window_secs", Duration::from_secs(10))?;
            let long = opt_secs("long_window_secs", Duration::from_secs(60))?;
            if short >= long {
                return Err(format!(
                    "rule #{}: short_window_secs must be below long_window_secs",
                    index + 1
                ));
            }
            RuleKind::BurnRate {
                budget: get_num("budget")?,
                factor: match table.get("factor") {
                    None => 1.0,
                    Some(v) => v
                        .as_num()
                        .filter(|n| *n > 0.0)
                        .ok_or_else(|| format!("{} must be a positive number", ctx("factor")))?,
                },
                short_window: short,
                long_window: long,
            }
        }
        other => return Err(format!("{} unknown kind `{other}`", ctx("kind"))),
    };
    let known = [
        "name",
        "signal",
        "kind",
        "op",
        "window_secs",
        "threshold",
        "budget",
        "factor",
        "short_window_secs",
        "long_window_secs",
        "for_secs",
        "keep_firing_secs",
    ];
    if let Some(unknown) = table.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("rule #{}: unknown key `{unknown}`", index + 1));
    }
    Ok(AlertRule {
        name,
        signal,
        kind,
        for_duration: opt_secs("for_secs", Duration::ZERO)?,
        keep_firing: opt_secs("keep_firing_secs", Duration::ZERO)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # Page when we shed hard for 2s straight.
        [[rule]]
        name = "shed-rate-high"
        signal = "serve_shed_per_sec"   # recorder column
        threshold = 0.5
        window_secs = 5
        for_secs = 2
        keep_firing_secs = 3

        [[rule]]
        name = "latency-burn"
        kind = "burn_rate"
        signal = "p99_latency_ms"
        budget = 50
        factor = 2
        short_window_secs = 10
        long_window_secs = 60
    "#;

    #[test]
    fn parses_both_rule_kinds() {
        let rules = parse_alerts(SAMPLE).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "shed-rate-high");
        assert_eq!(
            rules[0].kind,
            RuleKind::Threshold {
                window: Duration::from_secs(5),
                op: Op::Gt,
                threshold: 0.5
            }
        );
        assert_eq!(rules[0].for_duration, Duration::from_secs(2));
        assert_eq!(rules[0].keep_firing, Duration::from_secs(3));
        assert_eq!(rules[1].bound(), 100.0, "budget × factor");
        assert!(matches!(rules[1].kind, RuleKind::BurnRate { .. }));
    }

    #[test]
    fn parser_rejects_typos_loudly() {
        for (src, needle) in [
            ("[[rule]]\nname = \"x\"\n", "signal"),
            ("[[rule]]\nname = \"x\"\nsignal = \"s\"\n", "threshold"),
            ("name = \"x\"\n", "outside any"),
            (
                "[[rule]]\nname = \"x\"\nsignal = \"s\"\nthreshold = 1\nbogus = 2\n",
                "unknown key",
            ),
            (
                "[[rule]]\nname = \"x\"\nsignal = \"s\"\nkind = \"mean\"\nthreshold = 1\n",
                "unknown kind",
            ),
            ("[rule]\n", "[[rule]]"),
            (
                "[[rule]]\nname = \"x\"\nsignal = \"s\"\nthreshold = banana\n",
                "unparseable",
            ),
            (
                "[[rule]]\nname = \"x\"\nsignal = \"s\"\nkind = \"burn_rate\"\nbudget = 1\n\
                 short_window_secs = 60\nlong_window_secs = 10\n",
                "below",
            ),
        ] {
            let err = parse_alerts(src).unwrap_err();
            assert!(err.contains(needle), "{src:?} -> {err}");
        }
    }

    fn threshold_rule(for_secs: u64, keep: u64) -> AlertRule {
        AlertRule {
            name: "r".into(),
            signal: "s".into(),
            kind: RuleKind::Threshold {
                window: Duration::from_secs(5),
                op: Op::Gt,
                threshold: 1.0,
            },
            for_duration: Duration::from_secs(for_secs),
            keep_firing: Duration::from_secs(keep),
        }
    }

    fn tick(engine: &mut AlertEngine, at_secs: u64, value: f64) -> Vec<AlertTransition> {
        engine.evaluate(Duration::from_secs(at_secs), &move |_, _| Some(value))
    }

    #[test]
    fn for_duration_gates_firing() {
        let mut e = AlertEngine::new(vec![threshold_rule(2, 0)]);
        assert!(tick(&mut e, 0, 5.0).is_empty(), "breach starts pending");
        assert_eq!(e.views(Duration::ZERO)[0].state, "pending");
        assert!(tick(&mut e, 1, 5.0).is_empty(), "for not yet served");
        let t = tick(&mut e, 2, 5.0);
        assert_eq!(t.len(), 1);
        assert!(t[0].firing);
        assert_eq!(t[0].threshold, 1.0);
        assert_eq!(e.firing(), vec!["r"]);
    }

    #[test]
    fn pending_resets_when_breach_clears() {
        let mut e = AlertEngine::new(vec![threshold_rule(2, 0)]);
        tick(&mut e, 0, 5.0);
        tick(&mut e, 1, 0.0); // clears while pending
        assert!(tick(&mut e, 3, 5.0).is_empty(), "for clock restarted");
        assert_eq!(e.firing().len(), 0);
    }

    #[test]
    fn keep_firing_holds_through_flapping() {
        let mut e = AlertEngine::new(vec![threshold_rule(0, 3)]);
        let t = tick(&mut e, 0, 5.0);
        assert!(t[0].firing);
        assert!(tick(&mut e, 1, 0.0).is_empty(), "clear but inside keep");
        assert!(
            tick(&mut e, 2, 5.0).is_empty(),
            "re-breach resets clear clock"
        );
        assert!(tick(&mut e, 3, 0.0).is_empty());
        assert!(
            tick(&mut e, 5, 0.0).is_empty(),
            "keep_firing not yet served"
        );
        let t = tick(&mut e, 6, 0.0);
        assert_eq!(t.len(), 1);
        assert!(!t[0].firing, "resolved after 3s continuously clear");
        assert!(e.firing().is_empty());
    }

    #[test]
    fn burn_rate_requires_both_windows() {
        let rule = AlertRule {
            name: "burn".into(),
            signal: "s".into(),
            kind: RuleKind::BurnRate {
                budget: 1.0,
                factor: 2.0,
                short_window: Duration::from_secs(10),
                long_window: Duration::from_secs(60),
            },
            for_duration: Duration::ZERO,
            keep_firing: Duration::ZERO,
        };
        let mut e = AlertEngine::new(vec![rule]);
        // Short spike only: long window still in budget → quiet.
        let t = e.evaluate(Duration::from_secs(1), &|_, w| {
            Some(if w <= Duration::from_secs(10) {
                9.0
            } else {
                0.5
            })
        });
        assert!(t.is_empty(), "{t:?}");
        // Both windows above budget × factor → fires.
        let t = e.evaluate(Duration::from_secs(2), &|_, _| Some(9.0));
        assert_eq!(t.len(), 1);
        assert!(t[0].firing);
        assert_eq!(t[0].threshold, 2.0);
    }

    #[test]
    fn missing_signal_never_pages_and_resolves_cleanly() {
        let mut e = AlertEngine::new(vec![threshold_rule(0, 0)]);
        let t = e.evaluate(Duration::from_secs(0), &|_, _| None);
        assert!(t.is_empty());
        tick(&mut e, 1, 5.0);
        assert_eq!(e.firing(), vec!["r"]);
        // Signal disappears while firing: treated as clear → resolves.
        let t = e.evaluate(Duration::from_secs(2), &|_, _| None);
        assert_eq!(t.len(), 1);
        assert!(!t[0].firing);
    }

    #[test]
    fn json_and_prometheus_renderings_track_state() {
        let mut e = AlertEngine::new(vec![threshold_rule(0, 0)]);
        tick(&mut e, 1, 5.0);
        let json = e.to_json(Duration::from_secs(2));
        let doc = acq_obs::json::parse(&json).unwrap();
        assert_eq!(
            doc.pointer("/rules/0/state").and_then(|v| v.as_str()),
            Some("firing")
        );
        assert_eq!(
            doc.pointer("/rules/0/value").and_then(|v| v.as_f64()),
            Some(5.0)
        );
        assert_eq!(
            doc.pointer("/rules/0/threshold").and_then(|v| v.as_f64()),
            Some(1.0)
        );
        assert!(e
            .render_prometheus()
            .contains("acq_alert_firing{rule=\"r\"} 1"));
        tick(&mut e, 3, 0.0);
        assert!(e
            .render_prometheus()
            .contains("acq_alert_firing{rule=\"r\"} 0"));
    }
}
