//! The declarative alerting engine: threshold rules with for-duration
//! hysteresis, a bounded sequence-numbered transition journal, and an
//! optional remediation action binding.
//!
//! ## Rule grammar
//!
//! ```text
//! <series> <cmp> <threshold> [for <duration>] [-> <action>]
//! ```
//!
//! where `<series>` is a dotted path into the host's stats document
//! (e.g. `window.error_rate`), `<cmp>` is one of `>` `>=` `<` `<=`,
//! `<threshold>` is a number, `<duration>` is `<n>ms`, `<n>s`, or
//! `<n>m`, and `<action>` names a host-side remediation (the gateway
//! binds `drain`). Examples:
//!
//! ```text
//! window.error_rate > 0.05 for 30s
//! gateway.shards_dead >= 1 for 2s -> drain
//! ```
//!
//! ## Hysteresis
//!
//! A rule is **ok** while its condition is false. When the condition
//! becomes true the rule turns **pending**; only after it has held
//! continuously for the `for` duration does it turn **firing** (a
//! zero/omitted duration fires immediately). The condition going false
//! resolves a firing rule back to ok — and silently cancels a pending
//! one, which is the hysteresis: a single bad sample never pages.
//! Firing and resolved transitions are recorded in the journal;
//! pending is visible only as the gauge value.
//!
//! The journal mirrors the slowlog's cursor contract: entries carry a
//! monotonically increasing `seq`, pollers ask for `seq > since` via
//! `{"op":"alerts","since":N}`, and eviction is observable through the
//! `dropped` counter rather than silent.

use std::sync::{Arc, Mutex};

use crate::ring::{Ring, RingSnapshot};
use crate::window::Clock;

/// Comparison operator of a [`Rule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl Cmp {
    /// The operator's source spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }

    fn holds(&self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
        }
    }
}

/// One parsed alert rule. `text` preserves the operator-facing
/// spelling and is the rule's identity in gauges and the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The original rule string (normalized whitespace).
    pub text: String,
    /// Dotted path of the watched series, e.g. `window.error_rate`.
    pub series: String,
    /// Threshold comparison.
    pub cmp: Cmp,
    /// Threshold value.
    pub threshold: f64,
    /// How long the condition must hold before the rule fires.
    pub for_ms: u64,
    /// Optional bound remediation action (e.g. `drain`).
    pub action: Option<String>,
}

/// Parse a duration token: `250ms`, `30s`, or `2m`.
fn parse_duration_ms(tok: &str) -> Result<u64, String> {
    let (digits, scale) = if let Some(d) = tok.strip_suffix("ms") {
        (d, 1)
    } else if let Some(d) = tok.strip_suffix('s') {
        (d, 1000)
    } else if let Some(d) = tok.strip_suffix('m') {
        (d, 60_000)
    } else {
        return Err(format!("bad duration `{tok}` (want e.g. 250ms, 30s, 2m)"));
    };
    digits
        .parse::<u64>()
        .map(|n| n * scale)
        .map_err(|_| format!("bad duration `{tok}` (want e.g. 250ms, 30s, 2m)"))
}

impl Rule {
    /// Parse one rule from the grammar in the module docs.
    pub fn parse(input: &str) -> Result<Rule, String> {
        let mut toks: Vec<&str> = input.split_whitespace().collect();
        let action = match toks.iter().position(|&t| t == "->") {
            Some(i) => {
                if i + 2 != toks.len() {
                    return Err(format!("bad rule `{input}`: `->` wants exactly one action"));
                }
                let a = toks[i + 1].to_string();
                toks.truncate(i);
                Some(a)
            }
            None => None,
        };
        let for_ms = match toks.iter().position(|&t| t == "for") {
            Some(i) => {
                if i + 2 != toks.len() {
                    return Err(format!("bad rule `{input}`: `for` wants one duration"));
                }
                let d = parse_duration_ms(toks[i + 1])?;
                toks.truncate(i);
                d
            }
            None => 0,
        };
        let [series, cmp, threshold] = toks[..] else {
            return Err(format!(
                "bad rule `{input}` (want `<series> <cmp> <threshold> [for <duration>] [-> <action>]`)"
            ));
        };
        let cmp = match cmp {
            ">" => Cmp::Gt,
            ">=" => Cmp::Ge,
            "<" => Cmp::Lt,
            "<=" => Cmp::Le,
            other => return Err(format!("bad comparison `{other}` (want > >= < <=)")),
        };
        let threshold: f64 = threshold
            .parse()
            .map_err(|_| format!("bad threshold `{threshold}` (want a number)"))?;
        if series.is_empty() {
            return Err(format!("bad rule `{input}`: empty series"));
        }
        let mut text = format!("{series} {} {threshold}", cmp.symbol());
        if for_ms > 0 {
            text.push_str(&format!(" for {for_ms}ms"));
        }
        if let Some(a) = &action {
            text.push_str(&format!(" -> {a}"));
        }
        Ok(Rule {
            text,
            series: series.to_string(),
            cmp,
            threshold,
            for_ms,
            action,
        })
    }
}

/// Where a rule currently stands. Exported as the
/// `dahlia_alert_state{rule=...}` gauge via [`AlertState::gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition false.
    Ok,
    /// Condition true, but not yet for the rule's `for` duration.
    Pending,
    /// Condition held for the full duration; the alert is live.
    Firing,
}

impl AlertState {
    /// The gauge encoding: 0 ok, 1 pending, 2 firing.
    pub fn gauge(&self) -> u64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        }
    }

    /// The wire spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One journal entry: a firing/resolved transition, or a host-emitted
/// remediation event (e.g. the gateway's `auto_drain`). Its sequence
/// number is the journal [`Ring`]'s.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Clock timestamp of the transition.
    pub t_ms: u64,
    /// The rule's `text`, or the emitting subsystem for host events.
    pub rule: String,
    /// `firing`, `resolved`, or a host-defined event name.
    pub event: String,
    /// The observed series value at transition time.
    pub value: f64,
    /// Optional free-form detail (e.g. the drained shard address).
    pub detail: String,
}

/// A rule's live evaluation state, as reported by
/// [`AlertEngine::states`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuleState {
    /// The rule's `text`.
    pub rule: String,
    /// Where the rule currently stands.
    pub state: AlertState,
    /// The last observed value of the rule's series (0 before the
    /// first evaluation or while the series is absent).
    pub value: f64,
}

struct RuleSlot {
    rule: Rule,
    state: AlertState,
    pending_since: u64,
    value: f64,
}

/// The rule engine. Evaluation is driven externally (the telemetry
/// sampler calls [`AlertEngine::eval`] once per tick); the journal can
/// additionally record host-side remediation events directly via
/// [`AlertEngine::record_event`], so it stays the single audit trail
/// even for actions that do not originate from a rule.
pub struct AlertEngine {
    clock: Arc<dyn Clock>,
    slots: Mutex<Vec<RuleSlot>>,
    journal: Ring<AlertEvent>,
}

impl AlertEngine {
    /// An engine over `rules`, journaling at most `cap` entries
    /// (clamped to at least 1). An engine with zero rules is useful as
    /// a bare journal for host events.
    pub fn new(rules: Vec<Rule>, clock: Arc<dyn Clock>, cap: usize) -> Self {
        AlertEngine {
            clock,
            slots: Mutex::new(
                rules
                    .into_iter()
                    .map(|rule| RuleSlot {
                        rule,
                        state: AlertState::Ok,
                        pending_since: 0,
                        value: 0.0,
                    })
                    .collect(),
            ),
            journal: Ring::new(cap),
        }
    }

    /// Number of configured rules.
    pub fn rule_count(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Number of rules currently firing.
    pub fn firing(&self) -> usize {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.state == AlertState::Firing)
            .count()
    }

    /// Evaluate every rule against `sample` (a resolver from series
    /// path to current value; `None` means the series is absent this
    /// tick, which counts as the condition being false). Returns the
    /// rules that transitioned to firing on THIS call — the hook for
    /// bound remediation actions.
    pub fn eval(&self, sample: &dyn Fn(&str) -> Option<f64>) -> Vec<Rule> {
        let now = self.clock.now_ms();
        let mut fired = Vec::new();
        let mut slots = self.slots.lock().unwrap();
        let mut events = Vec::new();
        for slot in slots.iter_mut() {
            let value = sample(&slot.rule.series);
            if let Some(v) = value {
                slot.value = v;
            }
            let holds = value.is_some_and(|v| slot.rule.cmp.holds(v, slot.rule.threshold));
            match (slot.state, holds) {
                (AlertState::Ok, true) => {
                    slot.pending_since = now;
                    if slot.rule.for_ms == 0 {
                        slot.state = AlertState::Firing;
                        events.push((slot.rule.text.clone(), "firing", slot.value));
                        fired.push(slot.rule.clone());
                    } else {
                        slot.state = AlertState::Pending;
                    }
                }
                (AlertState::Pending, true) => {
                    if now.saturating_sub(slot.pending_since) >= slot.rule.for_ms {
                        slot.state = AlertState::Firing;
                        events.push((slot.rule.text.clone(), "firing", slot.value));
                        fired.push(slot.rule.clone());
                    }
                }
                (AlertState::Pending, false) => {
                    // Hysteresis: the condition let go before the hold
                    // duration elapsed — nothing is journaled.
                    slot.state = AlertState::Ok;
                }
                (AlertState::Firing, false) => {
                    slot.state = AlertState::Ok;
                    events.push((slot.rule.text.clone(), "resolved", slot.value));
                }
                (AlertState::Ok, false) | (AlertState::Firing, true) => {}
            }
        }
        for (rule, event, value) in events {
            self.journal.push(AlertEvent {
                t_ms: now,
                rule,
                event: event.into(),
                value,
                detail: String::new(),
            });
        }
        fired
    }

    /// Journal a host-side event (e.g. an auto-drain) outside any
    /// rule evaluation. Returns the assigned sequence number.
    pub fn record_event(&self, rule: &str, event: &str, value: f64, detail: &str) -> u64 {
        self.journal.push(AlertEvent {
            t_ms: self.clock.now_ms(),
            rule: rule.to_string(),
            event: event.to_string(),
            value,
            detail: detail.to_string(),
        })
    }

    /// Every rule's current state and last value, in rule order.
    pub fn states(&self) -> Vec<RuleState> {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .map(|s| RuleState {
                rule: s.rule.text.clone(),
                state: s.state,
                value: s.value,
            })
            .collect()
    }

    /// The journal entries newer than the `since` cursor (0 dumps
    /// everything retained), oldest first, plus the journal counters.
    pub fn snapshot_since(&self, since: u64) -> RingSnapshot<AlertEvent> {
        self.journal.since(since)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::TestClock;

    fn engine(rules: &[&str], clock: &Arc<TestClock>) -> AlertEngine {
        let rules = rules.iter().map(|r| Rule::parse(r).unwrap()).collect();
        let clock: Arc<dyn Clock> = Arc::clone(clock) as Arc<dyn Clock>;
        AlertEngine::new(rules, clock, 16)
    }

    #[test]
    fn rule_grammar_parses_and_normalizes() {
        let r = Rule::parse("window.error_rate > 0.05 for 30s").unwrap();
        assert_eq!(r.series, "window.error_rate");
        assert_eq!(r.cmp, Cmp::Gt);
        assert_eq!(r.threshold, 0.05);
        assert_eq!(r.for_ms, 30_000);
        assert_eq!(r.action, None);
        assert_eq!(r.text, "window.error_rate > 0.05 for 30000ms");

        let r = Rule::parse("gateway.shards_dead >= 1 for 500ms -> drain").unwrap();
        assert_eq!(r.for_ms, 500);
        assert_eq!(r.action.as_deref(), Some("drain"));

        let r = Rule::parse("window.rate < 2").unwrap();
        assert_eq!(r.for_ms, 0, "`for` is optional");

        for bad in [
            "",
            "window.rate",
            "window.rate > x",
            "window.rate ~ 1",
            "a > 1 for 3h",
            "a > 1 for",
            "a > 1 ->",
            "a > 1 -> x y",
        ] {
            assert!(Rule::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn hysteresis_pending_firing_resolved() {
        let clock = Arc::new(TestClock::new());
        let eng = engine(&["e > 0.5 for 1000ms"], &clock);
        let high = |_: &str| Some(0.9);
        let low = |_: &str| Some(0.1);

        assert!(eng.eval(&low).is_empty());
        assert_eq!(eng.states()[0].state, AlertState::Ok);

        // Condition turns true: pending, not yet firing.
        assert!(eng.eval(&high).is_empty());
        assert_eq!(eng.states()[0].state, AlertState::Pending);
        assert_eq!(eng.firing(), 0);

        // Held for less than the duration: still pending.
        clock.advance(500);
        assert!(eng.eval(&high).is_empty());
        assert_eq!(eng.states()[0].state, AlertState::Pending);

        // A dip cancels the pending state silently.
        assert!(eng.eval(&low).is_empty());
        assert_eq!(eng.states()[0].state, AlertState::Ok);
        assert_eq!(eng.snapshot_since(0).last_seq, 0, "no journal entry yet");

        // True again, held past the duration: fires exactly once.
        assert!(eng.eval(&high).is_empty());
        clock.advance(1000);
        let fired = eng.eval(&high);
        assert_eq!(fired.len(), 1);
        assert_eq!(eng.states()[0].state, AlertState::Firing);
        assert_eq!(eng.firing(), 1);
        assert!(eng.eval(&high).is_empty(), "already firing: no re-fire");

        // Recovery resolves and journals the transition.
        assert!(eng.eval(&low).is_empty());
        assert_eq!(eng.states()[0].state, AlertState::Ok);
        let snap = eng.snapshot_since(0);
        let kinds: Vec<&str> = snap.entries.iter().map(|(_, e)| e.event.as_str()).collect();
        assert_eq!(kinds, vec!["firing", "resolved"]);
        assert_eq!(snap.entries[0].1.value, 0.9);
        assert_eq!(snap.entries[1].1.value, 0.1);
    }

    #[test]
    fn zero_duration_fires_immediately_and_missing_series_is_false() {
        let clock = Arc::new(TestClock::new());
        let eng = engine(&["x > 1"], &clock);
        let fired = eng.eval(&|_| Some(5.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(eng.states()[0].state, AlertState::Firing);
        // The series disappearing resolves the alert (condition false).
        eng.eval(&|_| None);
        assert_eq!(eng.states()[0].state, AlertState::Ok);
        assert_eq!(eng.states()[0].value, 5.0, "last seen value is kept");
        let kinds: Vec<String> = eng
            .snapshot_since(0)
            .entries
            .iter()
            .map(|(_, e)| e.event.clone())
            .collect();
        assert_eq!(kinds, vec!["firing", "resolved"]);
    }

    #[test]
    fn journal_cursor_and_eviction_mirror_the_slowlog() {
        let clock = Arc::new(TestClock::new());
        let clock_dyn: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
        let eng = AlertEngine::new(Vec::new(), clock_dyn, 2);
        for n in 1..=5 {
            assert_eq!(eng.record_event("host", "auto_drain", n as f64, "s"), n);
        }
        let snap = eng.snapshot_since(0);
        assert_eq!(snap.capacity, 2);
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.last_seq, 5);
        assert_eq!(
            snap.entries.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(eng.snapshot_since(4).entries.len(), 1);
        assert!(eng.snapshot_since(5).entries.is_empty());
    }

    #[test]
    fn actions_ride_along_on_fired_rules() {
        let clock = Arc::new(TestClock::new());
        let eng = engine(&["dead >= 1 -> drain"], &clock);
        let fired = eng.eval(&|_| Some(2.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].action.as_deref(), Some("drain"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Under any sample trajectory, the journal alternates
            /// firing/resolved per rule and the state gauge matches the
            /// last journaled transition.
            #[test]
            fn transitions_alternate_and_match_the_gauge(
                samples in prop::collection::vec(0u64..10, 1..40),
                hold in 0u64..3,
            ) {
                let clock = Arc::new(TestClock::new());
                let eng = engine(
                    &[&format!("v >= 5 for {}ms", hold * 100)],
                    &clock,
                );
                for s in &samples {
                    let v = *s as f64;
                    eng.eval(&|_| Some(v));
                    clock.advance(100);
                }
                let snap = eng.snapshot_since(0);
                // Eviction may drop the front of the sequence, so only
                // alternation between retained neighbours is asserted.
                for pair in snap.entries.windows(2) {
                    prop_assert_ne!(&pair[0].1.event, &pair[1].1.event);
                }
                if snap.dropped == 0 {
                    if let Some((_, first)) = snap.entries.first() {
                        prop_assert_eq!(first.event.as_str(), "firing");
                    }
                }
                let state = eng.states()[0].state;
                match snap.entries.last() {
                    Some((_, e)) if e.event == "firing" => {
                        prop_assert_eq!(state, AlertState::Firing)
                    }
                    Some(_) | None => prop_assert!(state != AlertState::Firing),
                }
            }
        }
    }
}
