//! Named metrics of one round, folded into the run's result.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Metric name → (value, unit) for one round.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Record `value`, replacing any earlier one.
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.insert(name, (value, unit));
    }

    /// Add `value` to the metric (starting from zero).
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.entry(name).or_insert((0.0, unit)).0 += value;
    }

    /// Add a duration in milliseconds.
    pub fn add_ms(&mut self, name: &'static str, d: Duration) {
        self.add(name, "ms", d.as_secs_f64() * 1e3);
    }

    /// Keep the larger of the recorded and the new value.
    pub fn max(&mut self, name: &'static str, unit: &'static str, value: f64) {
        let e = self.0.entry(name).or_insert((value, unit));
        e.0 = e.0.max(value);
    }

    /// The recorded value, zero when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    /// The run's result as one JSON line.
    pub fn to_json(&self, ops: &Ops) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            ops.correct(),
            ops.attempted,
            ops.failed
        );
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            // Every value is finite by construction; a non-finite one would
            // not be JSON, so it is written as null and the run fails.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The median of each metric over the rounds that recorded it.
pub fn fold(rounds: &[Metrics]) -> Metrics {
    let mut all: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    for m in rounds {
        for (&name, &(value, unit)) in &m.0 {
            all.entry(name).or_insert((Vec::new(), unit)).0.push(value);
        }
    }
    let mut out = Metrics::default();
    for (name, (values, unit)) in all {
        if let Some(v) = median(&values) {
            out.set(name, unit, v);
        }
    }
    out
}

/// Operations attempted and how many of them failed: an error, a
/// degraded outcome, or an output check that did not hold.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Count one operation; report and count it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Whether every operation succeeded (and at least one ran).
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
