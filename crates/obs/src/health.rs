//! Health verdicts on the wire: the types a watchdog reports in and
//! their JSON.
//!
//! A watchdog reads each telemetry tick's metrics and returns a
//! [`HealthReport`]: an overall [`Health`] verdict (the worst rule level)
//! plus one machine-readable [`HealthReason`] per tripped rule, so a
//! dashboard or operator can see *which* ceiling was crossed and by how
//! much. The rules themselves live with the metric ids they read (the
//! streaming engine's in `rfp_core::obs`); this module only carries and
//! serializes their verdicts, inside [`crate::TelemetryFrame`]s.

use crate::json::JsonValue;

/// An overall or per-rule health level; ordered so the worst level wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// All rules within thresholds.
    Healthy,
    /// At least one rule crossed its degraded threshold.
    Degraded,
    /// At least one rule crossed its unhealthy threshold.
    Unhealthy,
}

impl Health {
    /// The canonical lowercase wire name (`"healthy"` / `"degraded"` /
    /// `"unhealthy"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Unhealthy => "unhealthy",
        }
    }
}

/// One tripped rule inside a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReason {
    /// The rule's name.
    pub rule: String,
    /// The level this rule reported.
    pub level: Health,
    /// The observed value (ratio, gauge level, or stall streak length).
    pub value: f64,
    /// The threshold that was crossed.
    pub threshold: f64,
}

/// The verdict for one telemetry tick: the worst rule level plus every
/// tripped rule's reason, in rule order.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Worst level across all rules ([`Health::Healthy`] if none tripped).
    pub verdict: Health,
    /// One entry per tripped rule, in rule order.
    pub reasons: Vec<HealthReason>,
}

impl HealthReport {
    /// The report as a JSON object (`verdict` + `reasons` array).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("verdict", JsonValue::Str(self.verdict.as_str().to_string())),
            (
                "reasons",
                JsonValue::Arr(
                    self.reasons
                        .iter()
                        .map(|r| {
                            JsonValue::obj(vec![
                                ("rule", JsonValue::Str(r.rule.clone())),
                                ("level", JsonValue::Str(r.level.as_str().to_string())),
                                ("value", JsonValue::Num(r.value)),
                                ("threshold", JsonValue::Num(r.threshold)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The report a parsed JSON value holds, read back field by field.
    pub(crate) fn read_health(v: &JsonValue) -> HealthReport {
        let level = |v: &JsonValue, k: &str| {
            let name = v.get(k).and_then(JsonValue::as_str).unwrap();
            [Health::Healthy, Health::Degraded, Health::Unhealthy]
                .into_iter()
                .find(|h| h.as_str() == name)
                .unwrap()
        };
        HealthReport {
            verdict: level(v, "verdict"),
            reasons: v
                .get("reasons")
                .and_then(JsonValue::as_arr)
                .unwrap()
                .iter()
                .map(|r| HealthReason {
                    rule: r.get("rule").and_then(JsonValue::as_str).unwrap().into(),
                    level: level(r, "level"),
                    value: r.get("value").and_then(JsonValue::as_f64).unwrap(),
                    threshold: r.get("threshold").and_then(JsonValue::as_f64).unwrap(),
                })
                .collect(),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = HealthReport {
            verdict: Health::Unhealthy,
            reasons: vec![
                HealthReason {
                    rule: "stale_tags".into(),
                    level: Health::Degraded,
                    value: 2.0,
                    threshold: 1.0,
                },
                HealthReason {
                    rule: "no_estimates".into(),
                    level: Health::Unhealthy,
                    value: 6.0,
                    threshold: 6.0,
                },
            ],
        };
        let v = report.to_json();
        assert_eq!(read_health(&v), report);
        // Canonical through the parser too.
        let reparsed = JsonValue::parse(&v.to_compact()).unwrap();
        assert_eq!(reparsed, v);
        assert_eq!(read_health(&reparsed), report);
    }

    #[test]
    fn health_ordering_and_names() {
        assert!(Health::Healthy < Health::Degraded);
        assert!(Health::Degraded < Health::Unhealthy);
        let names = [Health::Healthy, Health::Degraded, Health::Unhealthy].map(Health::as_str);
        assert_eq!(names, ["healthy", "degraded", "unhealthy"]);
    }
}
