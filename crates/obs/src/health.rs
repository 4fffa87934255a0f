//! Health verdicts on the wire: the types a watchdog reports in and
//! their JSON.
//!
//! A watchdog reads each telemetry tick's metrics and returns a
//! [`HealthReport`]: an overall [`Health`] verdict (the worst rule level)
//! plus one machine-readable [`HealthReason`] per tripped rule, so a
//! dashboard or operator can see *which* ceiling was crossed and by how
//! much. The rules themselves live with the metric ids they read (the
//! streaming engine's in `rfp_core::obs`); this module only carries and
//! parses their verdicts, inside [`crate::TelemetryFrame`]s.

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

    /// Parses a wire name produced by [`as_str`](Self::as_str).
    pub fn from_str_opt(s: &str) -> Option<Health> {
        match s {
            "healthy" => Some(Health::Healthy),
            "degraded" => Some(Health::Degraded),
            "unhealthy" => Some(Health::Unhealthy),
            _ => None,
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

    /// Parses a report previously produced by [`to_json`](Self::to_json).
    pub fn from_json(v: &JsonValue) -> Option<HealthReport> {
        let verdict = Health::from_str_opt(v.get("verdict")?.as_str()?)?;
        let reasons = v
            .get("reasons")?
            .as_arr()?
            .iter()
            .map(|r| {
                Some(HealthReason {
                    rule: r.get("rule")?.as_str()?.to_string(),
                    level: Health::from_str_opt(r.get("level")?.as_str()?)?,
                    value: r.get("value")?.as_f64()?,
                    threshold: r.get("threshold")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(HealthReport { verdict, reasons })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(HealthReport::from_json(&v).unwrap(), report);
        // Canonical through the parser too.
        let reparsed = JsonValue::parse(&v.to_compact()).unwrap();
        assert_eq!(HealthReport::from_json(&reparsed).unwrap(), report);
    }

    #[test]
    fn health_ordering_and_names() {
        assert!(Health::Healthy < Health::Degraded);
        assert!(Health::Degraded < Health::Unhealthy);
        for h in [Health::Healthy, Health::Degraded, Health::Unhealthy] {
            assert_eq!(Health::from_str_opt(h.as_str()), Some(h));
        }
        assert_eq!(Health::from_str_opt("bogus"), None);
    }
}
