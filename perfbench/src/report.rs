//! The result line the benchmark prints last.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, printed with all its digits.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Simulated invocations the measured runs attempted.
    pub attempted: u64,
    /// Every invocation of a measured run whose result digest differed
    /// from the reference pass.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The one-line JSON object the benchmark ends its output with.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they print as null so a
            // broken measurement is visible rather than a parse error.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapbpf_json::Json;

    #[test]
    fn json_line_parses_and_keeps_every_digit() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("inv_per_s", 12345.678901234567, "inv/s");
        r.push("setup_s", 0.1, "s");
        let j = Json::parse(&r.json_line()).unwrap();
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(10));
        let v = j
            .get("metrics")
            .and_then(|m| m.get("inv_per_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v, Some(12345.678901234567));
    }
}
