//! The benchmark's output: human-readable lines, then one JSON result line.

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metrics of the final JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Context and workload-specific lines printed before the JSON line.
    pub lines: Vec<String>,
    /// Correctness failures; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    /// Adds a metric to the JSON line (and prints it).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// `true` when no correctness check failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The final result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Default::default()
        };
        r.metric("qps", 12.5, "1/s");
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":{\"qps\":{\"value\":12.5,\"unit\":\"1/s\"},\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        r.fail("wrong answer");
        assert!(r.to_json().starts_with("{\"correct\":false"));
    }
}
