//! The result line and the correctness ledger.

/// One run's result: printed as the last line of standard output.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(checks: &Checks, attempted: u64, failed: u64) -> Report {
        Report {
            correct: checks.ok(),
            attempted: attempted.max(1),
            failed,
            metrics: Vec::new(),
        }
    }

    /// Adds one metric. Non-finite values are reported as 0 and flagged
    /// on standard error, since JSON has no NaN.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {name} is not finite ({value}); reported as 0");
            0.0
        };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Collects correctness failures; each is printed to standard error.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn summary(&self) -> String {
        format!(
            "{} checks passed, {} failed",
            self.passed,
            self.failures.len()
        )
    }
}
