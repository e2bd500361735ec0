//! The metric catalogue (it mirrors `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;

use crate::stats::{valid_name, valid_unit};

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p2", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("state_mib", "MiB"),
    ("steps_per_op", "count"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_ms", "ms"),
    ("walks.evolve_ms", "ms"),
    ("walks.order_ms", "ms"),
    ("walks.scan_ms", "ms"),
    ("walks.steps", "count"),
    ("walks.grid_sizes", "count"),
    ("walks.sparse_steps", "count"),
    ("service.warm_batch_ms", "ms"),
    ("service.cold_batch_ms", "ms"),
    ("service.apply_churn_ms", "ms"),
    ("graph.churn_apply_ms", "ms"),
    ("service.replay_ms", "ms"),
    ("service.record_ms", "ms"),
    ("service.hit_ratio", "ratio"),
    ("service.retained_ratio", "ratio"),
    ("service.engine_steps", "count"),
    ("service.blocks", "count"),
    ("service.bytes_per_source", "bytes"),
    ("core.iterations", "count"),
    ("core.sizes_checked", "count"),
    ("congest.bfs_ms", "ms"),
    ("congest.flood_ms", "ms"),
    ("congest.binsearch_ms", "ms"),
    ("congest.bfs_rounds", "count"),
    ("congest.flood_rounds", "count"),
    ("congest.binsearch_rounds", "count"),
    ("congest.us_per_round", "us"),
    ("congest.messages_per_op", "count"),
    ("congest.bits_per_op", "bits"),
    ("congest.max_edge_bits", "bits"),
    ("pool.w2_over_w1", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `n` attempted operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of the catalogue `trace` selects. A non-finite or missing end-to-end
    /// metric is a bug in the benchmark and makes the run fail.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            debug_assert!(valid_name(name) && valid_unit(unit));
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Shortest round-trip form of a finite `f64`, always valid JSON.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_fills_unexercised_layers_and_rejects_gaps() {
        let mut r = Report::default();
        r.tally(3, 0);
        r.set("walks.steps", 14.0);
        let line = r.result_line(true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"walks.steps\": {\"value\": 14.0, \"unit\": \"count\"}"));
        assert!(line.contains("\"congest.bfs_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        assert!(r.result_line(false).is_err());
        for &(n, _) in END_TO_END {
            r.set(n, 0.125);
        }
        assert!(r
            .result_line(false)
            .unwrap()
            .contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        r.set("setup_s", f64::NAN);
        assert!(r.result_line(false).is_err());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::default();
        for &(n, _) in END_TO_END {
            r.set(n, 1.5);
        }
        r.tally(10, 1);
        assert!(r
            .result_line(false)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1), "0.1");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(123.456789012345), "123.456789012345");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
