//! Metric names, units and the one-line JSON result.
//!
//! The tables below are the benchmark's contract with `BENCHMARK.json`; a
//! test checks the two list the same names with the same units.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug)]
pub struct Metric {
    /// `BENCHMARK.json` name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [Metric; 5] = [
    metric("events_per_s", "1/s"),
    metric("ops_per_s", "1/s"),
    metric("run_s_p50", "s"),
    metric("setup_s", "s"),
    metric("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [Metric; 40] = [
    metric("runner.drain_s", "s"),
    metric("parallel.drain_s", "s"),
    metric("parallel.sync_s", "s"),
    metric("parallel.plan_s", "s"),
    metric("parallel.route_s", "s"),
    metric("parallel.spine_fraction", "ratio"),
    metric("parallel.drain_per_barrier_us", "us"),
    metric("parallel.unstaged_s", "s"),
    metric("runner.events", "count"),
    metric("runner.ops", "count"),
    metric("runner.retries", "count"),
    metric("runner.timed_out_attempts", "count"),
    metric("runner.max_in_flight", "count"),
    metric("server.accesses", "count"),
    metric("diffusion.rounds", "count"),
    metric("diffusion.messages", "count"),
    metric("diffusion.redundant_avoided", "count"),
    metric("diffusion.store_ratio", "ratio"),
    metric("failure.dropped_probes", "count"),
    metric("failure.adaptive_activations", "count"),
    metric("failure.membership_events", "count"),
    metric("plan.solve_s", "s"),
    metric("core.system_build_s", "s"),
    metric("workload.generate_s", "s"),
    metric("time.hold_ns", "ns"),
    metric("latency.sample_ns", "ns"),
    metric("register.probe_set_ns", "ns"),
    metric("register.read_step_ns", "ns"),
    metric("register.write_step_ns", "ns"),
    metric("server.read_ns", "ns"),
    metric("server.store_ns", "ns"),
    metric("crypto.sign_ns", "ns"),
    metric("crypto.verify_ns", "ns"),
    metric("diffusion.plan_digest_us", "us"),
    metric("diffusion.diff_digest_us", "us"),
    metric("diffusion.deliver_delta_ns", "ns"),
    metric("metrics.record_ns", "ns"),
    metric("metrics.p99_ms", "ms"),
    metric("model.drain_residual", "ratio"),
    metric("trace.overhead_s", "s"),
];

/// Renders the result line: `correct`, `attempted`, `failed` and one
/// `{"value", "unit"}` entry per metric of `table`, in table order.
///
/// # Panics
///
/// Panics if `values` lacks a metric of `table` or holds a value that is
/// not finite — a bug in the benchmark, never a property of the input.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in table.iter().enumerate() {
        let v = *values
            .get(m.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
        assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name, unit)` of every metric `BENCHMARK.json` declares.
    fn declared() -> Vec<(String, String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let field = |obj: &str, key: &str| -> String {
            let at = obj
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("{key} missing in {obj}"));
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closing quote");
            rest[open..close].to_string()
        };
        let mut out = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            let start = json
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("{section} missing"));
            let body = &json[start..];
            let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
            for obj in body.split('}').filter(|o| o.contains('{')) {
                out.push((section.to_string(), field(obj, "name"), field(obj, "unit")));
            }
        }
        out
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let mut ours: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|m| ("end_to_end", m))
            .chain(PER_LAYER.iter().map(|m| ("per_layer", m)))
            .map(|(s, m)| (s.to_string(), m.name.to_string(), m.unit.to_string()))
            .collect();
        let mut theirs = declared();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn result_line_emits_every_metric_with_its_unit() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let values: BTreeMap<&'static str, f64> = table
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, i as f64 + 0.5))
                .collect();
            let line = result_line(true, 3, 0, table, &values);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
            for (i, m) in table.iter().enumerate() {
                let entry = format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    i as f64 + 0.5,
                    m.unit
                );
                assert!(line.contains(&entry), "{entry} missing from {line}");
            }
            assert_eq!(line.matches("\"value\"").count(), table.len());
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_metric() {
        result_line(true, 1, 0, &END_TO_END, &BTreeMap::new());
    }
}
