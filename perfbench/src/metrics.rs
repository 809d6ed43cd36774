//! Metric names, units and the one-line JSON result.

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `<layer>.<metric>` for per-layer metrics, a bare name otherwise.
    pub name: String,
    /// Unit as printed (`s`, `ms`, `count`, ...).
    pub unit: &'static str,
    /// The value, printed with every digit it has.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`; panics on a name the result format forbids,
    /// which is a bug in this benchmark.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        let name = name.into();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        Metric { name, unit, value }
    }
}

/// The per-layer name `<layer>.<metric>`.
pub fn layer_metric(layer: &str, metric: &str) -> String {
    format!("{layer}.{metric}")
}

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders a number as JSON. Non-finite values have no JSON form; they
/// only arise from a bug, so they print as `null` and fail the parse of
/// anyone reading the result as numbers rather than passing as `0`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// as `{"value": .., "unit": ..}` in the order given.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_result_format() {
        assert!(valid_name("wall_s"));
        assert!(valid_name(&layer_metric("mpib.ckpt", "encode_s")));
        assert!(valid_name("mpib.rdma-channel-dyn.sim_bw_mbps"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("MB/sim_s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn bad_name_is_a_bug() {
        Metric::new("bad name", "s", 1.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let line = result_json(
            true,
            7,
            0,
            &[
                Metric::new("wall_s", "s", 0.123456789012),
                Metric::new("ibsim.events", "count", 4800000.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \
             \"ibsim.events\": {\"value\": 4800000, \"unit\": \"count\"}}}"
        );
        assert!(result_json(false, 1, 1, &[Metric::new("x", "s", f64::NAN)]).contains("null"));
    }
}
