//! Order statistics and the result-line format.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile of `xs`, computed exactly
/// as Python's `statistics.quantiles(xs, n=4)` (the default
/// "exclusive" method) and `statistics.median` do, so the spreads this
/// benchmark reports agree with an outside check of its output.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut data = xs.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("sample holds a NaN"));
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for tiny samples, as in Python (it extrapolates).
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    let mid = if ld % 2 == 1 { data[ld / 2] } else { (data[ld / 2 - 1] + data[ld / 2]) / 2.0 };
    (cut(1), mid, cut(3))
}

/// Folds one pass's per-cell host times into the per-cell fastest
/// times seen so far (`best` starts empty and takes the first pass
/// whole).
///
/// # Panics
///
/// Panics if a later pass has a different cell count.
pub fn fold_fastest(best: &mut Vec<f64>, pass: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
        return;
    }
    assert_eq!(best.len(), pass.len(), "passes over different grids");
    for (b, &t) in best.iter_mut().zip(pass) {
        *b = b.min(t);
    }
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The machine-readable result line: `correct`, `attempted`, `failed`
/// and every metric as `{"value": v, "unit": u}`. Values print with all
/// their digits (Rust's shortest round-trip form).
///
/// # Panics
///
/// Panics if a value is not finite or a name or unit needs escaping.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            assert!(valid_name(name), "metric name {name:?} is outside the charset");
            assert!(!unit.contains(['"', '\\']), "unit {unit:?} needs escaping");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
