//! Self-tests of the benchmark: its statistics helpers, its names,
//! `BENCHMARK.json`, and a tiny-grid run of the one command.

use std::path::Path;
use std::process::{Command, Output};

use interleave_obs::json::{self, Value};
use perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::hostspeed::{slowdown, HostSpeed, SENSITIVITY};
use perfbench::stats::{fold_fastest, median, quartiles, result_line, valid_name};

/// Python's `statistics.quantiles(xs, n=4)` and `statistics.median`.
#[test]
fn quartiles_match_python() {
    assert_eq!(quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[3., 1., 2.]), (1.0, 2.0, 3.0));
    assert_eq!(quartiles(&[1., 2.]), (0.75, 1.5, 2.25));
    assert_eq!(quartiles(&[5.5, 1.25, 9.0, 2.0, 7.75, 3.5]), (1.8125, 4.5, 8.0625));
    assert_eq!(quartiles(&[7.]), (7., 7., 7.));
    assert_eq!(median(&[4., 1., 3., 2.]), 2.5);
    assert_eq!(median(&[9., 1., 5.]), 5.0);
}

#[test]
fn fastest_pass_keeps_each_cells_minimum() {
    let mut best = Vec::new();
    fold_fastest(&mut best, &[3.0, 1.0, 2.0]);
    assert_eq!(best, [3.0, 1.0, 2.0]);
    fold_fastest(&mut best, &[2.5, 4.0, 2.0]);
    fold_fastest(&mut best, &[9.0, 0.5, 3.0]);
    assert_eq!(best, [2.5, 0.5, 2.0]);
}

/// The slowdown grows as the walk's time to the power `SENSITIVITY`,
/// and a live walk yields a finite, positive factor.
#[test]
fn slowdown_follows_the_reference_walk() {
    let base = slowdown(1e-3);
    assert!((slowdown(2e-3) / base - 2f64.powf(SENSITIVITY)).abs() < 1e-12);
    assert!((slowdown(1.2e-3) / base - 1.2f64.powf(SENSITIVITY)).abs() < 1e-12);
    let mut speed = HostSpeed::default();
    for _ in 0..5 {
        speed.sample();
    }
    assert!(speed.first_quartile() > 0.0);
    assert!(speed.slowdown().is_finite() && speed.slowdown() > 0.0);
}

#[test]
fn names_follow_the_charset() {
    for ok in ["sim_cycles_per_s", "mem.l1d_hit_ns", "mp-splash-jobs2", "9lives"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", "_lead", ".lead", "has space", "slash/ed", "q\"uote", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    let names = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "{name}");
    }
}

#[test]
fn result_line_is_json_with_every_digit() {
    let line = result_line(true, 3, 0, &[("a.b", 0.1 + 0.2, "ms"), ("c", 2.0, "1/s")]);
    let v = json::parse(&line).expect("result line parses");
    assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
    let a = v.get("metrics").and_then(|m| m.get("a.b")).expect("metric a.b");
    assert_eq!(a.get("value").and_then(Value::as_f64), Some(0.30000000000000004));
    assert_eq!(a.get("unit").and_then(Value::as_str), Some("ms"));
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_arr).unwrap_or_else(|| panic!("{key} is an array"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key} is a string"))
}

fn keys(entry: &Value) -> Vec<&str> {
    match entry {
        Value::Obj(m) => m.keys().map(String::as_str).collect(),
        _ => panic!("expected an object"),
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    );
    let run_seconds = doc.get("run_seconds").and_then(Value::as_u64).expect("whole seconds");
    assert!((1..=60).contains(&run_seconds));
    // 4 + 22 runs per workload, each its budget plus a few seconds of
    // start-up, and two builds of about a minute, within 3420 s.
    let runs = 4 + 22 * entries(&doc, "workloads").len() as u64;
    assert!(runs * (run_seconds + 3) + 120 <= 3420, "runs would not fit the time budget");

    let w = entries(&doc, "workloads");
    assert_eq!(w.len(), WORKLOADS.len());
    for (entry, (name, why)) in w.iter().zip(WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(field(entry, "name"), name);
        assert_eq!(field(entry, "why"), why);
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    let e = entries(&doc, "end_to_end");
    assert_eq!(e.len(), END_TO_END.len());
    for (entry, def) in e.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["better", "bound", "name", "unit"]);
        assert_eq!(field(entry, "name"), def.name);
        assert_eq!(field(entry, "unit"), def.unit);
        assert_eq!(field(entry, "better"), def.better.name());
        let bound = entry.get("bound").and_then(Value::as_f64).expect("numeric bound");
        assert_eq!(bound, def.bound);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is reported");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");

    let p = entries(&doc, "per_layer");
    assert_eq!(p.len(), PER_LAYER.len());
    for (entry, def) in p.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["better", "name", "unit"]);
        assert_eq!(field(entry, "name"), def.name);
        assert_eq!(field(entry, "unit"), def.unit);
        assert_eq!(field(entry, "better"), def.better.name());
        assert!(
            END_TO_END.iter().any(|m| m.name == def.moves) || def.moves == "none",
            "{} names no end-to-end metric to move",
            def.name
        );
        assert!(!def.on.is_empty(), "{} names no workload", def.name);
    }
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("perfbench runs")
}

/// The result line of a successful run, checked against the contract.
fn result(out: &Output, expect: &[(&str, &str)]) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "perfbench failed:\n{stderr}");
    let v = json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    assert_eq!(keys(&v), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true), "{stderr}");
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
    assert!(v.get("attempted").and_then(Value::as_u64).is_some_and(|a| a >= 1));
    let metrics = v.get("metrics").expect("metrics");
    assert_eq!(keys(metrics).len(), expect.len());
    for &(name, unit) in expect {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit), "{name}");
        assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite), "{name}");
        assert!(stderr.contains(name), "{name} missing from the report");
    }
    v
}

#[test]
fn smoke_grid_timed_run_reports_every_end_to_end_metric() {
    let out = perfbench(&["--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0"]);
    let expect: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let v = result(&out, &expect);
    for m in END_TO_END {
        let value = v.get("metrics").and_then(|x| x.get(m.name)).and_then(|x| x.get("value"));
        assert!(value.and_then(Value::as_f64).is_some_and(|x| x > 0.0), "{} is zero", m.name);
    }
    assert!(String::from_utf8_lossy(&out.stderr).contains("error_rate"));
}

/// The traced run reports every per-layer metric, and its work-count
/// table repeats exactly for a fixed seed.
#[test]
fn smoke_grid_traced_run_repeats_its_work_counts() {
    let table = |out: &Output| {
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let start = stderr.find("work counts").expect("work-count table printed");
        let end = stderr[start..].find("gen_instrs/gen_batch").expect("table ends") + start;
        stderr[start..end].to_string()
    };
    let args = ["--workload", "smoke", "--seed", "11", "--seconds", "1", "--trace", "1"];
    let expect: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let first = perfbench(&args);
    result(&first, &expect);
    let second = perfbench(&args);
    result(&second, &expect);
    assert_eq!(table(&first), table(&second));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "smoke", "--trace", "2"],
        &["--workload", "smoke", "--seconds", "-1"],
        &["--workload"],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
