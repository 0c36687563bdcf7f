//! Self-tests of the benchmark: its percentile rule, seeded inputs,
//! budget accounting, expected file and a smoke pass of every workload.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`. The
//! `serve` smoke pass builds the `cfa` binary first (into
//! `$CARGO_TARGET_DIR`, default `.bench_build` in the repository root).

use e2ebench::cells::{self, Workload};
use e2ebench::check::{self, Expected, Fingerprint};
use e2ebench::run::{self, Options};
use e2ebench::stats;
use std::path::PathBuf;
use std::sync::OnceLock;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Builds `cfa` once per test binary and returns its path.
fn cfa_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| root().join(".bench_build"), PathBuf::from);
        let status = std::process::Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "cfa-cli",
            ])
            .arg("--manifest-path")
            .arg(root().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building cfa failed");
        target.join("release/cfa")
    })
    .clone()
}

fn one_pass(workload: Workload, seed: u64) -> Options {
    let probe = PathBuf::from(env!("CARGO_BIN_EXE_e2ebench"));
    let mut opts = Options::new(workload, root(), probe);
    opts.seed = seed;
    opts.passes = Some(1);
    opts.setups = 1;
    if workload == Workload::Serve {
        opts.cfa_bin = Some(cfa_bin());
    }
    opts
}

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    let ms: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&ms, 50.0), 50.0);
    assert_eq!(stats::percentile(&ms, 90.0), 90.0);
    assert_eq!(stats::beyond(100, 90.0), 10);
    assert_eq!(stats::highest_reportable(100), Some(90.0));
    // One sample short of ten beyond p90: fall back to the median.
    assert_eq!(stats::beyond(99, 90.0), 9);
    assert_eq!(stats::highest_reportable(99), Some(50.0));
    assert_eq!(stats::highest_reportable(1000), Some(99.0));
    assert_eq!(stats::highest_reportable(10_000), Some(99.9));
    assert_eq!(stats::highest_reportable(19), None);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn same_seed_same_jobs_other_seed_other_random_programs() {
    for w in Workload::ALL {
        let a = cells::inputs(w, 7);
        let b = cells::inputs(w, 7);
        let keys = |i: &cells::Inputs| -> Vec<String> {
            i.cells
                .iter()
                .map(|c| c.key.clone())
                .chain(i.requests.iter().map(|r| r.key.clone()))
                .collect()
        };
        assert_eq!(keys(&a), keys(&b), "{}", w.name());
        let texts = |i: &cells::Inputs| -> Vec<String> {
            i.programs.iter().map(|p| p.text.clone()).collect()
        };
        assert_eq!(texts(&a), texts(&b), "{}", w.name());
        assert_eq!(
            cells::pass_order(w, 7, 3, a.cells.len() + a.requests.len()),
            cells::pass_order(w, 7, 3, b.cells.len() + b.requests.len())
        );
        if matches!(w, Workload::Races | Workload::Serve) {
            assert_ne!(
                texts(&a),
                texts(&cells::inputs(w, 8)),
                "{}: the seed must pick the random programs",
                w.name()
            );
        }
    }
}

#[test]
fn same_seed_same_output_digests() {
    let first = run::run(&one_pass(Workload::Races, 5)).expect("races runs");
    let second = run::run(&one_pass(Workload::Races, 5)).expect("races runs");
    assert!(!first.recorded.is_empty());
    assert_eq!(first.recorded, second.recorded);
    assert!(first.correct && second.correct, "{:?}", first.problems);
}

#[test]
fn tiny_budget_on_one_cell_shows_in_failed_frac() {
    let mut opts = one_pass(Workload::Races, 1);
    opts.cell_budgets
        .push(("scm2c--k-1".to_owned(), std::time::Duration::from_millis(1)));
    let report = run::run(&opts).expect("races runs");
    let attempted = report.attempted();
    assert_eq!(
        attempted as usize,
        cells::inputs(Workload::Races, 1).cells.len()
    );
    assert_eq!(report.failed(), 1, "{:?}", report.problems);
    assert_eq!(report.failed_frac(), 1.0 / attempted as f64);
    let failed = report.jobs.iter().find(|j| !j.ok).expect("one failure");
    assert_eq!(failed.key, "scm2c--k-1");
    // A failed job misses any latency limit up to its budget and stays
    // in the denominator.
    assert!(failed.ms >= 1.0);
    let ok_frac = report
        .end_to_end()
        .into_iter()
        .find(|(n, _, _)| *n == "ok_frac")
        .expect("ok_frac reported")
        .1;
    assert_eq!(ok_frac, 1.0 - report.failed_frac());
    // A budget stop is a failed job, not a wrong output.
    assert!(report.correct, "{:?}", report.problems);
}

#[test]
fn smoke_pass_of_every_workload_has_no_failures() {
    for w in Workload::ALL {
        let report = run::run(&one_pass(w, 3)).expect("workload runs");
        assert!(report.correct, "{}: {:?}", w.name(), report.problems);
        assert_eq!(
            report.failed_frac(),
            0.0,
            "{}: {:?}",
            w.name(),
            report.problems
        );
        for (name, value, _) in report.end_to_end() {
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                w.name()
            );
        }
    }
}

#[test]
fn traced_pass_reports_layers_and_overhead() {
    let mut opts = one_pass(Workload::Races, 2);
    opts.trace = true;
    opts.passes = Some(2);
    let report = run::run(&opts).expect("traced races runs");
    assert!(report.correct, "{:?}", report.problems);
    for layer in ["engine.fixpoint_ms", "races.client_ms", "syntax.parse_ms"] {
        assert!(report.layers[layer] > 0.0, "{layer} missing");
    }
    assert_eq!(
        report.layers["canon.render_ms"], 0.0,
        "races bypasses canon"
    );
    assert!(report.layers.contains_key("trace.overhead_pct"));
    let shares: f64 = report
        .layers
        .iter()
        .filter(|(k, _)| k.ends_with(".share_pct"))
        .map(|(_, v)| v)
        .sum();
    assert!((shares - 100.0).abs() < 1.0, "layer shares sum to {shares}");
}

#[test]
fn expected_file_covers_every_fixed_cell() {
    let text = std::fs::read_to_string(root().join(run::EXPECTED_FILE)).expect("expected file");
    let expected = Expected::parse(&text).expect("expected file parses");
    assert_eq!(Expected::parse(&expected.render()).unwrap(), expected);
    for w in Workload::ALL {
        let inputs = cells::inputs(w, 1);
        let prefix = if w == Workload::Parallel {
            "dump"
        } else {
            w.name()
        };
        let keys = inputs
            .cells
            .iter()
            .map(|c| (&c.key, c.program))
            .chain(inputs.requests.iter().map(|r| (&r.key, r.program)));
        for (key, program) in keys {
            if inputs.programs[program].random {
                continue;
            }
            let k = format!("{prefix}:{key}");
            assert!(expected.cells.contains_key(&k), "{k} has no fingerprint");
        }
    }
}

#[test]
fn fingerprint_mismatch_names_the_count() {
    let a = Fingerprint {
        configs: 10,
        distinct_envs: Some(4),
        bytes: 100,
        digest: check::fnv1a(b"x"),
        races: None,
    };
    assert_eq!(a.mismatch(&a), None);
    let b = Fingerprint {
        configs: 11,
        ..a.clone()
    };
    assert!(a.mismatch(&b).unwrap().contains("configs"));
    // A count one side does not produce is not compared.
    let c = Fingerprint {
        distinct_envs: None,
        ..a.clone()
    };
    assert_eq!(a.mismatch(&c), None);
}

#[test]
fn concrete_values_are_covered_by_their_abstractions() {
    let set = |xs: &[&str]| xs.iter().map(|s| (*s).to_owned()).collect();
    assert!(check::halt_covers("42", &set(&["42"])));
    assert!(check::halt_covers("42", &set(&["int⊤"])));
    assert!(!check::halt_covers("42", &set(&["41"])));
    assert!(check::halt_covers("#f", &set(&["bool⊤"])));
    assert!(check::halt_covers("foo", &set(&["'foo"])));
    assert!(check::halt_covers("(1 . 2)", &set(&["#<pair>"])));
    assert!(!check::halt_covers("()", &set(&["#<pair>"])));
}

#[test]
fn paradox_shape_rejects_a_flat_k1_series() {
    let fp = |envs: u64| Fingerprint {
        configs: 1,
        distinct_envs: Some(envs),
        bytes: 1,
        digest: 0,
        races: None,
    };
    let mut recorded = std::collections::BTreeMap::new();
    for (n, envs) in cells::WORST_K1.iter().zip([2067, 4117, 8215]) {
        recorded.insert(format!("dump:worst-{n}--k-1"), fp(envs));
    }
    assert_eq!(run::paradox_shape(&recorded), Ok(()));
    recorded.insert(format!("dump:worst-{}--k-1", cells::WORST_K1[2]), fp(5000));
    assert!(run::paradox_shape(&recorded).is_err());
}
