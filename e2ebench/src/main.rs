//! `e2ebench` — run one workload of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload dump|races|serve|parallel --seed N --seconds S --trace 0|1
//!          [--root DIR] [--cfa-bin PATH]
//! e2ebench --bless [--root DIR] [--cfa-bin PATH]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. The lines
//! before it describe the run for a reader. `--bless` rewrites the
//! expected file from one pass of every workload.

use e2ebench::cells::Workload;
use e2ebench::check::Expected;
use e2ebench::run::{self, Options, Report};
use e2ebench::stats;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "e2ebench: {problem}\n\
         usage: e2ebench --workload dump|races|serve|parallel --seed N --seconds S --trace 0|1\n\
         \x20       [--root DIR] [--cfa-bin PATH]\n\
         \x20      e2ebench --bless [--root DIR] [--cfa-bin PATH]"
    );
    ExitCode::from(2)
}

/// The parsed command line.
struct Args {
    opts: Options,
    bless: bool,
    workload_given: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut opts = Options::new(Workload::Dump, PathBuf::from("."), exe);
    let mut bless = false;
    let mut workload_given = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--bless" {
            bless = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{what} must be a whole number, got {value:?}"))
        };
        match flag {
            "--workload" => {
                opts.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload_given = true;
            }
            "--seed" => opts.seed = num("--seed")?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds must be a number, got {value:?}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--root" => opts.root = PathBuf::from(value),
            "--cfa-bin" => opts.cfa_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        i += 2;
    }
    Ok(Args {
        opts,
        bless,
        workload_given,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_report(opts: &Options, report: &Report) {
    println!(
        "# e2ebench workload={} seed={} host_cpus={} threads={} window={} commit={} \
         passes={} jobs={} wall_s={:.3}",
        report.workload.name(),
        report.seed,
        report.host_cpus,
        report.threads,
        report.window,
        run::git_commit(&opts.root),
        report.passes,
        report.attempted(),
        report.wall_s
    );
    println!("# why: {}", report.workload.why());
    let metrics: Vec<(&str, f64, &str)> = if opts.trace {
        report
            .layers
            .iter()
            .map(|(k, v)| (*k, *v, layer_unit(k)))
            .collect()
    } else {
        let mut m = report.end_to_end();
        m.push(("failed_frac", report.failed_frac(), "ratio"));
        m
    };
    let raw = report.end_to_end_raw();
    for (name, value, unit) in &metrics {
        match raw.iter().find(|r| r.0 == *name) {
            Some(r) if r.1 != *value => {
                println!(
                    "#   {name:<32} {value:>14.4} {unit:<6} (as measured: {:.4})",
                    r.1
                )
            }
            _ => println!("#   {name:<32} {value:>14.4} {unit}"),
        }
    }
    if !report.probes.is_empty() {
        println!(
            "# host: probe median {:.4} ms over {} samples, {:.4}x the reference host's {} ms; \
             timings above are scaled to the reference host",
            stats::median(&report.probes),
            report.probes.len(),
            report.slowdown(),
            e2ebench::calib::REFERENCE_MS
        );
    }
    if !report.pass_totals.is_empty() {
        let rss: Vec<String> = report
            .pass_totals
            .iter()
            .map(|p| format!("{:.1}", p.peak_rss_mb))
            .collect();
        println!("# peak_rss_mb per pass: {}", rss.join(" "));
    }
    let ms = report.sorted_ms();
    match stats::highest_reportable(ms.len()) {
        Some(p) => println!(
            "# tail: p{p} = {:.3} ms over {} jobs ({} beyond it; p90 has {} beyond)",
            stats::percentile(&ms, p),
            ms.len(),
            stats::beyond(ms.len(), p),
            stats::beyond(ms.len(), 90.0)
        ),
        None => println!("# tail: too few jobs ({}) for any percentile", ms.len()),
    }
    let mut by_key: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for j in &report.jobs {
        by_key.entry(&j.key).or_default().push(j.ms);
    }
    let mut slowest: Vec<(f64, &str)> =
        by_key.iter().map(|(k, v)| (stats::median(v), *k)).collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top: Vec<String> = slowest
        .iter()
        .take(8)
        .map(|(ms, k)| format!("{k}={ms:.1}"))
        .collect();
    println!("# slowest cells (median ms): {}", top.join(" "));
    for p in &report.problems {
        println!("# problem: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|(name, _, _)| *name != "failed_frac")
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted(),
        report.failed(),
        body.join(", ")
    );
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_ratio") || name.ends_with("_per_drain") {
        "ratio"
    } else if name.ends_with("_bytes") || name == "canon.bytes" {
        "bytes"
    } else {
        "count"
    }
}

fn default_target_dir(root: &std::path::Path) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join(".bench_build"), PathBuf::from)
}

fn write_spans(opts: &Options, report: &Report) {
    let Some(tracer) = &report.spans else { return };
    let path = default_target_dir(&opts.root).join(format!(
        "e2ebench-trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, tracer.to_chrome_json()) {
        Ok(()) => println!(
            "# spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("e2ebench: cannot write {}: {e}", path.display()),
    }
}

/// Rewrites the expected file from one untraced pass of every workload.
fn bless(base: &Options) -> Result<(), String> {
    let mut expected = Expected::default();
    for w in Workload::ALL {
        let mut opts = base.clone();
        opts.workload = w;
        opts.bless = true;
        opts.trace = false;
        opts.passes = Some(1);
        opts.setups = 1;
        let report = run::run(&opts)?;
        if !report.correct || report.failed() > 0 {
            return Err(format!("{}: {:?}", w.name(), report.problems));
        }
        let inputs = e2ebench::cells::inputs(w, opts.seed);
        let fixed: Vec<String> = inputs
            .cells
            .iter()
            .map(|c| (c.key.clone(), c.program))
            .chain(inputs.requests.iter().map(|r| (r.key.clone(), r.program)))
            .filter(|(_, p)| !inputs.programs[*p].random)
            .map(|(k, _)| k)
            .collect();
        for (key, fp) in report.recorded {
            if !fixed.iter().any(|k| key.ends_with(&format!(":{k}"))) {
                continue;
            }
            // `parallel` re-checks `dump`'s cells; it must agree, and
            // the sequential fingerprint (with its environment count)
            // is the one kept.
            match expected.cells.get(&key) {
                Some(seen) => {
                    if let Some(diff) = fp.mismatch(seen) {
                        return Err(format!("{}: {key}: {diff}", w.name()));
                    }
                }
                None => {
                    expected.cells.insert(key, fp);
                }
            }
        }
        eprintln!("e2ebench: blessed {}", w.name());
    }
    let path = base.root.join(run::EXPECTED_FILE);
    std::fs::write(&path, expected.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "e2ebench: wrote {} cells to {}",
        expected.cells.len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let ["--probe-server", "--threads", n] =
        args.iter().map(String::as_str).collect::<Vec<_>>()[..]
    {
        return match n.parse() {
            Ok(threads) => {
                e2ebench::calib::serve_probes(threads);
                ExitCode::SUCCESS
            }
            Err(_) => usage("--threads must be a whole number"),
        };
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if parsed.bless {
        return match bless(&parsed.opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: bless failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if !parsed.workload_given {
        return usage("--workload is required");
    }
    let opts = parsed.opts;
    match run::run(&opts) {
        Ok(report) => {
            write_spans(&opts, &report);
            print_report(&opts, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
