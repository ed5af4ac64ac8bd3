//! Benchmark entry point.
//!
//! ```text
//! e2e_bench --workload <scenarios_cold|edit_wire|tab_edit_write>
//!           --seed <n> --seconds <s> --trace <0|1> [--corrupt]
//! ```
//!
//! Prints a report line (provenance, sample counts, workload-specific
//! figures, failure breakdown) and, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. Exits 1 when any
//! answer check fails, 2 on a usage or set-up error.

use std::process::ExitCode;

use serde_json::{json, Map, Value};
use sigma_e2e_bench::{cold, stats, tab, wire, Args, RunResult, END_TO_END, PER_LAYER, WORKLOADS};

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// The commit the benchmark was built from, read from `.git` when the
/// working directory is a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

/// A metric value as JSON; a non-finite value reads 0.
fn num(v: f64) -> Value {
    json!(if v.is_finite() { v } else { 0.0 })
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON values always print")
}

/// (name, value, unit, samples) of every reported metric.
fn metrics(args: &Args, r: &RunResult) -> Vec<(&'static str, f64, &'static str, usize)> {
    if args.trace {
        return PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, r.layers.get(name).copied().unwrap_or(0.0), *unit, 1))
            .collect();
    }
    let lat = &r.window.latencies_ms;
    END_TO_END
        .iter()
        .map(|(name, unit)| {
            let (v, n) = match *name {
                "setup_s" => (stats::median(&r.setup_s), r.setup_s.len()),
                "latency_p50_ms" => (stats::median(lat), lat.len()),
                "latency_tail_ms" => (stats::tail(lat).0, lat.len()),
                "ops_per_s" => (r.window.ops_per_s(), lat.len()),
                other => unreachable!("no end-to-end metric {other}"),
            };
            (*name, v, *unit, n)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "scenarios_cold" => cold::run(&args),
        "edit_wire" => wire::run(&args),
        _ => tab::run(&args),
    };
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e_bench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let ms = metrics(&args, &r);
    let c = &r.checks;
    let attempted = c.attempted.max(1);
    let correct = c.failed() == 0 && c.attempted > 0;

    let metric_objects = |with_samples: bool| -> Map {
        ms.iter()
            .map(|(name, v, unit, n)| {
                let mut m = Map::new();
                m.insert("value".into(), num(*v));
                m.insert("unit".into(), json!(unit));
                if with_samples {
                    m.insert("samples".into(), json!(*n as u64));
                }
                (name.to_string(), Value::Object(m))
            })
            .collect()
    };
    let rss = ("peak_rss_mb", r.peak_rss_mb, "MiB");
    let extra: Map = std::iter::once(&rss)
        .chain(&r.window.extra)
        .map(|(name, v, unit)| {
            let samples = r.window.latencies_ms.len() as u64;
            (
                name.to_string(),
                json!({"value": num(*v), "unit": unit, "samples": samples}),
            )
        })
        .collect();
    let report = json!({
        "report": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "provenance": {
                "nproc": std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
                "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
                "git_rev": git_rev(),
                "clients": r.clients as u64,
                "seconds": args.seconds,
            },
            "latency_tail_percentile": stats::tail(&r.window.latencies_ms).1,
            "failed_ratio": num(c.failed() as f64 / attempted as f64),
            "checks": {
                "attempted": c.attempted,
                "errors": c.errors,
                "shed": c.shed,
                "wrong": c.wrong,
                "stale": c.stale,
                "writes_probed": c.writes_probed,
                "stale_without_reinstall": c.stale_without_reinstall,
            },
            "metrics": Value::Object(metric_objects(true)),
            "extra": Value::Object(extra),
            "notes": c.notes.clone(),
            "trace_file": r.trace_file.clone().unwrap_or_default(),
        }
    });
    println!("{}", to_line(&report));
    let last = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": c.failed(),
        "metrics": Value::Object(metric_objects(false)),
    });
    println!("{}", to_line(&last));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
