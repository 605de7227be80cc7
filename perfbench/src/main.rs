//! `perfbench` — the repository benchmark: compile time, schedule quality
//! and service latency, with a separate traced run for per-layer numbers.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `suite-cold`, `concat-cold`, `capacity-spill` (cold compiles
//! of fixed graph sets) and `nas-serve` (closed-loop clients against an
//! in-process HTTP server). `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones. Every output is checked for correctness
//! outside the timed region; any failure makes the exit code 1.
//!
//! Standard output: one `{"graph": …}` line per graph, one
//! `{"provenance": …}` line, and last the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod cold;
mod graphs;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;

use serde_json::{json, Value};

use crate::report::{Report, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 25.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds <= 0.0 || !args.seconds.is_finite() {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The source revision, when the benchmark runs inside a git checkout.
fn git_revision() -> Value {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or(Value::Null, |out| json!(String::from_utf8_lossy(&out.stdout).trim()))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <suite-cold|concat-cold|capacity-spill|nas-serve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report: Report = match args.workload.as_str() {
        "suite-cold" => cold::run(graphs::suite_cold, args.seed, args.seconds, args.trace),
        "concat-cold" => cold::run(graphs::concat_cold, args.seed, args.seconds, args.trace),
        "capacity-spill" => cold::run(graphs::capacity_spill, args.seed, args.seconds, args.trace),
        "nas-serve" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    // The peak resident set is bimodal on capacity-spill (see the README),
    // so it is a per-layer metric of the traced run and provenance here.
    let rss = report::max_rss_mib();
    report.set("process.max_rss_mib", rss);
    for row in &report.rows {
        println!("{}", serde_json::to_string(&json!({ "graph": row })).expect("row serializes"));
    }
    let mut provenance = vec![
        ("workload".to_string(), json!(args.workload)),
        ("seed".to_string(), json!(args.seed)),
        ("seconds".to_string(), json!(args.seconds)),
        ("trace".to_string(), json!(args.trace)),
        ("git_revision".to_string(), git_revision()),
        (
            "nproc".to_string(),
            json!(std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)),
        ),
        ("failed_frac".to_string(), json!(report.failed as f64 / report.attempted.max(1) as f64)),
        ("failures".to_string(), json!(report.failures)),
        ("max_rss_mib".to_string(), json!(rss)),
    ];
    let raw = report.raw.iter().map(|(name, value)| (name.to_string(), json!(value)));
    provenance.push(("raw".to_string(), Value::Map(raw.collect())));
    provenance.extend(report.provenance.iter().cloned());
    println!(
        "{}",
        serde_json::to_string(&json!({ "provenance": Value::Map(provenance) }))
            .expect("provenance serializes")
    );
    for failure in &report.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", serde_json::to_string(&report.result(listed)).expect("result serializes"));
    if report.failed > 0 {
        std::process::exit(1);
    }
}
