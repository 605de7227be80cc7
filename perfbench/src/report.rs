//! What one run prints: per-graph rows, a provenance line and, last, the
//! result object the contract in `BENCHMARK.json` describes.

use serde_json::Value;

use crate::speed::{Span, SpeedProbe};

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("compile_total_s", "s"),
    ("compile_geomean_ms", "ms"),
    ("peak_reduction_geomean", "x"),
    ("arena_reduction_geomean", "x"),
    ("traffic_kib_total", "KiB"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("search_memo_mib", "MiB"),
];

/// Every per-layer metric of the traced run, in output order, with its
/// unit. A metric whose layer a workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("trace.compile_total_s", "s"),
    ("process.max_rss_mib", "MiB"),
    ("schedule.original_ms", "ms"),
    ("dp.transitions", "count"),
    ("dp.states", "count"),
    ("dp.transitions_per_s", "1/s"),
    ("dp.bound_pruned", "count"),
    ("dp.peak_memo_bytes", "B"),
    ("schedule.rewritten_ms", "ms"),
    ("budget.probes", "count"),
    ("budget.probes_timeout", "count"),
    ("budget.probes_nosolution", "count"),
    ("budget.probe_ms.max", "ms"),
    ("budget.tau0_over_peak", "x"),
    ("rewrite.search_ms", "ms"),
    ("rewrite.candidates", "count"),
    ("rewrite.iterations", "count"),
    ("rewrite.memo_hit_frac", "ratio"),
    ("rewrite.candidates_per_s", "1/s"),
    ("divide.segments", "count"),
    ("divide.memo_hits", "count"),
    ("baseline.kahn_ms", "ms"),
    ("canon.stackify_ms", "ms"),
    ("allocator.plan_ms", "ms"),
    ("allocator.arena_over_peak", "x"),
    ("capacity.assess_ms", "ms"),
    ("capacity.traffic_bytes", "B"),
    ("capacity.traffic_vs_default", "x"),
    ("verify.ms", "ms"),
    ("cache.hit_frac", "ratio"),
    ("cache.entries", "count"),
    ("cache.evictions", "count"),
    ("cache.entry_bytes", "B"),
    ("ir.json_parse_ms", "ms"),
    ("ir.fingerprint_us", "us"),
    ("serve.handle_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("singleflight.coalesced_frac", "ratio"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name; names come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (compiles or requests).
    pub attempted: u64,
    /// Operations that failed a correctness check or errored.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Per-graph rows (deterministic counters separate from timings).
    pub rows: Vec<Value>,
    /// Sample counts behind every median and percentile, and other
    /// workload-specific provenance.
    pub provenance: Vec<(String, Value)>,
    /// Unscaled values of the metrics set with [`Report::set_scaled`].
    pub raw: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Sets a time metric to its value scaled to the reference machine
    /// speed, keeping the raw value for the provenance line.
    pub fn set_scaled(&mut self, name: &'static str, raw: f64, scaled: f64) {
        self.set(name, scaled);
        self.raw.push((name, raw));
    }

    /// Notes the speed probe's samples in the provenance line.
    pub fn note_probe(&mut self, probe: &SpeedProbe) {
        self.note(
            "speed_probe",
            serde_json::json!({
                "median_ms": probe.median_ms(),
                "reference_ms": crate::speed::REFERENCE_MS,
                "samples": probe.samples(),
                "series_ms": probe.series(),
            }),
        );
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.provenance.push((key.to_string(), value));
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// The result object: the listed metrics (absent ones read 0) with
    /// their units.
    pub fn result(&self, listed: &[(&'static str, &'static str)]) -> Value {
        let metrics = listed
            .iter()
            .map(|(name, unit)| {
                let value =
                    self.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |(_, value)| *value);
                (name.to_string(), serde_json::json!({ "value": value, "unit": unit }))
            })
            .collect();
        serde_json::json!({
            "correct": self.failed == 0,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Map(metrics),
        })
    }
}

/// Runs set-up at least `min_reps` times and for at least `min_secs`,
/// sampling machine speed in between and discarding all but the last
/// result; returns it with every repetition's span. Their median skips the
/// start-up transient a single timing would include.
pub fn repeat_setup<T>(
    min_reps: usize,
    min_secs: f64,
    probe: &mut SpeedProbe,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<Span>) {
    let started = std::time::Instant::now();
    let mut spans = Vec::new();
    let mut last: Option<T> = None;
    while spans.len() < min_reps || started.elapsed().as_secs_f64() < min_secs {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let (value, span) = Span::time(&mut setup);
        last = Some(value);
        spans.push(span);
        probe.tick();
    }
    (last.expect("set-up ran at least once"), spans)
}

/// Sets `setup_s` from the set-up spans: the median, raw and scaled by
/// `probe` (left raw without one).
pub fn set_setup(report: &mut Report, probe: Option<&SpeedProbe>, spans: &[Span]) {
    let raw: Vec<f64> = spans.iter().map(|s| s.ms() / 1e3).collect();
    let scaled: Vec<f64> = match probe {
        Some(probe) => spans.iter().map(|&s| probe.run_scaled_ms(s) / 1e3).collect(),
        None => raw.clone(),
    };
    let median = |v: &[f64]| crate::stats::median(v).expect("set-up ran at least once");
    report.set_scaled("setup_s", median(&raw), median(&scaled));
    report.note("setup_repeats", serde_json::json!(spans.len()));
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn max_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
