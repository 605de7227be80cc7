//! A machine-speed probe. The benchmark host's speed drifts by a quarter
//! over seconds to minutes (other tenants share it), which moves every
//! compile time with it. A fixed hash-map-and-sort kernel, owned by the
//! benchmark and sampled between compiles, measures that drift; each
//! compile time is scaled by the speed measured around it to a machine on
//! which the kernel takes [`REFERENCE_MS`]. The raw times go to the
//! provenance line.
//!
//! A τ probe cut off by the adaptive search's step timeout is not scaled:
//! the wall clock, not the work, ends it. How many DP steps it completes
//! before the cut depends on the host's momentary speed, so its length
//! jumps between values a step apart (about 2.5 s or 3.4 s on
//! concat RandWire n16). A scaled time counts each such probe as the step
//! timeout it is sure to spend; [`Span::timed_out_ms`] keeps its measured
//! length.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel's median time on the machine the bounds were set on
/// (2 vCPUs, `nproc` = 2).
pub const REFERENCE_MS: f64 = 9.0;

/// Minimum time between two kernel samples.
const INTERVAL: Duration = Duration::from_millis(200);
/// Most samples taken at once, after a long call.
const BURST: usize = 10;
/// Kernel runs discarded before the first sample: a fresh process's first
/// runs read slow.
const WARMUP: usize = 5;
/// Kernel samples this close to a timed call set its speed.
const WINDOW: Duration = Duration::from_millis(1500);

/// When one timed call started and ended.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: Instant,
    pub end: Instant,
    /// Measured milliseconds of the span's τ probes that hit the step
    /// timeout.
    pub timed_out_ms: f64,
    /// How many τ probes of the span hit the step timeout.
    pub timed_out: u32,
}

impl Span {
    /// Times `f`.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, Span) {
        let start = Instant::now();
        let value = f();
        (value, Span { start, end: Instant::now(), timed_out_ms: 0.0, timed_out: 0 })
    }

    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }

    /// The span's work, without its timed-out probes, in milliseconds.
    fn work_ms(&self) -> f64 {
        (self.ms() - self.timed_out_ms).max(0.0)
    }

    /// What a scaled time counts for the timed-out probes: the step
    /// timeout of the adaptive search, once per probe.
    fn timed_out_counted_ms(&self) -> f64 {
        let step = serenity_core::budget::BudgetConfig::default().step_timeout;
        f64::from(self.timed_out) * step.as_secs_f64() * 1e3
    }
}

/// One run of the kernel: 150k pseudo-random inserts into a hash map of
/// about 130k entries, then a sort of its values. Returns its wall time
/// in milliseconds. The table is allocated afresh each run, so the kernel
/// pays for allocation and first-touch page faults as a compile does.
pub fn kernel() -> f64 {
    let started = Instant::now();
    // A fixed hasher: the default one is seeded per process, which would
    // vary the table's layout between runs.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 17, BuildHasherDefault::default());
    let mut x = 1u64;
    for i in 0..150_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *map.entry(x >> 44).or_insert(0) += i;
    }
    let mut values: Vec<u64> = map.into_values().collect();
    values.sort_unstable();
    std::hint::black_box(&values);
    started.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples, with the instant each ended, taken at most every
/// [`INTERVAL`] through a run.
#[derive(Debug, Default)]
pub struct SpeedProbe {
    samples: Vec<(Instant, f64)>,
    /// When the first sample's warm-up began; provenance offsets count
    /// from here.
    origin: Option<Instant>,
}

impl SpeedProbe {
    /// Samples the kernel once per [`INTERVAL`] elapsed since the last
    /// sample (at most [`BURST`] times), so a long call is followed by
    /// enough samples to estimate the speed around it.
    pub fn tick(&mut self) {
        if self.samples.is_empty() {
            self.origin = Some(Instant::now());
            for _ in 0..WARMUP {
                kernel();
            }
        }
        let due = self.samples.last().map_or(1, |(at, _)| {
            (at.elapsed().as_nanos() / INTERVAL.as_nanos()).min(BURST as u128) as usize
        });
        for _ in 0..due {
            let ms = kernel();
            self.samples.push((Instant::now(), ms));
        }
    }

    fn times(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, ms)| *ms).collect()
    }

    /// The median kernel time of the run, in milliseconds.
    pub fn median_ms(&self) -> Option<f64> {
        median(&self.times())
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Milliseconds from the probe's origin to `at` (negative before it).
    pub fn offset_ms(&self, at: Instant) -> f64 {
        let Some(origin) = self.origin else { return 0.0 };
        if at >= origin {
            at.duration_since(origin).as_secs_f64() * 1e3
        } else {
            -(origin.duration_since(at).as_secs_f64() * 1e3)
        }
    }

    /// Every sample as `[offset ms, kernel ms]`, for the provenance line.
    pub fn series(&self) -> Vec<[f64; 2]> {
        self.samples.iter().map(|&(at, ms)| [self.offset_ms(at), ms]).collect()
    }

    /// `span`'s time scaled to the reference machine by the run's median
    /// kernel time. Set-up uses this: it runs once, next to few samples.
    pub fn run_scaled_ms(&self, span: Span) -> f64 {
        self.median_ms().map_or(span.ms(), |run| span.ms() * REFERENCE_MS / run)
    }

    /// `span`'s time scaled to the reference machine, by the median kernel
    /// time within [`WINDOW`] of the span (the run's median when no sample
    /// is that close), with its timed-out probes counted as the step
    /// timeout.
    pub fn scaled_ms(&self, span: Span) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| {
                *at + WINDOW >= span.start && at.saturating_duration_since(span.end) <= WINDOW
            })
            .map(|(_, ms)| *ms)
            .collect();
        let work = match median(&near).or_else(|| self.median_ms()) {
            Some(local) => span.work_ms() * REFERENCE_MS / local,
            None => span.work_ms(),
        };
        work + span.timed_out_counted_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_ms(ms: u64, timed_out_ms: f64, timed_out: u32) -> Span {
        let start = Instant::now();
        Span { start, end: start + Duration::from_millis(ms), timed_out_ms, timed_out }
    }

    /// A probe whose kernel samples all read `ms`, taken around `span`.
    fn probe_reading(ms: f64, span: Span) -> SpeedProbe {
        SpeedProbe { samples: vec![(span.start, ms), (span.end, ms)], origin: None }
    }

    #[test]
    fn work_scales_with_the_kernel() {
        let span = span_ms(1000, 0.0, 0);
        let slow = probe_reading(2.0 * REFERENCE_MS, span);
        assert!((slow.scaled_ms(span) - 500.0).abs() < 1e-6);
        assert!((SpeedProbe::default().scaled_ms(span) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn timed_out_probes_count_as_the_step_timeout() {
        let step = serenity_core::budget::BudgetConfig::default().step_timeout;
        let step_ms = step.as_secs_f64() * 1e3;
        // 4 s in all: 3 s of it one timed-out probe, 1 s of work.
        let span = span_ms(4000, 3000.0, 1);
        let slow = probe_reading(2.0 * REFERENCE_MS, span);
        assert!((slow.scaled_ms(span) - (500.0 + step_ms)).abs() < 1e-6);
        let two = span_ms(4000, 3000.0, 2);
        assert!((slow.scaled_ms(two) - (500.0 + 2.0 * step_ms)).abs() < 1e-6);
    }

    #[test]
    fn samples_far_from_the_span_fall_back_to_the_run_median() {
        let span = span_ms(100, 0.0, 0);
        let far = span.end + WINDOW + Duration::from_secs(1);
        let probe = SpeedProbe { samples: vec![(far, 2.0 * REFERENCE_MS)], origin: None };
        assert!((probe.scaled_ms(span) - 50.0).abs() < 1e-6);
    }
}
