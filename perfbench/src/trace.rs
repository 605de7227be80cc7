//! The traced run's instruments: an event sink that timestamps the
//! compile's event stream, and a phase-by-phase re-run of the pipeline
//! that records one span per call into each layer's public function.
//!
//! Spans are recorded here, around the calls, not inside the program.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serenity_allocator::Strategy;
use serenity_core::backend::{
    AdaptiveBackend, BeamBackend, BoundHandle, CompileContext, CompileEvent, CompileOptions,
};
use serenity_core::budget::RoundFlag;
use serenity_core::capacity::{assess, CapacityTarget};
use serenity_core::divide::{DivideAndConquer, DivideOutcome};
use serenity_core::pipeline::{CompiledSchedule, SerenityBuilder};
use serenity_core::rewrite::{RewriteSearchConfig, RewriteSearchSummary, Rewriter};
use serenity_core::{ScheduleError, ScheduleStats};
use serenity_ir::Graph;

/// One τ probe of the adaptive meta-search, as seen by the event sink.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Whether the probe scheduled the rewritten candidate graph.
    pub rewritten: bool,
    pub tau: u64,
    pub flag: &'static str,
    /// Wall time since the previous event: the probe's own work, which
    /// `ScheduleStats` omits for a probe that timed out.
    pub ms: f64,
}

/// Every event's arrival, with the probe it reported, if any.
type EventLog = Arc<Mutex<Vec<(Instant, Option<Probe>)>>>;

/// Compiles `graph` with an event sink installed, returning the result
/// and the probe sequence.
pub fn traced_compile(
    builder: SerenityBuilder,
    graph: &Graph,
) -> Result<(CompiledSchedule, Vec<Probe>), ScheduleError> {
    let log: EventLog = Arc::default();
    let sink = Arc::clone(&log);
    let rewritten = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let candidate = Arc::clone(&rewritten);
    let started = Instant::now();
    let compiled = builder
        .on_event(move |event| {
            let at = Instant::now();
            let probe = match event {
                CompileEvent::CandidateStarted { rewritten, .. } => {
                    candidate.store(*rewritten, std::sync::atomic::Ordering::Relaxed);
                    None
                }
                CompileEvent::BudgetProbe { budget, flag } => Some(Probe {
                    rewritten: candidate.load(std::sync::atomic::Ordering::Relaxed),
                    tau: *budget,
                    flag: flag_name(*flag),
                    ms: 0.0,
                }),
                _ => None,
            };
            sink.lock().expect("event log is never poisoned").push((at, probe));
        })
        .build()
        .compile(graph)?;
    let log = log.lock().expect("event log is never poisoned");
    let mut previous = started;
    let mut probes = Vec::new();
    for (at, probe) in log.iter() {
        if let Some(probe) = probe {
            probes.push(Probe { ms: ms(at.duration_since(previous)), ..probe.clone() });
        }
        previous = *at;
    }
    Ok((compiled, probes))
}

fn flag_name(flag: RoundFlag) -> &'static str {
    match flag {
        RoundFlag::Solution => "solution",
        RoundFlag::NoSolution => "no-solution",
        RoundFlag::Timeout => "timeout",
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spans and counters of one phase-by-phase re-run of the pipeline.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub kahn_ms: f64,
    pub original_ms: f64,
    pub original: ScheduleStats,
    pub segments: usize,
    pub search_ms: f64,
    pub search: Option<RewriteSearchSummary>,
    /// `None` when the search kept no rewrite, so nothing was re-scheduled.
    pub rewritten_ms: Option<f64>,
    pub stackify_ms: f64,
    pub plan_ms: f64,
    pub assess_ms: f64,
    pub verify_ms: f64,
    /// Peak of the schedule the re-run would keep; equal to the compile's
    /// peak unless a wall-clock timeout changed the search.
    pub peak: u64,
}

/// Re-runs the default pipeline on `graph` by calling each layer's public
/// function in pipeline order (Kahn baseline, divide-and-conquer schedule,
/// rewrite search, seeded re-schedule, stackify, arena planning, capacity
/// assessment), then certifies `compiled` with the verifier.
pub fn rerun(
    graph: &Graph,
    capacity: Option<CapacityTarget>,
    compiled: &CompiledSchedule,
) -> Result<Phases, String> {
    let mut phases = Phases::default();
    let ctx = CompileContext::new(CompileOptions { capacity, ..CompileOptions::default() });
    let scheduler = DivideAndConquer::new().backend(Arc::new(AdaptiveBackend::default()));

    let t = Instant::now();
    serenity_core::baseline::kahn(graph).map_err(|e| format!("kahn: {e}"))?;
    phases.kahn_ms = ms(t.elapsed());

    let t = Instant::now();
    let original =
        scheduler.schedule_with_ctx(graph, &ctx).map_err(|e| format!("schedule original: {e}"))?;
    phases.original_ms = ms(t.elapsed());
    phases.original = original.total_stats;
    phases.segments = original.segments.len();

    let mut assess_time = Duration::ZERO;
    let mut rank = |g: &Graph, outcome: &DivideOutcome| -> Result<_, String> {
        let Some(target) = capacity else { return Ok(None) };
        let t = Instant::now();
        let report = assess(g, &outcome.schedule.order, target).map_err(|e| e.to_string())?;
        assess_time += t.elapsed();
        Ok(Some((report.fits, report.rank(outcome.schedule.peak_bytes))))
    };
    let original_rank = rank(graph, &original)?;
    let steers = capacity.is_some_and(|t| t.steers_search());

    let t = Instant::now();
    let search = Rewriter::standard()
        .cost_guided()
        .config(RewriteSearchConfig::default())
        .score_backend(Arc::new(BeamBackend::default()))
        .run(graph, &ctx)
        .map_err(|e| format!("rewrite search: {e}"))?;
    phases.search_ms = ms(t.elapsed());
    let changed = search.changed();
    phases.search = Some(search.summary);

    let (mut chosen_graph, mut chosen) = (graph.clone(), original.schedule);
    if changed {
        // The pipeline seeds the re-schedule with the original peak unless
        // a traffic objective's incumbent spills (then the seed is unsound).
        let spilling = steers && original_rank.as_ref().is_some_and(|(fits, _)| !fits);
        let rw_ctx = if spilling {
            ctx.clone()
        } else {
            ctx.with_bound(Some(BoundHandle::seeded_incumbent(chosen.peak_bytes)))
        };
        let t = Instant::now();
        let result = scheduler.schedule_with_ctx(&search.graph, &rw_ctx);
        phases.rewritten_ms = Some(ms(t.elapsed()));
        match result {
            Ok(rewritten) => {
                let rewritten_rank = rank(&search.graph, &rewritten)?;
                let take = match (steers, &rewritten_rank, &original_rank) {
                    (true, Some((_, rw)), Some((_, orig))) => rw < orig,
                    _ => rewritten.schedule.peak_bytes < chosen.peak_bytes,
                };
                if take {
                    chosen_graph = search.graph;
                    chosen = rewritten.schedule;
                }
            }
            Err(ScheduleError::BoundBeaten { .. }) => {}
            Err(e) => return Err(format!("re-schedule rewritten: {e}")),
        }
    }
    phases.peak = chosen.peak_bytes;

    let t = Instant::now();
    let canonical = serenity_core::canon::stackify(&chosen_graph, chosen.peak_bytes);
    phases.stackify_ms = ms(t.elapsed());

    let t = Instant::now();
    for order in std::iter::once(&chosen.order).chain(canonical.as_ref()) {
        serenity_allocator::plan(&chosen_graph, order, Strategy::GreedyBySize)
            .map_err(|e| format!("arena plan: {e}"))?;
    }
    phases.plan_ms = ms(t.elapsed());
    if let (Some(target), Some(order)) = (capacity, canonical.as_ref()) {
        let t = Instant::now();
        assess(&chosen_graph, order, target).map_err(|e| e.to_string())?;
        assess_time += t.elapsed();
    }
    phases.assess_ms = ms(assess_time);

    let t = Instant::now();
    serenity_core::verify::verify(graph, compiled).map_err(|e| format!("verify: {e}"))?;
    phases.verify_ms = ms(t.elapsed());
    Ok(phases)
}
