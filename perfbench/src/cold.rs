//! The cold-compile workloads (suite-cold, concat-cold, capacity-spill):
//! passes of cold `Serenity::compile` calls over a fixed graph set, in a
//! seed-shuffled order, until the run's time is spent.

use std::time::Instant;

use serde_json::{json, Value};
use serenity_allocator::Strategy;
use serenity_core::capacity::{assess, CapacityTarget};
use serenity_core::pipeline::{CompiledSchedule, Serenity, SerenityBuilder};
use serenity_ir::json::{from_json_checked, to_json, ImportLimits};

use crate::graphs::{BenchGraph, Rng};
use crate::report::{repeat_setup, set_setup, Report, MIB};
use crate::speed::{Span, SpeedProbe};
use crate::stats::{geomean, median, percentile};
use crate::trace::{ms, rerun, traced_compile, Phases, Probe};

/// Set-up is repeated at least this often and for at least
/// [`SETUP_SECONDS`]; its median is `setup_s`.
const SETUP_REPEATS: usize = 11;
const SETUP_SECONDS: f64 = 0.25;

/// Kahn-order references and the JSON body of one graph, computed in
/// set-up.
struct Reference {
    kahn_peak: u64,
    kahn_arena: u64,
    body: String,
}

/// The deterministic work counters of one compile.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    peak: u64,
    transitions: u64,
    states: u64,
    probes: u64,
    bound_pruned: u64,
    memo_hits: u64,
    cache_hits: u64,
    candidates_scored: u64,
    peak_memo_bytes: u64,
}

impl Counters {
    fn of(c: &CompiledSchedule) -> Self {
        Counters {
            peak: c.peak_bytes,
            transitions: c.stats.transitions,
            states: c.stats.states,
            probes: c.stats.probes,
            bound_pruned: c.stats.bound_pruned,
            memo_hits: c.stats.memo_hits,
            cache_hits: c.stats.cache_hits,
            candidates_scored: c.rewrite_search.as_ref().map_or(0, |s| s.candidates_scored as u64),
            peak_memo_bytes: c.stats.peak_memo_bytes,
        }
    }

    fn json(&self) -> Value {
        json!({
            "peak_bytes": self.peak,
            "transitions": self.transitions,
            "states": self.states,
            "probes": self.probes,
            "bound_pruned": self.bound_pruned,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "candidates_scored": self.candidates_scored,
            "peak_memo_bytes": self.peak_memo_bytes,
        })
    }

    /// Which counters were identical in every pass.
    fn repeated(all: &[Counters]) -> Value {
        let same = |f: fn(&Counters) -> u64| all.windows(2).all(|w| f(&w[0]) == f(&w[1]));
        json!({
            "peak_bytes": same(|c| c.peak),
            "transitions": same(|c| c.transitions),
            "states": same(|c| c.states),
            "probes": same(|c| c.probes),
            "bound_pruned": same(|c| c.bound_pruned),
            "memo_hits": same(|c| c.memo_hits),
            "cache_hits": same(|c| c.cache_hits),
            "candidates_scored": same(|c| c.candidates_scored),
            "peak_memo_bytes": same(|c| c.peak_memo_bytes),
        })
    }
}

/// Everything recorded about one graph over the run.
#[derive(Default)]
struct GraphLog {
    compiles: Vec<Span>,
    counters: Vec<Counters>,
    arena: u64,
    traffic: Option<u64>,
    probes: Vec<Vec<Probe>>,
}

fn builder(g: &BenchGraph) -> SerenityBuilder {
    let builder = Serenity::builder();
    match g.capacity {
        Some(bytes) => builder.capacity_target(CapacityTarget::min_traffic(bytes)),
        None => builder,
    }
}

/// The off-chip capacity whose Belady traffic `traffic_kib_total` sums: a
/// capacity-spill graph's own target, otherwise ¾ of the compiled peak
/// plus one byte (the same spill rule).
fn traffic_capacity(g: &BenchGraph, compiled: &CompiledSchedule) -> u64 {
    g.capacity.unwrap_or(compiled.peak_bytes * 3 / 4 + 1)
}

/// Belady traffic of `compiled` at `capacity`; `None` when some single
/// working set exceeds it.
fn traffic_at(compiled: &CompiledSchedule, capacity: u64) -> Result<Option<u64>, String> {
    assess(&compiled.graph, &compiled.schedule.order, CapacityTarget::fit(capacity))
        .map(|report| report.traffic.map(|t| t.total_traffic()))
        .map_err(|e| e.to_string())
}

/// Checks one compile against its references: the verifier certifies it,
/// and its peak is at most the Kahn peak and the recorded peak.
fn check(g: &BenchGraph, r: &Reference, compiled: &CompiledSchedule) -> Result<(), String> {
    serenity_core::verify::verify(&g.graph, compiled).map_err(|e| format!("verify: {e}"))?;
    if compiled.peak_bytes > r.kahn_peak {
        return Err(format!("peak {} above the Kahn peak {}", compiled.peak_bytes, r.kahn_peak));
    }
    if compiled.peak_bytes > g.expected_peak {
        return Err(format!(
            "peak {} above the recorded peak {}",
            compiled.peak_bytes, g.expected_peak
        ));
    }
    Ok(())
}

/// Set-up: build the graph set, its Kahn-order references and its JSON
/// bodies.
fn setup(make: fn() -> Vec<BenchGraph>) -> Result<(Vec<BenchGraph>, Vec<Reference>), String> {
    let graphs = make();
    let references = graphs
        .iter()
        .map(|g| {
            let kahn = serenity_core::baseline::kahn(&g.graph).map_err(|e| e.to_string())?;
            let arena = serenity_allocator::plan(&g.graph, &kahn.order, Strategy::GreedyBySize)
                .map_err(|e| e.to_string())?;
            Ok(Reference {
                kahn_peak: kahn.peak_bytes,
                kahn_arena: arena.arena_bytes,
                body: to_json(&g.graph),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((graphs, references))
}

/// One pass of the traced run: each compile's wall time, probes, phase
/// spans, kept peak and arena-to-peak ratio.
#[derive(Default)]
pub(crate) struct LayerPass {
    pub compile_s: f64,
    pub phases: Vec<Phases>,
    pub probes: Vec<Vec<Probe>>,
    pub peaks: Vec<u64>,
    pub arena_over_peak: Vec<f64>,
    /// Segment schedules the compiles replayed from a schedule memo.
    pub memo_hits: u64,
}

pub fn run(make: fn() -> Vec<BenchGraph>, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut probe = SpeedProbe::default();
    let (prepared, setup_spans) =
        repeat_setup(SETUP_REPEATS, SETUP_SECONDS, &mut probe, || setup(make), drop);
    let (graphs, references) = match prepared {
        Ok(prepared) => prepared,
        Err(e) => {
            report.attempted = 1;
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };

    let mut rng = Rng::new(seed);
    let mut logs: Vec<GraphLog> = graphs.iter().map(|_| GraphLog::default()).collect();
    let mut passes: Vec<Vec<Span>> = Vec::new();
    let mut layer_passes = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<usize> = (0..graphs.len()).collect();
        rng.shuffle(&mut order);
        let mut spans = Vec::with_capacity(order.len());
        let mut layers = LayerPass::default();
        for i in order {
            let (g, log) = (&graphs[i], &mut logs[i]);
            report.attempted += 1;
            // Every compile carries the event sink, traced or not, so the
            // scaling knows its timed-out probes.
            let (compiled, mut span) = Span::time(|| traced_compile(builder(g), &g.graph));
            let compiled = match compiled {
                Ok((compiled, probes)) => {
                    let timed_out = probes.iter().filter(|p| p.flag == "timeout");
                    span.timed_out_ms = timed_out.clone().map(|p| p.ms).sum();
                    span.timed_out = timed_out.count() as u32;
                    if traced {
                        layers.probes.push(probes.clone());
                    }
                    log.probes.push(probes);
                    compiled
                }
                Err(e) => {
                    report.fail(format!("{}: compile: {e}", g.id));
                    continue;
                }
            };
            spans.push(span);
            log.compiles.push(span);
            log.counters.push(Counters::of(&compiled));
            if let Err(e) = check(g, &references[i], &compiled) {
                report.fail(format!("{}: {e}", g.id));
            }
            log.arena = compiled.arena_bytes().unwrap_or(0);
            if log.traffic.is_none() {
                match traffic_at(&compiled, traffic_capacity(g, &compiled)) {
                    Ok(traffic) => log.traffic = Some(traffic.unwrap_or(0)),
                    Err(e) => report.fail(format!("{}: traffic: {e}", g.id)),
                }
            }
            if traced {
                match rerun(&g.graph, g.capacity.map(CapacityTarget::min_traffic), &compiled) {
                    Ok(phases) => layers.phases.push(phases),
                    Err(e) => report.fail(format!("{}: phase re-run: {e}", g.id)),
                }
                layers.peaks.push(compiled.peak_bytes);
                layers.arena_over_peak.push(log.arena as f64 / compiled.peak_bytes as f64);
                layers.memo_hits += compiled.stats.memo_hits;
            }
            probe.tick();
        }
        layers.compile_s = spans.iter().map(|s| s.ms() / 1e3).sum();
        passes.push(spans);
        layer_passes.push(layers);
    }

    set_setup(&mut report, Some(&probe), &setup_spans);
    end_to_end(&mut report, &graphs, &references, &logs, &passes, &probe);
    if traced {
        per_layer(&mut report, &graphs, &references, &logs, &layer_passes);
    }
    report.rows = graphs
        .iter()
        .zip(&references)
        .zip(&logs)
        .map(|((g, r), log)| {
            let mut row = vec![
                ("id".to_string(), json!(g.id)),
                ("nodes".to_string(), json!(g.graph.len())),
                ("kahn_peak_bytes".to_string(), json!(r.kahn_peak)),
                ("expected_peak_bytes".to_string(), json!(g.expected_peak)),
                ("kahn_arena_bytes".to_string(), json!(r.kahn_arena)),
                ("arena_bytes".to_string(), json!(log.arena)),
                ("capacity_bytes".to_string(), json!(g.capacity)),
                ("traffic_bytes".to_string(), json!(log.traffic)),
                ("compile_ms".to_string(), json!(raw_ms(&log.compiles))),
                ("compile_ms_median".to_string(), json!(median(&raw_ms(&log.compiles)))),
                ("compile_ms_scaled".to_string(), json!(scaled_ms(&probe, &log.compiles))),
                (
                    "compile_at_ms".to_string(),
                    json!(log
                        .compiles
                        .iter()
                        .map(|s| [probe.offset_ms(s.start), probe.offset_ms(s.end)])
                        .collect::<Vec<_>>()),
                ),
                (
                    "compile_ms_scaled_median".to_string(),
                    json!(median(&scaled_ms(&probe, &log.compiles))),
                ),
                ("compile_samples".to_string(), json!(log.compiles.len())),
                (
                    "compile_timed_out_ms".to_string(),
                    json!(log.compiles.iter().map(|s| s.timed_out_ms).collect::<Vec<_>>()),
                ),
                ("counters".to_string(), log.counters.last().map_or(Value::Null, Counters::json)),
                ("counters_repeated".to_string(), Counters::repeated(&log.counters)),
            ];
            let sequences: Vec<Value> = log
                .probes
                .iter()
                .map(|probes| {
                    Value::Seq(
                        probes
                            .iter()
                            .map(|p| {
                                json!({
                                    "rewritten": p.rewritten,
                                    "tau": p.tau,
                                    "flag": p.flag,
                                    "ms": p.ms,
                                })
                            })
                            .collect(),
                    )
                })
                .collect();
            let signature = |probes: &Vec<Probe>| -> Vec<(bool, u64, &str)> {
                probes.iter().map(|p| (p.rewritten, p.tau, p.flag)).collect()
            };
            let repeated = log.probes.windows(2).all(|w| signature(&w[0]) == signature(&w[1]));
            row.push(("probe_sequences".to_string(), Value::Seq(sequences)));
            row.push(("probe_sequence_repeated".to_string(), json!(repeated)));
            Value::Map(row)
        })
        .collect();
    report.note(
        "pass_s",
        json!(passes.iter().map(|p| raw_ms(p).iter().sum::<f64>() / 1e3).collect::<Vec<_>>()),
    );
    report
}

fn raw_ms(spans: &[Span]) -> Vec<f64> {
    spans.iter().map(Span::ms).collect()
}

fn scaled_ms(probe: &SpeedProbe, spans: &[Span]) -> Vec<f64> {
    spans.iter().map(|&s| probe.scaled_ms(s)).collect()
}

/// The compile-time metrics of a set of passes, from per-compile times
/// (raw, or scaled by the speed probe). A cold workload has too few
/// compiles for a per-compile p99 to rest on ten samples, so its request
/// percentiles are taken over the graphs' median compile times, and its
/// throughput is graphs per second of a median pass.
pub(crate) fn compile_times(passes: &[Vec<f64>], per_graph: &[Vec<f64>]) -> [f64; 5] {
    let totals: Vec<f64> = passes.iter().map(|p| p.iter().sum::<f64>() / 1e3).collect();
    let medians: Vec<f64> = per_graph.iter().filter_map(|g| median(g)).collect();
    let total = median(&totals).unwrap_or(0.0);
    [
        total,
        geomean(&medians).unwrap_or(0.0),
        percentile(&medians, 0.50).unwrap_or(0.0),
        percentile(&medians, 0.99).unwrap_or(0.0),
        if total > 0.0 { medians.len() as f64 / total } else { 0.0 },
    ]
}

pub(crate) const COMPILE_TIME_METRICS: [&str; 5] =
    ["compile_total_s", "compile_geomean_ms", "req_p50_ms", "req_p99_ms", "req_per_s"];

fn end_to_end(
    report: &mut Report,
    graphs: &[BenchGraph],
    references: &[Reference],
    logs: &[GraphLog],
    passes: &[Vec<Span>],
    probe: &SpeedProbe,
) {
    let raw = compile_times(
        &passes.iter().map(|p| raw_ms(p)).collect::<Vec<_>>(),
        &logs.iter().map(|l| raw_ms(&l.compiles)).collect::<Vec<_>>(),
    );
    let scaled = compile_times(
        &passes.iter().map(|p| scaled_ms(probe, p)).collect::<Vec<_>>(),
        &logs.iter().map(|l| scaled_ms(probe, &l.compiles)).collect::<Vec<_>>(),
    );
    for ((name, raw), scaled) in COMPILE_TIME_METRICS.iter().zip(raw).zip(scaled) {
        report.set_scaled(name, raw, scaled);
    }
    report.note_probe(probe);
    let peak_ratio: Vec<f64> = references
        .iter()
        .zip(logs)
        .filter_map(|(r, l)| l.counters.last().map(|c| r.kahn_peak as f64 / c.peak as f64))
        .collect();
    let arena_ratio: Vec<f64> = references
        .iter()
        .zip(logs)
        .filter(|(_, l)| l.arena > 0)
        .map(|(r, l)| r.kahn_arena as f64 / l.arena as f64)
        .collect();
    let traffic: u64 = logs.iter().filter_map(|l| l.traffic).sum();
    report.set("peak_reduction_geomean", geomean(&peak_ratio).unwrap_or(0.0));
    report.set("arena_reduction_geomean", geomean(&arena_ratio).unwrap_or(0.0));
    report.set("traffic_kib_total", traffic as f64 / 1024.0);
    let memo = logs.iter().flat_map(|l| &l.counters).map(|c| c.peak_memo_bytes).max();
    report.set("search_memo_mib", memo.unwrap_or(0) as f64 / MIB);
    report.note(
        "samples",
        json!({
            "compile_total_s": passes.len(),
            "compile_geomean_ms": graphs.len(),
            "compile_samples_per_graph_min": logs.iter().map(|l| l.compiles.len()).min(),
            "req_p50_ms": graphs.len(),
            "req_p99_ms": graphs.len(),
            "req_per_s": passes.len(),
        }),
    );
}

fn per_layer(
    report: &mut Report,
    graphs: &[BenchGraph],
    references: &[Reference],
    logs: &[GraphLog],
    passes: &[LayerPass],
) {
    compile_layers(report, passes);
    capacity_layer(report, graphs, logs);
    ir_layer(report, graphs, references);
}

/// The compile-layer metrics of the traced run: per pass, sums over the
/// pass's compiles of each phase's span and counters; each metric is the
/// median over passes.
pub(crate) fn compile_layers(report: &mut Report, passes: &[LayerPass]) {
    let med = |f: &dyn Fn(&LayerPass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let sum = |p: &LayerPass, f: &dyn Fn(&Phases) -> f64| -> f64 { p.phases.iter().map(f).sum() };
    let rewritten_probes = |p: &LayerPass| -> Vec<Probe> {
        p.probes.iter().flatten().filter(|probe| probe.rewritten).cloned().collect()
    };
    report.set("trace.compile_total_s", med(&|p| p.compile_s));
    report.set("schedule.original_ms", med(&|p| sum(p, &|x| x.original_ms)));
    report.set("dp.transitions", med(&|p| sum(p, &|x| x.original.transitions as f64)));
    report.set("dp.states", med(&|p| sum(p, &|x| x.original.states as f64)));
    report.set(
        "dp.transitions_per_s",
        med(&|p| {
            let secs = sum(p, &|x| x.original_ms) / 1e3;
            if secs > 0.0 {
                sum(p, &|x| x.original.transitions as f64) / secs
            } else {
                0.0
            }
        }),
    );
    report.set("dp.bound_pruned", med(&|p| sum(p, &|x| x.original.bound_pruned as f64)));
    report.set(
        "dp.peak_memo_bytes",
        med(&|p| p.phases.iter().map(|x| x.original.peak_memo_bytes as f64).fold(0.0, f64::max)),
    );
    report.set("schedule.rewritten_ms", med(&|p| sum(p, &|x| x.rewritten_ms.unwrap_or(0.0))));
    report.set("budget.probes", med(&|p| rewritten_probes(p).len() as f64));
    let flagged = |flag: &'static str| {
        move |p: &LayerPass| rewritten_probes(p).iter().filter(|x| x.flag == flag).count() as f64
    };
    report.set("budget.probes_timeout", med(&flagged("timeout")));
    report.set("budget.probes_nosolution", med(&flagged("no-solution")));
    report.set(
        "budget.probe_ms.max",
        med(&|p| rewritten_probes(p).iter().map(|x| x.ms).fold(0.0, f64::max)),
    );
    report.set(
        "budget.tau0_over_peak",
        med(&|p| {
            p.probes
                .iter()
                .zip(&p.peaks)
                .filter_map(|(probes, &peak)| {
                    let first = probes.iter().find(|x| x.rewritten)?;
                    Some(first.tau as f64 / peak as f64)
                })
                .fold(0.0, f64::max)
        }),
    );
    let search =
        |p: &LayerPass, f: &dyn Fn(&serenity_core::rewrite::RewriteSearchSummary) -> f64| {
            p.phases.iter().filter_map(|x| x.search.as_ref()).map(f).sum::<f64>()
        };
    report.set("rewrite.search_ms", med(&|p| sum(p, &|x| x.search_ms)));
    report.set("rewrite.candidates", med(&|p| search(p, &|s| s.candidates_scored as f64)));
    report.set("rewrite.iterations", med(&|p| search(p, &|s| s.iterations as f64)));
    report.set(
        "rewrite.memo_hit_frac",
        med(&|p| {
            let hits = search(p, &|s| s.memo_hits as f64);
            let lookups = hits + search(p, &|s| s.memo_misses as f64);
            if lookups > 0.0 {
                hits / lookups
            } else {
                0.0
            }
        }),
    );
    report.set(
        "rewrite.candidates_per_s",
        med(&|p| {
            let secs = sum(p, &|x| x.search_ms) / 1e3;
            if secs > 0.0 {
                search(p, &|s| s.candidates_scored as f64) / secs
            } else {
                0.0
            }
        }),
    );
    report.set("divide.segments", med(&|p| sum(p, &|x| x.segments as f64)));
    report.set("divide.memo_hits", med(&|p| p.memo_hits as f64));
    report.set("baseline.kahn_ms", med(&|p| sum(p, &|x| x.kahn_ms)));
    report.set("canon.stackify_ms", med(&|p| sum(p, &|x| x.stackify_ms)));
    report.set("allocator.plan_ms", med(&|p| sum(p, &|x| x.plan_ms)));
    report.set("allocator.arena_over_peak", med(&|p| geomean(&p.arena_over_peak).unwrap_or(0.0)));
    report.set("capacity.assess_ms", med(&|p| sum(p, &|x| x.assess_ms)));
    report.set("verify.ms", med(&|p| sum(p, &|x| x.verify_ms)));

    let rerun_matches =
        passes.iter().all(|p| p.phases.iter().zip(&p.peaks).all(|(x, &peak)| x.peak == peak));
    report.note("phase_rerun_peaks_match_compile", json!(rerun_matches));
}

/// `capacity.traffic_bytes` and `capacity.traffic_vs_default`: the
/// `MinTraffic` compiles' traffic against a default (peak-objective)
/// compile assessed at the same capacity, once per graph. The ratio is
/// the maximum over graphs, so one graph where the objective loses stays
/// visible.
fn capacity_layer(report: &mut Report, graphs: &[BenchGraph], logs: &[GraphLog]) {
    let mut traffic_total = 0u64;
    let mut worst_ratio = 0.0f64;
    let mut rows = Vec::new();
    for (g, log) in graphs.iter().zip(logs) {
        let Some(capacity) = g.capacity else { continue };
        let objective = log.traffic;
        report.attempted += 1;
        let default = match Serenity::builder().build().compile(&g.graph) {
            Ok(c) => traffic_at(&c, capacity),
            Err(e) => Err(e.to_string()),
        };
        let default = match default {
            Ok(traffic) => traffic,
            Err(e) => {
                report.fail(format!("{}: default compile: {e}", g.id));
                continue;
            }
        };
        traffic_total += objective.unwrap_or(0);
        if let (Some(objective), Some(default)) = (objective, default) {
            if default > 0 {
                worst_ratio = worst_ratio.max(objective as f64 / default as f64);
            }
        }
        rows.push(json!({
            "id": g.id,
            "capacity_bytes": capacity,
            "traffic_min_traffic": objective,
            "traffic_default": default,
        }));
    }
    report.set("capacity.traffic_bytes", traffic_total as f64);
    report.set("capacity.traffic_vs_default", worst_ratio);
    if !rows.is_empty() {
        report.note("capacity_vs_default", Value::Seq(rows));
    }
}

/// `ir.json_parse_ms` and `ir.fingerprint_us`: medians over the workload's
/// graphs of importing their JSON form and fingerprinting them.
fn ir_layer(report: &mut Report, graphs: &[BenchGraph], references: &[Reference]) {
    let limits = ImportLimits::default();
    let mut parse_ms = Vec::new();
    let mut fingerprint_us = Vec::new();
    for (g, r) in graphs.iter().zip(references) {
        let t = Instant::now();
        let parsed = from_json_checked(&r.body, &limits);
        parse_ms.push(ms(t.elapsed()));
        match parsed {
            Ok(parsed) => {
                let t = Instant::now();
                std::hint::black_box(serenity_ir::fingerprint::fingerprint(&parsed));
                fingerprint_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Err(e) => report.fail(format!("{}: json import: {e}", g.id)),
        }
    }
    report.set("ir.json_parse_ms", median(&parse_ms).unwrap_or(0.0));
    report.set("ir.fingerprint_us", median(&fingerprint_us).unwrap_or(0.0));
}
