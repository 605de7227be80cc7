//! Adaptive soft budgeting (§3.2, Algorithm 2, Figure 8).
//!
//! Budget-pruned DP (see [`crate::dp`]) is fast when the budget τ is tight
//! but fails with `'no solution'` when τ < µ*, and times out when τ is so
//! loose that pruning removes nothing. Algorithm 2 searches for a workable τ
//! by binary search:
//!
//! * the **hard budget** `τ_max` is the peak of Kahn's `O(|V|+|E|)` schedule —
//!   a schedule with that peak certainly exists;
//! * `'timeout'` ⇒ the budget is too loose: halve it
//!   (`τ_old ← τ_new, τ_new ← τ_new / 2`);
//! * `'no solution'` ⇒ the budget is too tight: move halfway back up
//!   (`τ_old ← τ_new, τ_new ← (τ_new + τ_old) / 2`, simultaneous);
//! * `'solution'` ⇒ done — and because pruning with τ ≥ µ* preserves the
//!   optimum, the returned schedule is *the* optimal schedule.
//!
//! Two safeguards beyond the paper: the search never drops τ below the
//! provable lower bound `LB = max_v(bytes(v) + Σ bytes(preds(v)))`, and a
//! round limit turns pathological cases into
//! [`ScheduleError::BudgetSearchExhausted`] with the Kahn fallback exposed.
//!
//! # Departure from Algorithm 2, line 3: the first τ
//!
//! The paper starts the search at τ_max. Here the first probe runs at
//! `τ₀ = max(LB, min(τ_max, beam peak))`, where the beam peak is that of a
//! default-width [`BeamBackend`] order of the same graph and pinned prefix.
//! τ_max stays the hard budget the `'no solution'` escalation climbs back
//! to. A loose τ is what makes a probe time out: on a concat RandWire
//! n16 cell the Kahn-budget probe ran into the step timeout, and the search
//! needed three probes and tens of millions of DP transitions where one
//! probe at the beam peak needs a few million. The beam itself takes
//! milliseconds.
//!
//! * **Soundness.** The DP prunes only states with `peak > τ`, and the beam
//!   order is achievable, so µ* ≤ τ₀: no optimal path is pruned and the
//!   first probe returns the optimum unless it times out.
//! * **Order identity.** For any τ ≥ µ*, the budget-pruned frontier of each
//!   step is exactly the part of the unbudgeted frontier with peak ≤ τ: a
//!   pruned state's descendants have peaks at least as high, so they are
//!   pruned too, and the surviving min-peak representative of each
//!   signature is the same state in the same canonical `(hash, z)` order.
//!   The returned schedule is therefore the one every τ ≥ µ* returns,
//!   bit for bit, and `adaptive`'s cache key and cached results stay valid.
//!   The differential fuzzer checks this law on random DAGs.
//!
//! The beam runs without the caller's incumbent bound (a seeded incumbent
//! could otherwise cut it off) and without its event sink. Cancellation and
//! the deadline propagate out of it; any other beam error leaves τ₀ at
//! τ_max. Its effort is part of the outcome's statistics.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use serenity_ir::{mem, topo, Graph};

use crate::backend::{BeamBackend, CompileContext, CompileEvent, SchedulerBackend};
use crate::dp::{DpScheduler, DpSolution};
use crate::{Schedule, ScheduleError, ScheduleStats};

/// Outcome flag of one budget-pruned DP run (Algorithm 2's `flag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundFlag {
    /// The DP completed within budget: an optimal schedule was found.
    Solution,
    /// Every path was pruned: the budget is below µ*.
    NoSolution,
    /// A search step exceeded the per-step time limit `T`.
    Timeout,
}

/// Record of one meta-search round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetRound {
    /// The soft budget τ used in this round, in bytes.
    pub budget: u64,
    /// How the DP run ended.
    pub flag: RoundFlag,
    /// Search effort of the round.
    pub stats: ScheduleStats,
}

/// Result of the adaptive-soft-budget meta-search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetSearchOutcome {
    /// The optimal schedule.
    pub schedule: Schedule,
    /// Budget of the successful round.
    pub final_budget: u64,
    /// The hard budget τ_max (peak of the Kahn schedule).
    pub hard_budget: u64,
    /// Every round in order, including the successful one.
    pub rounds: Vec<BudgetRound>,
    /// Search effort of the beam run whose peak bounds the first τ (zero
    /// when the beam failed).
    pub beam_stats: ScheduleStats,
    /// Aggregate statistics over the beam run and all rounds.
    pub total_stats: ScheduleStats,
}

/// Configuration of [`AdaptiveSoftBudget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Per-search-step time limit `T` handed to each DP run.
    pub step_timeout: Duration,
    /// Maximum number of meta-search rounds before giving up.
    pub max_rounds: usize,
    /// Worker threads per DP run.
    pub threads: usize,
    /// Per-step state cap handed to each DP run (`None` = unlimited).
    pub max_states: Option<usize>,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig {
            step_timeout: Duration::from_secs(1),
            max_rounds: 24,
            threads: 1,
            max_states: None,
        }
    }
}

/// The adaptive-soft-budget meta-search (Algorithm 2).
///
/// # Example
///
/// ```
/// use serenity_core::budget::AdaptiveSoftBudget;
/// use serenity_ir::random_dag::independent_branches;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = independent_branches(6, 16);
/// let outcome = AdaptiveSoftBudget::new().search(&g)?;
/// assert!(outcome.final_budget <= outcome.hard_budget);
/// assert_eq!(outcome.schedule.order.len(), g.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdaptiveSoftBudget {
    config: BudgetConfig,
}

impl AdaptiveSoftBudget {
    /// Creates a meta-search with the default configuration.
    pub fn new() -> Self {
        AdaptiveSoftBudget::default()
    }

    /// Creates a meta-search from an explicit configuration.
    pub fn with_config(config: BudgetConfig) -> Self {
        AdaptiveSoftBudget { config }
    }

    /// Sets the per-search-step time limit `T`.
    pub fn step_timeout(mut self, limit: Duration) -> Self {
        self.config.step_timeout = limit;
        self
    }

    /// Sets the round limit.
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.config.max_rounds = rounds;
        self
    }

    /// Sets the number of worker threads per DP run.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the per-step state cap for each DP run.
    pub fn max_states(mut self, max: usize) -> Self {
        self.config.max_states = Some(max);
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &BudgetConfig {
        &self.config
    }

    /// Runs the meta-search on `graph`.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::BudgetSearchExhausted`] if no round produced a
    ///   solution within the round limit (use
    ///   [`AdaptiveSoftBudget::search_or_fallback`] for the Kahn fallback).
    /// * [`ScheduleError::Graph`] if the graph is malformed.
    pub fn search(&self, graph: &Graph) -> Result<BudgetSearchOutcome, ScheduleError> {
        self.search_with_prefix(graph, &[])
    }

    /// Runs the meta-search with a pinned schedule prefix (see
    /// [`DpScheduler::schedule_with_prefix`]).
    ///
    /// # Errors
    ///
    /// As [`AdaptiveSoftBudget::search`].
    pub fn search_with_prefix(
        &self,
        graph: &Graph,
        prefix: &[serenity_ir::NodeId],
    ) -> Result<BudgetSearchOutcome, ScheduleError> {
        self.search_with_prefix_ctx(graph, prefix, &CompileContext::unconstrained())
    }

    /// Like [`AdaptiveSoftBudget::search_with_prefix`], but governed by a
    /// [`CompileContext`]: cancellation and the wall-clock deadline abort
    /// between and within probes, and every probe result is reported as a
    /// [`CompileEvent::BudgetProbe`].
    ///
    /// # Errors
    ///
    /// As [`AdaptiveSoftBudget::search_with_prefix`], plus
    /// [`ScheduleError::Cancelled`] / [`ScheduleError::DeadlineExceeded`].
    pub fn search_with_prefix_ctx(
        &self,
        graph: &Graph,
        prefix: &[serenity_ir::NodeId],
        ctx: &CompileContext,
    ) -> Result<BudgetSearchOutcome, ScheduleError> {
        let started = Instant::now();
        ctx.check()?;
        // Hard budget from Kahn's algorithm (Algorithm 2, line 3).
        let kahn_order = topo::kahn(graph);
        let hard_budget = mem::peak_bytes(graph, &kahn_order)?;
        let lower_bound = mem::peak_lower_bound(graph);
        // First probe at the lower of the Kahn and beam peaks (see the
        // module docs): both are achievable, so µ* ≤ τ₀.
        let (beam_peak, beam_stats) = self.beam_start(graph, prefix, ctx)?;
        let mut total_stats = beam_stats;

        let mut tau_old =
            beam_peak.map_or(hard_budget, |peak| peak.min(hard_budget)).max(lower_bound);
        let mut tau_new = tau_old;
        let mut rounds: Vec<BudgetRound> = Vec::new();

        for _ in 0..self.config.max_rounds {
            ctx.check()?;
            let scheduler = self.dp_for(tau_new);
            let result = scheduler.schedule_with_prefix_ctx(graph, prefix, ctx);
            let (flag, solution) = match result {
                Ok(solution) => (RoundFlag::Solution, Some(solution)),
                Err(ScheduleError::NoSolution { .. }) => (RoundFlag::NoSolution, None),
                Err(ScheduleError::Timeout { .. }) => (RoundFlag::Timeout, None),
                Err(other) => return Err(other),
            };
            let stats = solution.as_ref().map(|s| s.stats).unwrap_or_default();
            total_stats.absorb(&stats);
            total_stats.probes += 1;
            ctx.emit(CompileEvent::BudgetProbe { budget: tau_new, flag });
            rounds.push(BudgetRound { budget: tau_new, flag, stats });

            match flag {
                RoundFlag::Solution => {
                    let DpSolution { schedule, .. } = solution.expect("solution present");
                    total_stats.duration = started.elapsed();
                    return Ok(BudgetSearchOutcome {
                        schedule,
                        final_budget: tau_new,
                        hard_budget,
                        rounds,
                        beam_stats,
                        total_stats,
                    });
                }
                RoundFlag::Timeout => {
                    // Too loose: halve (τ_old ← τ_new, τ_new ← τ_new / 2).
                    tau_old = tau_new;
                    tau_new = (tau_new / 2).max(lower_bound);
                }
                RoundFlag::NoSolution => {
                    // Too tight: move halfway back toward the old budget
                    // (simultaneous τ_old ← τ_new, τ_new ← (τ_new+τ_old)/2).
                    let mid = midpoint(tau_new, tau_old);
                    // If the interval has collapsed, escalate toward the hard
                    // budget to guarantee progress.
                    let bumped = if mid == tau_new { midpoint(tau_new, hard_budget) } else { mid };
                    tau_old = tau_new;
                    tau_new = if bumped == tau_new { hard_budget } else { bumped };
                }
            }
        }
        Err(ScheduleError::BudgetSearchExhausted { rounds: rounds.len() })
    }

    /// Runs the meta-search and falls back to the Kahn schedule when the
    /// round limit is exhausted (the budget-pruned DP never did better than
    /// `τ_max`, so the Kahn schedule is a sound, if suboptimal, answer).
    ///
    /// Returns the outcome and whether the fallback was taken.
    ///
    /// # Errors
    ///
    /// Only graph errors are propagated.
    pub fn search_or_fallback(
        &self,
        graph: &Graph,
    ) -> Result<(BudgetSearchOutcome, bool), ScheduleError> {
        match self.search(graph) {
            Ok(outcome) => Ok((outcome, false)),
            Err(ScheduleError::BudgetSearchExhausted { .. }) => {
                let order = topo::kahn(graph);
                let schedule = Schedule::from_order(graph, order)?;
                let hard_budget = schedule.peak_bytes;
                Ok((
                    BudgetSearchOutcome {
                        final_budget: hard_budget,
                        hard_budget,
                        schedule,
                        rounds: Vec::new(),
                        beam_stats: ScheduleStats::default(),
                        total_stats: ScheduleStats::default(),
                    },
                    true,
                ))
            }
            Err(other) => Err(other),
        }
    }

    /// Peak and search effort of a default-width beam order of `graph`
    /// with `prefix` pinned. The beam runs without the caller's bound and
    /// event sink, so a seeded incumbent cannot cut it off and it reports
    /// nothing. The peak is `None` when the beam fails for any reason other
    /// than cancellation or the deadline.
    fn beam_start(
        &self,
        graph: &Graph,
        prefix: &[serenity_ir::NodeId],
        ctx: &CompileContext,
    ) -> Result<(Option<u64>, ScheduleStats), ScheduleError> {
        let beam_ctx = ctx.with_bound(None).with_event_sink(None);
        match BeamBackend::default().schedule_with_prefix(graph, prefix, &beam_ctx) {
            Ok(outcome) => Ok((Some(outcome.schedule.peak_bytes), outcome.stats)),
            Err(err @ (ScheduleError::Cancelled | ScheduleError::DeadlineExceeded { .. })) => {
                Err(err)
            }
            Err(_) => Ok((None, ScheduleStats::default())),
        }
    }

    fn dp_for(&self, budget: u64) -> DpScheduler {
        let mut dp = DpScheduler::new()
            .budget(budget)
            .step_timeout(self.config.step_timeout)
            .threads(self.config.threads.max(1));
        if let Some(max) = self.config.max_states {
            dp = dp.max_states(max);
        }
        dp
    }
}

fn midpoint(a: u64, b: u64) -> u64 {
    a / 2 + b / 2 + (a % 2 + b % 2) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::random_dag::{independent_branches, random_dag, RandomDagConfig};

    #[test]
    fn finds_optimal_schedule() {
        let g = independent_branches(8, 32);
        let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        assert_eq!(outcome.schedule.peak_bytes, optimal);
        assert!(outcome.final_budget >= optimal);
        assert!(outcome.hard_budget >= outcome.schedule.peak_bytes);
    }

    #[test]
    fn first_round_starts_at_a_beam_peak_below_kahn() {
        use crate::backend::{BeamBackend, SchedulerBackend};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = random_dag(
            &RandomDagConfig { nodes: 12, edge_prob: 0.3, ..Default::default() },
            &mut rng,
        );
        let kahn = mem::peak_bytes(&g, &topo::kahn(&g)).unwrap();
        let beam = BeamBackend::default()
            .schedule(&g, &CompileContext::unconstrained())
            .unwrap()
            .schedule
            .peak_bytes;
        assert!(beam < kahn, "the graph must separate the beam peak {beam} from Kahn's {kahn}");
        let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
        assert_eq!(outcome.rounds[0].budget, beam);
        assert_eq!(outcome.rounds.len(), 1, "a sound first τ succeeds at once");
        assert_eq!(outcome.hard_budget, kahn, "Kahn stays the hard budget");
    }

    #[test]
    fn rounds_record_flags() {
        let g = independent_branches(5, 16);
        let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
        assert_eq!(outcome.rounds.last().unwrap().flag, RoundFlag::Solution);
    }

    #[test]
    fn timeout_escalation_reaches_solution() {
        use rand::SeedableRng;
        // A modest random DAG with a (deliberately generous) step budget: the
        // search should converge without exhausting rounds.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = random_dag(
            &RandomDagConfig { nodes: 24, edge_prob: 0.2, ..Default::default() },
            &mut rng,
        );
        let outcome =
            AdaptiveSoftBudget::new().step_timeout(Duration::from_millis(500)).search(&g).unwrap();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        assert_eq!(outcome.schedule.peak_bytes, optimal);
    }

    #[test]
    fn state_cap_forces_fallback() {
        // With an absurdly small state cap every round times out, exhausting
        // the search; the fallback returns the Kahn schedule.
        let g = independent_branches(12, 8);
        let search = AdaptiveSoftBudget::new().max_states(2).max_rounds(4);
        assert!(matches!(search.search(&g), Err(ScheduleError::BudgetSearchExhausted { .. })));
        let (outcome, fell_back) = search.search_or_fallback(&g).unwrap();
        assert!(fell_back);
        assert_eq!(outcome.schedule.order.len(), g.len());
    }

    #[test]
    fn bound_beaten_propagates_out_of_probes() {
        use crate::backend::{BoundHandle, CompileContext};
        // A tie-winning incumbent at µ*: the first probe (τ = hard budget)
        // is cut off by the bound, and the loss must surface as BoundBeaten
        // — not be misread as NoSolution, which would tighten τ forever.
        let g = independent_branches(5, 16);
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_incumbent(optimal)));
        let err = AdaptiveSoftBudget::new().search_with_prefix_ctx(&g, &[], &ctx).unwrap_err();
        assert_eq!(err, ScheduleError::BoundBeaten { bound: optimal });
    }

    #[test]
    fn weak_bound_keeps_the_adaptive_search_optimal() {
        use crate::backend::{BoundHandle, CompileContext};
        let g = independent_branches(8, 32);
        let free = AdaptiveSoftBudget::new().search(&g).unwrap();
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
        let bounded = AdaptiveSoftBudget::new().search_with_prefix_ctx(&g, &[], &ctx).unwrap();
        assert_eq!(bounded.schedule, free.schedule);
    }

    #[test]
    fn midpoint_is_overflow_safe() {
        assert_eq!(midpoint(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(midpoint(2, 4), 3);
        assert_eq!(midpoint(3, 4), 3);
    }

    #[test]
    fn explored_schedules_grow_with_budget() {
        // Figure 8(b): the number of explored schedules is monotonically
        // non-decreasing in τ.
        let g = independent_branches(9, 16);
        let optimal = DpScheduler::new().schedule(&g).unwrap();
        let peak = optimal.schedule.peak_bytes;
        let mut last = 0;
        for budget in [peak, peak * 2, peak * 4, u64::MAX / 2] {
            let run = DpScheduler::new().budget(budget).schedule(&g).unwrap();
            assert!(run.stats.transitions >= last);
            last = run.stats.transitions;
        }
    }
}
