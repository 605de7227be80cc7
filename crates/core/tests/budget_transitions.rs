//! Tests of Algorithm 2's exact transition rules: how the meta-search moves
//! the soft budget τ in response to `'timeout'` and `'no solution'` flags,
//! verified against the recorded round log.

use std::time::Duration;

use serenity_core::beam::BeamScheduler;
use serenity_core::budget::{AdaptiveSoftBudget, RoundFlag};
use serenity_core::dp::DpScheduler;
use serenity_ir::random_dag::independent_branches;
use serenity_ir::{mem, topo};

#[test]
fn first_round_runs_at_the_lower_of_kahn_and_beam() {
    let g = independent_branches(7, 64);
    let hard = mem::peak_bytes(&g, &topo::kahn(&g)).unwrap();
    let beam = BeamScheduler::new(64).schedule(&g).unwrap().schedule.peak_bytes;
    let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
    assert_eq!(outcome.hard_budget, hard);
    assert_eq!(outcome.rounds[0].budget, hard.min(beam), "τ₀ = min(τ_max, beam peak)");
}

#[test]
fn no_solution_rounds_move_tau_halfway_back_up() {
    // Force the paper's `'no solution'` path: a state cap so small that the
    // first rounds "time out", driving τ below µ*, after which the search
    // must climb back with τ_new ← (τ_new + τ_old)/2.
    let g = independent_branches(10, 64);
    let search = AdaptiveSoftBudget::new()
        .step_timeout(Duration::from_secs(30))
        .max_states(40) // tight: loose budgets blow past this
        .max_rounds(32);
    if let Ok(outcome) = search.search(&g) {
        // Wherever a NoSolution round was followed by another round, the
        // next budget must be strictly larger (the climb back up).
        for pair in outcome.rounds.windows(2) {
            if pair[0].flag == RoundFlag::NoSolution {
                assert!(
                    pair[1].budget > pair[0].budget,
                    "after 'no solution' τ must increase: {:?}",
                    outcome.rounds
                );
            }
            if pair[0].flag == RoundFlag::Timeout {
                assert!(
                    pair[1].budget < pair[0].budget,
                    "after 'timeout' τ must decrease: {:?}",
                    outcome.rounds
                );
            }
        }
        assert_eq!(outcome.rounds.last().unwrap().flag, RoundFlag::Solution);
    }
}

#[test]
fn solution_budget_is_sandwiched() {
    let g = independent_branches(8, 32);
    let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
    let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
    assert!(outcome.final_budget >= optimal, "τ_final must admit the optimum");
    assert!(outcome.final_budget <= outcome.hard_budget, "τ_final never exceeds τ_max");
    assert_eq!(outcome.schedule.peak_bytes, optimal, "pruned DP stays optimal");
}

#[test]
fn round_stats_accumulate_into_totals() {
    let g = independent_branches(8, 32);
    let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
    let summed: u64 = outcome.rounds.iter().map(|r| r.stats.transitions).sum();
    assert!(outcome.beam_stats.transitions > 0, "the beam run that sets τ₀ is counted");
    assert_eq!(outcome.total_stats.transitions, outcome.beam_stats.transitions + summed);
}

#[test]
fn tight_budget_prunes_more_than_loose() {
    let g = independent_branches(9, 16);
    let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
    let tight = DpScheduler::new().budget(optimal).schedule(&g).unwrap();
    let loose = DpScheduler::new().budget(optimal * 10).schedule(&g).unwrap();
    assert!(tight.stats.pruned >= loose.stats.pruned);
    assert!(tight.stats.transitions <= loose.stats.transitions);
    // Both still land on the optimum (Figure 8(a)'s guarantee for τ ≥ µ*).
    assert_eq!(tight.schedule.peak_bytes, optimal);
    assert_eq!(loose.schedule.peak_bytes, optimal);
}
