//! The deterministic serving simulator: seeded schedules of interleaved
//! queries, version pins, and graph deltas drive the real serving stack,
//! and seeded completion orders drive the per-connection `Session` state
//! machine directly; both are model-checked against the sequential
//! [`subsim_delta::DeltaIndex`]. A failure here prints the offending
//! `u64` seed, and `check_seed` replays it bit-identically — the
//! FoundationDB-style loop: explore schedules randomly, reproduce
//! deterministically.

use subsim_delta::DEFERRED_CAP;
use subsim_graph::generators::barabasi_albert;
use subsim_graph::{Graph, WeightModel};
use subsim_testkit::{
    check_seed, generate_script, generate_session, run_model, run_serving, run_sessions,
    SessionInput, Sim,
};

fn sim_graph() -> Graph {
    barabasi_albert(48, 2, WeightModel::Wc, 17)
}

#[test]
fn same_seed_replays_bit_identically() {
    let g = sim_graph();
    let script = generate_script(&g, 11, 40);
    let a = run_serving(&g, &script, Sim::ic());
    let b = run_serving(&g, &script, Sim::ic());
    assert_eq!(a, b, "two runs of one script must match exactly");
}

#[test]
fn concurrent_stack_matches_sequential_model_across_seeds() {
    // The core simulation claim, swept over schedules: for every seed,
    // the concurrent serving stack and the sequential model agree on
    // every record (answers, repair acks, stale pins, malformed lines).
    let g = sim_graph();
    for seed in 0..8 {
        check_seed(&g, Sim::ic(), seed, 40).unwrap();
    }
}

#[test]
fn schedules_exercise_stale_pins_and_repairs() {
    // The sweep is only meaningful if the schedules actually hit the
    // interesting transitions; assert the generated sessions contain
    // answered queries, applied deltas, AND typed stale-pin failures.
    let g = sim_graph();
    let mut saw_ok = false;
    let mut saw_applied = false;
    let mut saw_stale = false;
    let mut saw_malformed = false;
    for seed in 0..8 {
        let script = generate_script(&g, seed, 40);
        let outcome = run_serving(&g, &script, Sim::ic());
        for r in &outcome.records {
            saw_ok |= r.starts_with("ok ");
            saw_applied |= r.starts_with("applied v");
            saw_stale |= r.starts_with("stale ");
            saw_malformed |= r == "malformed" || r == "rejected-parse";
        }
    }
    assert!(saw_ok, "no query answered across the sweep");
    assert!(saw_applied, "no delta applied across the sweep");
    assert!(saw_stale, "no stale pin hit across the sweep");
    assert!(saw_malformed, "no malformed line hit across the sweep");
}

#[test]
fn version_advances_exactly_with_applied_deltas() {
    let g = sim_graph();
    let script = generate_script(&g, 5, 60);
    let outcome = run_serving(&g, &script, Sim::ic());
    let applied = outcome
        .records
        .iter()
        .filter(|r| r.starts_with("applied v"))
        .count() as u64;
    assert_eq!(
        outcome.final_version, applied,
        "every applied delta bumps the version exactly once"
    );
    // And the model agrees on the final version too.
    assert_eq!(
        run_model(&g, &script, Sim::ic()).final_version,
        outcome.final_version
    );
}

/// Release-tier: a wide seed sweep with longer sessions. The debug tier
/// keeps 8 seeds × 40 steps; CI's testkit job runs this with
/// `--release --include-ignored` (see TESTING.md).
#[test]
#[ignore = "wide seed sweep; run in release (see TESTING.md)"]
fn heavy_seed_sweep() {
    let g = sim_graph();
    for seed in 0..64 {
        check_seed(&g, Sim::ic(), seed, 120).unwrap();
    }
}

#[test]
fn sharded_serving_matches_sequential_model() {
    // The PR-6 model check: an N-shard serving session over the same
    // script is byte-identical to the sequential model, for several
    // shard counts and schedule seeds.
    let g = sim_graph();
    for shards in [2usize, 3, 4] {
        for seed in [5u64, 23] {
            check_seed(&g, Sim::ic().shards(shards), seed, 40)
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
        }
    }
}

#[test]
fn sentinel_serving_matches_sequential_model() {
    // The sentinel-tier model check: with truncated pools active from
    // the first line, the concurrent stack (sentinel-aware growth,
    // fixed-Z repair, stale refresh) still matches the sequential
    // sentinel model byte for byte.
    let g = sim_graph();
    for seed in 0..4 {
        check_seed(&g, Sim::ic().sentinel(), seed, 40).unwrap();
    }
}

#[test]
fn sentinel_sharded_serving_matches_sequential_model() {
    let g = sim_graph();
    for shards in [2usize, 3] {
        for seed in [5u64, 23] {
            check_seed(&g, Sim::ic().sentinel().shards(shards), seed, 40)
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
        }
    }
}

#[test]
fn sentinel_schedules_exercise_refreshes() {
    // The sentinel sweep must actually hit the interesting transition:
    // at least one scripted delta lands on a sentinel endpoint and
    // forces a Z refresh (witnessed by both stacks staying in lockstep
    // across it — here we just assert refreshes occur in the sweep).
    let g = sim_graph();
    let mut saw_applied = false;
    for seed in 0..4 {
        let script = generate_script(&g, seed, 40);
        let outcome = run_serving(&g, &script, Sim::ic().sentinel());
        saw_applied |= outcome.records.iter().any(|r| r.starts_with("applied v"));
    }
    assert!(saw_applied, "no delta applied across the sentinel sweep");
}

/// Release-tier sentinel sweep (CI testkit job, `--include-ignored`).
#[test]
#[ignore = "wide seed sweep; run in release (see TESTING.md)"]
fn heavy_sentinel_seed_sweep() {
    let g = sim_graph();
    for seed in 0..24 {
        check_seed(&g, Sim::ic().sentinel(), seed, 80).unwrap();
    }
    for shards in [2usize, 3, 4] {
        for seed in 0..8 {
            check_seed(&g, Sim::ic().sentinel().shards(shards), seed, 80)
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
        }
    }
}

/// Several sessions' scripts for one sweep seed.
fn session_scripts(g: &Graph, seed: u64, sessions: u64, steps: usize) -> Vec<Vec<SessionInput>> {
    (0..sessions)
        .map(|j| generate_session(g, seed * 16 + j, steps))
        .collect()
}

#[test]
fn interleaved_sessions_match_the_model_under_permuted_completions() {
    // The Session model check: three sessions fed and completed in a
    // seeded interleaving, each job's completion delivered in a permuted
    // order, must each reply exactly the sequential model's records,
    // framing faults included, and end idle.
    let g = sim_graph();
    let mut reordered = 0;
    let mut saw_frame = false;
    let mut saw_truncated = false;
    for seed in 0..6 {
        let scripts = session_scripts(&g, seed, 3, 40);
        let run = run_sessions(&g, &scripts, Sim::ic(), seed, 0.5).unwrap();
        reordered += run.reordered;
        for records in &run.records {
            saw_frame |= records.iter().any(|r| r.starts_with("frame: oversized"));
            saw_truncated |= records
                .last()
                .is_some_and(|r| r.starts_with("frame: truncated"));
        }
    }
    assert!(reordered > 0, "no completion was delivered out of order");
    assert!(saw_frame, "no oversized frame across the sweep");
    assert!(saw_truncated, "no truncation at EOF across the sweep");
}

#[test]
fn session_schedules_replay_bit_identically() {
    let g = sim_graph();
    let scripts = session_scripts(&g, 3, 2, 30);
    let a = run_sessions(&g, &scripts, Sim::ic(), 3, 0.5).unwrap();
    let b = run_sessions(&g, &scripts, Sim::ic(), 3, 0.5).unwrap();
    assert_eq!(a, b, "one seed, one schedule");
}

#[test]
fn bursts_past_the_deferred_cap_gate_the_session() {
    // A delta, then more lines than the deferred cap. Completions are
    // delivered only when no session can be fed, so the burst fills the
    // deferred queue to exactly the cap, gates, and drains once the
    // delta completes.
    let g = sim_graph();
    let (u, v) = (0..g.n() as u32)
        .flat_map(|u| (0..g.n() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && g.prob_of_edge(u, v).is_none())
        .unwrap();
    let mut burst = vec![SessionInput::Line(format!("delta + {u} {v} 0.5"))];
    burst.extend((0..DEFERRED_CAP + 100).map(|i| {
        SessionInput::Line(match i % 4 {
            0 => format!("bogus {i}"),
            1 => "2 0.4 @1".to_string(),
            _ => format!("{} 0.4", 1 + i % 3),
        })
    }));
    burst.push(SessionInput::Violation(
        subsim_delta::FrameViolation::Truncated { missing: 3 },
    ));
    let other = generate_session(&g, 1, 30);
    let run = run_sessions(&g, &[burst, other], Sim::ic(), 9, 1.0).unwrap();
    assert_eq!(run.max_deferred, DEFERRED_CAP, "the burst filled the cap");
    assert_eq!(run.records[0].len(), DEFERRED_CAP + 102);
}

/// Release-tier Session sweep (CI testkit job, `--include-ignored`).
#[test]
#[ignore = "wide seed sweep; run in release (see TESTING.md)"]
fn heavy_session_seed_sweep() {
    let g = sim_graph();
    for seed in 0..48 {
        let scripts = session_scripts(&g, seed, 4, 80);
        let bias = [0.2, 0.5, 0.9][seed as usize % 3];
        run_sessions(&g, &scripts, Sim::ic(), seed, bias).unwrap();
    }
}
