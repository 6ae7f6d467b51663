//! Fuzzer self-tests: campaign determinism, oracle health on a live
//! search, and minimizer behavior.
//!
//! The iteration count honors `RDG_FUZZ_ITERS` (CI sets 200 for the
//! per-push smoke; the default here keeps local `cargo test` fast). The
//! campaign runs entirely on the virtual clock, so even hundreds of
//! iterations finish in well under a second.
//!
//! `default_campaign_is_pinned_exactly` ignores that knob: it replays the
//! default `rdg_fuzz_serve` campaign in full and compares it with the
//! files under `tests/campaign_pin/`.

use rdg_exec::serve::fuzz::{
    generate, minimize, mutate, replay, replay_fused, run_campaign, FuzzConfig, FuzzRng, Scenario,
};

fn smoke_iters() -> usize {
    std::env::var("RDG_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120)
}

#[test]
fn campaign_same_seed_same_everything() {
    let cfg = FuzzConfig {
        seed: 0xDEC0DE,
        iters: smoke_iters(),
        ..FuzzConfig::default()
    };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(
        a.worst_p99_ns, b.worst_p99_ns,
        "worst p99 must be seed-determined"
    );
    assert_eq!(a.worst, b.worst, "worst scenario must be seed-determined");
    assert_eq!(
        a.improvements, b.improvements,
        "search trajectory must match"
    );
    assert_eq!(a.executed, b.executed, "replay count must match");
}

#[test]
fn campaign_oracles_hold_and_search_makes_progress() {
    let cfg = FuzzConfig {
        seed: 0xF4E7,
        iters: smoke_iters(),
        ..FuzzConfig::default()
    };
    let report = run_campaign(&cfg);
    assert!(
        report.violations.is_empty(),
        "serving oracle violated — minimized reproducers: {:#?}",
        report
            .violations
            .iter()
            .map(|v| format!("{}\n{}", v.detail, v.scenario.to_ron()))
            .collect::<Vec<_>>()
    );
    assert!(
        report.worst_p99_ns > 0,
        "campaign found interactive traffic"
    );
    assert!(
        report.improvements.len() >= 2,
        "score-guided search should improve past the initial pool"
    );
    // The recorded pin must reproduce: that is what makes the worst case
    // committable as a corpus file.
    let out = replay(&report.worst);
    assert_eq!(Some(out.interactive_p99_ns), report.worst.expect_p99_ns);
}

/// The default `rdg_fuzz_serve` campaign (seed `0xF4E7`, 2000 iterations)
/// pinned exactly: replay count, worst p99, the whole improvement
/// trajectory, and both minimized champions. Every one of the campaign's
/// ~3.9k replays runs thousands of admission, pop, eviction and
/// controller decisions through the twin, so a change to any of them
/// moves at least one of these values.
#[test]
fn default_campaign_is_pinned_exactly() {
    let report = run_campaign(&FuzzConfig::default());
    assert!(report.violations.is_empty());
    // `minimize` checks its input with a `debug_assert!` that calls the
    // counting predicate, once for each of the campaign's two
    // minimizations, so debug builds count two more replays.
    let debug_checks = if cfg!(debug_assertions) { 2 } else { 0 };
    assert_eq!(report.executed, 3876 + debug_checks);
    assert_eq!(report.worst_p99_ns, 900_123_981);
    let trajectory: String = report
        .improvements
        .iter()
        .map(|(iter, p99)| format!("{iter} {p99}\n"))
        .collect();
    assert_eq!(trajectory, include_str!("campaign_pin/improvements.txt"));
    assert_eq!(
        report.worst.to_ron(),
        include_str!("campaign_pin/worst.ron")
    );
    assert_eq!(
        report.worst_shed.map(|sc| sc.to_ron()).as_deref(),
        Some(include_str!("campaign_pin/worst_shed.ron"))
    );
}

#[test]
fn different_seeds_explore_different_schedules() {
    let a = run_campaign(&FuzzConfig {
        seed: 1,
        iters: 30,
        ..FuzzConfig::default()
    });
    let b = run_campaign(&FuzzConfig {
        seed: 2,
        iters: 30,
        ..FuzzConfig::default()
    });
    assert_ne!(
        a.worst, b.worst,
        "distinct seeds should find distinct worst cases"
    );
}

#[test]
fn generated_scenarios_round_trip_and_replay_deterministically() {
    let mut rng = FuzzRng::new(99);
    for i in 0..50 {
        let sc = generate(&mut rng, 99, 64, 2);
        let back = Scenario::from_ron(&sc.to_ron()).expect("generated scenario parses");
        assert_eq!(sc, back, "round-trip failure at generation {i}");
        let x = replay(&sc);
        let y = replay(&sc);
        assert_eq!(
            x.waves, y.waves,
            "nondeterministic replay at generation {i}"
        );
        assert_eq!(x.interactive_p99_ns, y.interactive_p99_ns);
    }
}

#[test]
fn fused_replay_keeps_every_oracle_over_generated_scenarios() {
    // Cross-request fusion must reshape completion times only: on any
    // schedule, class FIFO, strict priority, the aging bound, ticket
    // conservation, the shed oracles, and the wave clamp + budget all
    // have to hold under grouped execution exactly as they do scalar.
    let mut rng = FuzzRng::new(0xBA7C4);
    for i in 0..40 {
        let sc = generate(&mut rng, 0xBA7C4, 64, 2);
        for mg in [2usize, 4, 16] {
            let out = replay_fused(&sc, mg);
            assert!(
                out.violations.is_empty(),
                "generation {i}, max_group {mg}: fused replay broke an \
                 oracle: {:?}\n{}",
                out.violations,
                sc.to_ron()
            );
            assert_eq!(
                out.accepted.len(),
                out.trace.len() + out.evicted.len(),
                "generation {i}, max_group {mg}: fused conservation"
            );
            let again = replay_fused(&sc, mg);
            assert_eq!(
                out.waves, again.waves,
                "generation {i}, max_group {mg}: fused replay nondeterministic"
            );
        }
    }
}

#[test]
fn mutation_is_deterministic_in_the_rng_state() {
    let mut gen_rng = FuzzRng::new(5);
    let parent = generate(&mut gen_rng, 5, 48, 2);
    let donor = generate(&mut gen_rng, 5, 48, 2);
    let a = mutate(&parent, Some(&donor), &mut FuzzRng::new(17));
    let b = mutate(&parent, Some(&donor), &mut FuzzRng::new(17));
    assert_eq!(a, b);
}

#[test]
fn minimizer_preserves_the_predicate_and_never_grows() {
    let mut rng = FuzzRng::new(1234);
    let mut checked = 0;
    for _ in 0..20 {
        let sc = generate(&mut rng, 80, 80, 2);
        let p99 = replay(&sc).interactive_p99_ns;
        if p99 == 0 {
            continue;
        }
        checked += 1;
        let min = minimize(&sc, 600, |cand| replay(cand).interactive_p99_ns >= p99);
        assert!(
            replay(&min).interactive_p99_ns >= p99,
            "minimized scenario lost the property it was shrunk under"
        );
        assert!(
            min.events.len() <= sc.events.len(),
            "minimization grew the scenario"
        );
    }
    assert!(checked >= 5, "generator should produce interactive traffic");
}
