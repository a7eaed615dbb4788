//! Property tests for the schedule validator.
//!
//! Two directions, both fuzzed over the whole catalog:
//!
//! * **soundness on real schedules** — every schedule the catalog builds
//!   (all collectives × algorithms × segmentations × irregular
//!   distributions, power-of-two and non-power-of-two rank counts where
//!   the builder supports them) passes [`bine_sched::ScheduleValidator`]
//!   end to end. The validator is the gate the CI sweep runs over the
//!   committed catalog; a false positive here would block good schedules.
//! * **sensitivity to seeded corruption** — schedules mutated in ways
//!   real bugs produce (a dropped send, reordered tree steps, a count
//!   vector that does not match the rank count) are rejected, and with
//!   the *right* diagnosis, not just any error.
//!
//! The string-keyed builders are total — an unsupported configuration
//! builds to `None` — so a skipped configuration is one the catalog
//! genuinely cannot build, never a silenced failure. Which configurations
//! those are is pinned exhaustively by `builders_are_total`.

use std::sync::Arc;

use bine_sched::{
    algorithms, build, build_irregular, irregular_algorithms, validate_schedule, Collective,
    Counts, ProviderSet, SizeDist, TopologyView, ValidationError, IRREGULAR_COLLECTIVES,
};
use proptest::prelude::*;

fn any_collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(Collective::ALL.to_vec())
}

/// The roots the totality test probes at `p` ranks: the first two ranks,
/// the last one, and the first out-of-range one (`p - 1` wraps to
/// `usize::MAX` at `p = 0`).
fn probe_roots(p: usize) -> [usize; 4] {
    [0, 1, p.wrapping_sub(1), p]
}

// Totality: the string-keyed builders return `None` — never panic — for
// every configuration they cannot build, and `Some` for exactly the
// documented capability: power-of-two `p` with `root < p` (`p >= 2` for
// `dual-root`), and any `p >= 1` for the chain and shift algorithms.
#[test]
fn builders_are_total() {
    for collective in Collective::ALL {
        for alg in algorithms(collective) {
            let any_p = matches!(alg.name(), "ring" | "pairwise" | "bruck");
            let min_p = if alg.name() == "dual-root" { 2 } else { 1 };
            for p in 0..=64usize {
                for root in probe_roots(p) {
                    let expected = root < p && p >= min_p && (any_p || p.is_power_of_two());
                    assert_eq!(
                        build(collective, alg.name(), p, root).is_some(),
                        expected,
                        "{}/{} p={p} root={root}",
                        collective.name(),
                        alg.name()
                    );
                }
            }
        }
    }
    for collective in IRREGULAR_COLLECTIVES {
        for alg in irregular_algorithms(collective) {
            let any_p = matches!(alg.name(), "traff" | "ring");
            for p in 0..=64usize {
                let counts = Counts::new(vec![1; p.max(1)]);
                for root in probe_roots(p) {
                    let expected = root < p && (any_p || p.is_power_of_two());
                    assert_eq!(
                        build_irregular(collective, alg.name(), p, root, &counts).is_some(),
                        expected,
                        "{}v/{} p={p} root={root}",
                        collective.name(),
                        alg.name()
                    );
                }
            }
        }
    }
    // The provider set answers the same question for synthesized names:
    // out-of-range roots build to `None` at every size, with or without a
    // view, and in-range roots never panic.
    let providers = ProviderSet::with_synth(Arc::new(|nodes: usize| {
        TopologyView::clustered(&[nodes / 2, nodes - nodes / 2], (100.0, 0.3), (5.0, 25.0)).ok()
    }));
    let synth_names = [
        "synth:forestcoll:k=1",
        "synth:forestcoll:k=2",
        "synth:multilevel:tiers=1",
        "synth:multilevel:tiers=2+seg2",
    ];
    for collective in Collective::ALL {
        for name in synth_names {
            for p in 0..=64usize {
                for root in probe_roots(p) {
                    let built = providers.build(collective, name, p, root);
                    if root >= p {
                        assert!(
                            built.is_none(),
                            "{}/{name} p={p} root={root}",
                            collective.name()
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Soundness: whatever the catalog builds — any collective, any
    // algorithm, any segmentation, any rank count (power of two or not),
    // any root — the validator accepts it.
    #[test]
    fn every_catalog_schedule_validates(
        collective in any_collective(),
        alg_seed in 0usize..100,
        p in 2usize..=33,
        chunks in prop::sample::select(vec![1usize, 2, 4]),
        root_seed in 0usize..1000,
    ) {
        let algs = algorithms(collective);
        let alg = algs[alg_seed % algs.len()].clone();
        let Some(sched) = build(collective, alg.name(), p, root_seed % p) else {
            return Ok(());
        };
        let sched = sched.segmented(chunks);
        prop_assert!(
            validate_schedule(&sched).is_ok(),
            "{}/{} p={p} chunks={chunks}: {:?}",
            collective.name(), alg.name(), validate_schedule(&sched)
        );
    }

    // Soundness over the irregular (v-variant) catalog, including the
    // one-heavy distribution whose zero-count segments are the classic
    // edge case for delivery accounting.
    #[test]
    fn every_irregular_schedule_validates(
        coll_seed in 0usize..4,
        alg_seed in 0usize..100,
        dist in prop::sample::select(SizeDist::ALL.to_vec()),
        p in 2usize..=17,
        chunks in prop::sample::select(vec![1usize, 2]),
    ) {
        let collective = IRREGULAR_COLLECTIVES[coll_seed % IRREGULAR_COLLECTIVES.len()];
        let algs = irregular_algorithms(collective);
        let alg = algs[alg_seed % algs.len()];
        let counts = dist.counts(p, 0);
        let name = if chunks > 1 {
            format!("{}+seg{chunks}", alg.name())
        } else {
            alg.name().to_string()
        };
        let Some(sched) = build_irregular(collective, &name, p, 0, &counts) else {
            return Ok(());
        };
        prop_assert!(
            validate_schedule(&sched).is_ok(),
            "{}v/{name} p={p} dist={}: {:?}",
            collective.name(), dist.name(), validate_schedule(&sched)
        );
    }

    // Sensitivity: dropping any network send from a schedule in which
    // every send is load-bearing must be caught, and as a *delivery*
    // failure — a later sender missing its payload, or a rank ending
    // without its postcondition — never accepted and never misreported as
    // a structural problem.
    #[test]
    fn dropping_a_send_is_diagnosed_as_a_delivery_failure(
        pick_seed in 0usize..6,
        s in 1u32..=5,
        victim_seed in 0usize..1000,
    ) {
        let picks = [
            (Collective::Allreduce, "recursive-doubling"),
            (Collective::Allreduce, "bine-large"),
            (Collective::Allreduce, "bine-small"),
            (Collective::Broadcast, "binomial-dd"),
            (Collective::Broadcast, "bine-tree"),
            (Collective::Allgather, "ring"),
        ];
        let (collective, name) = picks[pick_seed % picks.len()];
        let p = 1usize << s;
        let Some(mut sched) = build(collective, name, p, 0) else {
            return Ok(());
        };
        let total: usize = sched.steps.iter().map(|st| st.messages.len()).sum();
        let mut victim = victim_seed % total;
        for step in &mut sched.steps {
            if victim < step.messages.len() {
                step.messages.remove(victim);
                break;
            }
            victim -= step.messages.len();
        }
        let err = validate_schedule(&sched);
        prop_assert!(
            matches!(
                err,
                Err(ValidationError::MissingBlock { .. })
                    | Err(ValidationError::Incomplete { .. })
            ),
            "{}/{name} p={p}: dropped send #{} gave {err:?}",
            collective.name(), victim_seed % total
        );
    }

    // Sensitivity: reversing the steps of a dissemination tree makes
    // ranks forward data before they have received it — the validator
    // must pin that on the sender's missing block.
    #[test]
    fn reversed_tree_steps_are_diagnosed_as_missing_blocks(
        name in prop::sample::select(vec!["binomial-dd", "bine-tree"]),
        s in 2u32..=5,
        root_seed in 0usize..1000,
    ) {
        let p = 1usize << s;
        let Some(mut sched) = build(Collective::Broadcast, name, p, root_seed % p) else {
            return Ok(());
        };
        sched.steps.reverse();
        let err = validate_schedule(&sched);
        prop_assert!(
            matches!(err, Err(ValidationError::MissingBlock { .. })),
            "broadcast/{name} p={p}: reversed steps gave {err:?}"
        );
    }

    // Sensitivity: a count vector covering the wrong number of ranks is a
    // well-formedness failure with the exact mismatch in the diagnosis.
    #[test]
    fn corrupted_irregular_counts_are_diagnosed_as_a_mismatch(
        coll_seed in 0usize..4,
        s in 1u32..=4,
        shrink in 1usize..=2,
    ) {
        let collective = IRREGULAR_COLLECTIVES[coll_seed % IRREGULAR_COLLECTIVES.len()];
        let p = 1usize << s;
        if p <= shrink {
            return Ok(());
        }
        let counts = SizeDist::Linear.counts(p, 0);
        let algs = irregular_algorithms(collective);
        let built = algs
            .iter()
            .find_map(|alg| build_irregular(collective, alg.name(), p, 0, &counts));
        let Some(mut sched) = built else { return Ok(()) };
        sched.counts = Some(SizeDist::Linear.counts(p - shrink, 0));
        let err = validate_schedule(&sched);
        prop_assert!(
            matches!(
                err,
                Err(ValidationError::CountsMismatch { counts, ranks })
                    if counts == p - shrink && ranks == p
            ),
            "{}v p={p}: shrunk counts gave {err:?}", collective.name()
        );
    }
}
