//! Adaptive-serving smoke: the online feedback loop against a wrong model.
//!
//! Commits a decision table with the healthy DES winner, then activates a
//! seeded fault plan the model knows nothing about and feeds the observed
//! (faulted-DES) costs back through [`bine_tune::ServiceSelector::observe_at`].
//! The run fails (non-zero exit) unless the convergence contract holds —
//! [`bine_bench::adaptive::measure`] checks every step structurally:
//!
//! * the diverging entry promotes exactly one override,
//! * the override is the independently computed DES-true winner and the
//!   warm request path serves it,
//! * clearing the faults reverts the overlay to empty and the committed
//!   pick is served again (the committed tables were never mutated).
//!
//! Usage:
//! `cargo run --release -p bine-bench --bin adaptive_bench -- \
//!     [--seed N] [--nodes N] [--bytes N] [--system NAME]`
//!
//! The CI workflow runs this as a smoke step; same seed, same faults, same
//! convergence — every cost in the loop is simulated, so the run is
//! bit-reproducible across machines.

use bine_bench::adaptive::{measure, AdaptiveOptions};

fn main() {
    let mut opts = AdaptiveOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed").parse().expect("--seed: integer"),
            "--nodes" => opts.nodes = value("--nodes").parse().expect("--nodes: integer"),
            "--bytes" => opts.bytes = value("--bytes").parse().expect("--bytes: integer"),
            "--system" => opts.system = value("--system"),
            other => panic!(
                "unknown argument {other}; usage: adaptive_bench \
                 [--seed N] [--nodes N] [--bytes N] [--system NAME]"
            ),
        }
    }

    println!(
        "adaptive: {} topology, {} at {} nodes × {} B, seed {}\n",
        opts.system,
        opts.collective.name(),
        opts.nodes,
        opts.bytes,
        opts.seed
    );
    let r = measure(&opts).unwrap_or_else(|e| {
        eprintln!("adaptive_bench: FAILED — {e}");
        std::process::exit(1);
    });

    println!(
        "committed pick        {:>24}  (healthy model: {:.0} us)",
        r.committed_pick, r.committed_healthy_us
    );
    println!(
        "under fault plan      {:>24}  ({:.0} us observed, {:.1}x the model)",
        "…the model is wrong",
        r.committed_faulted_us,
        r.committed_faulted_us / r.committed_healthy_us
    );
    println!(
        "DES-true winner       {:>24}  ({:.0} us under the same plan)",
        r.des_true_pick, r.challenger_faulted_us
    );
    println!(
        "fault plan            seed {}, {} faulted links, {} stragglers",
        r.plan_seed, r.faulted_links, r.stragglers
    );
    println!(
        "feedback loop         {} override, {} revert, {} re-evaluations",
        r.overrides, r.reverts, r.reevals
    );
    println!(
        "warm paths            observe {:.0} ns, overridden hit {:.0} ns",
        r.observe_ns, r.overridden_hit_ns
    );
    println!(
        "\nadaptive_bench: overlay converged to {} and reverted once the faults cleared",
        r.des_true_pick
    );
}
