//! Validator sweep over the whole schedule catalog.
//!
//! Builds every (collective × algorithm × rank count × segmentation)
//! configuration the catalog supports — regular and irregular (v-variant),
//! power-of-two and non-power-of-two rank counts, non-zero roots for the
//! rooted collectives — and runs each schedule through
//! [`bine_sched::ScheduleValidator`]. Exits non-zero on the first schedule
//! the validator rejects: a failure here means the catalog emitted a
//! schedule that drops data, deadlocks, or miscounts bytes.
//!
//! The string-keyed builders are total: a configuration the catalog does
//! not support (a power-of-two-only algorithm at a non-power-of-two rank
//! count) builds to `None` and is counted as skipped, never silently
//! dropped.
//!
//! Usage:
//! `cargo run --release -p bine-bench --bin validate_sweep -- [--max-ranks N]`
//!
//! The CI workflow runs this as the schedule-integrity step.

use bine_sched::{
    algorithms, build, build_irregular, irregular_algorithms, validate_schedule, Collective,
    SizeDist, IRREGULAR_COLLECTIVES,
};

fn main() {
    let mut max_ranks = 64usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-ranks" => {
                max_ranks = args
                    .next()
                    .expect("--max-ranks needs a value")
                    .parse()
                    .expect("--max-ranks: integer")
            }
            other => panic!("unknown argument {other}; usage: validate_sweep [--max-ranks N]"),
        }
    }

    let mut validated = 0usize;
    let mut skipped = 0usize;
    let mut failures = Vec::new();

    // Regular catalog: every algorithm at every rank count up to the cap,
    // the rooted collectives additionally at a non-zero root, each at
    // three segmentations.
    for collective in Collective::ALL {
        for alg in algorithms(collective) {
            for p in 2..=max_ranks {
                let roots: &[usize] = if collective.is_rooted() && p > 1 {
                    &[0, 1]
                } else {
                    &[0]
                };
                for &root in roots {
                    let Some(sched) = build(collective, alg.name(), p, root % p) else {
                        skipped += 1;
                        continue;
                    };
                    for chunks in [1usize, 2, 4] {
                        let sched = sched.clone().segmented(chunks);
                        validated += 1;
                        if let Err(e) = validate_schedule(&sched) {
                            failures.push(format!(
                                "{}/{} p={p} root={} chunks={chunks}: {e}",
                                collective.name(),
                                alg.name(),
                                root % p
                            ));
                        }
                    }
                }
            }
        }
    }

    // Irregular (v-variant) catalog: every distribution, including the
    // one-heavy layout whose zero-count segments stress the delivery
    // accounting.
    for collective in IRREGULAR_COLLECTIVES {
        for alg in irregular_algorithms(collective) {
            for p in 2..=max_ranks.min(32) {
                for dist in SizeDist::ALL {
                    let counts = dist.counts(p, 0);
                    let Some(sched) = build_irregular(collective, alg.name(), p, 0, &counts) else {
                        skipped += 1;
                        continue;
                    };
                    validated += 1;
                    if let Err(e) = validate_schedule(&sched) {
                        failures.push(format!(
                            "{}v/{} p={p} dist={}: {e}",
                            collective.name(),
                            alg.name(),
                            dist.name()
                        ));
                    }
                }
            }
        }
    }

    println!(
        "validate_sweep: {validated} schedules validated, {skipped} unsupported \
         configurations skipped (max {max_ranks} ranks)"
    );
    if !failures.is_empty() {
        eprintln!("\nvalidate_sweep: {} FAILURES", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("validate_sweep: the whole catalog validates");
}
