//! Schedule-synthesis smoke sweep: synthesize, validate, race the catalog.
//!
//! For every tuned system ([`System::tuned`]: the paper's four plus the
//! heterogeneous island fat tree) this bin derives the serving-layer
//! topology view at each small node count, synthesizes every provider
//! candidate (`synth:forestcoll:*`, `synth:multilevel:*`), runs each
//! schedule through [`bine_sched::ScheduleValidator`], and compares its
//! DES makespan against the best fixed-catalog pick at the same grid
//! point.
//!
//! Homogeneous fabrics are allowed to prefer the hand-derived catalog —
//! those results are reported but never fatal. The heterogeneous fabric
//! is the topology the synthesizers were derived for: the sweep exits
//! non-zero unless a synthesized schedule strictly beats the best catalog
//! pick on at least one HeteroFat grid point, or if any synthesized
//! schedule fails validation anywhere.
//!
//! Usage:
//! `cargo run --release -p bine-bench --bin synth_sweep -- [--max-nodes N]`
//!
//! The CI workflow runs this as the synthesis-integrity step.

use bine_bench::systems::System;
use bine_net::cost::CostModel;
use bine_net::sim::SimRequest;
use bine_net::view::{system_allocation, system_view, TUNING_PLACEMENT_SEED};
use bine_sched::{
    algorithms, build, synth_algorithms, validate_schedule, Collective, CompiledSchedule, SynthSpec,
};

/// The collectives the synthesizers support (tree-shaped dataflow).
const COLLECTIVES: [Collective; 3] = [
    Collective::Broadcast,
    Collective::Reduce,
    Collective::Allreduce,
];

/// Vector sizes raced under the DES: one latency-bound, one
/// bandwidth-bound point per grid cell keeps the sweep under a minute.
const SIZES: [u64; 2] = [64 * 1024, 16 * 1024 * 1024];

fn main() {
    let mut max_nodes = 32usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-nodes" => {
                max_nodes = args
                    .next()
                    .expect("--max-nodes needs a value")
                    .parse()
                    .expect("--max-nodes: integer")
            }
            other => panic!("unknown argument {other}; usage: synth_sweep [--max-nodes N]"),
        }
    }

    let model = CostModel::default();
    let mut validated = 0usize;
    let mut raced = 0usize;
    let mut hetero_wins = Vec::new();
    let mut failures = Vec::new();

    for system in System::tuned() {
        let slug = system.slug();
        let hetero = slug == "heterofat";
        for &nodes in system.node_counts.iter().filter(|&&n| n <= max_nodes) {
            let Some(view) = system_view(&slug, nodes) else {
                continue;
            };
            let topo = system.topology(nodes);
            let alloc = system_allocation(&slug, topo.as_ref(), nodes, TUNING_PLACEMENT_SEED);
            for collective in COLLECTIVES {
                // Synthesize and validate every provider candidate once.
                let mut synth: Vec<(String, CompiledSchedule)> = Vec::new();
                for id in synth_algorithms(collective, &view) {
                    let spec = SynthSpec::parse(id.name())
                        .unwrap_or_else(|| panic!("unparseable synth id {}", id.name()));
                    let Some(sched) = spec.synthesize(collective, &view, 0) else {
                        failures.push(format!(
                            "{slug}/{}/{} p={nodes}: synthesis returned nothing",
                            collective.name(),
                            id.name()
                        ));
                        continue;
                    };
                    validated += 1;
                    if let Err(e) = validate_schedule(&sched) {
                        failures.push(format!(
                            "{slug}/{}/{} p={nodes}: {e}",
                            collective.name(),
                            id.name()
                        ));
                        continue;
                    }
                    synth.push((id.name().to_string(), sched.compile()));
                }
                if synth.is_empty() {
                    continue;
                }

                // Best fixed-catalog pick at the same grid point.
                let catalog: Vec<(String, CompiledSchedule)> = algorithms(collective)
                    .iter()
                    .filter_map(|alg| {
                        let sched = build(collective, alg.name(), nodes, 0)?;
                        Some((alg.name().to_string(), sched.compile()))
                    })
                    .collect();

                for &n in &SIZES {
                    let race = |compiled: &CompiledSchedule| {
                        SimRequest::new(&model, compiled, n, topo.as_ref(), &alloc)
                            .time_only()
                            .run()
                            .makespan_us()
                    };
                    let best_synth = synth
                        .iter()
                        .map(|(name, c)| (name.as_str(), race(c)))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("non-empty synth set");
                    let best_cat = catalog
                        .iter()
                        .map(|(name, c)| (name.as_str(), race(c)))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("non-empty catalog");
                    raced += 1;
                    let verdict = if best_synth.1 < best_cat.1 {
                        "WIN "
                    } else {
                        "loss"
                    };
                    println!(
                        "{verdict} {slug:>12} {:>9} p={nodes:<4} n={n:<9} \
                         synth {} {:>10.2}us vs catalog {} {:>10.2}us",
                        collective.name(),
                        best_synth.0,
                        best_synth.1,
                        best_cat.0,
                        best_cat.1,
                    );
                    if hetero && best_synth.1 < best_cat.1 {
                        hetero_wins.push(format!(
                            "{}/p={nodes}/n={n}: {} {:.2}us beats {} {:.2}us",
                            collective.name(),
                            best_synth.0,
                            best_synth.1,
                            best_cat.0,
                            best_cat.1,
                        ));
                    }
                }
            }
        }
    }

    println!("\nvalidated {validated} synthesized schedules, raced {raced} grid points");
    if !failures.is_empty() {
        eprintln!("{} validation failures:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if hetero_wins.is_empty() {
        eprintln!(
            "synthesis never beat the catalog on the heterogeneous fabric it was derived for"
        );
        std::process::exit(1);
    }
    println!(
        "{} HeteroFat wins, e.g. {}",
        hetero_wins.len(),
        hetero_wins[0]
    );
}
