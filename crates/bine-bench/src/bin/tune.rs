//! Regenerates the committed `tuning/*.json` decision tables: one offline
//! tuning sweep per paper system over {allreduce, allgather,
//! reduce-scatter, bcast, alltoall, gather, scatter} (see
//! `bine_bench::runner::tuned_collectives`), with the default `bine-tune`
//! configuration. The v-variant collectives additionally get irregular
//! grids keyed by size distribution (`"dist"` entries, synchronous-model
//! scored).
//!
//! Usage:
//! `cargo run --release -p bine-bench --bin tune [-- --out DIR] [--system NAME] [--max-nodes N]`
//!
//! * `--out DIR` — write tables to `DIR` instead of the committed `tuning/`
//!   directory (what CI's drift gate does before diffing).
//! * `--system NAME` — tune only one system (display name or slug).
//! * `--max-nodes N` — largest node count tuned (default 2048). This trims
//!   only Fugaku's 4096/8192-node 2D tori, whose p²-block schedules are the
//!   repository's one impractically slow sweep; queries above the cap fall
//!   back to the largest tuned breakpoint via the selector's floor lookup.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use bine_bench::runner::{tune_target, tuned_collectives, MAX_TUNED_NODES};
use bine_bench::systems::System;
use bine_sched::Collective;
use bine_tune::{slug, DecisionTable, DesCounts, Entry, Tuner, TunerConfig};

/// One tuned (system × collective) item: system index, entries, worker
/// seconds and the tuner's DES candidate counts.
type ItemResult = (usize, Vec<Entry>, f64, DesCounts);

fn main() {
    let mut out_dir: Option<PathBuf> = None;
    let mut only_system: Option<String> = None;
    let mut max_nodes = MAX_TUNED_NODES;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = Some(PathBuf::from(args.next().expect("--out needs a value"))),
            "--system" => {
                only_system = Some(args.next().expect("--system needs a value"));
            }
            "--max-nodes" => {
                max_nodes = args
                    .next()
                    .expect("--max-nodes needs a value")
                    .parse()
                    .expect("--max-nodes must be a positive integer");
            }
            other => panic!(
                "unknown argument {other}; usage: tune [--out DIR] [--system NAME] [--max-nodes N]"
            ),
        }
    }
    // The default output is a *write target*, not a load path, so it must
    // resolve even when the directory does not exist yet (`rm -rf tuning`
    // then regenerate is the documented clean-regeneration flow):
    // BINE_TUNING_DIR when set, otherwise the repository checkout —
    // deliberately not `default_tuning_dir()`, whose exe-adjacent probe
    // could silently redirect regenerated tables to e.g. target/release/.
    let out_dir = out_dir.unwrap_or_else(|| match std::env::var_os("BINE_TUNING_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tuning")),
    });
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", out_dir.display()));

    let systems: Vec<System> = System::tuned()
        .into_iter()
        .filter(|system| {
            only_system
                .as_deref()
                .is_none_or(|only| slug(system.name) == slug(only))
        })
        .collect();
    let tuned = systems.len();
    let systems: Vec<System> = systems
        .into_iter()
        .map(|mut system| {
            system.node_counts.retain(|&n| n <= max_nodes);
            system
        })
        .collect();

    // Every (system, collective) sweep is independent: the tuner drops its
    // schedule caches between collectives anyway, and the per-collective
    // entry lists merge into a table whose `sort` is a total order over the
    // grid key — so splitting one system's sweep across workers is
    // byte-identical to tuning it on one thread. That split is what keeps
    // full regeneration inside the CI drift gate's 5-minute budget: one
    // system (Leonardo, 8 node counts × 7 collectives + 4 irregular grids)
    // costs more serial time than the budget allows, but its collectives
    // pack onto the worker pool alongside everyone else's. Items are queued
    // heaviest-system-first so the long poles start immediately.
    // `pop` drains from the back, so the heaviest system is pushed last.
    let mut items: Vec<(usize, Collective)> = Vec::new();
    let mut order: Vec<usize> = (0..systems.len()).collect();
    order.sort_by_key(|&i| systems[i].node_counts.iter().sum::<usize>());
    for &i in &order {
        for collective in tuned_collectives() {
            items.push((i, collective));
        }
    }
    let queue = Mutex::new(items);
    let results: Mutex<Vec<ItemResult>> = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(tuned * tuned_collectives().len()) {
            scope.spawn(|| loop {
                let item = queue.lock().unwrap().pop();
                let Some((idx, collective)) = item else { break };
                let start = Instant::now();
                let target = tune_target(&systems[idx], vec![collective]);
                let mut tuner = Tuner::new(target, TunerConfig::default());
                let table = tuner.tune();
                let secs = start.elapsed().as_secs_f64();
                let counts = tuner.des_counts();
                results
                    .lock()
                    .unwrap()
                    .push((idx, table.entries, secs, counts));
            });
        }
    });
    let mut merged: Vec<(Vec<Entry>, f64, DesCounts)> = systems
        .iter()
        .map(|_| (Vec::new(), 0.0, DesCounts::default()))
        .collect();
    for (idx, entries, secs, counts) in results.into_inner().unwrap() {
        let (all, total_secs, total) = &mut merged[idx];
        all.extend(entries);
        *total_secs += secs;
        *total += counts;
    }
    for (system, (entries, secs, counts)) in systems.iter().zip(merged) {
        let mut table = DecisionTable {
            system: system.name.to_string(),
            entries,
        };
        table.sort();
        let path = out_dir.join(format!("{}.json", slug(system.name)));
        std::fs::write(&path, table.to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let des = table
            .entries
            .iter()
            .filter(|e| e.model == bine_tune::ScoreModel::Des)
            .count();
        println!(
            "{:<14} {:>4} grid points ({des} DES-refined) in {secs:>6.1}s of worker time; \
             DES candidates: {} simulated, {} cut off, {} skipped by bound -> {}",
            system.name,
            table.entries.len(),
            counts.simulated,
            counts.cut,
            counts.skipped,
            path.display()
        );
    }
    if tuned == 0 {
        let known: Vec<String> = System::tuned().iter().map(|s| slug(s.name)).collect();
        panic!(
            "--system {} matches no system; known: {}",
            only_system.as_deref().unwrap_or(""),
            known.join(", ")
        );
    }
}
