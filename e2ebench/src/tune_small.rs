//! `tune-small`: regenerate the MareNostrum 5 and HeteroFat tables in full
//! and LUMI up to 64 nodes, exactly as the `tune` bin packs the work, and
//! check every regenerated table against the committed one. Builders,
//! synthesizers, the synchronous model and the DES do all the work; the
//! service and the executors do nothing.

use std::time::Instant;

use bine_bench::systems::System;
use bine_tune::selector::system_providers;
use bine_tune::{slug, Tuner, TunerConfig};

use crate::exec::{des_points, mix as exec_mix, traced_serving, Size};
use crate::layers::{self, Counters};
use crate::serving::{self, load_table, pool_workers, Placements, Query};
use crate::stats::{median, Shares, SplitMix, MIN_TAIL_SAMPLES};
use crate::trace::Trace;
use crate::tune::{differing_lines, regenerate, replay_point, table_json, Regen, TuneItem};
use crate::{Opts, Report};

/// Time shares of a run's window: a regeneration, a load of the committed
/// tables (the set-up).
const SHARES: [f64; 2] = [0.85, 0.15];
const REGEN: usize = 0;
const SETUP: usize = 1;
/// Fewest set-ups and regenerations per run; a full window makes hundreds
/// and about seven.
const MIN_SETUPS: usize = 15;
const MIN_REGENS: usize = 2;

/// The regenerated systems, each restricted to the node counts and sizes
/// it is tuned over here.
fn systems(tiny: bool) -> Vec<System> {
    let mut lumi = System::lumi();
    lumi.node_counts.retain(|&n| n <= 64);
    let mut systems = vec![System::marenostrum5(), System::heterofat(), lumi];
    if tiny {
        for s in &mut systems {
            s.node_counts.truncate(1);
            s.vector_sizes.truncate(3);
        }
    }
    systems
}

/// One item per (system × collective), sweeping the regular grid in the
/// tuner's own order and then the irregular grids.
fn items(systems: &[System]) -> Vec<TuneItem> {
    let mut items = Vec::new();
    for system in systems {
        for collective in bine_bench::runner::tuned_collectives() {
            let points = system
                .node_counts
                .iter()
                .flat_map(|&n| system.vector_sizes.iter().map(move |&b| (n, b)))
                .collect();
            items.push(TuneItem {
                system: system.clone(),
                collective,
                points,
                irregular: true,
            });
        }
    }
    items
}

/// The committed table of a system restricted to the regenerated grid:
/// the file text itself when nothing is filtered out, so a full
/// regeneration is compared byte for byte.
fn committed(system: &System) -> Result<(String, usize), String> {
    let (table, text) = load_table(&slug(system.name))?;
    let total = table.entries.len();
    let kept: Vec<_> = table
        .entries
        .into_iter()
        .filter(|e| {
            system.node_counts.contains(&e.nodes) && system.vector_sizes.contains(&e.vector_bytes)
        })
        .collect();
    let n = kept.len();
    let text = if n == total {
        text
    } else {
        table_json(system.name, kept)
    };
    Ok((text, n))
}

/// Compares each regenerated table with its committed text.
fn check(
    report: &mut Report,
    systems: &[System],
    items: &[TuneItem],
    regen: &Regen,
    want: &[(String, usize)],
) {
    for (system, (text, n)) in systems.iter().zip(want) {
        let entries = items
            .iter()
            .zip(&regen.entries)
            .filter(|(item, _)| item.system.name == system.name)
            .flat_map(|(_, e)| e.iter().cloned())
            .collect();
        let diff = differing_lines(&table_json(system.name, entries), text);
        report.attempted += *n as u64;
        report.failed += diff;
        if diff > 0 && report.errors.len() < 8 {
            report.errors.push(format!(
                "{}: {diff} regenerated lines differ from the committed table",
                system.name
            ));
        }
    }
}

/// Mean global-link MiB of the regenerated regular LUMI picks, each at its
/// grid size on LUMI's seed-42 placement.
fn global_mib(items: &[TuneItem], regen: &Regen) -> Result<f64, String> {
    let providers = system_providers("LUMI");
    let mut places = Placements::default();
    let (mut total, mut n) = (0u64, 0u64);
    for (item, entries) in items.iter().zip(&regen.entries) {
        if slug(item.system.name) != "lumi" {
            continue;
        }
        for e in entries.iter().filter(|e| e.dist.is_none()) {
            let schedule = providers
                .build(e.collective, &e.pick, e.nodes, 0)
                .ok_or_else(|| format!("regenerated pick {} does not build", e.pick))?;
            total += places.traffic(&schedule, e.vector_bytes).global_bytes;
            n += 1;
        }
    }
    Ok(total as f64 / n.max(1) as f64 / (1u64 << 20) as f64)
}

/// Set-up: loading the committed tables the regenerations are checked
/// against; the targets are built inside each item, as the `tune` bin
/// does.
fn load_committed(
    systems: &[System],
    setup_s: &mut Vec<f64>,
) -> Result<Vec<(String, usize)>, String> {
    let t = Instant::now();
    let want = systems
        .iter()
        .map(committed)
        .collect::<Result<Vec<_>, _>>()?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(want)
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let systems = systems(opts.tiny);
    let items = items(&systems);
    let mut report = Report::default();
    let (mut setup_s, mut tune_s, mut cold_ms, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut points = Vec::new();
    let mut global = None;
    let mut shares = Shares::new(&SHARES);
    let window = opts.seconds;
    let start = Instant::now();
    let want = load_committed(&systems, &mut setup_s)?;
    shares.charge(SETUP, start.elapsed().as_secs_f64());
    // Whole regenerations only: stop before one that would overrun the
    // window. The seed has nothing to order: every pass regenerates the
    // same grid.
    loop {
        let met = setup_s.len() >= MIN_SETUPS
            && tune_s.len() >= MIN_REGENS
            && points.len() >= MIN_TAIL_SAMPLES;
        let elapsed = start.elapsed().as_secs_f64();
        let activity = if elapsed < window {
            shares.next()
        } else if setup_s.len() < MIN_SETUPS {
            SETUP
        } else if !met {
            REGEN
        } else {
            break;
        };
        let last = tune_s.last().copied().unwrap_or(0.0);
        if activity == REGEN && met && elapsed + last > window {
            break;
        }
        let t = Instant::now();
        if activity == SETUP {
            load_committed(&systems, &mut setup_s)?;
        } else {
            let regen = regenerate(&items, pool_workers(), None);
            check(&mut report, &systems, &items, &regen, &want);
            let entries: usize = regen.entries.iter().map(Vec::len).sum();
            tune_s.push(regen.wall_s);
            cold_ms.push(regen.worker_s * 1e3);
            rates.push(entries as f64 / regen.wall_s);
            points.extend_from_slice(&regen.point_s);
            if global.is_none() {
                global = Some(global_mib(&items, &regen)?);
            }
        }
        shares.charge(activity, t.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("req_per_s", median(&rates), "1/s");
    report.latencies(points)?;
    report.metric("cold_pass_ms", median(&cold_ms), "ms");
    report.metric("global_mib_per_req", global.unwrap_or(0.0), "MiB");
    report.metric("tune_s", median(&tune_s), "s");
    report.notes.push(format!(
        "{} regenerations of {} (system x collective) items on {} threads, {} set-ups between them; requests are grid points, cold_pass_ms is one regeneration's summed worker time",
        tune_s.len(),
        items.len(),
        pool_workers(),
        setup_s.len()
    ));
    Ok(report)
}

pub fn run_traced(opts: &Opts) -> Result<Report, String> {
    let systems = systems(opts.tiny);
    let items = items(&systems);
    let want = systems
        .iter()
        .map(committed)
        .collect::<Result<Vec<_>, _>>()?;
    let mut report = Report::default();
    let epoch = Instant::now();

    let untraced = regenerate(&items, pool_workers(), None);
    check(&mut report, &systems, &items, &untraced, &want);
    let regen = regenerate(&items, pool_workers(), Some(epoch));
    check(&mut report, &systems, &items, &regen, &want);
    let overhead = regen.wall_s / untraced.wall_s - 1.0;

    // Tuner layers over every regenerated regular grid point.
    let mut trace = Trace::new(epoch, pool_workers() as u32);
    let mut req = 0;
    for (item, entries) in items.iter().zip(&regen.entries) {
        let mut tuner = Tuner::new(item.target(), TunerConfig::default());
        for e in entries.iter().filter(|e| e.dist.is_none()) {
            report.outcome(replay_point(
                &mut trace,
                req,
                &mut tuner,
                e,
                item.system.name,
            ));
            req += 1;
        }
    }
    // Serving layers: the LUMI slice this workload regenerates, served at
    // exec-small's sizes.
    let lumi = systems
        .iter()
        .find(|s| slug(s.name) == "lumi")
        .expect("LUMI is regenerated");
    let queries: Vec<Query> = exec_mix(Size::Small, opts.tiny)
        .into_iter()
        .filter(|q| lumi.node_counts.contains(&q.nodes))
        .collect();
    let mut rng = SplitMix::new(opts.seed);
    let (_, hit_ratio, prepared) = traced_serving(
        &mut trace,
        "serve.replay",
        &queries,
        &mut rng,
        0.0,
        &mut report,
    )?;
    let (computed_mib, messages) = serving::computed_per_req(&prepared);
    let des = des_points(&regen);
    for t in regen.traces {
        trace.merge(t);
    }
    layers::report(
        &mut report,
        trace,
        &Counters {
            root: "tune.item",
            hit_ratio,
            computed_mib,
            messages,
            des_points: des,
            overhead_share: overhead,
        },
    )?;
    Ok(report)
}
