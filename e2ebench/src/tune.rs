//! Regeneration of decision-table entries the way the `tune` bin does it:
//! one fresh `Tuner` with the default `TunerConfig` per
//! (system × collective) item, items packed heaviest-first over at most
//! `nproc` threads. Also the traced replay of the tuner's layers.

use std::sync::Mutex;
use std::time::Instant;

use bine_bench::runner::tune_target;
use bine_bench::systems::System;
use bine_net::sim::{SimArena, SimRequest};
use bine_sched::Collective;
use bine_tune::selector::system_providers;
use bine_tune::{DecisionTable, Entry, ScoreModel, Target, Tuner, TunerConfig};

use crate::serving::{grid_entry, Query};
use crate::trace::Trace;
use crate::Report;

/// One unit of regeneration work.
#[derive(Clone)]
pub struct TuneItem {
    pub system: System,
    pub collective: Collective,
    /// Regular grid points `(nodes, vector_bytes)`, tuned in order.
    pub points: Vec<(usize, u64)>,
    /// Also sweep the irregular grids over the system's node counts and
    /// sizes (what a full table regeneration does).
    pub irregular: bool,
}

impl TuneItem {
    /// The item's tuning target; `system` already carries the node counts
    /// and sizes to sweep.
    pub fn target(&self) -> Target {
        tune_target(&self.system, vec![self.collective])
    }

    fn weight(&self) -> usize {
        self.system.node_counts.iter().sum()
    }
}

/// The outcome of one regeneration pass.
pub struct Regen {
    /// Entries per item, in item order.
    pub entries: Vec<Vec<Entry>>,
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Summed per-item time: what one worker would need for the pass.
    pub worker_s: f64,
    /// Wall time of every regular `tune_point` call.
    pub point_s: Vec<f64>,
    /// Per-worker spans when traced.
    pub traces: Vec<Trace>,
}

/// (item index, entries, item seconds, `tune_point` seconds)
type ItemResult = (usize, Vec<Entry>, f64, Vec<f64>);

/// Tunes `items` over `threads` workers. Each item builds its own target
/// on its worker, as the `tune` bin does (a target holds a non-`Send`
/// topology).
pub fn regenerate(items: &[TuneItem], threads: usize, traced: Option<Instant>) -> Regen {
    // `pop` drains from the back, so the heaviest item is pushed last.
    let mut queue: Vec<usize> = (0..items.len()).collect();
    queue.sort_by_key(|&i| items[i].weight());
    let queue = Mutex::new(queue);
    let done: Mutex<Vec<ItemResult>> = Mutex::new(Vec::new());
    let traces = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads.clamp(1, items.len().max(1)) {
            let (queue, done, traces) = (&queue, &done, &traces);
            scope.spawn(move || {
                // Worker tracks sit apart from the callers' thread ids.
                let mut trace = traced.map(|epoch| Trace::new(epoch, 100 + tid as u32));
                loop {
                    let next = queue.lock().expect("queue lock").pop();
                    let Some(idx) = next else { break };
                    let (entries, secs, lat) = tune_item(&items[idx], trace.as_mut(), idx);
                    done.lock()
                        .expect("results lock")
                        .push((idx, entries, secs, lat));
                }
                if let Some(t) = trace {
                    traces.lock().expect("trace lock").push(t);
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("results lock");
    done.sort_by_key(|d| d.0);
    let worker_s = done.iter().map(|d| d.2).sum();
    let point_s = done.iter().flat_map(|d| d.3.iter().copied()).collect();
    Regen {
        entries: done.into_iter().map(|d| d.1).collect(),
        wall_s,
        worker_s,
        point_s,
        traces: traces.into_inner().expect("trace lock"),
    }
}

fn tune_item(
    item: &TuneItem,
    mut trace: Option<&mut Trace>,
    req: usize,
) -> (Vec<Entry>, f64, Vec<f64>) {
    let start = Instant::now();
    let root = trace
        .as_mut()
        .map(|t| t.open("tune.item", None, req as u64));
    let mut tuner = Tuner::new(item.target(), TunerConfig::default());
    let mut entries = Vec::with_capacity(item.points.len());
    let mut lat = Vec::with_capacity(item.points.len());
    for &(nodes, bytes) in &item.points {
        let t = Instant::now();
        let id = trace
            .as_mut()
            .map(|tr| tr.open("tune.point", root, req as u64));
        entries.push(tuner.tune_point(item.collective, nodes, bytes));
        if let (Some(tr), Some(id)) = (trace.as_mut(), id) {
            tr.close(id);
        }
        lat.push(t.elapsed().as_secs_f64());
    }
    if item.irregular {
        let id = trace
            .as_mut()
            .map(|tr| tr.open("tune.irregular", root, req as u64));
        entries.extend(tuner.tune_irregular());
        if let (Some(tr), Some(id)) = (trace.as_mut(), id) {
            tr.close(id);
        }
    }
    if let (Some(tr), Some(id)) = (trace, root) {
        tr.close(id);
    }
    (entries, start.elapsed().as_secs_f64(), lat)
}

/// A table's canonical text.
pub fn table_json(system: &str, entries: Vec<Entry>) -> String {
    let mut table = DecisionTable {
        system: system.to_string(),
        entries,
    };
    table.sort();
    table.to_json()
}

/// Lines of `got` that differ from `want`, counting missing lines too.
pub fn differing_lines(got: &str, want: &str) -> u64 {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let common = g.iter().zip(&w).filter(|(a, b)| a != b).count();
    (common + g.len().abs_diff(w.len())) as u64
}

/// Tuner-layer replay of one grid point and its committed pick: provider
/// build, compile, a warm synchronous score, and the DES on a fresh then
/// a warm arena. Spans go under one `tune.replay` root. Fails when the
/// pick does not build or a repeated score differs bit for bit.
pub fn replay_point(
    trace: &mut Trace,
    req: u64,
    tuner: &mut Tuner,
    entry: &Entry,
    system: &str,
) -> Result<(), String> {
    let (c, nodes, bytes, pick) = (
        entry.collective,
        entry.nodes,
        entry.vector_bytes,
        &entry.pick,
    );
    let root_id = trace.open("tune.replay", None, req);
    let root = Some(root_id);
    let providers = system_providers(system);
    let schedule = trace
        .span("sched.build", root, req, || {
            providers.build(c, pick, nodes, 0)
        })
        .ok_or_else(|| format!("{pick} does not build at {nodes} nodes"))?;
    let compiled = trace.span("sched.compile", root, req, || schedule.compile());
    // The first score builds and summarises the schedule inside the tuner;
    // the timed second one is the synchronous model alone.
    let sync = tuner.score(c, pick, nodes, bytes, ScoreModel::Sync);
    let again = trace.span("cost.sync_score", root, req, || {
        tuner.score(c, pick, nodes, bytes, ScoreModel::Sync)
    });
    let point = tuner.target().point(nodes);
    let model = &tuner.target().model;
    let mut arena = SimArena::new();
    let mut sim = |name: &'static str, arena: &mut SimArena| {
        trace.span(name, root, req, || {
            SimRequest::new(
                model,
                &compiled,
                bytes,
                point.topology.as_ref(),
                &point.allocation,
            )
            .arena(arena)
            .time_only()
            .run()
            .makespan_us()
        })
    };
    let cold = sim("sim.cold", &mut arena);
    let warm = sim("sim.warm", &mut arena);
    trace.close(root_id);
    if sync.to_bits() != again.to_bits() || cold.to_bits() != warm.to_bits() {
        return Err(format!(
            "{pick} at {nodes} nodes: scores differ between runs"
        ));
    }
    Ok(())
}

/// Items that regenerate exactly the grid entries a LUMI mix resolves to
/// (one item per collective), with those committed entries per item.
pub fn mix_items(
    table: &DecisionTable,
    queries: &[Query],
) -> Result<(Vec<TuneItem>, Vec<Vec<Entry>>), String> {
    let mut groups: Vec<(Collective, Vec<Entry>)> = Vec::new();
    for &q in queries {
        let e = grid_entry(table, q).ok_or_else(|| format!("no committed entry for {q:?}"))?;
        let pos = match groups.iter().position(|(c, _)| *c == q.collective) {
            Some(pos) => pos,
            None => {
                groups.push((q.collective, Vec::new()));
                groups.len() - 1
            }
        };
        let group = &mut groups[pos].1;
        if !group
            .iter()
            .any(|g| g.nodes == e.nodes && g.vector_bytes == e.vector_bytes)
        {
            group.push(e.clone());
        }
    }
    let items = groups
        .iter()
        .map(|(collective, entries)| {
            let mut system = System::lumi();
            let distinct = |mut v: Vec<u64>| {
                v.sort_unstable();
                v.dedup();
                v
            };
            system.node_counts = distinct(entries.iter().map(|e| e.nodes as u64).collect())
                .into_iter()
                .map(|n| n as usize)
                .collect();
            system.vector_sizes = distinct(entries.iter().map(|e| e.vector_bytes).collect());
            TuneItem {
                system,
                collective: *collective,
                points: entries.iter().map(|e| (e.nodes, e.vector_bytes)).collect(),
                irregular: false,
            }
        })
        .collect();
    Ok((items, groups.into_iter().map(|(_, e)| e).collect()))
}

/// Counts every regenerated entry as one checked operation, failed when
/// its table line differs from the committed one.
pub fn check_regen(report: &mut Report, system: &str, regen: &Regen, expected: &[Vec<Entry>]) {
    for (got, want) in regen.entries.iter().zip(expected) {
        let diff = differing_lines(
            &table_json(system, got.clone()),
            &table_json(system, want.clone()),
        );
        report.attempted += want.len() as u64;
        report.failed += diff;
        if diff > 0 && report.errors.len() < 8 {
            report.errors.push(format!(
                "{system}: {diff} regenerated entries differ from the committed table"
            ));
        }
    }
}
