//! What the serving workloads share: the committed LUMI table, query
//! mixes, prepared requests (schedule + `Workload`), one request through
//! the service, and the paper's global-link traffic of the served picks.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

use bine_exec::compiled::{from_dense, run_dense, to_dense};
use bine_exec::{verify, BlockStore, ExecutorPool, Workload};
use bine_net::allocation::Allocation;
use bine_net::feedback::ObservedTiming;
use bine_net::topology::Topology;
use bine_net::traffic;
use bine_net::view::{system_allocation, system_topology, TUNING_PLACEMENT_SEED};
use bine_sched::{Collective, Schedule};
use bine_tune::{tuned_name, DecisionTable, Entry, ServiceSelector};

use crate::trace::Trace;

/// The system every serving workload queries.
pub const SYSTEM: &str = "LUMI";

/// One `(collective, nodes, bytes)` request of a mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub collective: Collective,
    pub nodes: usize,
    pub bytes: u64,
}

/// The committed decision tables of the checkout the benchmark was built
/// from.
pub fn tuning_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../tuning"))
}

/// Loads one committed table by slug (`lumi`, `marenostrum5`, ...),
/// returning its file text too so regenerated tables can be compared byte
/// for byte.
pub fn load_table(slug: &str) -> Result<(DecisionTable, String), String> {
    let path = tuning_dir().join(format!("{slug}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let table = DecisionTable::from_json(&text)?;
    Ok((table, text))
}

/// A freshly loaded service over every committed table.
pub fn load_service() -> Result<(ServiceSelector, usize), String> {
    let service = ServiceSelector::load_dir(&tuning_dir())?;
    let sys = service.resolve_system(SYSTEM)?;
    Ok((service, sys))
}

/// The regular-grid entry a query floors to, with the selector's
/// semantics: largest node and size breakpoints at or below the query,
/// clamped to the smallest when the query lies below the grid.
pub fn grid_entry(table: &DecisionTable, q: Query) -> Option<&Entry> {
    let grid = || {
        table
            .entries
            .iter()
            .filter(|e| e.collective == q.collective && e.dist.is_none())
    };
    let floor = |values: Vec<u64>, x: u64| {
        let below = values.iter().copied().filter(|&v| v <= x).max();
        below.or_else(|| values.iter().copied().min())
    };
    let nodes = floor(grid().map(|e| e.nodes as u64).collect(), q.nodes as u64)? as usize;
    let bytes = floor(
        grid()
            .filter(|e| e.nodes == nodes)
            .map(|e| e.vector_bytes)
            .collect(),
        q.bytes,
    )?;
    table.at(q.collective, None, nodes, bytes)
}

/// A request with everything it needs prepared: the picked schedule (the
/// initial state depends on its block granularity) and the workload that
/// defines inputs and expected outputs.
pub struct Prepared {
    pub query: Query,
    pub pick: String,
    pub schedule: Schedule,
    pub workload: Workload,
}

/// Elements per block for a request of `bytes` over `nodes` ranks.
fn elems_per_block(bytes: u64, nodes: usize) -> usize {
    ((bytes / 8) as usize / nodes).max(1)
}

/// Resolves and builds the served pick of `q` exactly as the service
/// does (providers of the system, root 0).
pub fn prepare(service: &ServiceSelector, sys: usize, q: Query) -> Result<Prepared, String> {
    let tuned = service
        .choose_at(sys, q.collective, q.nodes, q.bytes)
        .ok_or_else(|| format!("no pick for {q:?}"))?;
    let pick = tuned_name(tuned.algorithm, tuned.segments);
    let index = service.index(sys).ok_or("system index vanished")?;
    let schedule = index
        .providers()
        .build(q.collective, &pick, q.nodes, 0)
        .ok_or_else(|| format!("pick {pick} does not build for {q:?}"))?;
    let workload = Workload::for_schedule(&schedule, elems_per_block(q.bytes, q.nodes));
    Ok(Prepared {
        query: q,
        pick,
        schedule,
        workload,
    })
}

/// One request on the untraced path: `Workload::initial_state` then
/// `try_execute_on`. Returns the latency and the final states, or why the
/// request failed.
pub fn execute(
    service: &ServiceSelector,
    pool: &ExecutorPool,
    p: &Prepared,
) -> (f64, Result<Vec<BlockStore>, String>) {
    let q = p.query;
    let start = Instant::now();
    let initial = p.workload.initial_state(&p.schedule);
    let out = service.try_execute_on(pool, SYSTEM, q.collective, q.nodes, q.bytes, initial);
    let secs = start.elapsed().as_secs_f64();
    let result = match out {
        None => Err(format!("unresolvable pick for {q:?}")),
        Some(Err(e)) => Err(format!("{q:?}: {e}")),
        Some(Ok(finals)) => Ok(finals),
    };
    (secs, result)
}

/// Checks a response. The first response to a request is checked with
/// `bine_exec::verify` against its workload; every later one must be bit
/// identical to that verified response (compared by a fingerprint of all
/// final blocks), which is as strict and costs one pass over the data
/// instead of recomputing every expected element.
pub fn check(
    p: &Prepared,
    result: Result<Vec<BlockStore>, String>,
    verified: &mut Option<u64>,
) -> Result<(), String> {
    let finals = result?;
    let print = fingerprint(&finals);
    match *verified {
        Some(v) if v == print => Ok(()),
        Some(_) => Err(format!(
            "{} {:?}: response differs from the verified one",
            p.pick, p.query
        )),
        None => {
            verify(&p.workload, &finals).map_err(|e| format!("{} {:?}: {e}", p.pick, p.query))?;
            *verified = Some(print);
            Ok(())
        }
    }
}

/// Order-independent fingerprint of final states: per block, a mix of its
/// rank, id and payload bits; summed over blocks.
fn fingerprint(finals: &[BlockStore]) -> u64 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    let mut sum = 0u64;
    for (rank, store) in finals.iter().enumerate() {
        for (id, values) in store.iter() {
            let tag = {
                let mut h = DefaultHasher::new();
                (rank, id).hash(&mut h);
                h.finish()
            };
            sum = sum.wrapping_add(values.iter().fold(tag, |h, x| mix(h, x.to_bits())));
        }
    }
    sum
}

/// A loaded service, its pool and the prepared mix.
pub struct Serving {
    pub service: ServiceSelector,
    pub sys: usize,
    pub pool: ExecutorPool,
    pub prepared: Vec<Prepared>,
}

/// Loads the tables into a fresh service, starts a pool with one worker
/// per available core and prepares every request of the mix.
pub fn setup(queries: &[Query]) -> Result<Serving, String> {
    let (service, sys) = load_service()?;
    let prepared = queries
        .iter()
        .map(|&q| prepare(&service, sys, q))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Serving {
        service,
        sys,
        pool: ExecutorPool::new(pool_workers()),
        prepared,
    })
}

/// Workers of the executor pool: one per available core.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One request replayed as calls into each layer, each call a span under
/// a `root` span: `Workload::initial_state` → `choose_at` →
/// `compiled_at` (named `service.miss` or `service.hit` by what the
/// service's miss counter says) → `to_dense` → `try_run_dense` →
/// `from_dense` → `observe_at`. Verification runs outside the root.
pub fn traced_request(
    trace: &mut Trace,
    root: &'static str,
    req: u64,
    s: &Serving,
    i: usize,
    verified: &mut Option<u64>,
) -> Result<(), String> {
    let (service, sys, pool, p) = (&s.service, s.sys, &s.pool, &s.prepared[i]);
    let q = p.query;
    let (c, n, b) = (q.collective, q.nodes, q.bytes);
    let misses = service.misses();
    let root_id = trace.open(root, None, req);
    let r = Some(root_id);
    let initial = trace.span("exec.state_in", r, req, || {
        p.workload.initial_state(&p.schedule)
    });
    let picked = trace.span("select.lookup", r, req, || {
        service.choose_at(sys, c, n, b).is_some()
    });
    let id = trace.open("service.hit", r, req);
    let compiled = service.compiled_at(sys, c, n, b);
    trace.close(id);
    let compiled = compiled.ok_or_else(|| format!("unresolvable pick for {q:?}"))?;
    let dense = trace.span("exec.to_dense", r, req, || to_dense(&compiled, initial));
    let start = Instant::now();
    let finals = trace.span("exec.pool_run", r, req, || {
        pool.try_run_dense(&compiled, dense)
    });
    let run_us = start.elapsed().as_secs_f64() * 1e6;
    let finals = finals.map_err(|e| format!("{q:?}: {e}"))?;
    let finals = trace.span("exec.from_dense", r, req, || from_dense(&compiled, finals));
    trace.span("service.observe", r, req, || {
        service.observe_at(sys, c, n, b, ObservedTiming::execution(run_us))
    });
    trace.close(root_id);
    if service.misses() > misses {
        trace.rename(id, "service.miss");
    }
    if !picked {
        return Err(format!("no pick for {q:?}"));
    }
    check(p, Ok(finals), verified)?;
    // The serial dense executor over the same states, for the pool's
    // scaling (`exec.run_dense_us` ÷ `exec.pool_run_us`).
    let mut dense = to_dense(&compiled, p.workload.initial_state(&p.schedule));
    trace.span("exec.run_dense", None, req, || {
        run_dense(&compiled, &mut dense)
    });
    check(p, Ok(from_dense(&compiled, dense)), verified)
}

/// Mean computed MiB and network messages per request of a mix, at the
/// vector size each request actually executes.
pub fn computed_per_req(prepared: &[Prepared]) -> (f64, f64) {
    let mut places = Placements::default();
    let (mut bytes, mut messages) = (0u64, 0u64);
    for p in prepared {
        let executed = (p.workload.vector_len() * 8) as u64;
        let t = places.traffic(&p.schedule, executed);
        bytes += t.total_bytes;
        messages += t.messages;
    }
    let n = prepared.len().max(1) as f64;
    (bytes as f64 / n / (1u64 << 20) as f64, messages as f64 / n)
}

/// LUMI's topology and its pinned seed-42 placement, per node count.
#[derive(Default)]
pub struct Placements {
    by_nodes: HashMap<usize, (Box<dyn Topology + Send + Sync>, Allocation)>,
}

impl Placements {
    /// The paper's traffic report of `schedule` at `bytes` on LUMI.
    pub fn traffic(&mut self, schedule: &Schedule, bytes: u64) -> traffic::TrafficReport {
        let nodes = schedule.num_ranks;
        let (topo, alloc) = self.by_nodes.entry(nodes).or_insert_with(|| {
            let topo = system_topology("lumi", nodes).expect("LUMI topology");
            let alloc = system_allocation("lumi", topo.as_ref(), nodes, TUNING_PLACEMENT_SEED);
            (topo, alloc)
        });
        traffic::measure(schedule, bytes, topo.as_ref(), alloc)
    }
}

/// Mean global-link MiB of the served picks over a mix, each at its
/// requested size: a deterministic count, not a measurement.
pub fn global_mib_per_req(prepared: &[Prepared]) -> f64 {
    let mut places = Placements::default();
    let total: u64 = prepared
        .iter()
        .map(|p| places.traffic(&p.schedule, p.query.bytes).global_bytes)
        .sum();
    total as f64 / prepared.len().max(1) as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_entry_floors_like_the_selector() {
        let (table, _) = load_table("lumi").expect("committed LUMI table");
        let (service, sys) = load_service().expect("committed tables");
        for (collective, nodes, bytes) in bine_bench::serve::queries() {
            let q = Query {
                collective,
                nodes,
                bytes,
            };
            let e = grid_entry(&table, q).expect("grid point");
            let t = service
                .choose_at(sys, collective, nodes, bytes)
                .expect("pick");
            assert_eq!(e.pick, tuned_name(t.algorithm, t.segments), "{q:?}");
            assert!(e.nodes <= nodes.max(16) && e.vector_bytes <= bytes.max(32));
        }
    }
}
