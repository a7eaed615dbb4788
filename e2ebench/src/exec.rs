//! `exec-small` and `exec-large`: closed-loop serving with execution. One
//! client thread sends each LUMI request of the mix only after the
//! previous one returned; the service executes it on a pool with one
//! worker per available core.

use std::time::{Duration, Instant};

use bine_tune::{Entry, ScoreModel, Tuner, TunerConfig};

use crate::layers::{self, Counters};
use crate::serving::{
    self, check, execute, load_table, pool_workers, setup, Prepared, Query, Serving,
};
use crate::stats::{median, Shares, SplitMix, MIN_TAIL_SAMPLES};
use crate::trace::Trace;
use crate::tune::{check_regen, mix_items, regenerate, replay_point, Regen, TuneItem};
use crate::{Opts, Report};

/// Which of the two execution mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Payloads of about one element per block: per-block bookkeeping.
    Small,
    /// Thousands of elements per block: reduce loops and block copies.
    Large,
}

/// Time shares of a run's window: a fresh set-up with its cold pass, a
/// regeneration of the mix's grid entries, a warm pass.
const SHARES: [f64; 3] = [0.2, 0.2, 0.6];
const COLD: usize = 0;
const TUNE: usize = 1;

/// Fewest set-ups (each with a cold pass) and regenerations per run: the
/// cheaper the work, the more.
fn min_reps(size: Size) -> (usize, usize) {
    match size {
        Size::Small => (7, 5),
        Size::Large => (15, 15),
    }
}

/// The mix: every tuned regular collective of the LUMI table × node
/// counts × sizes.
pub fn mix(size: Size, tiny: bool) -> Vec<Query> {
    let (nodes, bytes): (&[usize], &[u64]) = match (size, tiny) {
        (_, true) => (&[16], &[64]),
        (Size::Small, false) => (&[16, 32, 64, 128, 256], &[64, 4 << 10]),
        (Size::Large, false) => (&[16, 32], &[256 << 10, 1 << 20]),
    };
    let mut q = Vec::new();
    for collective in bine_bench::runner::tuned_collectives() {
        for &n in nodes {
            for &b in bytes {
                q.push(Query {
                    collective,
                    nodes: n,
                    bytes: b,
                });
            }
        }
    }
    q
}

/// One pass over the mix in `order`: checked responses, per-request
/// latencies. `verified` holds each request's verified response.
fn pass(
    s: &Serving,
    order: &[usize],
    verified: &mut [Option<u64>],
    report: &mut Report,
) -> Vec<f64> {
    order
        .iter()
        .map(|&i| {
            let (secs, result) = execute(&s.service, &s.pool, &s.prepared[i]);
            report.outcome(check(&s.prepared[i], result, &mut verified[i]));
            secs
        })
        .collect()
}

/// The largest input state of the mix, in MiB.
fn max_input_mib(prepared: &[Prepared]) -> f64 {
    prepared
        .iter()
        .map(|p| {
            let elems: usize = p
                .workload
                .initial_state(&p.schedule)
                .iter()
                .flat_map(|store| store.iter().map(|(_, v)| v.len()))
                .sum();
            elems as f64 * 8.0 / (1u64 << 20) as f64
        })
        .fold(0.0, f64::max)
}

/// A fresh set-up and its cold pass in a seeded order: one `setup_s` and
/// one `cold_pass_ms` sample.
fn cold_start(
    queries: &[Query],
    rng: &mut SplitMix,
    verified: &mut [Option<u64>],
    report: &mut Report,
    samples: (&mut Vec<f64>, &mut Vec<f64>),
) -> Result<Serving, String> {
    let (setup_s, cold_ms) = samples;
    let start = Instant::now();
    let s = setup(queries)?;
    setup_s.push(start.elapsed().as_secs_f64());
    let order = rng.order(queries.len());
    let cold: f64 = pass(&s, &order, verified, report).iter().sum();
    cold_ms.push(cold * 1e3);
    Ok(s)
}

pub fn run(opts: &Opts, size: Size) -> Result<Report, String> {
    let queries = mix(size, opts.tiny);
    let (table, _) = load_table("lumi")?;
    let (items, expected) = mix_items(&table, &queries)?;
    // One stream per activity, so the seed fixes every pass order however
    // the activities interleave.
    let (mut cold_rng, mut warm_rng) = (SplitMix::new(opts.seed), SplitMix::new(!opts.seed));
    let mut report = Report::default();
    let mut verified = vec![None; queries.len()];
    let (min_setups, min_tunes) = min_reps(size);
    let (mut setup_s, mut cold_ms, mut tune_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latencies, mut rates) = (Vec::new(), Vec::new());
    let mut shares = Shares::new(&SHARES);
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    // The first set-up stays up for the warm passes.
    let s = cold_start(
        &queries,
        &mut cold_rng,
        &mut verified,
        &mut report,
        (&mut setup_s, &mut cold_ms),
    )?;
    shares.charge(COLD, start.elapsed().as_secs_f64());
    // Until the window is spent and the p99 has ten samples beyond it;
    // rates come from whole passes only.
    loop {
        let unmet = [
            cold_ms.len() < min_setups,
            tune_s.len() < min_tunes,
            latencies.len() < MIN_TAIL_SAMPLES || rates.len() < 2,
        ];
        let activity = if start.elapsed() < window {
            shares.next()
        } else if let Some(i) = unmet.iter().position(|&u| u) {
            i
        } else {
            break;
        };
        let t = Instant::now();
        match activity {
            COLD => {
                cold_start(
                    &queries,
                    &mut cold_rng,
                    &mut verified,
                    &mut report,
                    (&mut setup_s, &mut cold_ms),
                )?;
            }
            TUNE => {
                let regen = regenerate(&items, pool_workers(), None);
                check_regen(&mut report, serving::SYSTEM, &regen, &expected);
                tune_s.push(regen.wall_s);
            }
            _ => {
                let order = warm_rng.order(queries.len());
                let lat = pass(&s, &order, &mut verified, &mut report);
                rates.push(lat.len() as f64 / lat.iter().sum::<f64>());
                latencies.extend(lat);
            }
        }
        shares.charge(activity, t.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("req_per_s", median(&rates), "1/s");
    report.latencies(latencies)?;
    report.metric("cold_pass_ms", median(&cold_ms), "ms");
    report.metric(
        "global_mib_per_req",
        serving::global_mib_per_req(&s.prepared),
        "MiB",
    );
    report.metric("tune_s", median(&tune_s), "s");
    report.notes.push(format!(
        "{} requests per pass, {} warm passes; largest input state {:.2} MiB vs LLC {:.0} MiB (computed bytes only, no bandwidth claim)",
        queries.len(),
        rates.len(),
        max_input_mib(&s.prepared),
        crate::llc_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64
    ));
    Ok(report)
}

/// One traced pass over the mix in `order`; returns the summed duration
/// of its root spans.
fn traced_pass(
    trace: &mut Trace,
    root: &'static str,
    s: &Serving,
    (order, pass_no): (&[usize], usize),
    verified: &mut [Option<u64>],
    report: &mut Report,
) -> f64 {
    let before = trace.spans().len();
    for (k, &i) in order.iter().enumerate() {
        let req = (pass_no * order.len() + k) as u64;
        let result = serving::traced_request(trace, root, req, s, i, &mut verified[i]);
        report.outcome(result);
    }
    trace.spans()[before..]
        .iter()
        .filter(|sp| sp.name == root)
        .map(|sp| sp.dur_ns() as f64 / 1e9)
        .sum()
}

/// Serving passes of a traced run on one fresh service: a traced cold
/// pass (every lookup misses), then untraced and traced warm passes in
/// alternation until `window` seconds are spent. Returns the traced ÷
/// untraced time of the warm passes − 1, the service's hit ratio and the
/// prepared mix.
pub fn traced_serving(
    trace: &mut Trace,
    root: &'static str,
    queries: &[Query],
    rng: &mut SplitMix,
    window: f64,
    report: &mut Report,
) -> Result<(f64, f64, Vec<Prepared>), String> {
    let s = setup(queries)?;
    let n = queries.len();
    let mut verified = vec![None; n];
    let order = rng.order(n);
    traced_pass(trace, root, &s, (&order, 0), &mut verified, report);
    let (mut untraced, mut traced, mut pairs) = (0.0, 0.0, 0);
    let start = Instant::now();
    while pairs == 0 || start.elapsed().as_secs_f64() < window {
        let order = rng.order(n);
        untraced += pass(&s, &order, &mut verified, report).iter().sum::<f64>();
        pairs += 1;
        let order = rng.order(n);
        traced += traced_pass(trace, root, &s, (&order, pairs), &mut verified, report);
    }
    let (hits, misses) = (s.service.hits() as f64, s.service.misses() as f64);
    Ok((traced / untraced - 1.0, hits / (hits + misses), s.prepared))
}

/// Tuner-layer replays of the committed entries a mix resolves to, then
/// the traced regeneration of the same entries. Returns the
/// regeneration.
pub fn traced_tuning(
    trace: &mut Trace,
    epoch: Instant,
    items: &[TuneItem],
    expected: &[Vec<Entry>],
    report: &mut Report,
) -> Regen {
    let mut req = 0;
    for (item, entries) in items.iter().zip(expected) {
        let mut tuner = Tuner::new(item.target(), TunerConfig::default());
        for e in entries {
            report.outcome(replay_point(trace, req, &mut tuner, e, item.system.name));
            req += 1;
        }
    }
    let regen = regenerate(items, pool_workers(), Some(epoch));
    check_regen(report, serving::SYSTEM, &regen, expected);
    regen
}

/// Entries of a regeneration that the DES scored.
pub fn des_points(regen: &Regen) -> usize {
    regen
        .entries
        .iter()
        .flatten()
        .filter(|e| e.model == ScoreModel::Des)
        .count()
}

pub fn run_traced(opts: &Opts, size: Size) -> Result<Report, String> {
    let queries = mix(size, opts.tiny);
    let (table, _) = load_table("lumi")?;
    let (items, expected) = mix_items(&table, &queries)?;
    let mut rng = SplitMix::new(opts.seed);
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch, 0);
    let (overhead, hit_ratio, prepared) = traced_serving(
        &mut trace,
        "request",
        &queries,
        &mut rng,
        opts.seconds / 2.0,
        &mut report,
    )?;
    let regen = traced_tuning(&mut trace, epoch, &items, &expected, &mut report);
    let (computed_mib, messages) = serving::computed_per_req(&prepared);
    let des = des_points(&regen);
    for t in regen.traces {
        trace.merge(t);
    }
    layers::report(
        &mut report,
        trace,
        &Counters {
            root: "request",
            hit_ratio,
            computed_mib,
            messages,
            des_points: des,
            overhead_share: overhead,
        },
    )?;
    Ok(report)
}
