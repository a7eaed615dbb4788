//! `service-hot`: a warm `ServiceSelector` with adaptation enabled, under
//! two closed-loop client threads over `serve.rs`'s 64-query mix. Each
//! thread issues 7 reads (`choose_at` + a `compiled_at` hit) per write
//! (`observe_at` with the entry's committed modelled time, so no
//! re-evaluation ever fires). Nothing executes.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bine_net::feedback::ObservedTiming;
use bine_tune::{AdaptPolicy, Reevaluator, Selector, ServiceSelector, Tuned};

use crate::exec::{des_points, traced_serving, traced_tuning};
use crate::layers::{self, Counters};
use crate::serving::{self, grid_entry, load_service, load_table, pool_workers, prepare, Query};
use crate::stats::{median, Shares, SplitMix, MIN_TAIL_SAMPLES};
use crate::trace::Trace;
use crate::tune::{check_regen, mix_items, regenerate};
use crate::{Opts, Report};

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Reads per write.
pub const READS_PER_WRITE: usize = 7;
/// Passes over the mix each thread makes per timed round.
const ROUND_PASSES: usize = 64;
/// Passes per thread of the traced round: three spans per operation, so
/// this keeps the exported trace to a few megabytes.
const TRACED_PASSES: usize = 8;
/// Every `SAMPLE_STRIDE`-th operation is individually timed; the stride is
/// coprime with the 8-operation read/write cycle so every position in it
/// is sampled.
const SAMPLE_STRIDE: usize = 13;
/// Time shares of a run's window: a fresh set-up with its cold pass, a
/// regeneration of the mix's grid entries, a warm round.
const SHARES: [f64; 3] = [0.2, 0.3, 0.5];
const COLD: usize = 0;
const TUNE: usize = 1;
/// Fewest set-ups (each with a cold pass) and regenerations per run; a full
/// window makes hundreds and about twenty.
const MIN_SETUPS: usize = 15;
const MIN_TUNES: usize = 5;

/// The mix of `bine_bench::serve`: four collectives × {8, 16, 32, 64}
/// nodes × {64 B, 8 KiB, 1 MiB, 16 MiB}.
pub fn mix(tiny: bool) -> Vec<Query> {
    let all = bine_bench::serve::queries();
    let keep = if tiny { 8 } else { all.len() };
    all.into_iter()
        .take(keep)
        .map(|(collective, nodes, bytes)| Query {
            collective,
            nodes,
            bytes,
        })
        .collect()
}

/// One request of the mix with its expected answer.
struct Hot {
    q: Query,
    /// The serial `Selector::choose` pick.
    algorithm: String,
    segments: usize,
    /// Committed modelled time of the entry the query floors to.
    modelled_us: f64,
}

impl Hot {
    fn is(&self, t: Tuned<'_>) -> bool {
        t.algorithm == self.algorithm && t.segments == self.segments
    }
}

/// A service with adaptation enabled whose re-evaluator can never find a
/// challenger: a re-evaluation that fires shows up in `reevals()`.
fn fresh_service() -> Result<(ServiceSelector, usize), String> {
    let (service, sys) = load_service()?;
    let never = Reevaluator::new(Arc::new(|_, _, _| Vec::new()), Arc::new(|_, _, _, _| None));
    Ok((service.with_adaptation(AdaptPolicy::default(), never), sys))
}

fn expected(queries: &[Query]) -> Result<Vec<Hot>, String> {
    let (table, _) = load_table("lumi")?;
    let serial = Selector::from_table(&table);
    queries
        .iter()
        .map(|&q| {
            let t = serial
                .choose(q.collective, q.nodes, q.bytes)
                .ok_or_else(|| format!("serial selector has no pick for {q:?}"))?;
            let e = grid_entry(&table, q).ok_or_else(|| format!("no grid entry for {q:?}"))?;
            Ok(Hot {
                q,
                algorithm: t.algorithm.to_string(),
                segments: t.segments,
                modelled_us: e.time_us,
            })
        })
        .collect()
}

/// Per-thread result of one round.
#[derive(Default)]
struct Round {
    begin_ns: u64,
    end_ns: u64,
    ops: u64,
    wrong: u64,
    samples: Vec<u32>,
}

/// One operation: a read (pick checked against the serial selector) or a
/// write. Returns whether the read's answer was right.
fn op(service: &ServiceSelector, sys: usize, h: &Hot, write: bool) -> bool {
    let q = h.q;
    if write {
        let timing = ObservedTiming::execution(h.modelled_us);
        service.observe_at(sys, q.collective, q.nodes, q.bytes, timing);
        return true;
    }
    let right = service
        .choose_at(sys, q.collective, q.nodes, q.bytes)
        .is_some_and(|t| h.is(t));
    right
        & service
            .compiled_at(sys, q.collective, q.nodes, q.bytes)
            .is_some()
}

/// Runs one round on `CLIENTS` threads: each thread makes `passes` passes
/// over its own shuffled order of the mix. With a trace per thread, each
/// operation is a `request` span over its layer calls.
fn round(
    service: &ServiceSelector,
    sys: usize,
    hot: &[Hot],
    orders: &[Vec<usize>],
    passes: usize,
    traces: Option<&mut [Trace]>,
) -> Vec<Round> {
    let barrier = Barrier::new(CLIENTS);
    let epoch = Instant::now();
    let out = Mutex::new(Vec::new());
    let mut traces: Vec<Option<&mut Trace>> = match traces {
        Some(t) => t.iter_mut().map(Some).collect(),
        None => (0..CLIENTS).map(|_| None).collect(),
    };
    std::thread::scope(|scope| {
        for (t, trace) in traces.iter_mut().enumerate() {
            let (barrier, out, order) = (&barrier, &out, &orders[t]);
            scope.spawn(move || {
                let mut r = Round::default();
                barrier.wait();
                r.begin_ns = epoch.elapsed().as_nanos() as u64;
                let mut n = 0usize;
                for _ in 0..passes {
                    for &i in order {
                        for k in 0..=READS_PER_WRITE {
                            let write = k == READS_PER_WRITE;
                            let right = match trace.as_deref_mut() {
                                Some(tr) => traced_op(tr, n as u64, service, sys, &hot[i], write),
                                None if n.is_multiple_of(SAMPLE_STRIDE) => {
                                    let start = Instant::now();
                                    let right = op(service, sys, &hot[i], write);
                                    r.samples.push(start.elapsed().as_nanos() as u32);
                                    right
                                }
                                None => op(service, sys, &hot[i], write),
                            };
                            r.wrong += u64::from(!right);
                            n += 1;
                        }
                    }
                }
                r.end_ns = epoch.elapsed().as_nanos() as u64;
                r.ops = n as u64;
                out.lock().expect("round results").push(r);
            });
        }
    });
    out.into_inner().expect("round results")
}

fn traced_op(
    tr: &mut Trace,
    req: u64,
    service: &ServiceSelector,
    sys: usize,
    h: &Hot,
    write: bool,
) -> bool {
    let q = h.q;
    let id = tr.open("request", None, req);
    let root = Some(id);
    let right = if write {
        let timing = ObservedTiming::execution(h.modelled_us);
        tr.span("service.observe", root, req, || {
            service.observe_at(sys, q.collective, q.nodes, q.bytes, timing)
        });
        true
    } else {
        let right = tr.span("select.lookup", root, req, || {
            service
                .choose_at(sys, q.collective, q.nodes, q.bytes)
                .is_some_and(|t| h.is(t))
        });
        let compiled = tr.span("service.hit", root, req, || {
            service.compiled_at(sys, q.collective, q.nodes, q.bytes)
        });
        right && compiled.is_some()
    };
    tr.close(id);
    right
}

/// Wall time of a round: first thread start to last thread end.
fn wall_s(rounds: &[Round]) -> f64 {
    let begin = rounds.iter().map(|r| r.begin_ns).min().unwrap_or(0);
    let end = rounds.iter().map(|r| r.end_ns).max().unwrap_or(0);
    end.saturating_sub(begin).max(1) as f64 / 1e9
}

fn orders(rng: &mut SplitMix, n: usize) -> Vec<Vec<usize>> {
    (0..CLIENTS).map(|_| rng.order(n)).collect()
}

/// Counts the round's operations and wrong answers.
fn tally(report: &mut Report, rounds: &[Round]) {
    for r in rounds {
        report.attempted += r.ops;
        report.failed += r.wrong;
        if r.wrong > 0 && report.errors.len() < 8 {
            report.errors.push(format!(
                "{} reads disagreed with the serial selector",
                r.wrong
            ));
        }
    }
}

/// The service never re-evaluated or overrode anything.
fn check_quiet(report: &mut Report, service: &ServiceSelector) {
    let (reevals, overrides) = (service.reevals(), service.overrides());
    report.outcome(if reevals == 0 && overrides == 0 {
        Ok(())
    } else {
        Err(format!(
            "{reevals} re-evaluations, {overrides} overrides fired"
        ))
    });
}

/// A pass of reads over the mix in `order`, each checked against the
/// serial selector. On a fresh service every read misses and builds and
/// compiles its pick.
fn read_pass(
    service: &ServiceSelector,
    sys: usize,
    hot: &[Hot],
    order: &[usize],
    report: &mut Report,
) {
    for &i in order {
        let right = op(service, sys, &hot[i], false);
        report.outcome(if right {
            Ok(())
        } else {
            Err(format!("cold read of {:?} disagreed", hot[i].q))
        });
    }
}

/// A fresh service and its cold pass of reads in a seeded order: one
/// `setup_s` and one `cold_pass_ms` sample.
fn cold_start(
    hot: &[Hot],
    rng: &mut SplitMix,
    report: &mut Report,
    setup_s: &mut Vec<f64>,
    cold_ms: &mut Vec<f64>,
) -> Result<(ServiceSelector, usize), String> {
    let start = Instant::now();
    let (service, sys) = fresh_service()?;
    setup_s.push(start.elapsed().as_secs_f64());
    let order = rng.order(hot.len());
    let start = Instant::now();
    read_pass(&service, sys, hot, &order, report);
    cold_ms.push(start.elapsed().as_secs_f64() * 1e3);
    Ok((service, sys))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let queries = mix(opts.tiny);
    let hot = expected(&queries)?;
    let (table, _) = load_table("lumi")?;
    let (items, want) = mix_items(&table, &queries)?;
    // One stream per activity, so the seed fixes every pass order however
    // the activities interleave.
    let (mut cold_rng, mut warm_rng) = (SplitMix::new(opts.seed), SplitMix::new(!opts.seed));
    let mut report = Report::default();
    let (mut setup_s, mut cold_ms, mut tune_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut samples) = (Vec::new(), Vec::new());
    let mut shares = Shares::new(&SHARES);
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    // The first fresh service stays up for the warm rounds.
    let (service, sys) = cold_start(&hot, &mut cold_rng, &mut report, &mut setup_s, &mut cold_ms)?;
    shares.charge(COLD, start.elapsed().as_secs_f64());
    loop {
        let unmet = [
            cold_ms.len() < MIN_SETUPS,
            tune_s.len() < MIN_TUNES,
            rates.len() < 2 || samples.len() < MIN_TAIL_SAMPLES,
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
                cold_start(&hot, &mut cold_rng, &mut report, &mut setup_s, &mut cold_ms)?;
            }
            TUNE => {
                let regen = regenerate(&items, pool_workers(), None);
                check_regen(&mut report, serving::SYSTEM, &regen, &want);
                tune_s.push(regen.wall_s);
            }
            _ => {
                let orders = orders(&mut warm_rng, hot.len());
                let rounds = round(&service, sys, &hot, &orders, ROUND_PASSES, None);
                tally(&mut report, &rounds);
                let ops: u64 = rounds.iter().map(|r| r.ops).sum();
                rates.push(ops as f64 / wall_s(&rounds));
                samples.extend(
                    rounds
                        .iter()
                        .flat_map(|r| r.samples.iter().map(|&ns| ns as f64 / 1e9)),
                );
            }
        }
        shares.charge(activity, t.elapsed().as_secs_f64());
    }
    check_quiet(&mut report, &service);
    let prepared = queries
        .iter()
        .map(|&q| prepare(&service, sys, q))
        .collect::<Result<Vec<_>, _>>()?;
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("req_per_s", median(&rates), "1/s");
    report.latencies(samples)?;
    report.metric("cold_pass_ms", median(&cold_ms), "ms");
    report.metric(
        "global_mib_per_req",
        serving::global_mib_per_req(&prepared),
        "MiB",
    );
    report.metric("tune_s", median(&tune_s), "s");
    report.notes.push(format!(
        "{CLIENTS} client threads, {} rounds of {ROUND_PASSES} passes; every {SAMPLE_STRIDE}th operation timed; {} set-ups with cold passes and {} regenerations interleaved with the rounds",
        rates.len(),
        cold_ms.len(),
        tune_s.len()
    ));
    Ok(report)
}

/// Requests of the mix capped at 64 KiB, for the execution replay of the
/// traced run (checking a 16 MiB allreduce over 64 ranks takes seconds).
fn capped(queries: &[Query]) -> Vec<Query> {
    queries
        .iter()
        .map(|&q| Query {
            bytes: q.bytes.min(64 << 10),
            ..q
        })
        .collect()
}

pub fn run_traced(opts: &Opts) -> Result<Report, String> {
    let queries = mix(opts.tiny);
    let hot = expected(&queries)?;
    let (table, _) = load_table("lumi")?;
    let (items, want) = mix_items(&table, &queries)?;
    let mut rng = SplitMix::new(opts.seed);
    let mut report = Report::default();
    let epoch = Instant::now();

    let (service, sys) = fresh_service()?;
    read_pass(&service, sys, &hot, &rng.order(hot.len()), &mut report);
    let untraced = round(
        &service,
        sys,
        &hot,
        &orders(&mut rng, hot.len()),
        ROUND_PASSES,
        None,
    );
    tally(&mut report, &untraced);
    let mut traces: Vec<Trace> = (0..CLIENTS).map(|t| Trace::new(epoch, t as u32)).collect();
    let traced = round(
        &service,
        sys,
        &hot,
        &orders(&mut rng, hot.len()),
        TRACED_PASSES,
        Some(&mut traces),
    );
    tally(&mut report, &traced);
    check_quiet(&mut report, &service);
    let per_op = |r: &[Round]| wall_s(r) / r.iter().map(|x| x.ops).sum::<u64>() as f64;
    let overhead = per_op(&traced) / per_op(&untraced) - 1.0;
    let (hits, misses) = (service.hits() as f64, service.misses() as f64);

    let mut trace = Trace::new(epoch, CLIENTS as u32);
    let (_, _, prepared) = traced_serving(
        &mut trace,
        "serve.replay",
        &capped(&queries),
        &mut rng,
        0.0,
        &mut report,
    )?;
    let regen = traced_tuning(&mut trace, epoch, &items, &want, &mut report);
    let (computed_mib, messages) = serving::computed_per_req(&prepared);
    let des = des_points(&regen);
    for t in traces.into_iter().chain(regen.traces) {
        trace.merge(t);
    }
    layers::report(
        &mut report,
        trace,
        &Counters {
            root: "request",
            hit_ratio: hits / (hits + misses),
            computed_mib,
            messages,
            des_points: des,
            overhead_share: overhead,
        },
    )?;
    Ok(report)
}
