//! The per-layer metrics of a traced run, read off its spans. Every traced
//! workload exercises every layer, so every metric is always printed.

use crate::trace::Trace;
use crate::Report;

/// Counts a traced run measures outside the spans.
pub struct Counters {
    /// The span name of the workload's own end-to-end unit of work.
    pub root: &'static str,
    /// Service cache hits ÷ lookups over the traced serving passes.
    pub hit_ratio: f64,
    /// Mean computed MiB and network messages per executed request.
    pub computed_mib: f64,
    pub messages: f64,
    /// Regenerated entries that the DES scored.
    pub des_points: usize,
    /// Traced ÷ untraced time of the same work, minus one.
    pub overhead_share: f64,
}

/// (metric, span, scale to the metric's unit, unit)
const TIMED: [(&str, &str, f64, &str); 15] = [
    ("select.lookup_ns", "select.lookup", 1.0, "ns"),
    ("service.hit_ns", "service.hit", 1.0, "ns"),
    ("service.observe_ns", "service.observe", 1.0, "ns"),
    ("service.miss_us", "service.miss", 1e-3, "us"),
    ("sched.build_us", "sched.build", 1e-3, "us"),
    ("sched.compile_us", "sched.compile", 1e-3, "us"),
    ("exec.state_in_us", "exec.state_in", 1e-3, "us"),
    ("exec.to_dense_us", "exec.to_dense", 1e-3, "us"),
    ("exec.from_dense_us", "exec.from_dense", 1e-3, "us"),
    ("exec.pool_run_us", "exec.pool_run", 1e-3, "us"),
    ("exec.run_dense_us", "exec.run_dense", 1e-3, "us"),
    ("sim.cold_us", "sim.cold", 1e-3, "us"),
    ("sim.warm_us", "sim.warm", 1e-3, "us"),
    ("cost.sync_score_us", "cost.sync_score", 1e-3, "us"),
    ("tune.point_ms", "tune.point", 1e-6, "ms"),
];

/// Adds every per-layer metric (mean time per call of each layer) and the
/// self-time shares of the workload's root, and attaches the trace.
pub fn report(report: &mut Report, trace: Trace, c: &Counters) -> Result<(), String> {
    for (metric, span, scale, unit) in TIMED {
        let mean = trace
            .mean_ns(span)
            .ok_or_else(|| format!("the traced run never reached layer {span}"))?;
        report.metric(metric, mean * scale, unit);
    }
    let cold = trace.mean_ns("sim.cold").unwrap_or(0.0);
    let warm = trace.mean_ns("sim.warm").unwrap_or(0.0);
    report.metric("sim.static_us", (cold - warm) / 1e3, "us");
    report.metric("service.hit_ratio", c.hit_ratio, "ratio");
    report.metric("exec.computed_mib", c.computed_mib, "MiB");
    report.metric("exec.messages", c.messages, "count");
    report.metric("tune.points", trace.count("tune.point") as f64, "count");
    report.metric("tune.des_points", c.des_points as f64, "count");
    report.metric(
        "trace.unaccounted_share",
        trace.unaccounted_share(c.root),
        "ratio",
    );
    report.metric("trace.overhead_share", c.overhead_share, "ratio");
    let shares = trace.self_shares(c.root);
    let listed: Vec<String> = shares
        .iter()
        .map(|(name, share)| format!("{name} {:.1}%", share * 100.0))
        .collect();
    report.notes.push(format!(
        "self-time share of {}: {}",
        c.root,
        listed.join(", ")
    ));
    report.trace = Some(trace);
    Ok(())
}
