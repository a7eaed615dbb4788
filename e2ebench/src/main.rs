//! End-to-end and per-layer benchmark of the Bine stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload service-hot --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! same inputs as spans around each layer's public calls, prints the
//! per-layer metrics and writes the spans as Chrome trace-event JSON under
//! `e2ebench/traces/`. The last line of standard output is the result
//! object; the exit code is non-zero when any output was wrong. See
//! `e2ebench/README.md` for the workloads and the metric map.

mod exec;
mod hot;
mod layers;
mod serving;
mod stats;
mod trace;
mod tune;
mod tune_small;

use std::fmt::Write as _;
use std::process::ExitCode;

use trace::Trace;

/// Every workload, by name.
pub const WORKLOADS: [&str; 4] = ["exec-small", "exec-large", "service-hot", "tune-small"];

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Fixes the shuffled order of whole passes, nothing else.
    pub seed: u64,
    /// Measurement window of the untraced run.
    pub seconds: f64,
    /// Shrinks every mix to its smallest node count and sizes (the
    /// benchmark's own smoke tests).
    pub tiny: bool,
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (sample counts, deeper percentiles,
    /// working set, self-time shares).
    pub notes: Vec<String>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub trace: Option<Trace>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked operation, recording why it failed.
    pub fn outcome(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// p50 and p99 of per-request latencies (seconds in, µs out), with the
    /// sample count and the deepest percentile that keeps ten samples
    /// beyond it.
    pub fn latencies(&mut self, mut secs: Vec<f64>) -> Result<(), String> {
        secs.sort_by(f64::total_cmp);
        let deepest = stats::tail_percentile(secs.len()).unwrap_or(0.0);
        if deepest < 99.0 {
            return Err(format!(
                "{} latency samples: the p99 needs {} for ten beyond it",
                secs.len(),
                stats::MIN_TAIL_SAMPLES
            ));
        }
        let us = |q| stats::percentile(&secs, q) * 1e6;
        self.metric("p50_us", us(50.0), "us");
        self.metric("p99_us", us(99.0), "us");
        self.notes.push(format!(
            "latency samples {}; deepest percentile with ten beyond: p{deepest} = {:.3} us",
            secs.len(),
            us(deepest)
        ));
        Ok(())
    }
}

/// Host facts printed with every result: the thread-dependent numbers mean
/// nothing without them.
fn host_line(pool_workers: usize) -> String {
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    let nproc = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|s| count_cpus(s.trim()))
        .unwrap_or(available);
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "host {{\"nproc\": {nproc}, \"available_parallelism\": {available}, \"pool_workers\": {pool_workers}, \"rustc\": \"{}\", \"llc_bytes\": {}, \"git_commit\": \"{}\"}}",
        command("rustc", &["--version"]),
        llc_bytes().unwrap_or(0),
        command("git", &["rev-parse", "HEAD"]),
    )
}

/// Counts the CPUs in a sysfs range list such as `0-3,8`.
fn count_cpus(list: &str) -> Option<usize> {
    list.split(',').try_fold(0, |acc, part| {
        Some(
            acc + match part.split_once('-') {
                Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
                None => part.parse::<usize>().map(|_| 1).ok()?,
            },
        )
    })
}

/// Size of the last-level cache of CPU 0, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size, 1),
            },
        };
        let bytes = digits.parse::<u64>().ok()? * scale;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Runs one workload in the requested mode.
pub fn run(workload: &str, traced: bool, opts: &Opts) -> Result<Report, String> {
    match (workload, traced) {
        ("exec-small", false) => exec::run(opts, exec::Size::Small),
        ("exec-large", false) => exec::run(opts, exec::Size::Large),
        ("exec-small", true) => exec::run_traced(opts, exec::Size::Small),
        ("exec-large", true) => exec::run_traced(opts, exec::Size::Large),
        ("service-hot", false) => hot::run(opts),
        ("service-hot", true) => hot::run_traced(opts),
        ("tune-small", false) => tune_small::run(opts),
        ("tune-small", true) => tune_small::run_traced(opts),
        _ => Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// The result object: the last line of standard output.
fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            finite(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    )
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1, 20.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => traced = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        tiny: false,
    };
    let report = match run(&args.workload, args.traced, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("{}", host_line(serving::pool_workers()));
    for note in &report.notes {
        println!("note {note}");
    }
    for m in &report.metrics {
        println!("metric {:<26} {:>16} {}", m.name, finite(m.value), m.unit);
    }
    for e in &report.errors {
        eprintln!("failure: {e}");
    }
    if let Some(trace) = &report.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, trace.to_chrome_json()))
        {
            Ok(()) => println!("note trace written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let body = &text[text.find(&format!("\"{section}\"")).expect("section")..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |obj: &str, key: &str| {
            let key = format!("\"{key}\": \"");
            let at = obj.find(&key).expect("field") + key.len();
            obj[at..].split('"').next().expect("value").to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    /// A tiny run of `workload` in both modes prints exactly the declared
    /// metrics with their units, and nothing fails.
    fn smoke(workload: &str) {
        let opts = Opts {
            seed: 3,
            seconds: 0.0,
            tiny: true,
        };
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(workload, traced, &opts).expect(workload);
            assert_eq!(r.failed, 0, "{workload}: {:?}", r.errors);
            assert!(r.attempted > 0);
            let mut got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let mut want = declared(section);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} traced={traced}");
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        }
    }

    #[test]
    fn smoke_exec_small() {
        smoke("exec-small");
    }

    #[test]
    fn smoke_exec_large() {
        smoke("exec-large");
    }

    #[test]
    fn smoke_service_hot() {
        smoke("service-hot");
    }

    #[test]
    fn smoke_tune_small() {
        smoke("tune-small");
    }

    #[test]
    fn cpu_lists_and_result_line() {
        assert_eq!(count_cpus("0-1"), Some(2));
        assert_eq!(count_cpus("0-3,8,10-11"), Some(7));
        assert_eq!(count_cpus("x"), None);
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.outcome(Ok(()));
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
