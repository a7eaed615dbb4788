//! Multithreaded benchmark of the selection serving layer.
//!
//! Hammers a shared [`bine_tune::ServiceSelector`] with the standard query
//! mix from `available_parallelism` worker threads (override with
//! `--threads`), reports requests/sec, mean, p99 and p999 request latency, the
//! single-threaded [`bine_tune::Selector`] baseline, and the single-flight
//! compile statistics — then runs one tuned pick end to end on the shared
//! executor pool as a smoke of the full request path.
//!
//! Usage:
//! `cargo run --release -p bine-bench --bin serve_bench -- \
//!     [--threads N] [--requests N] [--repeats N] [--system NAME]`
//!
//! The same measurement is recorded into `BENCH_exec.json` by the
//! `bench_exec` bin (`select-mix/serve/...` entries), where the CI
//! `perf_gate` hard-gates it like `/compiled/` and `/sim/`.

use bine_bench::serve::{measure, ServeOptions};
use bine_exec::state::Workload;
use bine_exec::ExecutorPool;
use bine_sched::{build, Collective};
use bine_tune::ServiceSelector;

fn main() {
    let mut opts = ServeOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--threads" => opts.threads = value("--threads").parse().expect("--threads: integer"),
            "--requests" => {
                opts.requests_per_thread = value("--requests").parse().expect("--requests: integer")
            }
            "--repeats" => opts.repeats = value("--repeats").parse().expect("--repeats: integer"),
            "--system" => opts.system = value("--system"),
            other => panic!(
                "unknown argument {other}; usage: serve_bench \
                 [--threads N] [--requests N] [--repeats N] [--system NAME]"
            ),
        }
    }

    println!(
        "serving {} decision table: {} threads × {} requests × {} repeats\n",
        opts.system, opts.threads, opts.requests_per_thread, opts.repeats
    );
    let m = measure(&opts).expect("serving benchmark failed");
    println!("requests/sec          {:>14.0}", m.requests_per_sec);
    println!("aggregate ns/request  {:>14.1}", m.ns_per_req);
    println!(
        "worker ns/request     {:>14.1}  (x{} workers; the gated statistic)",
        m.worker_ns_per_req, m.threads
    );
    println!("p99 request latency   {:>14.0} ns", m.p99_ns);
    println!("p999 request latency  {:>14.0} ns", m.p999_ns);
    println!(
        "serial ns/request     {:>14.1}  (single-threaded Selector)",
        m.serial_ns_per_req
    );
    println!("speedup vs serial     {:>13.2}x", m.speedup_vs_serial);
    println!(
        "compilations          {:>14}  ({} distinct cache entries — single-flight)",
        m.compilations, m.distinct
    );

    // Full-request-path smoke: resolve + compile + execute one tuned
    // allreduce on the shared pool, verified against the direct build.
    let service = ServiceSelector::load_default().expect("committed tables");
    let pick = service
        .choose(&opts.system, Collective::Allreduce, 16, 1 << 20)
        .expect("tuned pick");
    let name = bine_tune::tuned_name(pick.algorithm, pick.segments);
    let sched = build(Collective::Allreduce, &name, 16, 0).expect("buildable pick");
    let w = Workload::for_schedule(&sched, 4);
    let finals = service
        .try_execute_on(
            ExecutorPool::global(),
            &opts.system,
            Collective::Allreduce,
            16,
            1 << 20,
            w.initial_state(&sched),
        )
        .expect("tuned pick resolves")
        .expect("execute");
    bine_exec::verify(&w, &finals).expect("tuned allreduce must verify");
    println!("\nexecute smoke: tuned pick {name} @16 ranks ran and verified on the shared pool");
}
