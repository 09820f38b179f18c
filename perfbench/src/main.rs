//! The repository benchmark: three seeded workloads over the engine's
//! layers (`wasm`, `interp`, `core`, `optc`, `machine`, `engine`, `serve`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload startup|run-long|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output reports the end-to-end
//! metrics; with `--trace 1` it reports the per-layer metrics instead, timed
//! from this benchmark's own code around calls into each layer (see
//! `perfbench/METRICS.md`). The line before it carries workload-specific
//! figures under their own names.

mod gen;
mod ledger;
mod report;
mod rng;
mod run_long;
mod serve;
mod span;
mod startup;
mod stats;

use report::Report;
use stats::{median, percentile};

use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, every workload, `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("sim_cycles_per_op", "cycles"),
];

/// Per-layer metrics, every workload, `--trace 1`. A workload that
/// bypasses a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("wasm.decode_us", "us"),
    ("wasm.validate_us", "us"),
    ("interp.prepare_us", "us"),
    ("core.spc_compile_mb_s", "MB/s"),
    ("core.tag_stores_emitted", "count"),
    ("core.machine_kb", "KB"),
    ("engine.compile_eager_speedup", "x"),
    ("engine.cache_key_us", "us"),
    ("engine.cache_lookup_us", "us"),
    ("engine.image_build_us", "us"),
    ("engine.compile_eager_us.hit", "us"),
    ("engine.compile_eager_us.miss", "us"),
    ("engine.compile_eager_2w_us.hit", "us"),
    ("engine.compile_eager_2w_us.miss", "us"),
    ("engine.instantiate_us.hit", "us"),
    ("engine.instantiate_us.miss", "us"),
    ("engine.instantiate_residual_us.hit", "us"),
    ("engine.instantiate_residual_us.miss", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_entries", "count"),
    ("engine.cache_resident_kb", "KB"),
    ("engine.tiered_up_functions", "count"),
    ("engine.setup_share", "ratio"),
    ("engine.pool_checkout_us.warm", "us"),
    ("engine.pool_warm_ratio", "ratio"),
    ("machine.entry_call_us", "us"),
    ("machine.spc_ns_per_cycle", "ns/cycle"),
    ("machine.tiered_ns_per_cycle", "ns/cycle"),
    ("machine.serve_ns_per_cycle", "ns/cycle"),
    ("optc.compile_ms", "ms"),
    ("optc.cycle_share", "ratio"),
    ("serve.batch_overhead_us", "us"),
    ("serve.service_us", "us"),
    ("bench.load_self_us", "us"),
    ("ledger.samples", "count"),
    ("trace.overhead_pct", "%"),
];

/// Times each workload's set-up takes place; `setup_s` is their median.
const SETUPS: usize = 9;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs `set_up` `SETUPS` times, keeping the last system and the median
/// time one set-up took.
pub fn repeat_setup<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(set_up());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Throughput and latency of one block of consecutive operations.
pub struct Block {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Block {
    /// A block of a closed loop: each operation's latency, and the time
    /// the loop spent waiting on the block (the latencies' sum unless
    /// operations share a wait).
    pub fn new(latency_us: &[f64], busy_us: f64) -> Block {
        Block {
            ops_per_s: latency_us.len() as f64 / (busy_us / 1e6),
            p50_us: median(latency_us),
            p99_us: percentile(latency_us, 99.0),
        }
    }
}

/// The end-to-end metrics of a closed loop: the median over blocks of each
/// block's throughput and latency percentiles, so that a burst of outside
/// load on the host that spans fewer than half the blocks does not move
/// them.
pub fn end_to_end(report: &mut Report, setup_s: f64, blocks: &[Block], cycles_per_op: f64) {
    let med = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    report.metric("ops_per_s", med(&|b| b.ops_per_s), "1/s");
    report.metric("latency_ms_p50", med(&|b| b.p50_us) / 1e3, "ms");
    report.metric("latency_ms_p99", med(&|b| b.p99_us) / 1e3, "ms");
    report.metric("sim_cycles_per_op", cycles_per_op, "cycles");
}

/// Checks that a p99 over `samples` latencies has at least 10 beyond it.
pub fn check_p99(report: &mut Report, what: &str, samples: usize) {
    let beyond = stats::beyond_p99(samples);
    report.check(beyond >= 10, || {
        format!("{what} p99 over {samples} samples has {beyond} beyond it")
    });
}

/// `trace.overhead_pct`: median operation latency with spans recorded over
/// the median without, interleaved in one run.
pub fn overhead(report: &mut Report, untraced_us: &[f64], traced_us: &[f64]) {
    report.metric(
        "trace.overhead_pct",
        (median(traced_us) / median(untraced_us) - 1.0) * 100.0,
        "%",
    );
}

/// Orders the reported metrics as the list for this mode names them,
/// filling bypassed layers with 0, and flags any metric outside the list.
fn finish(report: &mut Report, trace: bool) {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut ordered = Report::default();
    for (name, unit) in list {
        ordered.metric(name, report.value(name).unwrap_or(0.0), unit);
    }
    let extra = report
        .names()
        .filter(|n| !list.iter().any(|(l, _)| l == n))
        .map(str::to_string)
        .collect::<Vec<_>>();
    for name in extra {
        report.error(format!("metric {name} is not in the benchmark's list"));
    }
    report.replace_metrics(ordered);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "startup" => startup::run(&args, &mut report),
        "run-long" => run_long::run(&args, &mut report),
        "serve" => serve::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (startup, run-long, serve)");
            return ExitCode::from(2);
        }
    }
    finish(&mut report, args.trace);
    for e in &report.errors {
        eprintln!("perfbench: incorrect: {e}");
    }
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
