//! `serve`: a closed loop on the main thread sends batches of four requests
//! to a one-worker `serve::Server` and sends the next batch when the last
//! returns. Requests are a seeded Zipf draw over the test-scale suite apps,
//! plus a trapping app and a runaway loop under a wall-clock deadline.

use crate::gen::{
    interpreter_outcome, runaway_app, suite_items, trapping_app, Outcome, PlannedRequest,
    RequestKind, RequestStream, ENTRY, RUNAWAY_SHARE, TRAP_SHARE,
};
use crate::ledger;
use crate::report::Report;
use crate::span::SpanLog;
use crate::stats::median;
use crate::{Args, Block};
use engine::{EngineConfig, TrapReason};
use serve::{Request, RequestResult, RequestStatus, Server, ServerConfig};
use spc::CompilerOptions;
use std::time::{Duration, Instant};
use suites::Scale;

const BATCH: usize = 4;
/// Batches per block: 1024 request latencies, so each block's p99 has ten
/// samples beyond it.
const BLOCK: usize = 256;
/// One worker: with two, every batch waits for both of a 2-vCPU host's
/// cores, and its latency follows whatever else the host runs (same seeds,
/// same minutes: throughput spread 0.16 and p99 spread 0.4 at two workers,
/// 0.09 and 0.1 at one).
const WORKERS: usize = 1;
/// The runaway app's wall-clock budget, two epoch ticks.
const RUNAWAY_DEADLINE: Duration = Duration::from_millis(2);

pub fn config() -> EngineConfig {
    // Metering arms the loop-head checks that epoch deadlines need.
    EngineConfig::baseline("serve-spc", CompilerOptions::allopt()).with_metering()
}

struct System {
    server: Server,
    /// Module bytes per app, in app-index order.
    apps: Vec<Vec<u8>>,
}

fn set_up() -> System {
    let mut modules: Vec<wasm::Module> = suite_items(Scale::Test)
        .into_iter()
        .map(|i| i.module)
        .collect();
    modules.push(trapping_app());
    modules.push(runaway_app());
    let apps: Vec<Vec<u8>> = modules.iter().map(wasm::encode::encode).collect();
    let server_config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let mut server = Server::new(server_config, config());
    for (i, bytes) in apps.iter().enumerate() {
        let module = wasm::decode::decode(bytes).expect("apps decode");
        server
            .register_app(&format!("app{i}"), ENTRY, module)
            .expect("apps register");
    }
    // Warm every pool: two requests per terminating app.
    let warm: Vec<Request> = (0..apps.len() - 1)
        .flat_map(|a| [Request::to_app(a), Request::to_app(a)])
        .collect();
    server.run(warm);
    System { server, apps }
}

fn request(planned: &PlannedRequest) -> Request {
    let r = Request::to_app(planned.app);
    match planned.kind {
        RequestKind::Runaway => r.with_deadline(RUNAWAY_DEADLINE),
        _ => r,
    }
}

fn outcome(status: &RequestStatus) -> Option<Outcome> {
    match status {
        RequestStatus::Ok(values) => Some(Outcome::Returned(values.clone())),
        _ => None,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let (sys, setup_s) = crate::repeat_setup(set_up);
    let suite_apps = sys.apps.len() - 2;
    let trap_app = suite_apps;
    // References from the interpreter, and each terminating app's simulated
    // cycles from one served request.
    let expected: Vec<Outcome> = sys.apps[..=trap_app]
        .iter()
        .map(|b| interpreter_outcome(b))
        .collect();
    let probe = sys
        .server
        .run((0..=trap_app).map(Request::to_app).collect());
    let app_cycles: Vec<u64> = probe.iter().map(|r| r.exec_cycles).collect();
    let mut stream = RequestStream::new(args.seed, suite_apps);

    let mut log = SpanLog::new(false);
    let mut batch_us: Vec<f64> = Vec::new();
    let mut traced_batch: Vec<bool> = Vec::new();
    let mut overhead_us: Vec<f64> = Vec::new();
    let mut served: Vec<RequestResult> = Vec::new();
    let (mut planned_traps, mut planned_runaways, mut traps, mut interrupts) =
        (0u64, 0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut batch = 0u64;
    while Instant::now() < deadline {
        let plan: Vec<PlannedRequest> = (0..BATCH).map(|_| stream.next()).collect();
        let requests: Vec<Request> = plan.iter().map(request).collect();
        let trace = args.trace && batch % 2 == 1;
        log.set_enabled(trace);
        let start = Instant::now();
        let span = log.enter("batch", batch, None);
        let results = sys.server.run(requests);
        log.exit(span);
        let wall_us = us(start.elapsed());
        batch += 1;
        if trace {
            overhead_us.push(batch_overhead_us(wall_us, &results));
        }
        for (p, r) in plan.iter().zip(&results) {
            report.attempted += 1;
            let ok = match (p.kind, &r.status) {
                (RequestKind::Runaway, RequestStatus::Trapped(TrapReason::Interrupted)) => {
                    interrupts += 1;
                    true
                }
                (RequestKind::Trap, RequestStatus::Trapped(reason)) => {
                    traps += 1;
                    matches!(&expected[p.app], Outcome::Trapped(code) if TrapReason::from(*code) == *reason)
                        && r.exec_cycles == app_cycles[p.app]
                }
                (RequestKind::Suite, status) => {
                    outcome(status).as_ref() == Some(&expected[p.app])
                        && r.exec_cycles == app_cycles[p.app]
                }
                _ => false,
            };
            planned_traps += (p.kind == RequestKind::Trap) as u64;
            planned_runaways += (p.kind == RequestKind::Runaway) as u64;
            if !ok {
                report.failed += 1;
                report.error(format!(
                    "request to app {} ({:?}) ended {:?}",
                    p.app, p.kind, r.status
                ));
            }
        }
        for _ in 0..BATCH {
            batch_us.push(wall_us);
            traced_batch.push(trace);
        }
        served.extend(results);
    }

    report.check(traps == planned_traps, || {
        format!("{traps} trapped requests, planned {planned_traps}")
    });
    report.check(interrupts == planned_runaways, || {
        format!("{interrupts} interrupted requests, planned {planned_runaways}")
    });
    let n = served.len() as f64;
    let blocks: Vec<Block> = crate::stats::blocks(&batch_us, BLOCK * BATCH)
        .iter()
        .map(|b| {
            crate::check_p99(report, "request", b.len());
            Block::new(b, b.iter().sum::<f64>() / BATCH as f64)
        })
        .collect();
    let med = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    // Mean simulated cycles per terminating request under the planned mix:
    // deterministic, since each app's cycles are.
    let weights: Vec<f64> = (0..suite_apps)
        .map(|a| stream.suite_probability(a))
        .chain([TRAP_SHARE])
        .collect();
    let cycles_per_op = weights
        .iter()
        .zip(&app_cycles)
        .map(|(w, &c)| w * c as f64)
        .sum::<f64>()
        / (1.0 - RUNAWAY_SHARE);
    report.detail("requests", served.len());
    report.detail("trap_share", planned_traps as f64 / n);
    report.detail("deadline_share", planned_runaways as f64 / n);
    report.detail("req_per_s", med(&|b| b.ops_per_s));
    report.detail("latency_ms_p50", med(&|b| b.p50_us) / 1e3);
    report.detail("latency_ms_p99", med(&|b| b.p99_us) / 1e3);
    report.detail(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );

    if !args.trace {
        crate::end_to_end(report, setup_s, &blocks, cycles_per_op);
        return;
    }
    let pick = |t: bool| -> Vec<f64> {
        batch_us
            .iter()
            .zip(&traced_batch)
            .filter(|(_, &x)| x == t)
            .map(|(b, _)| *b)
            .collect()
    };
    crate::overhead(report, &pick(false), &pick(true));
    let modules: Vec<&[u8]> = sys.apps[..=trap_app].iter().map(|b| b.as_slice()).collect();
    ledger::metrics(&ledger::replay_both(&modules, &config()), report);
    let runaway = trap_app + 1;
    let exec_us: Vec<f64> = served
        .iter()
        .filter(|r| r.app != runaway)
        .map(|r| us(r.service_wall - r.instantiate_wall))
        .collect();
    report.metric("machine.entry_call_us", median(&exec_us), "us");
    layer_metrics(&served, &overhead_us, Some(runaway), report);
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Batch self time: the batch wall minus what its busiest worker spent
/// serving.
fn batch_overhead_us(wall_us: f64, results: &[RequestResult]) -> f64 {
    let mut busy = [0.0f64; WORKERS];
    for r in results {
        busy[r.worker] += us(r.service_wall);
    }
    wall_us - busy.iter().cloned().fold(0.0, f64::max)
}

/// The serve layer's per-layer metrics. Requests to `runaway` end only at
/// their deadline and are left out of the execution figures.
fn layer_metrics(
    served: &[RequestResult],
    overhead_us: &[f64],
    runaway: Option<usize>,
    report: &mut Report,
) {
    let terminating: Vec<&RequestResult> =
        served.iter().filter(|r| Some(r.app) != runaway).collect();
    let exec_ns: f64 = terminating
        .iter()
        .map(|r| us(r.service_wall - r.instantiate_wall) * 1e3)
        .sum();
    let cycles: u64 = terminating.iter().map(|r| r.exec_cycles).sum();
    let warm: Vec<f64> = served
        .iter()
        .filter(|r| r.warm)
        .map(|r| us(r.instantiate_wall))
        .collect();
    report.metric(
        "machine.serve_ns_per_cycle",
        exec_ns / cycles.max(1) as f64,
        "ns/cycle",
    );
    report.metric("serve.batch_overhead_us", median(overhead_us), "us");
    report.metric(
        "serve.service_us",
        median(
            &terminating
                .iter()
                .map(|r| us(r.service_wall))
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    report.metric("engine.pool_checkout_us.warm", median(&warm), "us");
    report.metric(
        "engine.pool_warm_ratio",
        warm.len() as f64 / served.len().max(1) as f64,
        "ratio",
    );
}

/// Batches the serve-layer probe sends.
const PROBE_BATCHES: usize = 256;

/// The serve layer measured on another workload's modules: each becomes an
/// app of a server like this workload's, whose pools are warmed, and which
/// then serves `PROBE_BATCHES` seeded batches of `BATCH` requests. Every
/// result is checked against `expected`.
pub fn probe(
    modules: &[(&[u8], Outcome)],
    engine_config: EngineConfig,
    seed: u64,
    report: &mut Report,
) {
    let mut server = Server::new(
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
        engine_config,
    );
    for (i, (bytes, _)) in modules.iter().enumerate() {
        let module = wasm::decode::decode(bytes).expect("probe modules decode");
        server
            .register_app(&format!("app{i}"), ENTRY, module)
            .expect("probe modules register");
    }
    server.run(
        (0..modules.len())
            .flat_map(|a| [Request::to_app(a), Request::to_app(a)])
            .collect(),
    );
    let mut rng = crate::rng::Rng::stream(seed, 4);
    let mut served = Vec::new();
    let mut overhead_us = Vec::new();
    for _ in 0..PROBE_BATCHES {
        let apps: Vec<usize> = (0..BATCH).map(|_| rng.below(modules.len())).collect();
        let start = Instant::now();
        let results = server.run(apps.iter().map(|&a| Request::to_app(a)).collect());
        overhead_us.push(batch_overhead_us(us(start.elapsed()), &results));
        for r in &results {
            report.check(
                outcome(&r.status).as_ref() == Some(&modules[r.app].1),
                || format!("probe request to app {} ended {:?}", r.app, r.status),
            );
        }
        served.extend(results);
    }
    layer_metrics(&served, &overhead_us, None, report);
}
