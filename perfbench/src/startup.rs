//! `startup`: one long-lived baseline engine loads one module at a time in a
//! closed loop — bytes, decode, instantiate, call an entry that returns at
//! once — mostly repeats served from its code cache, the rest fresh builds.
//!
//! The stream runs in epochs of `EPOCH_CHUNKS` chunks. Each epoch starts a
//! new seeded stream and empties the cache, so the cache, and the process's
//! memory, stop growing with the number of loads a run manages.

use crate::gen::{interpreter_outcome, suite_items, Outcome, StartupStream, CHUNK, ENTRY};
use crate::ledger::{self, Replay};
use crate::report::Report;
use crate::span::SpanLog;
use crate::stats::{mean, median};
use crate::{Args, Block};
use engine::{CodeCache, CompiledModule, Engine, EngineConfig, Imports, Instrumentation};
use spc::CompilerOptions;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suites::Scale;
use wasm::Module;

/// Chunks per epoch: 4096 loads, about 1000 distinct modules.
const EPOCH_CHUNKS: usize = 16;
/// In a traced run, every `SAMPLE_EVERY`-th traced load is replayed
/// through the ledger after the timed window, up to `MAX_SAMPLES` loads.
const SAMPLE_EVERY: usize = 8;
const MAX_SAMPLES: usize = 400;

/// One compile worker: `compile_eager` at two workers spawns its threads on
/// every instantiation, hits included, which makes every load's latency
/// depend on how busy the host's other core is. The ledger still measures
/// the two-worker path (`engine.compile_eager_2w_us.*`).
pub fn config() -> EngineConfig {
    EngineConfig::baseline("startup-spc", CompilerOptions::allopt())
}

struct System {
    templates: Arc<Vec<Module>>,
    engine: Engine,
    cache: Arc<CodeCache>,
}

fn set_up() -> System {
    let cache = Arc::new(CodeCache::new());
    System {
        templates: Arc::new(
            suite_items(Scale::Default)
                .into_iter()
                .map(|i| i.module)
                .collect(),
        ),
        engine: Engine::new(config()).with_code_cache(Arc::clone(&cache)),
        cache,
    }
}

/// A load the ledger replays: the module's bytes, the constant its entry
/// returns, and the artifact a hit was served from.
type Sample = (Arc<Vec<u8>>, i32, Option<Arc<CompiledModule>>);
/// Distinct sampled modules the serve-layer probe serves.
const PROBE_APPS: usize = 32;

/// One timed load.
struct Load {
    micros: f64,
    traced: bool,
    cycles: u64,
}

pub fn run(args: &Args, report: &mut Report) {
    let (sys, setup_s) = crate::repeat_setup(set_up);
    let mut stream = StartupStream::new(args.seed, 0, Arc::clone(&sys.templates));
    let mut expected: Vec<Outcome> = Vec::new();
    let mut log = SpanLog::new(false);
    let mut samples: Vec<Sample> = Vec::new();
    let mut loads: Vec<Load> = Vec::new();
    let mut epoch_stats = Vec::new();
    let (mut planned_hits, mut planned_bundles, mut measured_bundles) = (0u64, 0u64, 0u64);
    let hits_before = sys.cache.hits();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut chunk = 0usize;
    'window: while Instant::now() < deadline {
        if chunk > 0 && chunk.is_multiple_of(EPOCH_CHUNKS) {
            epoch_stats.push(sys.cache.stats());
            sys.cache.clear();
            stream = StartupStream::new(
                args.seed,
                (chunk / EPOCH_CHUNKS) as u64,
                Arc::clone(&sys.templates),
            );
            expected.clear();
        }
        // Plan a chunk and compute each fresh module's expected outcome in
        // the interpreter before any of it is timed.
        let plan = stream.plan_chunk();
        for m in &stream.modules[expected.len()..] {
            let outcome = interpreter_outcome(&m.bytes);
            report.check(outcome == Outcome::i32(m.value), || {
                format!(
                    "fresh module returns {outcome:?} in the interpreter, planned {}",
                    m.value
                )
            });
            expected.push(outcome);
        }
        let traced = args.trace && chunk % 2 == 1;
        log.set_enabled(traced);
        for (i, load) in plan.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'window;
            }
            let planned = &stream.modules[load.module];
            let op = loads.len() as u64;
            let start = Instant::now();
            let root = log.enter("load", op, None);
            let s = log.enter("decode", op, Some(root));
            let module = wasm::decode::decode(&planned.bytes).expect("generated modules decode");
            log.exit(s);
            let s = log.enter("instantiate", op, Some(root));
            let mut instance = sys
                .engine
                .instantiate(&module, Imports::new(), Instrumentation::none())
                .expect("generated modules instantiate");
            log.exit(s);
            let s = log.enter("call", op, Some(root));
            let result = sys.engine.call_export(&mut instance, ENTRY, &[]);
            log.exit(s);
            log.exit(root);
            let micros = start.elapsed().as_nanos() as f64 / 1e3;
            let outcome = Outcome::of(result);
            report.attempted += 1;
            if outcome != expected[load.module] {
                report.failed += 1;
                report.error(format!(
                    "load {op}: {outcome:?}, expected {:?}",
                    expected[load.module]
                ));
            }
            report.check(instance.metrics.cache_hit == load.hit, || {
                format!(
                    "load {op}: cache hit {} but planned {}",
                    instance.metrics.cache_hit, load.hit
                )
            });
            planned_hits += load.hit as u64;
            planned_bundles += planned.bundle as u64;
            measured_bundles += (module.funcs.len() > 64) as u64;
            loads.push(Load {
                micros,
                traced,
                cycles: instance.metrics.exec_cycles,
            });
            if traced && i % SAMPLE_EVERY == 0 && samples.len() < MAX_SAMPLES {
                samples.push((
                    Arc::clone(&planned.bytes),
                    planned.value,
                    load.hit.then(|| Arc::clone(instance.artifact())),
                ));
            }
        }
        chunk += 1;
    }
    epoch_stats.push(sys.cache.stats());

    let n = loads.len() as u64;
    let measured_hits = sys.cache.hits() - hits_before;
    report.check(measured_hits == planned_hits, || {
        format!("cache hits {measured_hits} of {n} loads, planned {planned_hits}")
    });
    report.check(measured_bundles == planned_bundles, || {
        format!("bundle loads {measured_bundles}, planned {planned_bundles}")
    });
    // One block per epoch.
    let latency_us: Vec<f64> = loads.iter().map(|l| l.micros).collect();
    let blocks: Vec<Block> = crate::stats::blocks(&latency_us, EPOCH_CHUNKS * CHUNK)
        .iter()
        .map(|b| {
            crate::check_p99(report, "load", b.len());
            Block::new(b, b.iter().sum())
        })
        .collect();
    let share = |k: u64| k as f64 / n.max(1) as f64;
    let med = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    report.detail("loads", n);
    report.detail("epochs", blocks.len());
    report.detail("hit_share", share(planned_hits));
    report.detail("bundle_load_share", share(planned_bundles));
    report.detail("loads_per_s", med(&|b| b.ops_per_s));
    report.detail("load_us_p50", med(&|b| b.p50_us));
    report.detail("load_us_p99", med(&|b| b.p99_us));

    if !args.trace {
        let cycles: Vec<f64> = loads.iter().map(|l| l.cycles as f64).collect();
        crate::end_to_end(report, setup_s, &blocks, mean(&cycles));
        return;
    }
    let pick = |t: bool| -> Vec<f64> {
        loads
            .iter()
            .filter(|l| l.traced == t)
            .map(|l| l.micros)
            .collect()
    };
    crate::overhead(report, &pick(false), &pick(true));
    let replays: Vec<Replay> = samples
        .iter()
        .map(|(bytes, _, warm)| ledger::replay(bytes, &config(), warm.clone()))
        .collect();
    ledger::metrics(&replays, report);
    // This workload bypasses the serve layer; the probe measures it on the
    // sampled modules.
    let mut apps: Vec<(&[u8], Outcome)> = Vec::new();
    for (bytes, value, _) in &samples {
        if apps.len() < PROBE_APPS && !apps.iter().any(|(b, _)| *b == bytes.as_slice()) {
            apps.push((bytes.as_slice(), Outcome::i32(*value)));
        }
    }
    crate::serve::probe(&apps, config(), args.seed, report);
    let entries: Vec<f64> = epoch_stats.iter().map(|s| s.entries as f64).collect();
    let resident: Vec<f64> = epoch_stats
        .iter()
        .map(|s| s.resident_machine_bytes as f64 / 1024.0)
        .collect();
    report.metric("engine.cache_hit_ratio", share(measured_hits), "ratio");
    report.metric(
        "engine.cache_entries",
        entries.iter().cloned().fold(0.0, f64::max),
        "count",
    );
    report.metric(
        "engine.cache_resident_kb",
        resident.iter().cloned().fold(0.0, f64::max),
        "KB",
    );
    let calls = log.durations_us("call");
    report.metric("machine.entry_call_us", median(&calls), "us");
    let traced_cycles: u64 = loads.iter().filter(|l| l.traced).map(|l| l.cycles).sum();
    report.metric(
        "machine.spc_ns_per_cycle",
        calls.iter().sum::<f64>() * 1e3 / traced_cycles.max(1) as f64,
        "ns/cycle",
    );
    report.metric(
        "bench.load_self_us",
        median(&log.self_times_us("load")),
        "us",
    );
}
