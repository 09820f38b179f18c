//! `run-long`: every full-scale suite item from bytes to its checksum in a
//! fresh engine with no cache, once under baseline-only `spc` and once under
//! `tiered` (interpreter, baseline, optimizing tier with OSR), the order of
//! the two alternating by item and by pass.

use crate::gen::{interpreter_outcome, suite_items, Item, Outcome, ENTRY};
use crate::ledger;
use crate::report::Report;
use crate::span::SpanLog;
use crate::stats::{median, samples_for_p99};
use crate::{Args, Block};
use engine::{Engine, EngineConfig, Imports, Instrumentation, RunMetrics};
use spc::CompilerOptions;
use std::time::{Duration, Instant};
use suites::Scale;

/// Loop back-edges before a running frame transfers into optimized code.
const OSR_THRESHOLD: u32 = 1_000;

pub fn configs() -> [EngineConfig; 2] {
    [
        EngineConfig::baseline("spc", CompilerOptions::allopt()),
        // Tier-up compiles synchronously on the executing thread: with a
        // background compiler the call that first runs optimized code
        // depends on thread timing, and simulated cycles stop repeating.
        EngineConfig::tiered("tiered", 1, CompilerOptions::allopt())
            .with_opt_tier(2)
            .with_osr(OSR_THRESHOLD),
    ]
}
const NAMES: [&str; 2] = ["spc", "tiered"];

/// One item run under one configuration.
struct ItemRun {
    micros: f64,
    instantiate_us: f64,
    call_us: f64,
    metrics: RunMetrics,
}

fn run_item(config: &EngineConfig, item: &Item, log: &mut SpanLog, op: u64) -> (Outcome, ItemRun) {
    let start = Instant::now();
    let root = log.enter("item", op, None);
    let s = log.enter("decode", op, Some(root));
    let module = wasm::decode::decode(&item.bytes).expect("suite modules decode");
    log.exit(s);
    let engine = Engine::new(config.clone());
    let t = Instant::now();
    let s = log.enter("instantiate", op, Some(root));
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("suite modules instantiate");
    log.exit(s);
    let instantiate_us = t.elapsed().as_nanos() as f64 / 1e3;
    let t = Instant::now();
    let s = log.enter("call", op, Some(root));
    let result = engine.call_export(&mut instance, ENTRY, &[]);
    log.exit(s);
    let call_us = t.elapsed().as_nanos() as f64 / 1e3;
    log.exit(root);
    let micros = start.elapsed().as_nanos() as f64 / 1e3;
    (
        Outcome::of(result),
        ItemRun {
            micros,
            instantiate_us,
            call_us,
            metrics: instance.metrics,
        },
    )
}

pub fn run(args: &Args, report: &mut Report) {
    let (items, setup_s) = crate::repeat_setup(|| suite_items(Scale::Default));
    let configs = configs();
    // The seed orders the items; the order holds for the whole run.
    let order = crate::rng::Rng::stream(args.seed, 3).permutation(items.len());
    let items: Vec<Item> = order.into_iter().map(|i| items[i].clone()).collect();
    // The reference: every item in the interpreter, before anything is timed.
    let expected: Vec<Outcome> = items
        .iter()
        .map(|i| interpreter_outcome(&i.bytes))
        .collect();
    let trapping: Vec<&str> = items
        .iter()
        .zip(&expected)
        .filter(|(_, o)| matches!(o, Outcome::Trapped(_)))
        .map(|(i, _)| i.name.as_str())
        .collect();

    // Pass pairs: `runs[pair][config][item]`.
    let mut runs: Vec<[Vec<ItemRun>; 2]> = Vec::new();
    let mut traced_pair: Vec<bool> = Vec::new();
    let mut log = SpanLog::new(false);
    let min_pairs = samples_for_p99(10).div_ceil(2 * items.len());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline || runs.len() < min_pairs {
        let pair = runs.len();
        let trace = args.trace && pair % 2 == 1;
        log.set_enabled(trace);
        let mut done: [Vec<ItemRun>; 2] = [Vec::new(), Vec::new()];
        for (k, item) in items.iter().enumerate() {
            let first = (k + pair) % 2;
            for c in [first, 1 - first] {
                let op = (pair * items.len() * 2 + k * 2 + c) as u64;
                let (outcome, run) = run_item(&configs[c], item, &mut log, op);
                report.attempted += 1;
                // Suite items are specified to return a checksum: one that
                // traps fails even when the interpreter traps the same way.
                if matches!(outcome, Outcome::Trapped(_)) {
                    report.failed += 1;
                }
                report.check(outcome == expected[k], || {
                    format!(
                        "{} under {}: {outcome:?}, interpreter {:?}",
                        item.name, NAMES[c], expected[k]
                    )
                });
                done[c].push(run);
            }
        }
        runs.push(done);
        traced_pair.push(trace);
    }

    // Simulated cycles and emitted-code counts repeat exactly, pass after
    // pass: they are deterministic by construction.
    for pair in &runs[1..] {
        for c in 0..2 {
            for (k, (a, b)) in runs[0][c].iter().zip(&pair[c]).enumerate() {
                let (a, b) = (&a.metrics, &b.metrics);
                report.check(
                    a.exec_cycles == b.exec_cycles
                        && a.tag_stores_emitted == b.tag_stores_emitted
                        && a.compiled_machine_bytes == b.compiled_machine_bytes
                        && a.opt_exec_cycles == b.opt_exec_cycles,
                    || {
                        format!(
                            "{} under {}: simulated counts differ between passes",
                            items[k].name, NAMES[c]
                        )
                    },
                );
            }
        }
    }

    let pass_s = |c: usize| -> f64 {
        median(
            &runs
                .iter()
                .map(|p| p[c].iter().map(|r| r.micros).sum::<f64>() / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let total = |c: usize, f: &dyn Fn(&RunMetrics) -> u64| -> u64 {
        runs[0][c].iter().map(|r| f(&r.metrics)).sum()
    };
    // Each (item, configuration) run at its median over the passes, counted
    // once per pass: a burst of outside load that slows fewer than half of
    // an item's passes does not move the throughput or the percentiles.
    let typical: Vec<f64> = (0..2)
        .flat_map(|c| (0..items.len()).map(move |k| (c, k)))
        .map(|(c, k)| median(&runs.iter().map(|p| p[c][k].micros).collect::<Vec<_>>()))
        .collect();
    let weighted: Vec<f64> = typical
        .iter()
        .flat_map(|&t| std::iter::repeat_n(t, runs.len()))
        .collect();
    let blocks = [Block::new(&weighted, weighted.iter().sum())];
    let cycles_per_op = (total(0, &|m| m.exec_cycles) + total(1, &|m| m.exec_cycles)) as f64
        / (2 * items.len()) as f64;
    report.detail("pass_pairs", runs.len());
    for (c, name) in NAMES.iter().enumerate() {
        report.detail(&format!("{name}.pass_s"), pass_s(c));
        report.detail(
            &format!("{name}.gcycles"),
            total(c, &|m| m.exec_cycles) as f64 / 1e9,
        );
    }
    report.detail(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.detail(
        "trapping_items",
        crate::report::json_string(&trapping.join(" ")),
    );
    crate::check_p99(report, "item run", weighted.len());

    if !args.trace {
        crate::end_to_end(report, setup_s, &blocks, cycles_per_op);
        return;
    }
    let pick = |t: bool| -> Vec<f64> {
        runs.iter()
            .zip(&traced_pair)
            .filter(|(_, &x)| x == t)
            .flat_map(|(p, _)| p.iter().flatten().map(|r| r.micros))
            .collect()
    };
    crate::overhead(report, &pick(false), &pick(true));
    let modules: Vec<&[u8]> = items.iter().map(|i| i.bytes.as_slice()).collect();
    ledger::metrics(&ledger::replay_both(&modules, &configs[0]), report);
    let all = || {
        runs.iter().flat_map(|p| {
            p.iter()
                .enumerate()
                .flat_map(|(c, v)| v.iter().map(move |r| (c, r)))
        })
    };
    let ns_per_cycle = |c: usize| -> f64 {
        let (ns, cycles) = all()
            .filter(|(x, _)| *x == c)
            .fold((0.0, 0u64), |(ns, cy), (_, r)| {
                let compile =
                    (r.metrics.lazy_compile_wall + r.metrics.opt_compile_wall).as_nanos() as f64;
                (ns + r.call_us * 1e3 - compile, cy + r.metrics.exec_cycles)
            });
        ns / cycles.max(1) as f64
    };
    report.metric(
        "machine.entry_call_us",
        median(&all().map(|(_, r)| r.call_us).collect::<Vec<_>>()),
        "us",
    );
    report.metric("machine.spc_ns_per_cycle", ns_per_cycle(0), "ns/cycle");
    report.metric("machine.tiered_ns_per_cycle", ns_per_cycle(1), "ns/cycle");
    report.metric(
        "optc.compile_ms",
        median(
            &runs
                .iter()
                .map(|p| {
                    p[1].iter()
                        .map(|r| r.metrics.opt_compile_wall.as_secs_f64() * 1e3)
                        .sum::<f64>()
                })
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let tiered_cycles = total(1, &|m| m.exec_cycles) as f64;
    report.metric(
        "optc.cycle_share",
        total(1, &|m| m.opt_exec_cycles) as f64 / tiered_cycles,
        "ratio",
    );
    report.metric(
        "engine.tiered_up_functions",
        total(1, &|m| m.tiered_up_functions as u64) as f64,
        "count",
    );
    let (inst, wall) = all().fold((0.0, 0.0), |(i, w), (_, r)| {
        (i + r.instantiate_us, w + r.micros)
    });
    report.metric("engine.setup_share", inst / wall, "ratio");
    report.metric(
        "bench.load_self_us",
        median(&log.self_times_us("item")),
        "us",
    );
}
