//! FIG 14 (beyond the paper): the cost of multi-tenancy.
//!
//! The multi-tenant serving layer meters every tenant: deterministic fuel
//! accounting plus an epoch poll at loop headers, emitted by all three tiers
//! from the same per-block cost table. This figure prices that safety net:
//!
//! 1. **Metered vs. unmetered execution cycles** per suite for the
//!    interpreter, the baseline compiler, and the optimizing tier. The
//!    metered runs arm a fuel budget far above any item's cost, so the whole
//!    workload completes with metering genuinely active (a metering
//!    configuration with no fuel armed skips the interpreter-side charging
//!    and would flatter the interpreter column).
//! 2. **The acceptance gate**: on the baseline tier — the paper's subject
//!    and the tier a serving host keeps tenants in — metering overhead must
//!    be ≤ 15% over unmetered on each of the three suites, else the process
//!    exits non-zero.
//! 3. **Artifact sharing across tenants**: two metered tenants created
//!    through the `MultiEngine` registry share one compiled artifact; the
//!    second tenant compiles nothing.
//!
//! Checksums are cross-checked between every metered/unmetered pair, and the
//! fuel consumed per suite is identical across all three tiers — the
//! determinism claim the conformance matrix locks down, restated over the
//! full benchmark corpus. Headline numbers land in `BENCH_fig14.json`.

use bench::{
    measure_all, measure_all_fueled, print_suite_table, summarize_by_suite, BenchReport,
    Instrument,
};
use engine::{EngineConfig, Imports, Instrumentation, MultiEngine, Telemetry};
use spc::CompilerOptions;

/// Far above any line item's cost at either scale, so nothing traps.
const AMPLE_FUEL: u64 = u64::MAX / 2;

const SUITES: [&str; 3] = ["polybench", "libsodium", "ostrich"];

fn main() {
    let scale = bench::scale_from_args();
    bench::print_header(
        "FIG 14 (beyond the paper)",
        "Multi-tenant metering: fuel + epoch overhead per tier, artifact sharing",
    );
    let mut report = BenchReport::new("fig14");
    report.config(bench::scale_label(scale));

    let tiers: [(&str, EngineConfig); 3] = [
        ("int", EngineConfig::interpreter("int")),
        ("spc", EngineConfig::baseline("spc", CompilerOptions::allopt())),
        ("opt", EngineConfig::optimizing("opt")),
    ];

    let mut checksum_mismatches = 0usize;
    let mut fuel_by_suite: Vec<Vec<u64>> = Vec::new();
    let mut spc_overheads: Vec<(&'static str, f64)> = Vec::new();

    println!("\nMetered vs. unmetered execution cycles (metered/unmetered ratio):");
    let mut rows: Vec<(&'static str, Vec<bench::SuiteSummary>)> =
        SUITES.iter().map(|s| (*s, Vec::new())).collect();
    for (tier, config) in &tiers {
        let plain = measure_all(config, scale, Instrument::None);
        let metered = measure_all_fueled(
            &config.clone().with_metering(),
            scale,
            Instrument::None,
            AMPLE_FUEL,
            &Telemetry::disabled(),
        );
        for (a, b) in bench::paired(&plain, &metered) {
            if a.checksum != b.checksum {
                eprintln!(
                    "CHECKSUM MISMATCH {}/{} under {tier}: {} vs {}",
                    a.suite, a.name, a.checksum, b.checksum
                );
                checksum_mismatches += 1;
            }
        }

        let plain_rows = summarize_by_suite(&plain, |m| m.exec_cycles as f64);
        let metered_rows = summarize_by_suite(&metered, |m| m.exec_cycles as f64);
        for (row, ((_, p), (_, m))) in rows.iter_mut().zip(plain_rows.iter().zip(&metered_rows)) {
            row.1.push(bench::SuiteSummary {
                mean: m.mean / p.mean,
                min: m.min / p.min.max(1.0),
                max: m.max / p.max.max(1.0),
            });
        }

        // Per-suite totals drive the gate and the report.
        let mut suite_fuel = Vec::new();
        for suite in SUITES {
            let total = |items: &[bench::ItemMeasurement]| -> u64 {
                items
                    .iter()
                    .filter(|m| m.suite == suite)
                    .map(|m| m.exec_cycles)
                    .sum()
            };
            let p = total(&plain);
            let m = total(&metered);
            let overhead = 100.0 * (m as f64 / p as f64 - 1.0);
            report.metric(&format!("{suite}.{tier}.unmetered_cycles"), p as f64);
            report.metric(&format!("{suite}.{tier}.metered_cycles"), m as f64);
            report.metric(&format!("{suite}.{tier}.overhead_pct"), overhead);
            if *tier == "spc" {
                spc_overheads.push((suite, overhead));
            }
            let fuel: u64 = metered
                .iter()
                .filter(|i| i.suite == suite)
                .map(|i| i.fuel_consumed)
                .sum();
            assert!(fuel > 0, "{suite} consumed no fuel under {tier}");
            suite_fuel.push(fuel);
        }
        fuel_by_suite.push(suite_fuel);
    }
    print_suite_table(
        &tiers.iter().map(|(t, _)| t.to_string()).collect::<Vec<_>>(),
        &rows,
    );

    // ---- Fuel determinism over the whole corpus --------------------------
    println!("\nFuel consumed per suite (must be identical in every tier):");
    let mut fuel_mismatch = false;
    for (i, suite) in SUITES.iter().enumerate() {
        let per_tier: Vec<u64> = fuel_by_suite.iter().map(|f| f[i]).collect();
        println!("  {suite:<10} {} units", per_tier[0]);
        report.metric(&format!("{suite}.fuel_units"), per_tier[0] as f64);
        if per_tier.iter().any(|&f| f != per_tier[0]) {
            eprintln!("FUEL MISMATCH on {suite}: {per_tier:?}");
            fuel_mismatch = true;
        }
    }

    // ---- Tenants sharing compiled artifacts ------------------------------
    println!("\nTwo metered tenants through the MultiEngine registry:");
    let multi = MultiEngine::new();
    let tenant_config = EngineConfig::baseline("tenant", CompilerOptions::allopt()).with_metering();
    let mut shared_misses = 0u32;
    for n in 1..=2u32 {
        let engine = multi.engine(tenant_config.clone());
        let mut compiled = 0u64;
        for suite in suites::all_suites(scale) {
            for item in &suite.items {
                let instance = engine
                    .instantiate(&item.module, Imports::new(), Instrumentation::none())
                    .expect("suite modules instantiate");
                compiled += instance.metrics.functions_compiled as u64;
                if !instance.metrics.cache_hit {
                    shared_misses += 1;
                }
            }
        }
        println!("  tenant {n}: {compiled} functions compiled");
        report.metric(&format!("tenant{n}.functions_compiled"), compiled as f64);
        if n == 2 && compiled != 0 {
            eprintln!("SHARING FAILURE: the second tenant recompiled");
            checksum_mismatches += 1;
        }
    }
    println!(
        "  cache: {} entries, {} hits ({} first-sight misses)",
        multi.code_cache().len(),
        multi.code_cache().hits(),
        shared_misses,
    );

    // ---- Verdict ---------------------------------------------------------
    println!("\nBaseline-tier metering overhead (gate: ≤ 15% on every suite):");
    let mut suites_over = Vec::new();
    for (suite, overhead) in &spc_overheads {
        println!("  {suite:<10} {overhead:>5.1}%");
        if *overhead > 15.0 {
            suites_over.push(*suite);
        }
    }
    let pass = checksum_mismatches == 0 && !fuel_mismatch && suites_over.is_empty();
    report.metric("pass", if pass { 1.0 } else { 0.0 });
    report.write();
    println!();
    if checksum_mismatches > 0 {
        println!("FAIL: {checksum_mismatches} checksum/sharing failures");
        std::process::exit(1);
    }
    if fuel_mismatch {
        println!("FAIL: fuel consumption diverged between tiers");
        std::process::exit(1);
    }
    if !suites_over.is_empty() {
        println!("FAIL: metering overhead above 15% on {suites_over:?}");
        std::process::exit(1);
    }
    println!("PASS");
}
