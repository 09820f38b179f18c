//! The outside-in startup ledger: the public sub-steps `Engine::instantiate`
//! performs, each called and timed from the benchmark on the same inputs,
//! beside the instantiation they add up to.
//!
//! A hit replays against a cache holding the artifact the workload itself
//! produced; a miss replays against an empty cache and builds afresh.

use engine::pipeline::{compile_eager, compile_function, CompileTier};
use engine::{
    CacheKey, CodeCache, CompiledModule, Engine, EngineConfig, Imports, Instrumentation,
    MemoryImage, Telemetry,
};
use std::sync::Arc;
use std::time::Instant;

/// Sub-step times (µs) of one replayed instantiation, and what the
/// baseline compiler emitted for it on a miss.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub hit: bool,
    pub decode_us: f64,
    pub key_us: f64,
    pub lookup_us: f64,
    /// Misses only: `validate`, and `CompiledModule::build` (which
    /// validates and then prepares sidetables).
    pub validate_us: f64,
    pub build_us: f64,
    /// `compile_eager` at the configuration's worker count; on a hit it
    /// runs over an artifact whose code is already published.
    pub eager_us: f64,
    pub image_us: f64,
    pub instantiate_us: f64,
    /// `compile_eager` at two workers, on a fresh artifact for a miss.
    pub eager_2w_us: f64,
    /// Misses only: summed serial `compile_function` time and the Wasm
    /// body bytes it compiled.
    pub compile_fn_us: f64,
    pub compiled_wasm_bytes: u64,
    pub tag_stores: u64,
    pub machine_bytes: u64,
}

impl Replay {
    /// Sidetable preparation: `build` minus the validation it starts with.
    pub fn prepare_us(&self) -> f64 {
        self.build_us - self.validate_us
    }

    /// `Engine::instantiate` minus every part timed from outside.
    pub fn residual_us(&self) -> f64 {
        let build = if self.hit { 0.0 } else { self.build_us };
        self.instantiate_us - (self.key_us + self.lookup_us + build + self.eager_us + self.image_us)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64 / 1e3)
}

fn fresh_build(module: &wasm::Module) -> CompiledModule {
    CompiledModule::build(module.clone()).expect("workload modules build")
}

/// Replays one instantiation of `bytes` under `config`. `warm` is the
/// artifact the workload's own cache holds for it, if the load was a hit.
pub fn replay(bytes: &[u8], config: &EngineConfig, warm: Option<Arc<CompiledModule>>) -> Replay {
    let none = Instrumentation::none();
    let off = Telemetry::disabled();
    let (module, decode_us) =
        timed(|| wasm::decode::decode(bytes).expect("workload modules decode"));
    let (key, key_us) = timed(|| CacheKey::for_instantiation(config, &module, &none));
    let cache = Arc::new(CodeCache::new());
    if let Some(artifact) = &warm {
        cache.insert(key, Arc::clone(artifact));
    }
    let (found, lookup_us) = timed(|| cache.lookup(&key));
    let two = config.clone().with_compile_workers(2);
    let mut r = Replay {
        hit: found.is_some(),
        decode_us,
        key_us,
        lookup_us,
        ..Replay::default()
    };
    match &found {
        Some(artifact) => {
            r.eager_us = timed(|| compile_eager(config, artifact, &none, &off)).1;
            r.eager_2w_us = timed(|| compile_eager(&two, artifact, &none, &off)).1;
        }
        None => {
            r.validate_us = timed(|| wasm::validate::validate(&module).expect("validates")).1;
            let (artifact, build_us) = timed(|| fresh_build(&module));
            r.build_us = build_us;
            r.eager_us =
                timed(|| compile_eager(config, &artifact, &none, &off).expect("compiles")).1;
            let serial = fresh_build(&module);
            for defined in 0..serial.num_defined() {
                let func = module.defined_to_func_index(defined);
                let (compiled, us) = timed(|| {
                    compile_function(
                        config,
                        CompileTier::Baseline,
                        &module,
                        func,
                        serial.func_info(defined),
                        &none.sites_for(func),
                        None,
                    )
                    .expect("compiles")
                });
                r.compile_fn_us += us;
                r.compiled_wasm_bytes += compiled.function.stats.wasm_bytes as u64;
                r.tag_stores += compiled.function.stats.tag_stores as u64;
                r.machine_bytes += compiled.machine_bytes;
            }
            let parallel = fresh_build(&module);
            r.eager_2w_us =
                timed(|| compile_eager(&two, &parallel, &none, &off).expect("compiles")).1;
        }
    }
    r.image_us = timed(|| MemoryImage::build(&module, &config.limits).expect("image builds")).1;
    // The instantiation itself, against a cache in the same state the
    // lookup above saw.
    let shadow = Arc::new(CodeCache::new());
    if let Some(artifact) = warm {
        shadow.insert(key, artifact);
    }
    let engine = Engine::new(config.clone()).with_code_cache(shadow);
    let (instance, instantiate_us) = timed(|| {
        engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .expect("instantiates")
    });
    assert_eq!(
        instance.metrics.cache_hit, r.hit,
        "replayed lookup and instantiation agree"
    );
    r.instantiate_us = instantiate_us;
    r
}

/// The artifact a workload's own cache would hold for `bytes` after one
/// instantiation: code published, ready to serve a hit replay.
pub fn warm_artifact(bytes: &[u8], config: &EngineConfig) -> Arc<CompiledModule> {
    let module = wasm::decode::decode(bytes).expect("workload modules decode");
    let engine = Engine::new(config.clone()).with_code_cache(Arc::new(CodeCache::new()));
    let instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");
    Arc::clone(instance.artifact())
}

/// A miss and a hit replay of each of `modules`.
pub fn replay_both(modules: &[&[u8]], config: &EngineConfig) -> Vec<Replay> {
    modules
        .iter()
        .flat_map(|bytes| {
            let miss = replay(bytes, config, None);
            let hit = replay(bytes, config, Some(warm_artifact(bytes, config)));
            [miss, hit]
        })
        .collect()
}

/// Medians of many replays, split into hits and misses, as per-layer
/// metrics.
pub fn metrics(replays: &[Replay], out: &mut crate::report::Report) {
    use crate::stats::median;
    let pick = |hit: bool, f: &dyn Fn(&Replay) -> f64| -> f64 {
        median(
            &replays
                .iter()
                .filter(|r| r.hit == hit)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let all = |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let misses: Vec<&Replay> = replays.iter().filter(|r| !r.hit).collect();
    let sum = |f: &dyn Fn(&Replay) -> f64| misses.iter().map(|r| f(r)).sum::<f64>();
    out.metric("wasm.decode_us", all(&|r| r.decode_us), "us");
    out.metric("wasm.validate_us", pick(false, &|r| r.validate_us), "us");
    out.metric("interp.prepare_us", pick(false, &|r| r.prepare_us()), "us");
    let compile_s = sum(&|r| r.compile_fn_us) / 1e6;
    let mb = sum(&|r| r.compiled_wasm_bytes as f64) / 1e6;
    out.metric(
        "core.spc_compile_mb_s",
        if compile_s > 0.0 { mb / compile_s } else { 0.0 },
        "MB/s",
    );
    let eager_2w: f64 = misses.iter().map(|r| r.eager_2w_us).sum();
    out.metric(
        "engine.compile_eager_speedup",
        if eager_2w > 0.0 {
            sum(&|r| r.compile_fn_us) / eager_2w
        } else {
            0.0
        },
        "x",
    );
    out.metric("engine.cache_key_us", all(&|r| r.key_us), "us");
    out.metric("engine.cache_lookup_us", all(&|r| r.lookup_us), "us");
    out.metric("engine.image_build_us", all(&|r| r.image_us), "us");
    for (hit, tag) in [(true, "hit"), (false, "miss")] {
        out.metric(
            &format!("engine.compile_eager_us.{tag}"),
            pick(hit, &|r| r.eager_us),
            "us",
        );
        out.metric(
            &format!("engine.compile_eager_2w_us.{tag}"),
            pick(hit, &|r| r.eager_2w_us),
            "us",
        );
        out.metric(
            &format!("engine.instantiate_us.{tag}"),
            pick(hit, &|r| r.instantiate_us),
            "us",
        );
        out.metric(
            &format!("engine.instantiate_residual_us.{tag}"),
            pick(hit, &|r| r.residual_us()),
            "us",
        );
    }
    let per_module = |f: &dyn Fn(&Replay) -> f64| {
        if misses.is_empty() {
            0.0
        } else {
            sum(f) / misses.len() as f64
        }
    };
    out.metric(
        "core.tag_stores_emitted",
        per_module(&|r| r.tag_stores as f64),
        "count",
    );
    out.metric(
        "core.machine_kb",
        per_module(&|r| r.machine_bytes as f64) / 1024.0,
        "KB",
    );
    out.metric("ledger.samples", replays.len() as f64, "count");
}
