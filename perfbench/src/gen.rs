//! Workload inputs, generated from the seed alone: the engine under test
//! only ever sees the module bytes and requests made here.

use crate::rng::{Rng, Zipf};
use engine::{Engine, EngineConfig, Imports, Instrumentation};
use machine::inst::TrapCode;
use machine::values::WasmValue;
use std::sync::Arc;
use suites::{all_suites, Scale};
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::{BlockType, FuncType, Module, Opcode, ValueType};

/// The entry point every generated module exports.
pub const ENTRY: &str = "main";

/// How one operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Returned(Vec<WasmValue>),
    Trapped(TrapCode),
}

impl Outcome {
    pub fn i32(value: i32) -> Outcome {
        Outcome::Returned(vec![WasmValue::I32(value)])
    }

    /// The outcome of a call's result.
    pub fn of(result: Result<Vec<WasmValue>, TrapCode>) -> Outcome {
        match result {
            Ok(values) => Outcome::Returned(values),
            Err(code) => Outcome::Trapped(code),
        }
    }
}

/// The reference outcome of `bytes`: decoded and run by the interpreter, a
/// tier no workload measures.
pub fn interpreter_outcome(bytes: &[u8]) -> Outcome {
    let module = wasm::decode::decode(bytes).expect("generated module decodes");
    let engine = Engine::new(EngineConfig::interpreter("reference"));
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("generated module instantiates in the interpreter");
    Outcome::of(engine.call_export(&mut instance, ENTRY, &[]))
}

/// One suite line item as bytes.
#[derive(Debug, Clone)]
pub struct Item {
    pub name: String,
    pub module: Module,
    pub bytes: Arc<Vec<u8>>,
}

/// The 78 suite line items at `scale`, in suite order, named `suite/item`.
pub fn suite_items(scale: Scale) -> Vec<Item> {
    all_suites(scale)
        .into_iter()
        .flat_map(|suite| suite.items)
        .map(|item| Item {
            name: format!("{}/{}", item.suite, item.name),
            bytes: Arc::new(wasm::encode::encode(&item.module)),
            module: item.module,
        })
        .collect()
}

/// `module` with `i32.const value; return` prepended to its entry: the same
/// bytes to load and compile, almost nothing to execute (the paper's `m0`),
/// and a result that identifies the module.
pub fn returning_constant(module: &Module, value: i32) -> Module {
    let mut m = module.clone();
    let entry = m.exported_func(ENTRY).expect("suite modules export main");
    let defined = (entry - m.num_imported_funcs()) as usize;
    let mut prefix = CodeBuilder::new();
    prefix.i32_const(value).return_();
    let mut code = prefix.into_raw_bytes();
    code.extend_from_slice(&m.funcs[defined].code);
    m.funcs[defined].code = code;
    m
}

/// A many-function module: the kernel function (defined index 1, which
/// calls nothing and touches only memory) of each of `templates`, plus an
/// entry returning `value` at once.
pub fn bundle(templates: &[&Module], value: i32) -> Module {
    let mut b = ModuleBuilder::new();
    let memory = templates
        .iter()
        .filter_map(|m| m.memories.first())
        .max_by_key(|mem| mem.limits.min)
        .expect("suite modules declare a memory");
    b.add_memory(memory.limits);
    for template in templates {
        let kernel = &template.funcs[1];
        let ty = template.types[kernel.type_index as usize].clone();
        b.add_func(ty, kernel.declared_local_types(), kernel.code.clone());
    }
    let mut c = CodeBuilder::new();
    c.i32_const(value).return_();
    let entry = b.add_func(
        FuncType::new(vec![], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    b.export_func(ENTRY, entry);
    b.finish()
}

/// An app whose entry always traps (integer division by zero).
pub fn trapping_app() -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.i32_const(1).i32_const(0).op(Opcode::I32DivS);
    let f = b.add_func(
        FuncType::new(vec![], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    b.export_func(ENTRY, f);
    b.finish()
}

/// An app whose entry never returns: only a deadline ends it.
pub fn runaway_app() -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.loop_(BlockType::Empty).br(0).end();
    c.i32_const(0);
    let f = b.add_func(
        FuncType::new(vec![], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    b.export_func(ENTRY, f);
    b.finish()
}

// ---- startup -------------------------------------------------------------

/// Loads in one planned chunk. Every chunk holds exactly `CHUNK_HITS`
/// repeats and `CHUNK_BUNDLES` fresh bundles (about 2% of loads, so the
/// p99 load falls among them); the rest are fresh single-kernel modules.
/// Only their order is seeded.
pub const CHUNK: usize = 256;
pub const CHUNK_HITS: usize = 192;
pub const CHUNK_BUNDLES: usize = 5;
/// Kernel functions in a bundle.
pub const BUNDLE_FUNCS: usize = 80;

/// One distinct module of the startup stream.
#[derive(Debug)]
pub struct StartupModule {
    pub bytes: Arc<Vec<u8>>,
    /// The constant the entry returns; unique per module of a stream.
    pub value: i32,
    pub bundle: bool,
}

/// One planned load: which distinct module, and whether it repeats one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedLoad {
    pub module: usize,
    pub hit: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadKind {
    Hit,
    Single,
    Bundle,
}

/// The seeded startup stream of one epoch: each chunk plans `CHUNK` loads,
/// building the bytes of every fresh module.
pub struct StartupStream {
    rng: Rng,
    templates: Arc<Vec<Module>>,
    pub modules: Vec<StartupModule>,
}

impl StartupStream {
    pub fn new(seed: u64, epoch: u64, templates: Arc<Vec<Module>>) -> StartupStream {
        StartupStream {
            rng: Rng::stream(seed, 1 + (epoch << 8)),
            templates,
            modules: Vec::new(),
        }
    }

    pub fn plan_chunk(&mut self) -> Vec<PlannedLoad> {
        let mut kinds: Vec<LoadKind> = (0..CHUNK)
            .map(|i| match i {
                i if i < CHUNK_HITS => LoadKind::Hit,
                i if i < CHUNK_HITS + CHUNK_BUNDLES => LoadKind::Bundle,
                _ => LoadKind::Single,
            })
            .collect();
        let order = self.rng.permutation(CHUNK);
        kinds = order.into_iter().map(|i| kinds[i]).collect();
        if self.modules.is_empty() {
            // Nothing to repeat yet: the epoch opens with a fresh build.
            let first_fresh = kinds
                .iter()
                .position(|k| *k != LoadKind::Hit)
                .expect("chunks plan fresh loads");
            kinds.swap(0, first_fresh);
        }
        kinds.into_iter().map(|kind| self.plan(kind)).collect()
    }

    fn plan(&mut self, kind: LoadKind) -> PlannedLoad {
        if kind == LoadKind::Hit {
            return PlannedLoad {
                module: self.rng.below(self.modules.len()),
                hit: true,
            };
        }
        // The serial number makes every fresh module's bytes unique.
        let value = 1_000 + self.modules.len() as i32;
        let templates = Arc::clone(&self.templates);
        let mut pick = || &templates[self.rng.below(templates.len())];
        let module = match kind {
            LoadKind::Bundle => bundle(
                &(0..BUNDLE_FUNCS).map(|_| pick()).collect::<Vec<_>>(),
                value,
            ),
            _ => returning_constant(pick(), value),
        };
        self.modules.push(StartupModule {
            bytes: Arc::new(wasm::encode::encode(&module)),
            value,
            bundle: kind == LoadKind::Bundle,
        });
        PlannedLoad {
            module: self.modules.len() - 1,
            hit: false,
        }
    }
}

// ---- serve ---------------------------------------------------------------

/// Share of requests sent to the trapping app.
pub const TRAP_SHARE: f64 = 0.03;
/// Share of requests sent to the runaway app under a deadline.
pub const RUNAWAY_SHARE: f64 = 0.02;
/// Seeds the fixed popularity order of the suite apps.
const POPULARITY_SEED: u64 = 0x5EED;
/// Zipf exponent of the suite-app popularity.
pub const ZIPF_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    Suite,
    Trap,
    Runaway,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRequest {
    /// Suite app index in `0..suite_apps`, `suite_apps` for the trapping
    /// app and `suite_apps + 1` for the runaway app.
    pub app: usize,
    pub kind: RequestKind,
}

/// The seeded serve request sequence: a Zipf draw over the suite apps,
/// plus trapping and runaway requests. The popularity order is fixed, not
/// seeded, so every seed offers the same traffic mix and only the draw
/// changes.
pub struct RequestStream {
    rng: Rng,
    zipf: Zipf,
    order: Vec<usize>,
}

impl RequestStream {
    pub fn new(seed: u64, suite_apps: usize) -> RequestStream {
        let order = Rng::new(POPULARITY_SEED).permutation(suite_apps);
        RequestStream {
            rng: Rng::stream(seed, 2),
            zipf: Zipf::new(suite_apps, ZIPF_S),
            order,
        }
    }

    /// The planned probability that a request goes to suite app `app`.
    pub fn suite_probability(&self, app: usize) -> f64 {
        let rank = self
            .order
            .iter()
            .position(|&a| a == app)
            .expect("app is ranked");
        self.zipf.probability(rank) * (1.0 - TRAP_SHARE - RUNAWAY_SHARE)
    }

    pub fn next(&mut self) -> PlannedRequest {
        let suite_apps = self.order.len();
        let u = self.rng.unit();
        if u < TRAP_SHARE {
            PlannedRequest {
                app: suite_apps,
                kind: RequestKind::Trap,
            }
        } else if u < TRAP_SHARE + RUNAWAY_SHARE {
            PlannedRequest {
                app: suite_apps + 1,
                kind: RequestKind::Runaway,
            }
        } else {
            PlannedRequest {
                app: self.order[self.zipf.sample(&mut self.rng)],
                kind: RequestKind::Suite,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn templates() -> Arc<Vec<Module>> {
        Arc::new(
            suite_items(Scale::Default)
                .into_iter()
                .map(|i| i.module)
                .collect(),
        )
    }

    fn stream_bytes(seed: u64, epoch: u64, chunks: usize) -> Vec<Vec<u8>> {
        let mut s = StartupStream::new(seed, epoch, templates());
        (0..chunks)
            .flat_map(|_| s.plan_chunk())
            .collect::<Vec<_>>()
            .into_iter()
            .map(|load| s.modules[load.module].bytes.to_vec())
            .collect()
    }

    #[test]
    fn one_seed_gives_one_module_stream() {
        assert_eq!(stream_bytes(11, 0, 2), stream_bytes(11, 0, 2));
        assert_ne!(stream_bytes(11, 0, 2), stream_bytes(12, 0, 2));
        assert_ne!(stream_bytes(11, 0, 2), stream_bytes(11, 1, 2));
    }

    #[test]
    fn every_chunk_plans_the_same_mix() {
        let mut s = StartupStream::new(4, 0, templates());
        for _ in 0..3 {
            let plan = s.plan_chunk();
            assert!(!plan[0].hit || s.modules.len() > CHUNK - CHUNK_HITS);
            assert_eq!(plan.iter().filter(|l| l.hit).count(), CHUNK_HITS);
            let fresh_bundles = plan
                .iter()
                .filter(|l| !l.hit && s.modules[l.module].bundle)
                .count();
            assert_eq!(fresh_bundles, CHUNK_BUNDLES);
        }
    }

    #[test]
    fn one_seed_gives_one_request_sequence() {
        let seq = |seed| {
            let mut s = RequestStream::new(seed, 78);
            (0..500).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }

    #[test]
    fn fresh_builds_are_hash_distinct_and_return_their_constant() {
        let mut s = StartupStream::new(3, 0, templates());
        for _ in 0..16 {
            s.plan_chunk();
        }
        let mut hashes = HashSet::new();
        for m in &s.modules {
            let module = wasm::decode::decode(&m.bytes).expect("decodes");
            assert!(
                hashes.insert(module.content_hash()),
                "content hash collision"
            );
        }
        assert!(s.modules.iter().any(|m| m.bundle));
        for m in s.modules.iter().filter(|m| m.bundle).take(2) {
            assert_eq!(interpreter_outcome(&m.bytes), Outcome::i32(m.value));
        }
        for m in s.modules.iter().filter(|m| !m.bundle).take(8) {
            assert_eq!(interpreter_outcome(&m.bytes), Outcome::i32(m.value));
        }
    }

    #[test]
    fn bundles_have_over_64_functions_and_validate() {
        let t = templates();
        let picks: Vec<&Module> = t.iter().cycle().take(BUNDLE_FUNCS).collect();
        let m = bundle(&picks, 7);
        assert!(m.funcs.len() > 64);
        wasm::validate::validate(&m).expect("bundle validates");
    }

    #[test]
    fn serve_apps_end_as_planned() {
        assert_eq!(
            interpreter_outcome(&wasm::encode::encode(&trapping_app())),
            Outcome::Trapped(TrapCode::DivisionByZero)
        );
        wasm::validate::validate(&runaway_app()).expect("runaway app validates");
    }
}
