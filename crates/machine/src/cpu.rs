//! The CPU simulator that executes compiled code.
//!
//! Compiled functions run against exactly the same runtime objects as the
//! interpreter: the tagged value stack, linear memory, globals, and tables.
//! Execution is *resumable*: calls, probes, returns, and traps exit back to
//! the engine, which performs the transfer (possibly into a different
//! execution tier) and then resumes the code at `resume_pc`. Register
//! contents live in a per-frame [`CpuState`], and the calling convention
//! requires compilers to spill live values to the value stack before any
//! exiting instruction, so nothing is lost across an exit.
//!
//! Every executed instruction is charged to a [`CycleCounter`] using the
//! shared [`CostModel`]; those cycles are the "execution time" that the
//! paper's figures compare.
//!
//! The simulator does not interpret [`MachInst`]s directly. Each
//! [`CodeBuffer`] is pre-decoded once, on its first execution, into a
//! stream of flat 16-byte ops with registers as byte indices, labels resolved to
//! instruction indices (`br_table` targets in a side table), and immediates
//! extended to their operation width, and [`Cpu::run`] dispatches once per
//! executed op:
//!
//! * every instruction decodes to exactly one arm. Non-trapping integer ALU
//!   operations, comparisons, and the integer unary and floating-point
//!   operations get an arm per operation, width, and operand form,
//!   generated from one table and calling [`ops`] with constant arguments,
//!   so `ops` stays the single definition of each operation; loads and
//!   stores get an arm per width and register bank; the rare instructions
//!   (division, conversions, `memory.size`/`memory.grow`, calls, probes,
//!   meter checks, traps) share one generic arm that executes the original
//!   instruction.
//! * every op carries its [`CostClass`]; [`CostClass::of`] is the only
//!   mapping from instruction to cost, [`CostModel::inst_cost`] is its
//!   lookup, and [`Cpu::new`] builds the per-class table `run` charges
//!   from. Charges accumulate in a local that is flushed at every exit, and
//!   an instruction is charged before it executes, so a trap includes the
//!   trapping instruction's cost.

use crate::asm::CodeBuffer;
use crate::cost::{CostClass, CostModel, CycleCounter};
use crate::inst::{AluOp, CmpOp, FAluOp, FCmpOp, FUnOp, Label, MachInst, TrapCode, UnOp, Width};
use crate::memory::{LinearMemory, Table};
use crate::ops;
use crate::reg::{AnyReg, NUM_FPRS, NUM_GPRS};
use crate::values::{GlobalSlot, ValueStack, ValueTag};
use std::sync::atomic::{AtomicU64, Ordering};
use wasm::fuel::FuelPlan;

/// The register file of one JIT frame activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    /// General-purpose registers.
    pub gprs: [u64; NUM_GPRS],
    /// Floating-point registers (raw bits).
    pub fprs: [u64; NUM_FPRS],
}

impl Default for CpuState {
    fn default() -> CpuState {
        CpuState {
            gprs: [0; NUM_GPRS],
            fprs: [0; NUM_FPRS],
        }
    }
}

impl CpuState {
    /// Creates a zeroed register file.
    pub fn new() -> CpuState {
        CpuState::default()
    }

    /// Reads a register of either bank.
    pub fn read(&self, reg: AnyReg) -> u64 {
        match reg {
            AnyReg::Gpr(r) => self.gprs[r.index()],
            AnyReg::Fpr(r) => self.fprs[r.index()],
        }
    }

    /// Writes a register of either bank.
    pub fn write(&mut self, reg: AnyReg, bits: u64) {
        match reg {
            AnyReg::Gpr(r) => self.gprs[r.index()] = bits,
            AnyReg::Fpr(r) => self.fprs[r.index()] = bits,
        }
    }
}

/// The producer half of the epoch-driven sampling profiler.
///
/// Execution loops poll this at their metering sites (loop back-edges and
/// function entries); whenever the shared epoch has advanced since the last
/// sample, the current wasm byte offset is pushed through `record`. The
/// sampler deliberately knows nothing about telemetry — the engine supplies
/// a closure that attributes the sample to a (function, tier) — so this
/// crate stays free of upward dependencies.
pub struct EpochSampler<'a> {
    /// The shared engine epoch (the same counter preemption deadlines watch).
    pub epoch: &'a AtomicU64,
    /// The epoch value the last sample was taken at; samples fire only when
    /// the epoch moves past it, so sampling frequency is the ticker's, not
    /// the back-edge rate's.
    pub last: &'a mut u64,
    /// Receives each sample's current wasm byte offset.
    pub record: &'a mut dyn FnMut(u32),
}

impl std::fmt::Debug for EpochSampler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochSampler")
            .field("epoch", &self.epoch)
            .field("last", &self.last)
            .finish_non_exhaustive()
    }
}

impl EpochSampler<'_> {
    /// Takes a sample if the epoch has advanced since the last one. The
    /// offset is computed lazily — only when a sample actually fires.
    #[inline]
    pub fn poll(&mut self, offset: impl FnOnce() -> u32) {
        let now = self.epoch.load(Ordering::Relaxed);
        if now != *self.last {
            *self.last = now;
            (self.record)(offset());
        }
    }
}

/// The hot-loop detection hook for on-stack replacement.
///
/// Execution loops poll this at the fused meter-check sites. The hook fires
/// only at *loop-body starts* — offsets the function's [`FuelPlan`] records
/// as epoch-check sites — because those are the back-edge targets where the
/// frame is in canonical interpreter layout and the optimizing tier emits an
/// OSR entry stub. Each firing site increments one shared per-function
/// counter; once it passes `threshold` the execution loop exits with an OSR
/// request and the engine attempts the tier transition.
pub struct OsrHook<'a> {
    /// The function's fuel plan; its epoch-check offsets are exactly the
    /// loop-body starts eligible for OSR entry.
    pub plan: &'a FuelPlan,
    /// The per-function back-edge counter (persists across exits).
    pub count: &'a mut u32,
    /// Fire once `count` exceeds this. Zero forces OSR at every back edge.
    pub threshold: u32,
    /// Skip exactly one firing (set after a failed or still-pending
    /// transition so the activation makes loop progress between attempts).
    pub skip_once: &'a mut bool,
}

impl std::fmt::Debug for OsrHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsrHook")
            .field("count", &self.count)
            .field("threshold", &self.threshold)
            .field("skip_once", &self.skip_once)
            .finish_non_exhaustive()
    }
}

/// Fuel and preemption state for one activation.
///
/// Both meters are optional so un-metered execution stays exactly the code
/// path it was before metering existed: a `FuelCheck` or `EpochCheck`
/// instruction executed against [`Meter::off`] is a no-op.
#[derive(Debug, Default)]
pub struct Meter<'a> {
    /// Remaining fuel, decremented by `FuelCheck`. `None` disables metering.
    pub fuel: Option<&'a mut u64>,
    /// The shared engine epoch and this activation's deadline; execution is
    /// interrupted once the epoch reaches the deadline. `None` disables
    /// preemption.
    pub epoch: Option<(&'a AtomicU64, u64)>,
    /// Sampling-profiler hook, polled at the same sites as the meters.
    /// `None` (the overwhelmingly common case) costs one branch per site and
    /// never charges simulated cycles.
    pub sampler: Option<EpochSampler<'a>>,
    /// On-stack-replacement hook, polled at the same sites as the meters
    /// *before* any fuel is charged (so a completed transition re-executes
    /// the site's check in the new tier exactly once). `None` disables OSR.
    pub osr: Option<OsrHook<'a>>,
}

impl<'a> Meter<'a> {
    /// A meter that charges nothing and never interrupts.
    pub fn off() -> Meter<'a> {
        Meter::default()
    }

    /// Charges `amount` fuel. On exhaustion the remaining fuel is clamped to
    /// zero (so consumed-at-trap equals the initial budget in every tier) and
    /// [`TrapCode::OutOfFuel`] is returned.
    pub fn charge_fuel(&mut self, amount: u64) -> Result<(), TrapCode> {
        if let Some(fuel) = self.fuel.as_deref_mut() {
            if *fuel >= amount {
                *fuel -= amount;
            } else {
                *fuel = 0;
                return Err(TrapCode::OutOfFuel);
            }
        }
        Ok(())
    }

    /// Polls the epoch; returns [`TrapCode::Interrupted`] once it has reached
    /// this activation's deadline.
    pub fn check_epoch(&self) -> Result<(), TrapCode> {
        if let Some((epoch, deadline)) = self.epoch {
            if epoch.load(Ordering::Relaxed) >= deadline {
                return Err(TrapCode::Interrupted);
            }
        }
        Ok(())
    }

    /// Polls the sampling profiler, if one is attached. Charges nothing.
    #[inline]
    pub fn poll_sampler(&mut self, offset: impl FnOnce() -> u32) {
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.poll(offset);
        }
    }

    /// True when a sampling profiler is attached.
    pub fn has_sampler(&self) -> bool {
        self.sampler.is_some()
    }

    /// Polls the OSR hook at a meter-check site. Returns `Some(offset)` when
    /// the site is a loop-body start whose back-edge counter has passed the
    /// threshold — the execution loop must then exit with an OSR request.
    /// Charges nothing. The offset is computed lazily, like the sampler's.
    #[inline]
    pub fn poll_osr(&mut self, offset: impl FnOnce() -> u32) -> Option<u32> {
        let hook = self.osr.as_mut()?;
        let off = offset();
        if !hook.plan.epoch_check_at(off) {
            return None;
        }
        *hook.count = hook.count.saturating_add(1);
        if *hook.count <= hook.threshold {
            return None;
        }
        if *hook.skip_once {
            *hook.skip_once = false;
            return None;
        }
        Some(off)
    }

    /// True when an OSR hook is attached.
    pub fn has_osr(&self) -> bool {
        self.osr.is_some()
    }
}

/// The mutable runtime state a frame executes against.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// The shared value stack.
    pub values: &'a mut ValueStack,
    /// The executing frame's base slot (VFP) within the value stack.
    pub frame_base: usize,
    /// The instance's linear memory, if it has one.
    pub memory: Option<&'a mut LinearMemory>,
    /// The instance's globals.
    pub globals: &'a mut [GlobalSlot],
    /// The instance's tables.
    pub tables: &'a mut [Table],
    /// Fuel and preemption state.
    pub meter: Meter<'a>,
}

impl<'a> ExecContext<'a> {
    fn slot_index(&self, slot: u32) -> usize {
        self.frame_base + slot as usize
    }
}

/// Why a probe instruction exited to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeExit {
    /// Unoptimized probe: the runtime must look up and fire probes.
    Runtime {
        /// Probe site id.
        probe_id: u32,
    },
    /// Optimized direct probe call.
    Direct {
        /// Probe site id.
        probe_id: u32,
    },
    /// Intrinsified counter increment.
    Counter {
        /// Counter id.
        counter_id: u32,
    },
    /// Optimized probe passing the top-of-stack value.
    TosValue {
        /// Probe site id.
        probe_id: u32,
        /// The value passed to the probe.
        bits: u64,
    },
}

/// The reason compiled code stopped executing.
#[derive(Debug, Clone, PartialEq)]
pub enum CpuExit {
    /// The function returned. Results are in the frame's first result slots.
    Return,
    /// A direct call; the engine must execute `func_index` and resume at
    /// `resume_pc`.
    Call {
        /// Callee function index.
        func_index: u32,
        /// Program counter to resume this code at after the call.
        resume_pc: usize,
    },
    /// An indirect call; the engine must check and execute the table entry.
    CallIndirect {
        /// Expected signature (type index).
        type_index: u32,
        /// Table index.
        table_index: u32,
        /// The dynamic element index.
        entry_index: u32,
        /// Program counter to resume at after the call.
        resume_pc: usize,
    },
    /// A probe fired; the engine must notify the instrumentation and resume.
    Probe {
        /// What kind of probe and its payload.
        exit: ProbeExit,
        /// Program counter to resume at.
        resume_pc: usize,
    },
    /// The OSR hook fired at a hot loop-body start; the engine should try to
    /// transfer this activation into the optimizing tier, or resume at
    /// `resume_pc` (the check instruction itself, whose meter work has not
    /// yet run) to continue in place.
    Osr {
        /// The wasm bytecode offset of the loop-body start.
        offset: u32,
        /// Program counter to resume at if the transition is not taken.
        resume_pc: usize,
    },
    /// Execution trapped.
    Trap {
        /// The trap reason.
        code: TrapCode,
        /// Program counter of the trapping instruction — the engine maps it
        /// back to a wasm bytecode offset through the code's source map when
        /// building a backtrace.
        pc: usize,
    },
}

/// Invokes `$callback!` with the table of operations that get one decoded
/// kind per operation, width, and operand form: every integer ALU operation
/// that cannot trap (register and immediate right operand), every integer
/// comparison (likewise), and every integer unary and floating-point
/// operation. Division and remainder, which can trap, run through
/// [`Kind::Generic`] instead.
macro_rules! with_op_table {
    ($callback:ident! { $($args:tt)* }) => {
        $callback! {
            $($args)*
            // op: register W32, W64; immediate W32, W64
            alu [
                Add: AddW32 AddW64 AddImmW32 AddImmW64,
                Sub: SubW32 SubW64 SubImmW32 SubImmW64,
                Mul: MulW32 MulW64 MulImmW32 MulImmW64,
                And: AndW32 AndW64 AndImmW32 AndImmW64,
                Or: OrW32 OrW64 OrImmW32 OrImmW64,
                Xor: XorW32 XorW64 XorImmW32 XorImmW64,
                Shl: ShlW32 ShlW64 ShlImmW32 ShlImmW64,
                ShrS: ShrSW32 ShrSW64 ShrSImmW32 ShrSImmW64,
                ShrU: ShrUW32 ShrUW64 ShrUImmW32 ShrUImmW64,
                Rotl: RotlW32 RotlW64 RotlImmW32 RotlImmW64,
                Rotr: RotrW32 RotrW64 RotrImmW32 RotrImmW64,
            ]
            cmp [
                Eq: EqW32 EqW64 EqImmW32 EqImmW64,
                Ne: NeW32 NeW64 NeImmW32 NeImmW64,
                LtS: LtSW32 LtSW64 LtSImmW32 LtSImmW64,
                LtU: LtUW32 LtUW64 LtUImmW32 LtUImmW64,
                GtS: GtSW32 GtSW64 GtSImmW32 GtSImmW64,
                GtU: GtUW32 GtUW64 GtUImmW32 GtUImmW64,
                LeS: LeSW32 LeSW64 LeSImmW32 LeSImmW64,
                LeU: LeUW32 LeUW64 LeUImmW32 LeUImmW64,
                GeS: GeSW32 GeSW64 GeSImmW32 GeSImmW64,
                GeU: GeUW32 GeUW64 GeUImmW32 GeUImmW64,
            ]
            // op: W32, W64
            unop [
                Clz: ClzW32 ClzW64,
                Ctz: CtzW32 CtzW64,
                Popcnt: PopcntW32 PopcntW64,
                Eqz: EqzW32 EqzW64,
                Extend8S: Extend8SW32 Extend8SW64,
                Extend16S: Extend16SW32 Extend16SW64,
                Extend32S: Extend32SW32 Extend32SW64,
            ]
            falu [
                Add: FAddW32 FAddW64,
                Sub: FSubW32 FSubW64,
                Mul: FMulW32 FMulW64,
                Div: FDivW32 FDivW64,
                Min: FMinW32 FMinW64,
                Max: FMaxW32 FMaxW64,
                Copysign: FCopysignW32 FCopysignW64,
            ]
            funop [
                Abs: FAbsW32 FAbsW64,
                Neg: FNegW32 FNegW64,
                Ceil: FCeilW32 FCeilW64,
                Floor: FFloorW32 FFloorW64,
                Trunc: FTruncW32 FTruncW64,
                Nearest: FNearestW32 FNearestW64,
                Sqrt: FSqrtW32 FSqrtW64,
            ]
            fcmp [
                Eq: FEqW32 FEqW64,
                Ne: FNeW32 FNeW64,
                Lt: FLtW32 FLtW64,
                Gt: FGtW32 FGtW64,
                Le: FLeW32 FLeW64,
                Ge: FGeW32 FGeW64,
            ]
        }
    };
}

/// Defines [`Kind`] — the fixed kinds plus one per row and column of the
/// operation table — and the decoder's lookups into the table.
macro_rules! define_kinds {
    (
        alu [$($alu:ident: $alu32:ident $alu64:ident $alui32:ident $alui64:ident,)*]
        cmp [$($cmp:ident: $cmp32:ident $cmp64:ident $cmpi32:ident $cmpi64:ident,)*]
        unop [$($un:ident: $un32:ident $un64:ident,)*]
        falu [$($fa:ident: $fa32:ident $fa64:ident,)*]
        funop [$($fu:ident: $fu32:ident $fu64:ident,)*]
        fcmp [$($fc:ident: $fc32:ident $fc64:ident,)*]
    ) => {
        /// What a decoded [`Op`] does; the executor dispatches on it once per
        /// instruction. An `F` prefix names the floating-point register bank,
        /// and the `1`/`2`/`4`/`8` suffixes of loads and stores the access
        /// width in bytes.
        #[derive(Debug, Clone, Copy)]
        #[repr(u8)]
        enum Kind {
            Nop,
            MovImm,
            FMovImm,
            Mov,
            FMov,
            LoadSlot,
            FLoadSlot,
            StoreSlot,
            FStoreSlot,
            StoreSlotImm,
            StoreTag,
            Select,
            FSelect,
            Load1,
            Load2,
            Load4,
            Load8,
            FLoad1,
            FLoad2,
            FLoad4,
            FLoad8,
            Store1,
            Store2,
            Store4,
            Store8,
            FStore1,
            FStore2,
            FStore4,
            FStore8,
            GlobalGet,
            FGlobalGet,
            GlobalSet,
            FGlobalSet,
            Jump,
            BrIf,
            BrIfNot,
            BrTable,
            Return,
            /// Executes the original [`MachInst`] at `pc`: division and
            /// remainder, conversions, `memory.size`/`memory.grow`, calls,
            /// probes, meter checks, and traps.
            Generic,
            $($alu32, $alu64, $alui32, $alui64,)*
            $($cmp32, $cmp64, $cmpi32, $cmpi64,)*
            $($un32, $un64,)*
            $($fa32, $fa64,)*
            $($fu32, $fu64,)*
            $($fc32, $fc64,)*
        }

        impl Kind {
            /// The kind of an integer ALU operation with a register or
            /// (`imm`) immediate right operand; `None` for the trapping
            /// division and remainder operations.
            fn alu(op: AluOp, width: Width, imm: bool) -> Option<Kind> {
                Some(match (op, width, imm) {
                    $(
                        (AluOp::$alu, Width::W32, false) => Kind::$alu32,
                        (AluOp::$alu, Width::W64, false) => Kind::$alu64,
                        (AluOp::$alu, Width::W32, true) => Kind::$alui32,
                        (AluOp::$alu, Width::W64, true) => Kind::$alui64,
                    )*
                    (AluOp::DivS | AluOp::DivU | AluOp::RemS | AluOp::RemU, _, _) => return None,
                })
            }

            /// The kind of an integer comparison with a register or
            /// (`imm`) immediate right operand.
            fn cmp(op: CmpOp, width: Width, imm: bool) -> Kind {
                match (op, width, imm) {
                    $(
                        (CmpOp::$cmp, Width::W32, false) => Kind::$cmp32,
                        (CmpOp::$cmp, Width::W64, false) => Kind::$cmp64,
                        (CmpOp::$cmp, Width::W32, true) => Kind::$cmpi32,
                        (CmpOp::$cmp, Width::W64, true) => Kind::$cmpi64,
                    )*
                }
            }

            fn unop(op: UnOp, width: Width) -> Kind {
                match (op, width) {
                    $(
                        (UnOp::$un, Width::W32) => Kind::$un32,
                        (UnOp::$un, Width::W64) => Kind::$un64,
                    )*
                }
            }

            fn falu(op: FAluOp, width: Width) -> Kind {
                match (op, width) {
                    $(
                        (FAluOp::$fa, Width::W32) => Kind::$fa32,
                        (FAluOp::$fa, Width::W64) => Kind::$fa64,
                    )*
                }
            }

            fn funop(op: FUnOp, width: Width) -> Kind {
                match (op, width) {
                    $(
                        (FUnOp::$fu, Width::W32) => Kind::$fu32,
                        (FUnOp::$fu, Width::W64) => Kind::$fu64,
                    )*
                }
            }

            fn fcmp(op: FCmpOp, width: Width) -> Kind {
                match (op, width) {
                    $(
                        (FCmpOp::$fc, Width::W32) => Kind::$fc32,
                        (FCmpOp::$fc, Width::W64) => Kind::$fc64,
                    )*
                }
            }
        }
    };
}

with_op_table!(define_kinds! {});

/// The executor's dispatch: `$arms` (the fixed kinds) plus one arm per
/// entry of the operation table, each calling [`ops`] with constant
/// operation and width so it compiles to the bare operation.
macro_rules! dispatch {
    (
        $kind:expr, $g:ident, $f:ident, $r:ident, $a:ident, $b:ident, $imm:ident,
        { $($arms:tt)* }
        alu [$($alu:ident: $alu32:ident $alu64:ident $alui32:ident $alui64:ident,)*]
        cmp [$($cmp:ident: $cmp32:ident $cmp64:ident $cmpi32:ident $cmpi64:ident,)*]
        unop [$($un:ident: $un32:ident $un64:ident,)*]
        falu [$($fa:ident: $fa32:ident $fa64:ident,)*]
        funop [$($fu:ident: $fu32:ident $fu64:ident,)*]
        fcmp [$($fc:ident: $fc32:ident $fc64:ident,)*]
    ) => {
        match $kind {
            $($arms)*
            $(
                Kind::$alu32 => $g[$r] = alu(AluOp::$alu, Width::W32, $g[$a], $g[$b]),
                Kind::$alu64 => $g[$r] = alu(AluOp::$alu, Width::W64, $g[$a], $g[$b]),
                Kind::$alui32 => $g[$r] = alu(AluOp::$alu, Width::W32, $g[$a], $imm),
                Kind::$alui64 => $g[$r] = alu(AluOp::$alu, Width::W64, $g[$a], $imm),
            )*
            $(
                Kind::$cmp32 => $g[$r] = ops::eval_cmp(CmpOp::$cmp, Width::W32, $g[$a], $g[$b]),
                Kind::$cmp64 => $g[$r] = ops::eval_cmp(CmpOp::$cmp, Width::W64, $g[$a], $g[$b]),
                Kind::$cmpi32 => $g[$r] = ops::eval_cmp(CmpOp::$cmp, Width::W32, $g[$a], $imm),
                Kind::$cmpi64 => $g[$r] = ops::eval_cmp(CmpOp::$cmp, Width::W64, $g[$a], $imm),
            )*
            $(
                Kind::$un32 => $g[$r] = ops::eval_unop(UnOp::$un, Width::W32, $g[$a]),
                Kind::$un64 => $g[$r] = ops::eval_unop(UnOp::$un, Width::W64, $g[$a]),
            )*
            $(
                Kind::$fa32 => $f[$r] = ops::eval_falu(FAluOp::$fa, Width::W32, $f[$a], $f[$b]),
                Kind::$fa64 => $f[$r] = ops::eval_falu(FAluOp::$fa, Width::W64, $f[$a], $f[$b]),
            )*
            $(
                Kind::$fu32 => $f[$r] = ops::eval_funop(FUnOp::$fu, Width::W32, $f[$a]),
                Kind::$fu64 => $f[$r] = ops::eval_funop(FUnOp::$fu, Width::W64, $f[$a]),
            )*
            $(
                Kind::$fc32 => $g[$r] = ops::eval_fcmp(FCmpOp::$fc, Width::W32, $f[$a], $f[$b]),
                Kind::$fc64 => $g[$r] = ops::eval_fcmp(FCmpOp::$fc, Width::W64, $f[$a], $f[$b]),
            )*
        }
    };
}

/// Evaluates an integer ALU operation that cannot trap.
#[inline(always)]
fn alu(op: AluOp, width: Width, a: u64, b: u64) -> u64 {
    match ops::eval_alu(op, width, a, b) {
        Ok(v) => v,
        Err(code) => unreachable!("{op:?} trapped: {code}"),
    }
}

/// One pre-decoded instruction: a [`Kind`], the instruction's
/// [`CostClass`], and operands with registers as bank indices, labels as
/// instruction indices, and immediates extended to the operation width.
///
/// Field use by kind: `r` is the result register, or the register a memory
/// store writes; `a` is the first source (ALU left operand, move, slot, or
/// global source, memory address, branch or select condition, `br_table`
/// index) or, for `StoreTag`, the tag byte; `arg` is the right register
/// operand, frame slot, memory offset, global index, branch target,
/// select's `if_true` register, or a `br_table`'s first side-table entry;
/// `imm` is the immediate, select's `if_false` register, a load's
/// [`load_extension`], or a `br_table`'s in-range entry count.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    cost: CostClass,
    r: u8,
    a: u8,
    arg: u32,
    imm: u64,
}

const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// The pre-decoded form of a [`CodeBuffer`], built on its first execution:
/// one [`Op`] per instruction, and the `br_table` jump tables side by side
/// (each table's in-range targets, then its default).
#[derive(Debug, Clone)]
pub(crate) struct Decoded {
    ops: Vec<Op>,
    br_targets: Vec<u32>,
}

impl Decoded {
    /// Decodes `insts`, resolving labels through `label_targets`.
    pub(crate) fn new(insts: &[MachInst], label_targets: &[usize]) -> Decoded {
        let target = |label: Label| -> u32 {
            u32::try_from(label_targets[label.0 as usize]).expect("code fits u32 indices")
        };
        let mut br_targets = Vec::new();
        let ops = insts
            .iter()
            .map(|inst| decode(inst, &target, &mut br_targets))
            .collect();
        Decoded { ops, br_targets }
    }

    /// The target of a `br_table` op for a dynamic index.
    #[inline(always)]
    fn br_target(&self, op: Op, index: u64) -> usize {
        let entry = index.min(op.imm) as usize;
        self.br_targets[op.arg as usize + entry] as usize
    }
}

fn decode(inst: &MachInst, target: &impl Fn(Label) -> u32, br_targets: &mut Vec<u32>) -> Op {
    use MachInst::*;
    let base = |kind: Kind| Op { kind, cost: CostClass::of(inst), r: 0, a: 0, arg: 0, imm: 0 };
    let banked = |reg: AnyReg, gpr: Kind, fpr: Kind| match reg {
        AnyReg::Gpr(r) => (gpr, r.0),
        AnyReg::Fpr(f) => (fpr, f.0),
    };
    match *inst {
        Nop => base(Kind::Nop),
        MovImm { dst, imm } => Op { r: dst.0, imm: imm as u64, ..base(Kind::MovImm) },
        FMovImm { dst, bits } => Op { r: dst.0, imm: bits, ..base(Kind::FMovImm) },
        Mov { dst, src } => Op { r: dst.0, a: src.0, ..base(Kind::Mov) },
        FMov { dst, src } => Op { r: dst.0, a: src.0, ..base(Kind::FMov) },
        LoadSlot { dst, slot } => {
            let (kind, r) = banked(dst, Kind::LoadSlot, Kind::FLoadSlot);
            Op { r, arg: slot, ..base(kind) }
        }
        StoreSlot { slot, src } => {
            let (kind, a) = banked(src, Kind::StoreSlot, Kind::FStoreSlot);
            Op { a, arg: slot, ..base(kind) }
        }
        StoreSlotImm { slot, imm } => Op { arg: slot, imm: imm as u64, ..base(Kind::StoreSlotImm) },
        StoreTag { slot, tag } => Op { a: tag as u8, arg: slot, ..base(Kind::StoreTag) },
        Alu { op, width, dst, a, b } => match Kind::alu(op, width, false) {
            Some(kind) => Op { r: dst.0, a: a.0, arg: b.0 as u32, ..base(kind) },
            None => base(Kind::Generic),
        },
        AluImm { op, width, dst, a, imm } => match Kind::alu(op, width, true) {
            Some(kind) => Op { r: dst.0, a: a.0, imm: extend_imm(width, imm), ..base(kind) },
            None => base(Kind::Generic),
        },
        Unop { op, width, dst, src } => Op { r: dst.0, a: src.0, ..base(Kind::unop(op, width)) },
        Cmp { op, width, dst, a, b } => {
            Op { r: dst.0, a: a.0, arg: b.0 as u32, ..base(Kind::cmp(op, width, false)) }
        }
        CmpImm { op, width, dst, a, imm } => Op {
            r: dst.0,
            a: a.0,
            imm: extend_imm(width, imm),
            ..base(Kind::cmp(op, width, true))
        },
        FAlu { op, width, dst, a, b } => {
            Op { r: dst.0, a: a.0, arg: b.0 as u32, ..base(Kind::falu(op, width)) }
        }
        FUnop { op, width, dst, src } => Op { r: dst.0, a: src.0, ..base(Kind::funop(op, width)) },
        FCmp { op, width, dst, a, b } => {
            Op { r: dst.0, a: a.0, arg: b.0 as u32, ..base(Kind::fcmp(op, width)) }
        }
        Select { dst, cond, if_true, if_false } => Op {
            r: dst.0,
            a: cond.0,
            arg: if_true.0 as u32,
            imm: if_false.0 as u64,
            ..base(Kind::Select)
        },
        FSelect { dst, cond, if_true, if_false } => Op {
            r: dst.0,
            a: cond.0,
            arg: if_true.0 as u32,
            imm: if_false.0 as u64,
            ..base(Kind::FSelect)
        },
        MemLoad { dst, addr, offset, width, signed, dst_width } => {
            let w = width_index(width);
            let (kind, r) = banked(
                dst,
                [Kind::Load1, Kind::Load2, Kind::Load4, Kind::Load8][w],
                [Kind::FLoad1, Kind::FLoad2, Kind::FLoad4, Kind::FLoad8][w],
            );
            let imm = load_extension(width, signed, dst_width);
            Op { r, a: addr.0, arg: offset, imm, ..base(kind) }
        }
        MemStore { src, addr, offset, width } => {
            let w = width_index(width);
            let (kind, r) = banked(
                src,
                [Kind::Store1, Kind::Store2, Kind::Store4, Kind::Store8][w],
                [Kind::FStore1, Kind::FStore2, Kind::FStore4, Kind::FStore8][w],
            );
            Op { r, a: addr.0, arg: offset, ..base(kind) }
        }
        GlobalGet { dst, index } => {
            let (kind, r) = banked(dst, Kind::GlobalGet, Kind::FGlobalGet);
            Op { r, arg: index, ..base(kind) }
        }
        GlobalSet { index, src } => {
            let (kind, a) = banked(src, Kind::GlobalSet, Kind::FGlobalSet);
            Op { a, arg: index, ..base(kind) }
        }
        Jump { target: label } => Op { arg: target(label), ..base(Kind::Jump) },
        BrIf { cond, target: label, negate } => {
            let kind = if negate { Kind::BrIfNot } else { Kind::BrIf };
            Op { a: cond.0, arg: target(label), ..base(kind) }
        }
        BrTable { index, ref targets, default } => {
            let start = u32::try_from(br_targets.len()).expect("jump tables fit u32 indices");
            br_targets.extend(targets.iter().map(|&label| target(label)));
            br_targets.push(target(default));
            Op { a: index.0, arg: start, imm: targets.len() as u64, ..base(Kind::BrTable) }
        }
        Return => base(Kind::Return),
        MemorySize { .. }
        | MemoryGrow { .. }
        | Convert { .. }
        | Call { .. }
        | CallIndirect { .. }
        | ProbeRuntime { .. }
        | ProbeDirect { .. }
        | ProbeCounter { .. }
        | ProbeTosValue { .. }
        | FuelCheck { .. }
        | EpochCheck
        | Trap { .. } => base(Kind::Generic),
    }
}

/// An immediate right operand as the operation sees it: sign-extended from
/// its low 32 bits and kept zero-extended for 32-bit operations.
fn extend_imm(width: Width, imm: i64) -> u64 {
    match width {
        Width::W32 => imm as i32 as u32 as u64,
        Width::W64 => imm as u64,
    }
}

/// The position of a memory access width in the `1, 2, 4, 8` kind arrays.
fn width_index(width: u32) -> usize {
    match width {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => panic!("memory access width must be 1, 2, 4, or 8 bytes, not {width}"),
    }
}

/// How a load extends the `width` bytes it reads, packed for [`extend`]:
/// the low 32 bits hold the sign bit of a signed access narrower than 8
/// bytes (zero otherwise), and the high 32 bits are set when the
/// destination is 64 bits wide.
fn load_extension(width: u32, signed: bool, dst_width: Width) -> u64 {
    let sign = if signed && width < 8 { 1 << (8 * width - 1) } else { 0 };
    match dst_width {
        Width::W32 => sign,
        Width::W64 => 0xFFFF_FFFF_0000_0000 | sign,
    }
}

/// Extends a loaded value by its [`load_extension`]: flipping and then
/// subtracting the sign bit sign-extends it (a no-op when the sign bit is
/// zero), and the mask zero-extends the result from the destination width.
#[inline(always)]
fn extend(raw: u64, extension: u64) -> u64 {
    let sign = extension & 0xFFFF_FFFF;
    let keep = extension | 0xFFFF_FFFF;
    (raw ^ sign).wrapping_sub(sign) & keep
}

#[inline(always)]
fn load(ctx: &ExecContext<'_>, addr: u64, op: Op, width: u32) -> Result<u64, TrapCode> {
    let memory = ctx.memory.as_deref().ok_or(TrapCode::MemoryOutOfBounds)?;
    let raw = memory.load(addr as u32, op.arg, width)?;
    Ok(extend(raw, op.imm))
}

#[inline(always)]
fn store(
    ctx: &mut ExecContext<'_>,
    addr: u64,
    op: Op,
    width: u32,
    bits: u64,
) -> Result<(), TrapCode> {
    let memory = ctx.memory.as_deref_mut().ok_or(TrapCode::MemoryOutOfBounds)?;
    memory.store(addr as u32, op.arg, width, bits)
}

/// Executes compiled code until it exits.
#[derive(Debug, Clone)]
pub struct Cpu {
    class_costs: [u64; CostClass::COUNT],
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new(CostModel::default())
    }
}

impl Cpu {
    /// Creates a CPU that charges by the given cost model.
    pub fn new(cost: CostModel) -> Cpu {
        Cpu { class_costs: cost.class_costs() }
    }

    /// Runs `code` starting at instruction `pc` until it exits, charging
    /// executed instructions to `cycles`. Running off the end of the code
    /// returns.
    pub fn run(
        &self,
        state: &mut CpuState,
        code: &CodeBuffer,
        mut pc: usize,
        ctx: &mut ExecContext<'_>,
        cycles: &mut CycleCounter,
    ) -> CpuExit {
        macro_rules! or_trap {
            ($result:expr) => {
                match $result {
                    Ok(v) => v,
                    Err(code) => break CpuExit::Trap { code, pc },
                }
            };
        }
        let decoded = code.decoded();
        // Cycles accumulate in a local, flushed once at the exit; every
        // instruction is charged before it executes, so a trap includes the
        // trapping instruction's cost.
        let mut spent = 0;
        let exit = loop {
            let Some(&op) = decoded.ops.get(pc) else {
                break CpuExit::Return;
            };
            spent += self.class_costs[op.cost as usize];
            let (g, f) = (&mut state.gprs, &mut state.fprs);
            let (r, a, b, imm) = (op.r as usize, op.a as usize, op.arg as usize, op.imm);
            with_op_table!(dispatch! { op.kind, g, f, r, a, b, imm, {
                Kind::Nop => {}
                Kind::MovImm => g[r] = imm,
                Kind::FMovImm => f[r] = imm,
                Kind::Mov => g[r] = g[a],
                Kind::FMov => f[r] = f[a],
                Kind::LoadSlot => g[r] = ctx.values.read(ctx.slot_index(op.arg)),
                Kind::FLoadSlot => f[r] = ctx.values.read(ctx.slot_index(op.arg)),
                Kind::StoreSlot => ctx.values.write(ctx.slot_index(op.arg), g[a]),
                Kind::FStoreSlot => ctx.values.write(ctx.slot_index(op.arg), f[a]),
                Kind::StoreSlotImm => ctx.values.write(ctx.slot_index(op.arg), imm),
                Kind::StoreTag => {
                    let tag = ValueTag::from_byte(op.a).expect("decoded from a tag");
                    ctx.values.set_tag(ctx.slot_index(op.arg), tag);
                }
                Kind::Select => g[r] = if g[a] != 0 { g[b] } else { g[imm as usize] },
                Kind::FSelect => f[r] = if g[a] != 0 { f[b] } else { f[imm as usize] },
                Kind::Load1 => g[r] = or_trap!(load(ctx, g[a], op, 1)),
                Kind::Load2 => g[r] = or_trap!(load(ctx, g[a], op, 2)),
                Kind::Load4 => g[r] = or_trap!(load(ctx, g[a], op, 4)),
                Kind::Load8 => g[r] = or_trap!(load(ctx, g[a], op, 8)),
                Kind::FLoad1 => f[r] = or_trap!(load(ctx, g[a], op, 1)),
                Kind::FLoad2 => f[r] = or_trap!(load(ctx, g[a], op, 2)),
                Kind::FLoad4 => f[r] = or_trap!(load(ctx, g[a], op, 4)),
                Kind::FLoad8 => f[r] = or_trap!(load(ctx, g[a], op, 8)),
                Kind::Store1 => or_trap!(store(ctx, g[a], op, 1, g[r])),
                Kind::Store2 => or_trap!(store(ctx, g[a], op, 2, g[r])),
                Kind::Store4 => or_trap!(store(ctx, g[a], op, 4, g[r])),
                Kind::Store8 => or_trap!(store(ctx, g[a], op, 8, g[r])),
                Kind::FStore1 => or_trap!(store(ctx, g[a], op, 1, f[r])),
                Kind::FStore2 => or_trap!(store(ctx, g[a], op, 2, f[r])),
                Kind::FStore4 => or_trap!(store(ctx, g[a], op, 4, f[r])),
                Kind::FStore8 => or_trap!(store(ctx, g[a], op, 8, f[r])),
                Kind::GlobalGet => g[r] = ctx.globals[b].bits,
                Kind::FGlobalGet => f[r] = ctx.globals[b].bits,
                Kind::GlobalSet => ctx.globals[b].bits = g[a],
                Kind::FGlobalSet => ctx.globals[b].bits = f[a],
                Kind::Jump => {
                    pc = b;
                    continue;
                }
                Kind::BrIf => {
                    if g[a] != 0 {
                        pc = b;
                        continue;
                    }
                }
                Kind::BrIfNot => {
                    if g[a] == 0 {
                        pc = b;
                        continue;
                    }
                }
                Kind::BrTable => {
                    pc = decoded.br_target(op, g[a]);
                    continue;
                }
                Kind::Return => break CpuExit::Return,
                Kind::Generic => {
                    if let Err(exit) = execute_rare(&code.insts()[pc], state, code, pc, ctx) {
                        break exit;
                    }
                }
            }});
            pc += 1;
        };
        cycles.charge(spent);
        exit
    }
}

/// Executes one instruction decoded to [`Kind::Generic`]. `Err` carries
/// the exit when the instruction leaves the code.
fn execute_rare(
    inst: &MachInst,
    state: &mut CpuState,
    code: &CodeBuffer,
    pc: usize,
    ctx: &mut ExecContext<'_>,
) -> Result<(), CpuExit> {
    let trap = |code| CpuExit::Trap { code, pc };
    match *inst {
        MachInst::Alu { op, width, dst, a, b } => {
            let (a, b) = (state.gprs[a.index()], state.gprs[b.index()]);
            state.gprs[dst.index()] = ops::eval_alu(op, width, a, b).map_err(trap)?;
        }
        MachInst::AluImm { op, width, dst, a, imm } => {
            let a = state.gprs[a.index()];
            state.gprs[dst.index()] =
                ops::eval_alu(op, width, a, extend_imm(width, imm)).map_err(trap)?;
        }
        MachInst::Convert { op, dst, src } => {
            let bits = ops::eval_convert(op, state.read(src)).map_err(trap)?;
            state.write(dst, bits);
        }
        MachInst::MemorySize { dst } => {
            let pages = ctx.memory.as_deref().map(|m| m.size_pages()).unwrap_or(0);
            state.gprs[dst.index()] = pages as u64;
        }
        MachInst::MemoryGrow { dst, delta } => {
            let delta = state.gprs[delta.index()] as u32;
            let result = match ctx.memory.as_deref_mut() {
                Some(m) => m.grow(delta),
                None => -1,
            };
            state.gprs[dst.index()] = result as u32 as u64;
        }
        MachInst::Call { func_index } => {
            return Err(CpuExit::Call { func_index, resume_pc: pc + 1 });
        }
        MachInst::CallIndirect { type_index, table_index, index } => {
            return Err(CpuExit::CallIndirect {
                type_index,
                table_index,
                entry_index: state.gprs[index.index()] as u32,
                resume_pc: pc + 1,
            });
        }
        MachInst::ProbeRuntime { probe_id } => {
            return Err(probe_exit(ProbeExit::Runtime { probe_id }, pc));
        }
        MachInst::ProbeDirect { probe_id } => {
            return Err(probe_exit(ProbeExit::Direct { probe_id }, pc));
        }
        MachInst::ProbeCounter { counter_id } => {
            return Err(probe_exit(ProbeExit::Counter { counter_id }, pc));
        }
        MachInst::ProbeTosValue { probe_id, src } => {
            let bits = state.read(src);
            return Err(probe_exit(ProbeExit::TosValue { probe_id, bits }, pc));
        }
        MachInst::FuelCheck { amount } => {
            // OSR is polled before any metering runs: when the hook fires,
            // the site's fuel has not been charged, and the opt-tier entry
            // stub jumps to the loop header whose first instruction is this
            // same check — so the charge happens exactly once regardless of
            // the transition.
            if let Some(offset) = ctx.meter.poll_osr(|| code.source_offset(pc).unwrap_or(0)) {
                return Err(CpuExit::Osr { offset, resume_pc: pc });
            }
            // The fused meter check: decrement fuel, then observe a pending
            // preemption request. A real engine implements this as one
            // register decrement-and-branch (the supervisor delivers
            // preemption by zeroing the activation's counter); the simulator
            // keeps the two meters separate but preserves that
            // single-sequence cost, which is why no distinct epoch poll is
            // emitted.
            ctx.meter.charge_fuel(amount).map_err(trap)?;
            ctx.meter.check_epoch().map_err(trap)?;
            ctx.meter.poll_sampler(|| code.source_offset(pc).unwrap_or(0));
        }
        MachInst::EpochCheck => {
            if let Some(offset) = ctx.meter.poll_osr(|| code.source_offset(pc).unwrap_or(0)) {
                return Err(CpuExit::Osr { offset, resume_pc: pc });
            }
            ctx.meter.check_epoch().map_err(trap)?;
            ctx.meter.poll_sampler(|| code.source_offset(pc).unwrap_or(0));
        }
        MachInst::Trap { code } => return Err(trap(code)),
        _ => unreachable!("`{inst}` decodes to a kind of its own"),
    }
    Ok(())
}

fn probe_exit(exit: ProbeExit, pc: usize) -> CpuExit {
    CpuExit::Probe { exit, resume_pc: pc + 1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::inst::ConvOp;
    use crate::reg::{FReg, Reg};
    use crate::values::WasmValue;
    use wasm::types::Limits;

    struct World {
        values: ValueStack,
        memory: LinearMemory,
        globals: Vec<GlobalSlot>,
        tables: Vec<Table>,
    }

    impl World {
        fn new() -> World {
            World {
                values: ValueStack::with_capacity(256),
                memory: LinearMemory::new(Limits::at_least(1)),
                globals: vec![GlobalSlot::from_value(WasmValue::I64(11))],
                tables: vec![Table::new(Limits::at_least(4))],
            }
        }

        fn run(&mut self, code: &CodeBuffer) -> (CpuExit, CpuState, u64) {
            let cpu = Cpu::new(CostModel::default());
            let mut state = CpuState::new();
            let mut cycles = CycleCounter::new();
            let mut ctx = ExecContext {
                values: &mut self.values,
                frame_base: 0,
                memory: Some(&mut self.memory),
                globals: &mut self.globals,
                tables: &mut self.tables,
                meter: Meter::off(),
            };
            let exit = cpu.run(&mut state, code, 0, &mut ctx, &mut cycles);
            (exit, state, cycles.total())
        }
    }

    #[test]
    fn arithmetic_and_moves() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 21 });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 2 });
        asm.emit(MachInst::Alu {
            op: AluOp::Mul,
            width: Width::W32,
            dst: Reg(2),
            a: Reg(0),
            b: Reg(1),
        });
        asm.emit(MachInst::AluImm {
            op: AluOp::Add,
            width: Width::W32,
            dst: Reg(2),
            a: Reg(2),
            imm: -2,
        });
        asm.emit(MachInst::StoreSlot { slot: 0, src: Reg(2).into() });
        asm.emit(MachInst::StoreTag { slot: 0, tag: ValueTag::I32 });
        asm.emit(MachInst::Return);
        let code = asm.finish();

        let mut w = World::new();
        let (exit, state, cycles) = w.run(&code);
        assert_eq!(exit, CpuExit::Return);
        assert_eq!(state.gprs[2], 40);
        assert_eq!(w.values.read_value(0), WasmValue::I32(40));
        assert!(cycles > 0);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        // r0 = counter, r1 = sum
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 10 });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 0 });
        let top = asm.new_bound_label();
        asm.emit(MachInst::Alu {
            op: AluOp::Add,
            width: Width::W64,
            dst: Reg(1),
            a: Reg(1),
            b: Reg(0),
        });
        asm.emit(MachInst::AluImm {
            op: AluOp::Sub,
            width: Width::W64,
            dst: Reg(0),
            a: Reg(0),
            imm: 1,
        });
        asm.emit(MachInst::BrIf { cond: Reg(0), target: top, negate: false });
        asm.emit(MachInst::Return);
        let code = asm.finish();

        let mut w = World::new();
        let (exit, state, _) = w.run(&code);
        assert_eq!(exit, CpuExit::Return);
        assert_eq!(state.gprs[1], 55);
    }

    #[test]
    fn float_ops_and_selects() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::FMovImm { dst: FReg(0), bits: 2.0f64.to_bits() });
        asm.emit(MachInst::FMovImm { dst: FReg(1), bits: 0.5f64.to_bits() });
        asm.emit(MachInst::FAlu {
            op: FAluOp::Div,
            width: Width::W64,
            dst: FReg(2),
            a: FReg(0),
            b: FReg(1),
        });
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 0 });
        asm.emit(MachInst::FSelect {
            dst: FReg(3),
            cond: Reg(0),
            if_true: FReg(0),
            if_false: FReg(2),
        });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, state, _) = w.run(&code);
        assert_eq!(f64::from_bits(state.fprs[2]), 4.0);
        assert_eq!(f64::from_bits(state.fprs[3]), 4.0);
    }

    #[test]
    fn memory_access_and_bounds_trap() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 64 });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: -1 });
        asm.emit(MachInst::MemStore { src: Reg(1).into(), addr: Reg(0), offset: 0, width: 4 });
        asm.emit(MachInst::MemLoad {
            dst: Reg(2).into(),
            addr: Reg(0),
            offset: 2,
            width: 2,
            signed: true,
            dst_width: Width::W32,
        });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (exit, state, _) = w.run(&code);
        assert_eq!(exit, CpuExit::Return);
        assert_eq!(state.gprs[2] as u32 as i32, -1);

        // Out-of-bounds store traps.
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 65536 });
        asm.emit(MachInst::MemStore { src: Reg(0).into(), addr: Reg(0), offset: 0, width: 4 });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let (exit, _, _) = w.run(&code);
        assert_eq!(exit, CpuExit::Trap { code: TrapCode::MemoryOutOfBounds, pc: 1 });
    }

    #[test]
    fn memory_size_and_grow() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MemorySize { dst: Reg(0) });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 2 });
        asm.emit(MachInst::MemoryGrow { dst: Reg(2), delta: Reg(1) });
        asm.emit(MachInst::MemorySize { dst: Reg(3) });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, state, _) = w.run(&code);
        assert_eq!(state.gprs[0], 1);
        assert_eq!(state.gprs[2], 1);
        assert_eq!(state.gprs[3], 3);
    }

    #[test]
    fn globals_and_tags() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::GlobalGet { dst: Reg(0).into(), index: 0 });
        asm.emit(MachInst::AluImm {
            op: AluOp::Add,
            width: Width::W64,
            dst: Reg(0),
            a: Reg(0),
            imm: 1,
        });
        asm.emit(MachInst::GlobalSet { index: 0, src: Reg(0).into() });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, _, _) = w.run(&code);
        assert_eq!(w.globals[0].value(), WasmValue::I64(12));
    }

    #[test]
    fn division_trap_exits() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 9 });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 0 });
        asm.emit(MachInst::Alu {
            op: AluOp::DivU,
            width: Width::W32,
            dst: Reg(2),
            a: Reg(0),
            b: Reg(1),
        });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (exit, _, _) = w.run(&code);
        assert_eq!(exit, CpuExit::Trap { code: TrapCode::DivisionByZero, pc: 2 });
    }

    #[test]
    fn call_and_probe_exits_resume_pcs() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::Call { func_index: 3 });
        asm.emit(MachInst::ProbeTosValue { probe_id: 9, src: Reg(5).into() });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (exit, _, _) = w.run(&code);
        assert_eq!(exit, CpuExit::Call { func_index: 3, resume_pc: 1 });

        // Resume at pc 1: the probe exit carries the register value.
        let cpu = Cpu::new(CostModel::default());
        let mut state = CpuState::new();
        state.gprs[5] = 77;
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut w.values,
            frame_base: 0,
            memory: Some(&mut w.memory),
            globals: &mut w.globals,
            tables: &mut w.tables,
            meter: Meter::off(),
        };
        let exit = cpu.run(&mut state, &code, 1, &mut ctx, &mut cycles);
        assert_eq!(
            exit,
            CpuExit::Probe {
                exit: ProbeExit::TosValue { probe_id: 9, bits: 77 },
                resume_pc: 2
            }
        );
        let exit = cpu.run(&mut state, &code, 2, &mut ctx, &mut cycles);
        assert_eq!(exit, CpuExit::Return);
    }

    #[test]
    fn br_table_dispatch() {
        let mut asm = Assembler::new();
        let l0 = asm.new_label();
        let l1 = asm.new_label();
        let ldefault = asm.new_label();
        asm.emit(MachInst::BrTable {
            index: Reg(0),
            targets: vec![l0, l1],
            default: ldefault,
        });
        asm.bind(l0);
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 100 });
        asm.emit(MachInst::Return);
        asm.bind(l1);
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 200 });
        asm.emit(MachInst::Return);
        asm.bind(ldefault);
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 300 });
        asm.emit(MachInst::Return);
        let code = asm.finish();

        for (input, expected) in [(0u64, 100u64), (1, 200), (2, 300), (99, 300)] {
            let cpu = Cpu::new(CostModel::default());
            let mut w = World::new();
            let mut state = CpuState::new();
            state.gprs[0] = input;
            let mut cycles = CycleCounter::new();
            let mut ctx = ExecContext {
                values: &mut w.values,
                frame_base: 0,
                memory: Some(&mut w.memory),
                globals: &mut w.globals,
                tables: &mut w.tables,
                meter: Meter::off(),
            };
            let exit = cpu.run(&mut state, &code, 0, &mut ctx, &mut cycles);
            assert_eq!(exit, CpuExit::Return);
            assert_eq!(state.gprs[1], expected, "input {input}");
        }
    }

    #[test]
    fn frame_base_offsets_slot_access() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::LoadSlot { dst: Reg(0).into(), slot: 1 });
        asm.emit(MachInst::AluImm {
            op: AluOp::Add,
            width: Width::W64,
            dst: Reg(0),
            a: Reg(0),
            imm: 5,
        });
        asm.emit(MachInst::StoreSlot { slot: 2, src: Reg(0).into() });
        asm.emit(MachInst::Return);
        let code = asm.finish();

        let mut w = World::new();
        w.values.write_tagged(10, 0, ValueTag::I64);
        w.values.write_tagged(11, 30, ValueTag::I64);
        let cpu = Cpu::new(CostModel::default());
        let mut state = CpuState::new();
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut w.values,
            frame_base: 10,
            memory: Some(&mut w.memory),
            globals: &mut w.globals,
            tables: &mut w.tables,
            meter: Meter::off(),
        };
        cpu.run(&mut state, &code, 0, &mut ctx, &mut cycles);
        assert_eq!(w.values.read(12), 35);
    }

    #[test]
    fn comparisons_feed_branches() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 3 });
        asm.emit(MachInst::CmpImm {
            op: CmpOp::LtS,
            width: Width::W32,
            dst: Reg(1),
            a: Reg(0),
            imm: 10,
        });
        let yes = asm.new_label();
        asm.emit(MachInst::BrIf { cond: Reg(1), target: yes, negate: false });
        asm.emit(MachInst::MovImm { dst: Reg(2), imm: 0 });
        asm.emit(MachInst::Return);
        asm.bind(yes);
        asm.emit(MachInst::MovImm { dst: Reg(2), imm: 1 });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, state, _) = w.run(&code);
        assert_eq!(state.gprs[2], 1);
    }

    #[test]
    fn executing_code_leaves_its_equality_alone() {
        let build = || {
            let mut asm = Assembler::new();
            asm.emit(MachInst::MovImm { dst: Reg(0), imm: 1 });
            asm.emit(MachInst::Return);
            asm.finish()
        };
        let (ran, fresh) = (build(), build());
        World::new().run(&ran);
        assert_eq!(ran, fresh);
        assert_eq!(ran.clone(), fresh);
    }

    #[test]
    fn cycles_reflect_cost_model() {
        let cost = CostModel::default();
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 1 });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, _, cycles) = w.run(&code);
        assert_eq!(cycles, cost.mov + cost.ret);
    }

    /// The semantics `Cpu::run` must reproduce, written directly over
    /// `MachInst` with `ops::eval_*` and `CostModel::inst_cost`: one match
    /// per executed instruction, no decoding.
    fn reference_run(
        code: &CodeBuffer,
        state: &mut CpuState,
        mut pc: usize,
        ctx: &mut ExecContext<'_>,
        cost: &CostModel,
    ) -> (CpuExit, u64) {
        let mut cycles = 0;
        let target = |label: Label| code.target(label);
        let imm_operand = |width: Width, imm: i64| match width {
            Width::W32 => imm as i32 as u32 as u64,
            Width::W64 => imm as u64,
        };
        loop {
            let Some(inst) = code.insts().get(pc) else {
                return (CpuExit::Return, cycles);
            };
            cycles += cost.inst_cost(inst);
            let trap = |code| (CpuExit::Trap { code, pc }, cycles);
            let g = &mut state.gprs;
            match inst.clone() {
                MachInst::Nop => {}
                MachInst::MovImm { dst, imm } => g[dst.index()] = imm as u64,
                MachInst::FMovImm { dst, bits } => state.fprs[dst.index()] = bits,
                MachInst::Mov { dst, src } => g[dst.index()] = g[src.index()],
                MachInst::FMov { dst, src } => state.fprs[dst.index()] = state.fprs[src.index()],
                MachInst::LoadSlot { dst, slot } => {
                    state.write(dst, ctx.values.read(ctx.frame_base + slot as usize))
                }
                MachInst::StoreSlot { slot, src } => {
                    ctx.values.write(ctx.frame_base + slot as usize, state.read(src))
                }
                MachInst::StoreSlotImm { slot, imm } => {
                    ctx.values.write(ctx.frame_base + slot as usize, imm as u64)
                }
                MachInst::StoreTag { slot, tag } => {
                    ctx.values.set_tag(ctx.frame_base + slot as usize, tag)
                }
                MachInst::Alu { op, width, dst, a, b } => {
                    match ops::eval_alu(op, width, g[a.index()], g[b.index()]) {
                        Ok(v) => g[dst.index()] = v,
                        Err(t) => return trap(t),
                    }
                }
                MachInst::AluImm { op, width, dst, a, imm } => {
                    match ops::eval_alu(op, width, g[a.index()], imm_operand(width, imm)) {
                        Ok(v) => g[dst.index()] = v,
                        Err(t) => return trap(t),
                    }
                }
                MachInst::Unop { op, width, dst, src } => {
                    g[dst.index()] = ops::eval_unop(op, width, g[src.index()])
                }
                MachInst::Cmp { op, width, dst, a, b } => {
                    g[dst.index()] = ops::eval_cmp(op, width, g[a.index()], g[b.index()])
                }
                MachInst::CmpImm { op, width, dst, a, imm } => {
                    g[dst.index()] = ops::eval_cmp(op, width, g[a.index()], imm_operand(width, imm))
                }
                MachInst::FAlu { op, width, dst, a, b } => {
                    let f = &mut state.fprs;
                    f[dst.index()] = ops::eval_falu(op, width, f[a.index()], f[b.index()])
                }
                MachInst::FUnop { op, width, dst, src } => {
                    let f = &mut state.fprs;
                    f[dst.index()] = ops::eval_funop(op, width, f[src.index()])
                }
                MachInst::FCmp { op, width, dst, a, b } => {
                    let f = &state.fprs;
                    g[dst.index()] = ops::eval_fcmp(op, width, f[a.index()], f[b.index()])
                }
                MachInst::Convert { op, dst, src } => match ops::eval_convert(op, state.read(src)) {
                    Ok(bits) => state.write(dst, bits),
                    Err(t) => return trap(t),
                },
                MachInst::Select { dst, cond, if_true, if_false } => {
                    let pick = if g[cond.index()] != 0 { if_true } else { if_false };
                    g[dst.index()] = g[pick.index()];
                }
                MachInst::FSelect { dst, cond, if_true, if_false } => {
                    let pick = if g[cond.index()] != 0 { if_true } else { if_false };
                    state.fprs[dst.index()] = state.fprs[pick.index()];
                }
                MachInst::MemLoad { dst, addr, offset, width, signed, dst_width } => {
                    let Some(memory) = ctx.memory.as_deref() else {
                        return trap(TrapCode::MemoryOutOfBounds);
                    };
                    let raw = match memory.load(g[addr.index()] as u32, offset, width) {
                        Ok(raw) => raw,
                        Err(t) => return trap(t),
                    };
                    let value = match (signed, width) {
                        (true, 1) => raw as u8 as i8 as i64 as u64,
                        (true, 2) => raw as u16 as i16 as i64 as u64,
                        (true, 4) => raw as u32 as i32 as i64 as u64,
                        _ => raw,
                    };
                    let value = match dst_width {
                        Width::W32 => value as u32 as u64,
                        Width::W64 => value,
                    };
                    state.write(dst, value);
                }
                MachInst::MemStore { src, addr, offset, width } => {
                    let (at, bits) = (g[addr.index()] as u32, state.read(src));
                    let Some(memory) = ctx.memory.as_deref_mut() else {
                        return trap(TrapCode::MemoryOutOfBounds);
                    };
                    if let Err(t) = memory.store(at, offset, width, bits) {
                        return trap(t);
                    }
                }
                MachInst::MemorySize { dst } => {
                    g[dst.index()] = ctx.memory.as_deref().map_or(0, |m| m.size_pages()) as u64
                }
                MachInst::MemoryGrow { dst, delta } => {
                    let delta = g[delta.index()] as u32;
                    let result = ctx.memory.as_deref_mut().map_or(-1, |m| m.grow(delta));
                    g[dst.index()] = result as u32 as u64;
                }
                MachInst::GlobalGet { dst, index } => {
                    state.write(dst, ctx.globals[index as usize].bits)
                }
                MachInst::GlobalSet { index, src } => {
                    ctx.globals[index as usize].bits = state.read(src)
                }
                MachInst::Jump { target: label } => {
                    pc = target(label);
                    continue;
                }
                MachInst::BrIf { cond, target: label, negate } => {
                    if (g[cond.index()] != 0) ^ negate {
                        pc = target(label);
                        continue;
                    }
                }
                MachInst::BrTable { index, targets, default } => {
                    let i = g[index.index()] as usize;
                    pc = target(targets.get(i).copied().unwrap_or(default));
                    continue;
                }
                MachInst::Call { func_index } => {
                    return (CpuExit::Call { func_index, resume_pc: pc + 1 }, cycles)
                }
                MachInst::CallIndirect { type_index, table_index, index } => {
                    let entry_index = g[index.index()] as u32;
                    let resume_pc = pc + 1;
                    let exit =
                        CpuExit::CallIndirect { type_index, table_index, entry_index, resume_pc };
                    return (exit, cycles);
                }
                MachInst::ProbeRuntime { probe_id } => {
                    return (probe_exit(ProbeExit::Runtime { probe_id }, pc), cycles)
                }
                MachInst::ProbeDirect { probe_id } => {
                    return (probe_exit(ProbeExit::Direct { probe_id }, pc), cycles)
                }
                MachInst::ProbeCounter { counter_id } => {
                    return (probe_exit(ProbeExit::Counter { counter_id }, pc), cycles)
                }
                MachInst::ProbeTosValue { probe_id, src } => {
                    let exit = ProbeExit::TosValue { probe_id, bits: state.read(src) };
                    return (probe_exit(exit, pc), cycles);
                }
                MachInst::FuelCheck { amount } => {
                    if let Err(t) = ctx.meter.charge_fuel(amount) {
                        return trap(t);
                    }
                    if let Err(t) = ctx.meter.check_epoch() {
                        return trap(t);
                    }
                }
                MachInst::EpochCheck => {
                    if let Err(t) = ctx.meter.check_epoch() {
                        return trap(t);
                    }
                }
                MachInst::Trap { code } => return trap(code),
                MachInst::Return => return (CpuExit::Return, cycles),
            }
            pc += 1;
        }
    }

    /// Everything an instruction can read or write, for the differential.
    #[derive(Clone)]
    struct Machine {
        state: CpuState,
        values: ValueStack,
        memory: Option<LinearMemory>,
        globals: Vec<GlobalSlot>,
        tables: Vec<Table>,
        fuel: Option<u64>,
    }

    /// Frame base of the differential's frames, so slot addressing is
    /// relative to something other than zero.
    const FRAME_BASE: usize = 8;
    const SLOTS: usize = 64;

    impl Machine {
        fn new() -> Machine {
            static START: std::sync::OnceLock<Machine> = std::sync::OnceLock::new();
            START.get_or_init(Machine::build).clone()
        }

        fn build() -> Machine {
            let mut memory = LinearMemory::new(Limits::bounded(1, 2));
            let size = memory.size_bytes();
            // Every byte has a different low part and alternating high bits,
            // so narrow loads see both signs and shifted reads differ.
            let pattern: Vec<u8> =
                (0..size).map(|i| (i * 37 + 0x5B) as u8 ^ (0x80 * (i % 2) as u8)).collect();
            memory.init(0, &pattern).unwrap();
            let mut values = ValueStack::with_capacity(SLOTS);
            for i in 0..SLOTS {
                values.write_tagged(i, 0x0101_0101_0101_0101 * i as u64, ValueTag::Dead);
            }
            let mut state = CpuState::new();
            for i in 0..NUM_GPRS {
                state.gprs[i] = 0x1111_1111_1111_1111u64.wrapping_mul(i as u64 + 1);
            }
            for i in 0..NUM_FPRS {
                state.fprs[i] = (i as f64 + 0.25).to_bits();
            }
            Machine {
                state,
                values,
                memory: Some(memory),
                globals: vec![
                    GlobalSlot::from_value(WasmValue::I64(-7)),
                    GlobalSlot::from_value(WasmValue::F64(2.5)),
                ],
                tables: vec![Table::new(Limits::at_least(4))],
                fuel: None,
            }
        }

        /// Runs `code` from `pc` with the decoded executor (`reference ==
        /// false`) or the reference semantics, returning the exit and
        /// cycles charged.
        fn run(&mut self, code: &CodeBuffer, pc: usize, reference: bool) -> (CpuExit, u64) {
            let mut ctx = ExecContext {
                values: &mut self.values,
                frame_base: FRAME_BASE,
                memory: self.memory.as_mut(),
                globals: &mut self.globals,
                tables: &mut self.tables,
                meter: Meter { fuel: self.fuel.as_mut(), ..Meter::off() },
            };
            if reference {
                reference_run(code, &mut self.state, pc, &mut ctx, &CostModel::default())
            } else {
                let mut cycles = CycleCounter::new();
                let exit = Cpu::default().run(&mut self.state, code, pc, &mut ctx, &mut cycles);
                (exit, cycles.total())
            }
        }

        /// The first state difference from `other`, if any.
        fn difference(&self, other: &Machine) -> Option<String> {
            if self.state != other.state {
                return Some(format!("registers {:?} vs {:?}", self.state, other.state));
            }
            for i in 0..SLOTS {
                let (x, y) = (&self.values, &other.values);
                if (x.read(i), x.tag(i)) != (y.read(i), y.tag(i)) {
                    return Some(format!("slot {i}"));
                }
            }
            let (x, y) = (self.memory.as_ref(), other.memory.as_ref());
            if x.map(LinearMemory::bytes) != y.map(LinearMemory::bytes) {
                return Some("memory".into());
            }
            if self.globals != other.globals {
                return Some(format!("globals {:?} vs {:?}", self.globals, other.globals));
            }
            if self.fuel != other.fuel {
                return Some(format!("fuel {:?} vs {:?}", self.fuel, other.fuel));
            }
            None
        }
    }

    /// Runs `code` from every start `pc` under both executors from the same
    /// starting machine and asserts identical exits, cycles, and state.
    fn differential(code: &CodeBuffer, start: &Machine) {
        for pc in 0..=code.len() {
            let (mut decoded, mut reference) = (start.clone(), start.clone());
            let got = decoded.run(code, pc, false);
            let want = reference.run(code, pc, true);
            if got != want {
                panic!("exit and cycles {got:?}, reference {want:?}, from pc {pc} of\n{code}");
            }
            if let Some(difference) = decoded.difference(&reference) {
                panic!("{difference} differs from the reference, from pc {pc} of\n{code}");
            }
        }
    }

    /// One register-only instruction under every combination of `a`/`b`
    /// operand values in r1/r2 (and f1/f2), writing r0/f0. It runs without
    /// a linear memory, which keeps the sweep cheap.
    fn differential_binary(inst: MachInst, operands: &[u64]) {
        let code = single(inst);
        let mut start = Machine::new();
        start.memory = None;
        for &x in operands {
            for &y in operands {
                let mut m = start.clone();
                (m.state.gprs[1], m.state.gprs[2]) = (x, y);
                (m.state.fprs[1], m.state.fprs[2]) = (x, y);
                differential(&code, &m);
            }
        }
    }

    fn single(inst: MachInst) -> CodeBuffer {
        let mut asm = Assembler::new();
        asm.emit(inst);
        asm.finish()
    }

    /// Integer operands: zero, ±1, the 32- and 64-bit sign boundaries,
    /// all-ones, and shift counts at and beyond each width.
    const INT_EDGES: [u64; 14] = [
        0,
        1,
        u64::MAX,
        i32::MIN as u32 as u64,
        i32::MIN as i64 as u64,
        i32::MAX as u64,
        u32::MAX as u64,
        i64::MIN as u64,
        31,
        32,
        33,
        63,
        64,
        65,
    ];

    /// Immediates, including every sign-bit-set form the compilers emit.
    const IMM_EDGES: [i64; 12] = [
        0,
        1,
        -1,
        i32::MIN as i64,
        i32::MAX as i64,
        0x8000_0000,
        0xFFFF_FFFF,
        i64::MIN,
        31,
        32,
        64,
        65,
    ];

    fn float_edges() -> Vec<u64> {
        let mut bits = Vec::new();
        let values = [0.0f64, -0.0, 1.5, -2.75, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0e9];
        for v in values {
            bits.push(v.to_bits());
            bits.push((v as f32).to_bits() as u64);
        }
        bits
    }

    const ALU_OPS: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::DivS,
        AluOp::DivU,
        AluOp::RemS,
        AluOp::RemU,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::ShrS,
        AluOp::ShrU,
        AluOp::Rotl,
        AluOp::Rotr,
    ];
    const CMP_OPS: [CmpOp; 10] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::LtS,
        CmpOp::LtU,
        CmpOp::GtS,
        CmpOp::GtU,
        CmpOp::LeS,
        CmpOp::LeU,
        CmpOp::GeS,
        CmpOp::GeU,
    ];
    const WIDTHS: [Width; 2] = [Width::W32, Width::W64];

    #[test]
    fn differential_integer_alu_and_compare() {
        for width in WIDTHS {
            for op in ALU_OPS {
                let (dst, a, b) = (Reg(0), Reg(1), Reg(2));
                differential_binary(MachInst::Alu { op, width, dst, a, b }, &INT_EDGES);
                for imm in IMM_EDGES {
                    differential_binary(MachInst::AluImm { op, width, dst, a, imm }, &INT_EDGES);
                }
            }
            for op in CMP_OPS {
                let (dst, a, b) = (Reg(0), Reg(1), Reg(2));
                differential_binary(MachInst::Cmp { op, width, dst, a, b }, &INT_EDGES);
                for imm in IMM_EDGES {
                    differential_binary(MachInst::CmpImm { op, width, dst, a, imm }, &INT_EDGES);
                }
            }
            for op in [
                UnOp::Clz,
                UnOp::Ctz,
                UnOp::Popcnt,
                UnOp::Eqz,
                UnOp::Extend8S,
                UnOp::Extend16S,
                UnOp::Extend32S,
            ] {
                let unop = MachInst::Unop { op, width, dst: Reg(0), src: Reg(1) };
                differential_binary(unop, &INT_EDGES);
            }
        }
    }

    #[test]
    fn differential_float_and_conversions() {
        let floats = float_edges();
        for width in WIDTHS {
            let (dst, a, b) = (FReg(0), FReg(1), FReg(2));
            for op in [
                FAluOp::Add,
                FAluOp::Sub,
                FAluOp::Mul,
                FAluOp::Div,
                FAluOp::Min,
                FAluOp::Max,
                FAluOp::Copysign,
            ] {
                differential_binary(MachInst::FAlu { op, width, dst, a, b }, &floats);
            }
            for op in [
                FUnOp::Abs,
                FUnOp::Neg,
                FUnOp::Ceil,
                FUnOp::Floor,
                FUnOp::Trunc,
                FUnOp::Nearest,
                FUnOp::Sqrt,
            ] {
                differential_binary(MachInst::FUnop { op, width, dst, src: a }, &floats);
            }
            for op in [FCmpOp::Eq, FCmpOp::Ne, FCmpOp::Lt, FCmpOp::Gt, FCmpOp::Le, FCmpOp::Ge] {
                differential_binary(MachInst::FCmp { op, width, dst: Reg(0), a, b }, &floats);
            }
        }
        use ConvOp::*;
        let operands: Vec<u64> = floats.iter().chain(&INT_EDGES).copied().collect();
        for op in [
            I32WrapI64, I64ExtendI32S, I64ExtendI32U, I32TruncF32S, I32TruncF32U, I32TruncF64S,
            I32TruncF64U, I64TruncF32S, I64TruncF32U, I64TruncF64S, I64TruncF64U, F32ConvertI32S,
            F32ConvertI32U, F32ConvertI64S, F32ConvertI64U, F64ConvertI32S, F64ConvertI32U,
            F64ConvertI64S, F64ConvertI64U, F32DemoteF64, F64PromoteF32, I32ReinterpretF32,
            I64ReinterpretF64, F32ReinterpretI32, F64ReinterpretI64,
        ] {
            let bank = |float: bool, i: u8| -> AnyReg {
                if float { FReg(i).into() } else { Reg(i).into() }
            };
            let (dst, src) = (bank(op.dst_is_float(), 0), bank(op.src_is_float(), 1));
            for &x in &operands {
                let mut m = Machine::new();
                (m.state.gprs[1], m.state.fprs[1]) = (x, x);
                differential(&single(MachInst::Convert { op, dst, src }), &m);
            }
        }
    }

    #[test]
    fn differential_moves_slots_globals_and_selects() {
        let mut insts = vec![MachInst::Nop, MachInst::Return];
        for imm in IMM_EDGES {
            insts.push(MachInst::MovImm { dst: Reg(3), imm });
            insts.push(MachInst::StoreSlotImm { slot: 5, imm });
        }
        insts.push(MachInst::FMovImm { dst: FReg(3), bits: (-1.5f64).to_bits() });
        insts.push(MachInst::Mov { dst: Reg(4), src: Reg(13) });
        insts.push(MachInst::FMov { dst: FReg(4), src: FReg(15) });
        for reg in [AnyReg::from(Reg(5)), AnyReg::from(FReg(5))] {
            for slot in [0, 3, (SLOTS - FRAME_BASE - 1) as u32] {
                insts.push(MachInst::LoadSlot { dst: reg, slot });
                insts.push(MachInst::StoreSlot { slot, src: reg });
            }
            for index in [0, 1] {
                insts.push(MachInst::GlobalGet { dst: reg, index });
                insts.push(MachInst::GlobalSet { index, src: reg });
            }
        }
        for tag in [
            ValueTag::I32,
            ValueTag::I64,
            ValueTag::F32,
            ValueTag::F64,
            ValueTag::FuncRef,
            ValueTag::Ref,
            ValueTag::Dead,
        ] {
            insts.push(MachInst::StoreTag { slot: 2, tag });
        }
        for inst in insts {
            differential(&single(inst), &Machine::new());
        }
        let select =
            MachInst::Select { dst: Reg(0), cond: Reg(1), if_true: Reg(2), if_false: Reg(3) };
        let fselect =
            MachInst::FSelect { dst: FReg(0), cond: Reg(1), if_true: FReg(2), if_false: FReg(3) };
        for cond in [0, 1, u64::MAX, 1 << 32] {
            for inst in [select.clone(), fselect.clone()] {
                let mut m = Machine::new();
                m.state.gprs[1] = cond;
                differential(&single(inst), &m);
            }
        }
    }

    #[test]
    fn differential_memory_accesses() {
        let size = Machine::new().memory.unwrap().size_bytes() as u32;
        for width in [1u32, 2, 4, 8] {
            // In bounds, ending at the last byte, one byte past it, and
            // offsets that overflow 32 bits.
            let accesses = [
                (0, 0),
                (100, 3),
                (size - width, 0),
                (0, size - width),
                (size - width + 1, 0),
                (1, size - width),
                (u32::MAX, 0),
                (u32::MAX, u32::MAX),
            ];
            for (addr, offset) in accesses {
                let mut m = Machine::new();
                m.state.gprs[1] = addr as u64 | 0xABCD_0000_0000; // only the low 32 bits address
                m.state.gprs[2] = 0x8182_8384_8586_8788;
                m.state.fprs[2] = 0xF1F2_F3F4_F5F6_F7F8;
                for dst in [AnyReg::from(Reg(0)), AnyReg::from(FReg(0))] {
                    for signed in [false, true] {
                        for dst_width in WIDTHS {
                            let addr = Reg(1);
                            let load =
                                MachInst::MemLoad { dst, addr, offset, width, signed, dst_width };
                            differential(&single(load.clone()), &m);
                            let mut unmapped = m.clone();
                            unmapped.memory = None;
                            differential(&single(load), &unmapped);
                        }
                    }
                }
                for src in [AnyReg::from(Reg(2)), AnyReg::from(FReg(2))] {
                    let store = MachInst::MemStore { src, addr: Reg(1), offset, width };
                    differential(&single(store.clone()), &m);
                    let mut unmapped = m.clone();
                    unmapped.memory = None;
                    differential(&single(store), &unmapped);
                }
            }
        }
        for delta in [0, 1, 2, u32::MAX as u64, u64::MAX] {
            let mut m = Machine::new();
            m.state.gprs[1] = delta;
            for memory in [true, false] {
                if !memory {
                    m.memory = None;
                }
                differential(&single(MachInst::MemoryGrow { dst: Reg(0), delta: Reg(1) }), &m);
                differential(&single(MachInst::MemorySize { dst: Reg(0) }), &m);
            }
        }
    }

    #[test]
    fn differential_control_exits_and_meters() {
        let rare = [
            MachInst::Call { func_index: 7 },
            MachInst::CallIndirect { type_index: 1, table_index: 0, index: Reg(3) },
            MachInst::ProbeRuntime { probe_id: 2 },
            MachInst::ProbeDirect { probe_id: 3 },
            MachInst::ProbeCounter { counter_id: 4 },
            MachInst::ProbeTosValue { probe_id: 5, src: Reg(6).into() },
            MachInst::ProbeTosValue { probe_id: 5, src: FReg(6).into() },
            MachInst::EpochCheck,
            MachInst::Trap { code: TrapCode::Unreachable },
            MachInst::Trap { code: TrapCode::StackOverflow },
        ];
        for inst in rare {
            differential(&single(inst), &Machine::new());
        }
        for fuel in [None, Some(0), Some(9), Some(10), Some(u64::MAX)] {
            let mut m = Machine::new();
            m.fuel = fuel;
            differential(&single(MachInst::FuelCheck { amount: 10 }), &m);
        }

        // Branches: r1 is the condition or index; each landing pad writes
        // a distinct marker and returns, and `end` is bound one past the
        // last instruction, so taking it runs off the end.
        let mut asm = Assembler::new();
        let (pad, end) = (asm.new_label(), asm.new_label());
        let pads = [asm.new_label(), asm.new_label()];
        asm.emit(MachInst::BrIf { cond: Reg(1), target: pad, negate: false });
        asm.emit(MachInst::BrIf { cond: Reg(1), target: end, negate: true });
        asm.emit(MachInst::BrTable { index: Reg(1), targets: pads.to_vec(), default: end });
        asm.emit(MachInst::Jump { target: end });
        for (marker, label) in pads.into_iter().chain([pad]).enumerate() {
            asm.bind(label);
            asm.emit(MachInst::MovImm { dst: Reg(0), imm: marker as i64 + 100 });
            asm.emit(MachInst::Return);
        }
        let (op, width, dst, a) = (AluOp::Add, Width::W64, Reg(5), Reg(5));
        asm.emit(MachInst::AluImm { op, width, dst, a, imm: 1 });
        asm.bind(end);
        let code = asm.finish();
        assert_eq!(code.target(end), code.len());
        for index in [0, 1, 2, 3, u32::MAX as u64, 1 << 32, u64::MAX] {
            let mut m = Machine::new();
            m.state.gprs[1] = index;
            differential(&code, &m);
        }

        // A loop that runs a few iterations, exercising backward branches
        // and cycle accumulation across them.
        let mut asm = Assembler::new();
        let top = asm.new_bound_label();
        let (w32, w64) = (Width::W32, Width::W64);
        asm.emit(MachInst::AluImm { op: AluOp::Sub, width: w32, dst: Reg(1), a: Reg(1), imm: 1 });
        asm.emit(MachInst::Alu { op: AluOp::Mul, width: w64, dst: Reg(2), a: Reg(2), b: Reg(2) });
        asm.emit(MachInst::BrIf { cond: Reg(1), target: top, negate: false });
        asm.emit(MachInst::Alu { op: AluOp::DivU, width: w32, dst: Reg(3), a: Reg(2), b: Reg(1) });
        let code = asm.finish();
        let mut m = Machine::new();
        m.state.gprs[1] = 5;
        differential(&code, &m);
    }
}
