//! The compact instruction set for the AuLang bytecode VM.
//!
//! [`compile`](crate::compile) lowers a parsed [`Program`](crate::Program)
//! into a [`CompiledProgram`]: one flat `Vec<Op>` covering every function
//! (absolute jump targets), plus interned pools for constants, variable
//! names, and error messages. The VM (`vm.rs`) executes it with a value
//! stack and a contiguous locals array — variable references are resolved
//! to frame-relative slots at compile time, so the hot path never touches
//! a hash map.
//!
//! Tracing is *instrumentation*, not interpretation state: the compiler
//! emits [`Op::TraceAssign`] / [`Op::NoteUses`] / [`Op::MarkTargetName`]
//! only in traced builds, and in [`TraceMode::Selective`] only at sites
//! the static dependence graph says can reach an extraction pair. An
//! untraced program contains no trace opcodes at all, so untraced
//! execution carries zero tracing overhead.

use crate::ast::{BinOp, Sym, Symbols};
use crate::value::Value;
use std::fmt;

/// How much dynamic dependence tracing the compiled program carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No trace opcodes are emitted; execution is pure computation.
    Off,
    /// Every assignment/use is traced — the analysis database is
    /// bit-identical to the tree-walking interpreter's.
    Full,
    /// Trace opcodes are emitted only for variables the static dependence
    /// graph ([`au_trace::StaticFilter`]) cannot prove unrelated to every
    /// prediction target. Pruned extraction over the resulting database
    /// selects the same features as over the full one.
    Selective,
}

/// Math builtins dispatched through a single opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MathFn {
    Floor,
    Abs,
    Sqrt,
    Sin,
    Cos,
    Exp,
}

impl MathFn {
    pub(crate) fn name(self) -> &'static str {
        match self {
            MathFn::Floor => "floor",
            MathFn::Abs => "abs",
            MathFn::Sqrt => "sqrt",
            MathFn::Sin => "sin",
            MathFn::Cos => "cos",
            MathFn::Exp => "exp",
        }
    }

    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            MathFn::Floor => x.floor(),
            MathFn::Abs => x.abs(),
            MathFn::Sqrt => x.sqrt(),
            MathFn::Sin => x.sin(),
            MathFn::Cos => x.cos(),
            MathFn::Exp => x.exp(),
        }
    }
}

/// How an index-assignment site is instrumented (decided at compile time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceKind {
    /// Untraced site.
    None,
    /// Record a full `record_assign` (destination participates in
    /// extraction).
    Assign,
    /// Destination is provably irrelevant but a source may be relevant:
    /// record only the uses so `UseFunc` sets stay exact.
    Uses,
}

/// One VM instruction. `u32` fields index the interned pools of the owning
/// [`CompiledProgram`]; `u16` slots are frame-relative locals indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// Statement boundary: bump the step counter, enforce the step limit.
    Step,
    /// Push a clone of `consts[i]`.
    Const(u32),
    /// Push a clone of the local in `slot`.
    Load(u16),
    /// Pop into the local in `slot`.
    Store(u16),
    /// Pop and discard the top value.
    Pop,
    /// Pop `n` values, push them as one array (stack order preserved).
    MakeArray(u16),
    /// Pop index then target, push `target[index]`.
    IndexGet,
    /// Pop value then index, store into `names[name]` at `slot`
    /// (trace-then-bounds-check, mirroring the interpreter's order).
    StoreIndex {
        slot: u16,
        name: u32,
        trace: TraceKind,
    },
    /// As [`Op::StoreIndex`] but the name resolves to no local: validate
    /// the index, trace, then fail with "assignment to undefined
    /// variable".
    StoreIndexUndef { name: u32, trace: TraceKind },
    /// Pop rhs then lhs, push the non-short-circuit binary result.
    Bin(BinOp),
    /// Fused `Load(a); Load(b); Bin(op)`, emitted in place of the
    /// sequence as the compiler emits the `Bin`. Pushes one result (and, when traced, one dep set
    /// holding both slot names) — identical observable behavior to the
    /// unfused sequence.
    LoadLoadBin {
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
        /// The binary operator (never `And`/`Or`).
        op: BinOp,
    },
    /// Fused `Load(slot); Const(cidx); Bin(op)`: local on the left,
    /// constant on the right.
    LoadConstBin {
        /// Left operand slot.
        slot: u16,
        /// Right operand constant-pool index.
        cidx: u32,
        /// The binary operator (never `And`/`Or`).
        op: BinOp,
    },
    /// Fused `Const(cidx); Bin(op)`: whatever is on the stack on the
    /// left, constant on the right. Net no-op on the traced dep stack
    /// (the constant contributes no deps).
    ConstBin {
        /// Right operand constant-pool index.
        cidx: u32,
        /// The binary operator (never `And`/`Or`).
        op: BinOp,
    },
    /// Pop a number, push its negation.
    Neg,
    /// Pop a boolean, push its complement.
    Not,
    /// Short-circuit probe: pop the lhs (must be boolean). If it decides
    /// the result (`false &&` / `true ||`), push it back and jump to
    /// `skip`; otherwise fall through to the rhs code (the lhs dep set
    /// stays pending for [`Op::LogicalRhs`]).
    ShortCircuit { is_and: bool, skip: u32 },
    /// Pop the rhs (must be boolean), push it, merge the pending lhs deps.
    LogicalRhs,
    /// Unconditional jump.
    Jump(u32),
    /// Pop a value; error with `msgs[msg]` if not boolean, jump to
    /// `target` if false.
    BranchFalse { target: u32, msg: u32 },
    /// Call `funcs[func]`: pop its arguments into fresh locals, push a
    /// frame. `live` names the variables visible at the call site (for
    /// checkpoint snapshots taken deeper in the callee).
    Call { func: u16, live: u32 },
    /// Return the top of stack to the caller (or finish `main`).
    Ret,
    /// Push `Unit`, then return (function fell off its end / bare
    /// `return;`).
    RetUnit,
    /// Abort with the statically formatted `msgs[msg]`.
    Fail(u32),
    /// Error with `msgs[msg]` unless the top of stack is a string.
    EnsureStr(u32),
    /// Error with `msgs[msg]` unless the top of stack is a number.
    EnsureNum(u32),
    /// Record uses of the top dep set (condition / extracted expression).
    NoteUses,
    /// Record a `record_assign` of the top value+deps into `names[name]`.
    TraceAssign { name: u32 },
    /// Mark `names[name]` as a prediction target (write-back assignment).
    MarkTargetName(u32),
    /// Builtin `mark_input`: pop a string, mark it as an input.
    MarkInput,
    /// Builtin `mark_target`: pop a string, mark it as a target.
    MarkTarget,
    /// Builtin `input`: pop default then key, push the supplied input (or
    /// the default), mark + record the key.
    Input,
    /// Pop `n` values, join their displays with spaces into the output
    /// log, push `Unit`.
    Print(u16),
    /// Builtin `len`.
    Len,
    /// Builtin `append`: pop item then array, push the extended array.
    Append,
    /// One-argument math builtin.
    Math1(MathFn),
    /// `min` / `max`.
    Math2 { is_min: bool },
    /// Deterministic xorshift64* `rand()`.
    Rand,
    /// `au_config` layer-count validation: peek the count (must be a
    /// number) and check it against the call's argument count.
    AuConfigCheck { argc: u16 },
    /// `au_config`: pop `layers` sizes, the count, and the three config
    /// strings; configure the engine model.
    AuConfig { layers: u16 },
    /// `au_extract`: pop value then name, feed flattened numbers to π.
    AuExtract,
    /// `au_serialize`: pop `argc` names, push the combined string.
    AuSerialize { argc: u16 },
    /// `au_nn`: pop `argc` strings (model, ext, write-backs), train/serve.
    AuNn { argc: u16 },
    /// `au_nn_rl`: pop the six arguments, push the chosen action.
    AuNnRl,
    /// `au_write_back`: pop a name, push the predicted scalar.
    AuWriteBack,
    /// `au_write_back_n`: pop size then name, push the predicted array.
    AuWriteBackN,
    /// `au_checkpoint`: snapshot π and the variables in `live_sets[live]`
    /// across all frames.
    AuCheckpoint { live: u32 },
    /// `au_restore`: restore π and overwrite snapshot variables by name.
    AuRestore { live: u32 },
}

/// Compile-time metadata for one function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FuncInfo {
    /// Function name (index into the names pool).
    pub name: u32,
    /// Parameter count: the parameters are the first slots.
    pub nparams: u16,
    /// First opcode of the body.
    pub entry: u32,
    /// Locals-array length for a frame of this function (params included).
    pub nlocals: u16,
    /// Where the function's `nlocals` slot names start in
    /// [`CompiledProgram::slot_names`].
    pub slots: u32,
}

/// A lowered AuLang program, ready for the VM.
///
/// Produced by [`crate::compile::compile_program`]; executed by
/// [`crate::Vm`]. The struct is immutable once built — a single
/// `CompiledProgram` can back any number of VM runs. Its per-function and
/// per-site lists share one pool each.
#[derive(Clone)]
pub struct CompiledProgram {
    pub(crate) ops: Vec<Op>,
    pub(crate) consts: Vec<Value>,
    /// Every name the program's ops refer to by id, in order of first
    /// use.
    pub(crate) names: Symbols,
    /// Every statically formatted error message, in order of first use.
    pub(crate) msgs: Symbols,
    pub(crate) funcs: Vec<FuncInfo>,
    /// Every function's slot names, back to back: the source-level
    /// variable name of each slot (indices into the names pool), which
    /// traced `Load`s push as the dependence name.
    pub(crate) slot_names: Vec<u32>,
    /// Scope snapshots for checkpoint/call sites, back to back: `(slot,
    /// name)` pairs in outer-to-inner declaration order. Set `i` ends at
    /// `live_ends[i]` and starts where set `i - 1` ends; set 0 is always
    /// the empty one.
    pub(crate) live: Vec<(u16, u32)>,
    pub(crate) live_ends: Vec<u32>,
    pub(crate) main_func: u16,
    /// The mode the caller asked for.
    pub(crate) requested: TraceMode,
    /// The mode actually compiled (Selective falls back to Full when the
    /// program defeats static analysis — e.g. computed `input` names).
    pub(crate) effective: TraceMode,
    /// Per-name relevance under the static filter (all `true` outside
    /// Selective mode). Indexed by name id.
    pub(crate) relevant: Vec<bool>,
}

impl CompiledProgram {
    /// The slot names of function `func`.
    pub(crate) fn slot_names(&self, func: usize) -> &[u32] {
        let fi = &self.funcs[func];
        &self.slot_names[fi.slots as usize..fi.slots as usize + fi.nlocals as usize]
    }

    /// The parameter names of function `func`.
    pub(crate) fn params(&self, func: usize) -> &[u32] {
        &self.slot_names(func)[..self.funcs[func].nparams as usize]
    }

    /// Scope snapshot `live`.
    pub(crate) fn live_set(&self, live: u32) -> &[(u16, u32)] {
        let end = self.live_ends[live as usize] as usize;
        let start = match live {
            0 => 0,
            l => self.live_ends[l as usize - 1] as usize,
        };
        &self.live[start..end]
    }

    /// Error message `msg`.
    pub(crate) fn msg(&self, msg: u32) -> &str {
        self.msgs.name(Sym::from_index(msg as usize))
    }

    /// Number of instructions in the program.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The trace mode requested at compile time.
    pub fn requested_trace_mode(&self) -> TraceMode {
        self.requested
    }

    /// The trace mode actually compiled. Differs from
    /// [`requested_trace_mode`](Self::requested_trace_mode) only when a
    /// `Selective` request fell back to `Full` because the program uses
    /// computed names in `input` / `mark_input` / `mark_target`.
    pub fn effective_trace_mode(&self) -> TraceMode {
        self.effective
    }

    /// How many trace opcodes (`TraceAssign` / `NoteUses` /
    /// `MarkTargetName` / traced index stores) the program contains.
    pub fn trace_op_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::TraceAssign { .. }
                        | Op::NoteUses
                        | Op::MarkTargetName(_)
                        | Op::StoreIndex {
                            trace: TraceKind::Assign | TraceKind::Uses,
                            ..
                        }
                        | Op::StoreIndexUndef {
                            trace: TraceKind::Assign | TraceKind::Uses,
                            ..
                        }
                )
            })
            .count()
    }
}

/// Lists every field, each function's and each site's lists spelled out
/// as if each held its own.
impl fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// A function as its own lists spell it.
        #[derive(Debug)]
        #[allow(dead_code)] // Read by the derived `Debug` only.
        struct FuncInfo<'a> {
            name: u32,
            params: &'a [u32],
            entry: u32,
            nlocals: u16,
            slot_names: &'a [u32],
        }
        let funcs: Vec<FuncInfo> = (0..self.funcs.len())
            .map(|i| FuncInfo {
                name: self.funcs[i].name,
                params: self.params(i),
                entry: self.funcs[i].entry,
                nlocals: self.funcs[i].nlocals,
                slot_names: self.slot_names(i),
            })
            .collect();
        let live_sets: Vec<&[(u16, u32)]> = (0..self.live_ends.len() as u32)
            .map(|l| self.live_set(l))
            .collect();
        f.debug_struct("CompiledProgram")
            .field("ops", &self.ops)
            .field("consts", &self.consts)
            .field("names", &self.names)
            .field("msgs", &self.msgs)
            .field("funcs", &funcs)
            .field("live_sets", &live_sets)
            .field("main_func", &self.main_func)
            .field("requested", &self.requested)
            .field("effective", &self.effective)
            .field("relevant", &self.relevant)
            .finish()
    }
}
