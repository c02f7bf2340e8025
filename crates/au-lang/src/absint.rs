//! Interprocedural abstract interpretation over the AuLang AST.
//!
//! This module powers the **AU011–AU015 lint family** in `au-lint` (dead
//! extracted variables, constant features, unreachable checkpoints,
//! possible division by zero, loop-invariant instrumentation). No
//! execution or extraction path runs it: the compiler, the VM and the
//! static pre-pruning filter never consult its facts.
//! `tests/absint_facts.rs` pins every fact it exports.
//!
//! The engine is a flow- and branch-sensitive abstract interpreter with
//! three cooperating value domains — intervals with an explicit may-be-NaN
//! flag for numbers, a may-true/may-false pair for booleans, and optional
//! exact strings — plus a recursive array domain with a depth cap. Loops
//! are solved to a fixed point with widening after a few precise
//! iterations; calls are analyzed with context-joining summaries
//! (recursion collapses parameters to ⊤ so one summary covers every
//! unrolling). A separate backward pass computes per-function liveness for
//! dead-store detection, and small syntactic passes find loop-invariant
//! assignments and protocol string names.
//!
//! # Cost
//!
//! The analysis runs on every lint pass, so its hot paths avoid
//! allocation. An environment is one vector of bindings sorted by
//! `(scope, name)` — each scope is a sorted run — whose names borrow from
//! the AST, so declaring, cloning and merging never allocate a `String`
//! and equality and iteration order are those of a stack of sorted maps.
//! Array and string values share their payloads through `Rc`, and joins
//! of two environments binding the same names update values in place.
//! Executed statements are marked in a table indexed by sorted span
//! rather than hashed.
//!
//! A `while` loop is solved in two phases: a silent fixpoint on its head,
//! then one pass over the stable head that records facts. When the loop
//! runs silently itself (nested in another loop's fixpoint, or in a
//! callee reached from one), that second pass would repeat the last
//! fixpoint iteration exactly, so its condition result, environment and
//! body flow are reused instead — unless that iteration changed a
//! function summary (tracked by a generation counter bumped on every
//! summary update), in which case the body is walked again. Reporting
//! passes always walk. `FUEL` counts abstract evaluations actually
//! performed, so a reused iteration consumes none.
//!
//! # Soundness contract
//!
//! Every semantic fact exposed through [`Analysis`] over-approximates
//! **every** concrete execution: a name in `constants` only ever holds
//! that one number, a span in `unreachable` is never executed, and a
//! `div_zero` site's divisor only takes values inside its reported range.
//! `dead_stores` and `loop_invariant` are syntactic. These are the facts
//! AU011–AU015 read, and the analysis exports no others. The lints lean
//! on these claims, so the transfer functions here deliberately mirror
//! `interp.rs` (the semantic oracle) — including NaN propagation, `-0.0`/`+0.0`
//! distinction, short-circuit evaluation order, and the
//! arity-check-before-argument-evaluation order of the builtins. When the
//! analysis runs out of fuel it sets `complete = false` and all semantic
//! fact sets are emptied rather than left partial.

use crate::ast::{
    for_each_expr, for_each_stmt, for_each_subexpr, BinOp, Expr, ExprId, ExprKind, Function,
    Program, Span, Stmt, StmtKind, Sym, UnOp,
};
use std::cmp::Ordering;
use std::collections::btree_map::Entry as BEntry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

/// Precise loop iterations before widening kicks in.
const WIDEN_AFTER: u32 = 3;
/// Hard cap on loop fixpoint iterations (then the head is clobbered to ⊤).
const MAX_LOOP_ITERS: u32 = 60;
/// Times a function body is re-walked before its parameters collapse to ⊤.
const MAX_FN_RUNS: u32 = 8;
/// Abstract evaluation fuel; exhaustion flips `complete = false`.
const FUEL: u64 = 4_000_000;
/// Join/widen recursion depth cap for nested array element domains.
const ARRAY_DEPTH_CAP: u32 = 4;
/// Liveness loop fixpoint cap (then the head falls back to all-live).
const MAX_LIVE_ITERS: u32 = 100;

// ---------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------

/// A closed numeric interval `[lo, hi]` with an explicit may-be-NaN flag.
///
/// The bounds themselves are never NaN (`-inf`/`+inf` express
/// unboundedness); a value that may be NaN at runtime sets `nan` instead.
/// Equality is **bitwise** on the bounds so `-0.0` and `+0.0` stay
/// distinct — treating `[-0.0, +0.0]` as a single constant would diverge
/// from the interpreter on `1.0 / x` and on printing.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Lower bound (never NaN; `-inf` when unbounded below).
    pub lo: f64,
    /// Upper bound (never NaN; `+inf` when unbounded above).
    pub hi: f64,
    /// Whether the value may be NaN.
    pub nan: bool,
}

impl PartialEq for Interval {
    fn eq(&self, other: &Self) -> bool {
        self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.nan == other.nan
    }
}

/// Sign-aware minimum for lower bounds: prefers `-0.0` over `+0.0`.
fn lo_min(x: f64, y: f64) -> f64 {
    if x < y {
        x
    } else if y < x {
        y
    } else if x.is_sign_negative() {
        x
    } else {
        y
    }
}

/// Sign-aware maximum for upper bounds: prefers `+0.0` over `-0.0`.
fn hi_max(x: f64, y: f64) -> f64 {
    if x > y {
        x
    } else if y > x {
        y
    } else if x.is_sign_positive() {
        x
    } else {
        y
    }
}

impl Interval {
    /// The unconstrained interval: any number or NaN.
    pub fn top_nan() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            nan: true,
        }
    }

    /// The exact interval for one concrete value.
    pub fn point(x: f64) -> Self {
        if x.is_nan() {
            Interval::top_nan()
        } else {
            Interval {
                lo: x,
                hi: x,
                nan: false,
            }
        }
    }

    /// Builds an interval, falling back to [`Interval::top_nan`] if a
    /// bound computation produced NaN.
    pub fn make(lo: f64, hi: f64, nan: bool) -> Self {
        if lo.is_nan() || hi.is_nan() {
            Interval::top_nan()
        } else {
            Interval { lo, hi, nan }
        }
    }

    /// Least upper bound.
    pub fn join(self, o: Interval) -> Interval {
        Interval::make(
            lo_min(self.lo, o.lo),
            hi_max(self.hi, o.hi),
            self.nan || o.nan,
        )
    }

    /// Widening: any bound that moved goes straight to infinity.
    pub fn widen(self, o: Interval) -> Interval {
        let lo = if lo_min(self.lo, o.lo).to_bits() == self.lo.to_bits() {
            self.lo
        } else {
            f64::NEG_INFINITY
        };
        let hi = if hi_max(self.hi, o.hi).to_bits() == self.hi.to_bits() {
            self.hi
        } else {
            f64::INFINITY
        };
        Interval::make(lo, hi, self.nan || o.nan)
    }

    /// The single concrete value this interval denotes, if any.
    ///
    /// Requires bitwise-equal finite bounds and no NaN, so `[-0.0, +0.0]`
    /// is *not* a constant.
    pub fn as_const(self) -> Option<f64> {
        if !self.nan && self.lo.is_finite() && self.lo.to_bits() == self.hi.to_bits() {
            Some(self.lo)
        } else {
            None
        }
    }

    fn corners(self, o: Interval, f: impl Fn(f64, f64) -> f64) -> Interval {
        let cs = [
            f(self.lo, o.lo),
            f(self.lo, o.hi),
            f(self.hi, o.lo),
            f(self.hi, o.hi),
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in cs {
            if c.is_nan() {
                return Interval::top_nan();
            }
            lo = lo_min(lo, c);
            hi = hi_max(hi, c);
        }
        Interval::make(lo, hi, self.nan || o.nan)
    }

    /// Abstract `+`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Interval) -> Interval {
        self.corners(o, |a, b| a + b)
    }

    /// Abstract `-`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Interval) -> Interval {
        self.corners(o, |a, b| a - b)
    }

    /// Abstract `*`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Interval) -> Interval {
        self.corners(o, |a, b| a * b)
    }

    /// Abstract `/`. A divisor that may be zero (or NaN) yields ⊤ — IEEE
    /// division by zero produces ±inf/NaN values, not errors.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, o: Interval) -> Interval {
        if o.nan || (o.lo <= 0.0 && o.hi >= 0.0) {
            Interval::top_nan()
        } else {
            self.corners(o, |a, b| a / b)
        }
    }

    /// Abstract `%` (Rust `f64` remainder semantics).
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, o: Interval) -> Interval {
        if !self.nan && !o.nan && o.lo > 0.0 && self.lo >= 0.0 {
            // x % y ∈ [0, min(x, y)] for x ≥ 0, y > 0; x = inf gives NaN.
            Interval::make(0.0, self.hi.min(o.hi), self.hi.is_infinite())
        } else {
            Interval::top_nan()
        }
    }

    /// Abstract unary negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Interval {
        Interval::make(-self.hi, -self.lo, self.nan)
    }

    /// Abstract `min(a, b)` mirroring `f64::min` (NaN loses to a number).
    pub fn min_with(self, o: Interval) -> Interval {
        if self.nan || o.nan {
            // Either operand's whole range can win when the other is NaN.
            Interval::make(
                lo_min(self.lo, o.lo),
                hi_max(self.hi, o.hi),
                self.nan && o.nan,
            )
        } else {
            Interval::make(lo_min(self.lo, o.lo), self.hi.min(o.hi), false)
        }
    }

    /// Abstract `max(a, b)` mirroring `f64::max`.
    pub fn max_with(self, o: Interval) -> Interval {
        if self.nan || o.nan {
            Interval::make(
                lo_min(self.lo, o.lo),
                hi_max(self.hi, o.hi),
                self.nan && o.nan,
            )
        } else {
            Interval::make(self.lo.max(o.lo), hi_max(self.hi, o.hi), false)
        }
    }

    /// Abstract `floor`.
    pub fn floor_i(self) -> Interval {
        Interval::make(self.lo.floor(), self.hi.floor(), self.nan)
    }

    /// Abstract `abs`.
    pub fn abs_i(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Interval::make(0.0, (-self.lo).max(self.hi), self.nan)
        }
    }

    /// Abstract `sqrt` (negative input yields NaN, not an error).
    pub fn sqrt_i(self) -> Interval {
        if self.hi < 0.0 {
            // Entire range is negative: the result is always NaN.
            return Interval {
                lo: 0.0,
                hi: 0.0,
                nan: true,
            };
        }
        let nan = self.nan || self.lo < 0.0;
        Interval::make(self.lo.max(0.0).sqrt(), self.hi.sqrt(), nan)
    }

    /// Abstract `sin`/`cos`: exact on points, `[-1, 1]` on bounded ranges.
    pub fn trig_i(self, f: impl Fn(f64) -> f64) -> Interval {
        if let Some(c) = self.as_const() {
            return Interval::point(f(c));
        }
        let nan = self.nan || self.lo == f64::NEG_INFINITY || self.hi == f64::INFINITY;
        Interval::make(-1.0, 1.0, nan)
    }

    /// Abstract `exp` (monotone; `exp(-inf) = 0`, `exp(inf) = inf`).
    pub fn exp_i(self) -> Interval {
        Interval::make(self.lo.exp(), self.hi.exp(), self.nan)
    }
}

// ---------------------------------------------------------------------
// Boolean domain
// ---------------------------------------------------------------------

/// The four-point boolean domain: which truth values are possible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsBool {
    /// `true` is a possible runtime value.
    pub may_true: bool,
    /// `false` is a possible runtime value.
    pub may_false: bool,
}

impl AbsBool {
    /// Both truth values possible.
    pub const TOP: AbsBool = AbsBool {
        may_true: true,
        may_false: true,
    };

    /// The exact abstraction of one concrete boolean.
    pub fn of(b: bool) -> Self {
        AbsBool {
            may_true: b,
            may_false: !b,
        }
    }

    /// The single concrete value this denotes, if decided.
    pub fn as_const(self) -> Option<bool> {
        match (self.may_true, self.may_false) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        }
    }

    /// Least upper bound.
    pub fn join(self, o: AbsBool) -> AbsBool {
        AbsBool {
            may_true: self.may_true || o.may_true,
            may_false: self.may_false || o.may_false,
        }
    }

    /// Abstract logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> AbsBool {
        AbsBool {
            may_true: self.may_false,
            may_false: self.may_true,
        }
    }
}

// ---------------------------------------------------------------------
// Value domain
// ---------------------------------------------------------------------

/// An abstract AuLang value.
#[derive(Debug, Clone, PartialEq)]
pub enum AbsVal {
    /// No value reaches this point (unreachable / certain error).
    Bottom,
    /// A number within an interval.
    Num(Interval),
    /// A boolean.
    Bool(AbsBool),
    /// A string, exactly known when `Some`.
    Str(Option<Rc<str>>),
    /// An array: element join and length interval.
    Array(Rc<AbsVal>, Interval),
    /// The unit value.
    Unit,
    /// Any value at all.
    Top,
}

impl AbsVal {
    /// Least upper bound (array elements capped at a fixed nesting depth).
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        self.join_depth(other, 0)
    }

    fn join_depth(&self, other: &AbsVal, d: u32) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x.clone(),
            (Top, _) | (_, Top) => Top,
            (Num(a), Num(b)) => Num(a.join(*b)),
            (Bool(a), Bool(b)) => Bool(a.join(*b)),
            (Str(a), Str(b)) => Str(if a == b { a.clone() } else { None }),
            (Unit, Unit) => Unit,
            (Array(ea, la), Array(eb, lb)) => {
                let elem = if d >= ARRAY_DEPTH_CAP {
                    Top
                } else {
                    ea.join_depth(eb, d + 1)
                };
                Array(Rc::new(elem), la.join(*lb))
            }
            _ => Top,
        }
    }

    /// Widening: like join but interval bounds jump to infinity.
    pub fn widen(&self, other: &AbsVal) -> AbsVal {
        self.widen_depth(other, 0)
    }

    fn widen_depth(&self, other: &AbsVal, d: u32) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Num(a), Num(b)) => Num(a.widen(*b)),
            (Array(ea, la), Array(eb, lb)) => {
                let elem = if d >= ARRAY_DEPTH_CAP {
                    Top
                } else {
                    ea.widen_depth(eb, d + 1)
                };
                Array(Rc::new(elem), la.widen(*lb))
            }
            _ => self.join(other),
        }
    }

    /// Whether every value of `self` is also a value of `other`.
    pub fn le(&self, other: &AbsVal) -> bool {
        self.join(other) == *other
    }
}

/// The numeric view of a value: `Some((interval, certain))` when the value
/// can be a number; `certain` means it is *always* a number.
fn as_num_domain(v: &AbsVal) -> Option<(Interval, bool)> {
    match v {
        AbsVal::Num(i) => Some((*i, true)),
        AbsVal::Top | AbsVal::Bottom => Some((Interval::top_nan(), false)),
        _ => None,
    }
}

/// The boolean view of a value: `None` when it cannot be a boolean.
fn as_bool_domain(v: &AbsVal) -> Option<AbsBool> {
    match v {
        AbsVal::Bool(b) => Some(*b),
        AbsVal::Top | AbsVal::Bottom => Some(AbsBool::TOP),
        _ => None,
    }
}

/// Abstract `==` over full values, mirroring the interpreter's `Value`
/// equality (NaN ≠ NaN; `-0.0 == +0.0`; cross-type comparison is `false`).
fn abs_eq(a: &AbsVal, b: &AbsVal) -> AbsBool {
    use AbsVal::*;
    match (a, b) {
        (Top | Bottom, _) | (_, Top | Bottom) => AbsBool::TOP,
        (Array(..), _) | (_, Array(..)) => AbsBool::TOP,
        (Num(x), Num(y)) => {
            if let (Some(cx), Some(cy)) = (x.as_const(), y.as_const()) {
                // Concrete f64 equality on two known constants.
                return AbsBool::of(cx == cy);
            }
            if !x.nan && !y.nan && (x.hi < y.lo || y.hi < x.lo) {
                return AbsBool::of(false);
            }
            AbsBool::TOP
        }
        (Bool(x), Bool(y)) => match (x.as_const(), y.as_const()) {
            (Some(cx), Some(cy)) => AbsBool::of(cx == cy),
            _ => AbsBool::TOP,
        },
        (Str(Some(x)), Str(Some(y))) => AbsBool::of(x == y),
        (Str(_), Str(_)) => AbsBool::TOP,
        (Unit, Unit) => AbsBool::of(true),
        // Definitely different runtime types: Value equality says false.
        _ => AbsBool::of(false),
    }
}

/// Abstract `<`/`<=`/`>`/`>=` on intervals (NaN makes comparisons false).
fn abs_cmp(op: BinOp, a: Interval, b: Interval) -> AbsBool {
    let (certain_true, certain_false) = match op {
        BinOp::Lt => (!a.nan && !b.nan && a.hi < b.lo, a.lo >= b.hi),
        BinOp::Le => (!a.nan && !b.nan && a.hi <= b.lo, a.lo > b.hi),
        BinOp::Gt => (!a.nan && !b.nan && a.lo > b.hi, a.hi <= b.lo),
        BinOp::Ge => (!a.nan && !b.nan && a.lo >= b.hi, a.hi < b.lo),
        _ => (false, false),
    };
    // certain_false relies on comparisons being false under NaN, so it
    // needs no NaN guard; certain_true does.
    AbsBool {
        may_true: !certain_false,
        may_false: !certain_true,
    }
}

// ---------------------------------------------------------------------
// Environment and flow
// ---------------------------------------------------------------------

/// One variable binding of an [`Env`].
#[derive(Debug, Clone, PartialEq)]
struct Binding<'a> {
    /// Index of the scope that declares it (0 = outermost).
    scope: usize,
    /// The variable name, borrowed from the AST.
    name: &'a str,
    val: AbsVal,
}

/// A lexical environment: a stack of scopes mapping names to values.
///
/// All scopes share one vector, outermost first, and each scope's run of
/// bindings is sorted by name. The bindings are therefore sorted by
/// `(scope, name)`, so equality, iteration order and merges behave exactly
/// like a stack of sorted maps — without allocating per scope or per name.
#[derive(Debug, Clone, PartialEq)]
struct Env<'a> {
    vars: Vec<Binding<'a>>,
    /// Number of open scopes (always ≥ 1); every binding's scope is below it.
    depth: usize,
}

impl<'a> Env<'a> {
    fn new() -> Self {
        Env {
            vars: Vec::new(),
            depth: 1,
        }
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn push(&mut self) {
        self.depth += 1;
    }

    /// Closes scopes down to `depth` (never below one scope).
    fn truncate_to(&mut self, depth: usize) {
        let depth = depth.max(1);
        if depth < self.depth {
            self.depth = depth;
            let keep = self.vars.partition_point(|b| b.scope < depth);
            self.vars.truncate(keep);
        }
    }

    fn declare(&mut self, name: &'a str, val: AbsVal) {
        let top = self.depth - 1;
        let start = self.vars.partition_point(|b| b.scope < top);
        match self.vars[start..].binary_search_by(|b| b.name.cmp(name)) {
            Ok(i) => self.vars[start + i].val = val,
            Err(i) => self.vars.insert(
                start + i,
                Binding {
                    scope: top,
                    name,
                    val,
                },
            ),
        }
    }

    /// The innermost binding of `name`: scanning from the end visits the
    /// innermost scope first, and a scope binds each name at most once.
    fn get(&self, name: &str) -> Option<&AbsVal> {
        self.vars
            .iter()
            .rev()
            .find(|b| b.name == name)
            .map(|b| &b.val)
    }

    fn assign(&mut self, name: &str, val: AbsVal) -> bool {
        match self.vars.iter_mut().rev().find(|b| b.name == name) {
            Some(b) => {
                b.val = val;
                true
            }
            None => false,
        }
    }

    /// Forgets everything: all bindings become ⊤ (checkpoint restore may
    /// rewrite any variable that existed at snapshot time).
    fn clobber(&mut self) {
        for b in &mut self.vars {
            b.val = AbsVal::Top;
        }
    }

    /// Merges two environments scope by scope: a name bound on both sides
    /// gets `f` of its values, a name bound on one side only becomes ⊤,
    /// and scopes beyond the shorter stack are dropped.
    fn merge_with(&self, other: &Env<'a>, f: impl Fn(&AbsVal, &AbsVal) -> AbsVal) -> Env<'a> {
        let depth = self.depth.min(other.depth);
        let a = &self.vars[..self.vars.partition_point(|b| b.scope < depth)];
        let b = &other.vars[..other.vars.partition_point(|b| b.scope < depth)];
        let top = |x: &Binding<'a>| Binding {
            scope: x.scope,
            name: x.name,
            val: AbsVal::Top,
        };
        let mut vars = Vec::with_capacity(a.len().max(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (&a[i], &b[j]);
            let order = x.scope.cmp(&y.scope).then_with(|| {
                if same_name(x.name, y.name) {
                    Ordering::Equal
                } else {
                    x.name.cmp(y.name)
                }
            });
            match order {
                Ordering::Less => {
                    vars.push(top(x));
                    i += 1;
                }
                Ordering::Greater => {
                    vars.push(top(y));
                    j += 1;
                }
                Ordering::Equal => {
                    vars.push(Binding {
                        scope: x.scope,
                        name: x.name,
                        val: f(&x.val, &y.val),
                    });
                    i += 1;
                    j += 1;
                }
            }
        }
        vars.extend(a[i..].iter().chain(&b[j..]).map(top));
        Env { vars, depth }
    }

    /// Replaces `self` with `self.merge_with(other, f)`, returning whether
    /// that changed it. When both sides bind the same names in the same
    /// scopes — the usual case — this updates the values in place.
    fn merge_from(&mut self, other: &Env<'a>, f: impl Fn(&AbsVal, &AbsVal) -> AbsVal) -> bool {
        let same_layout = self.depth == other.depth
            && self.vars.len() == other.vars.len()
            && self
                .vars
                .iter()
                .zip(&other.vars)
                .all(|(x, y)| x.scope == y.scope && same_name(x.name, y.name));
        if !same_layout {
            let merged = self.merge_with(other, f);
            let changed = merged != *self;
            *self = merged;
            return changed;
        }
        let mut changed = false;
        for (x, y) in self.vars.iter_mut().zip(&other.vars) {
            let v = f(&x.val, &y.val);
            if v != x.val {
                x.val = v;
                changed = true;
            }
        }
        changed
    }

    /// Joins `other` into `self`; returns whether `self` changed.
    fn join_from(&mut self, other: &Env<'a>) -> bool {
        self.merge_from(other, AbsVal::join)
    }

    /// Widens `self` by `other`; returns whether `self` changed.
    fn widen_from(&mut self, other: &Env<'a>) -> bool {
        self.merge_from(other, AbsVal::widen)
    }
}

/// Name equality with a fast path for two borrows of the same AST string
/// (bindings that flow from one declaration share it).
fn same_name(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// The result of walking a statement or block: where control may go next.
struct Flow<'a> {
    /// Environment on normal fall-through, if reachable.
    fall: Option<Env<'a>>,
    /// Environments flowing to the innermost enclosing loop's exit.
    brk: Vec<Env<'a>>,
    /// Environments flowing to the innermost enclosing loop's back edge.
    cont: Vec<Env<'a>>,
    /// Join of all returned values (`Bottom` when no return is reachable).
    ret: AbsVal,
}

impl<'a> Flow<'a> {
    fn fall(env: Env<'a>) -> Flow<'a> {
        Flow {
            fall: Some(env),
            ..Flow::halt()
        }
    }

    /// Certain runtime error: nothing flows onward.
    fn halt() -> Flow<'a> {
        Flow {
            fall: None,
            brk: Vec::new(),
            cont: Vec::new(),
            ret: AbsVal::Bottom,
        }
    }
}

fn join_env_opt<'a>(a: Option<Env<'a>>, b: Env<'a>) -> Option<Env<'a>> {
    Some(match a {
        Some(mut a) => {
            a.join_from(&b);
            a
        }
        None => b,
    })
}

/// The last phase-1 iteration of a silent `while`, kept so phase 2 can
/// reuse it instead of walking the body again (see
/// [`Analyzer::walk_while`]).
struct LastIter<'a> {
    /// The condition's value on the stable head.
    cond: AbsVal,
    /// The head after evaluating the condition.
    probe: Env<'a>,
    /// The entered body's flow with `fall`/`cont` already spent on the
    /// back edge, or `None` when the body was not entered.
    body: Option<Flow<'a>>,
}

// ---------------------------------------------------------------------
// Public result types
// ---------------------------------------------------------------------

/// A store whose value is never read afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadStore {
    /// The stored-to variable.
    pub name: String,
    /// Span of the whole `let`/assignment statement.
    pub span: Span,
    /// Span of the right-hand-side expression.
    pub value_span: Span,
}

/// A division site whose divisor interval contains zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivSite {
    /// Span of the division expression.
    pub span: Span,
    /// Divisor lower bound.
    pub lo: f64,
    /// Divisor upper bound.
    pub hi: f64,
}

/// An assignment inside a loop whose right-hand side cannot change across
/// iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInvariant {
    /// The assigned variable.
    pub name: String,
    /// Span of the invariant statement.
    pub span: Span,
}

/// Everything the abstract interpreter proved about a program.
///
/// The semantic fact sets (`constants`, `unreachable`, `div_zero`) are
/// emptied when `complete` is false; the syntactic passes (`dead_stores`,
/// `loop_invariant`) are always valid.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Variables that only ever hold one finite numeric value.
    pub constants: BTreeMap<String, f64>,
    /// Stores whose values are never subsequently read.
    pub dead_stores: Vec<DeadStore>,
    /// Statement spans no concrete execution reaches.
    pub unreachable: Vec<Span>,
    /// Division sites with a finite divisor interval containing zero.
    pub div_zero: Vec<DivSite>,
    /// Loop-body assignments whose right-hand side is loop-invariant.
    pub loop_invariant: Vec<LoopInvariant>,
    /// Whether the analysis ran to completion within its fuel budget.
    pub complete: bool,
}

// ---------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FnSummary {
    params: Vec<AbsVal>,
    ret: AbsVal,
    runs: u32,
    reported: bool,
}

struct Analyzer<'a> {
    program: &'a Program,
    fns: HashMap<&'a str, &'a Function>,
    /// Functions on a cycle in the call graph: always analyzed with ⊤
    /// parameters so the in-progress-call cut stays sound.
    recursive: HashSet<&'a str>,
    /// Functions that may (transitively) checkpoint or restore — a call
    /// clobbers every caller-visible binding.
    may_ckpt: HashSet<&'a str>,
    summaries: HashMap<&'a str, FnSummary>,
    /// Bumped on every `summaries` insert, so a loop iteration can tell
    /// whether it changed any summary.
    summary_gen: u64,
    stack: Vec<&'a str>,
    reporting: bool,
    fuel: u64,
    complete: bool,
    /// Every statement span in the program, sorted and deduplicated.
    stmt_spans: Vec<(usize, usize)>,
    /// `visited[i]`: some walk reached a statement spanning `stmt_spans[i]`.
    visited: Vec<bool>,
    divs: BTreeMap<(usize, usize), Interval>,
    assigns: BTreeMap<&'a str, AbsVal>,
}

fn is_user_fn(fns: &HashMap<&str, &Function>, name: &str) -> bool {
    !name.starts_with("au_") && fns.contains_key(name)
}

/// Each function by name; a later definition of a name replaces an
/// earlier one.
fn function_map(program: &Program) -> HashMap<&str, &Function> {
    program
        .functions()
        .iter()
        .map(|f| (program.name(f.name), f))
        .collect()
}

/// Whether a call to `name` may checkpoint or restore.
fn may_checkpoint(name: &str, fns: &HashMap<&str, &Function>, may_ckpt: &HashSet<&str>) -> bool {
    name == "au_checkpoint"
        || name == "au_restore"
        || (is_user_fn(fns, name) && may_ckpt.contains(name))
}

impl<'a> Analyzer<'a> {
    fn new(program: &'a Program) -> Self {
        let fns = function_map(program);
        let (recursive, may_ckpt) = call_graph_facts(program, &fns);
        let mut stmt_spans = Vec::new();
        for func in program.functions() {
            for_each_stmt(&func.body, &mut |s| {
                if !s.span.is_dummy() {
                    stmt_spans.push((s.span.start, s.span.end));
                }
            });
        }
        stmt_spans.sort_unstable();
        stmt_spans.dedup();
        Analyzer {
            program,
            fns,
            recursive,
            may_ckpt,
            summaries: HashMap::new(),
            summary_gen: 0,
            stack: Vec::new(),
            reporting: true,
            fuel: FUEL,
            complete: true,
            visited: vec![false; stmt_spans.len()],
            stmt_spans,
            divs: BTreeMap::new(),
            assigns: BTreeMap::new(),
        }
    }

    fn record_assign(&mut self, name: &'a str, v: &AbsVal) {
        if !self.reporting {
            return;
        }
        match self.assigns.entry(name) {
            BEntry::Occupied(mut o) => {
                let joined = o.get().join(v);
                o.insert(joined);
            }
            BEntry::Vacant(slot) => {
                slot.insert(v.clone());
            }
        }
    }

    // -----------------------------------------------------------------
    // Expression evaluation
    // -----------------------------------------------------------------

    fn eval(&mut self, e: ExprId, env: &mut Env<'a>) -> AbsVal {
        if self.fuel == 0 {
            self.complete = false;
            return AbsVal::Top;
        }
        self.fuel -= 1;
        self.eval_inner(e, env)
    }

    fn eval_inner(&mut self, e: ExprId, env: &mut Env<'a>) -> AbsVal {
        let p = self.program;
        match p.expr(e).kind {
            ExprKind::Num(n) => AbsVal::Num(Interval::point(n)),
            ExprKind::Bool(b) => AbsVal::Bool(AbsBool::of(b)),
            ExprKind::Str(s) => AbsVal::Str(Some(Rc::from(p.str(s)))),
            // Undefined variable: certain runtime error.
            ExprKind::Var(name) => env.get(p.name(name)).cloned().unwrap_or(AbsVal::Bottom),
            ExprKind::Array(items) => {
                let mut elem = AbsVal::Bottom;
                for &item in p.list(items) {
                    elem = elem.join(&self.eval(item, env));
                }
                AbsVal::Array(Rc::new(elem), Interval::point(items.len() as f64))
            }
            ExprKind::Index(arr, idx) => {
                let a = self.eval(arr, env);
                self.eval(idx, env);
                match a {
                    AbsVal::Array(elem, _) => (*elem).clone(),
                    AbsVal::Top | AbsVal::Bottom => AbsVal::Top,
                    _ => AbsVal::Bottom,
                }
            }
            ExprKind::Call { name, args } => self.eval_call(p.name(name), p.list(args), env),
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(e, op, lhs, rhs, env),
            ExprKind::Unary { op, expr } => {
                let v = self.eval(expr, env);
                match op {
                    UnOp::Neg => match as_num_domain(&v) {
                        Some((i, _)) => AbsVal::Num(i.neg()),
                        None => AbsVal::Bottom,
                    },
                    UnOp::Not => match as_bool_domain(&v) {
                        Some(b) => AbsVal::Bool(b.not()),
                        None => AbsVal::Bottom,
                    },
                }
            }
        }
    }

    fn eval_binary(
        &mut self,
        e: ExprId,
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
        env: &mut Env<'a>,
    ) -> AbsVal {
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval(lhs, env);
            let Some(lb) = as_bool_domain(&l) else {
                return AbsVal::Bottom;
            };
            // Short-circuit: when the left side decides the result the
            // interpreter never evaluates the right side.
            match op {
                BinOp::And if !lb.may_true => return AbsVal::Bool(AbsBool::of(false)),
                BinOp::Or if !lb.may_false => return AbsVal::Bool(AbsBool::of(true)),
                _ => {}
            }
            let r = self.eval(rhs, env);
            let Some(rb) = as_bool_domain(&r) else {
                return AbsVal::Bottom;
            };
            return AbsVal::Bool(match op {
                BinOp::And => AbsBool {
                    may_true: lb.may_true && rb.may_true,
                    may_false: lb.may_false || rb.may_false,
                },
                _ => AbsBool {
                    may_true: lb.may_true || rb.may_true,
                    may_false: lb.may_false && rb.may_false,
                },
            });
        }

        let l = self.eval(lhs, env);
        let r = self.eval(rhs, env);
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            let b = abs_eq(&l, &r);
            return AbsVal::Bool(if op == BinOp::Ne { b.not() } else { b });
        }
        let (Some((li, _)), Some((ri, rc))) = (as_num_domain(&l), as_num_domain(&r)) else {
            return AbsVal::Bottom;
        };
        match op {
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => AbsVal::Bool(abs_cmp(op, li, ri)),
            BinOp::Add => AbsVal::Num(li.add(ri)),
            BinOp::Sub => AbsVal::Num(li.sub(ri)),
            BinOp::Mul => AbsVal::Num(li.mul(ri)),
            BinOp::Div => {
                let e = self.program.expr(e);
                if self.reporting && rc && !e.span.is_dummy() {
                    match self.divs.entry((e.span.start, e.span.end)) {
                        BEntry::Occupied(mut o) => {
                            let j = o.get().join(ri);
                            o.insert(j);
                        }
                        BEntry::Vacant(slot) => {
                            slot.insert(ri);
                        }
                    }
                }
                AbsVal::Num(li.div(ri))
            }
            _ => AbsVal::Num(li.rem(ri)),
        }
    }

    // -----------------------------------------------------------------
    // Calls
    // -----------------------------------------------------------------

    fn eval_call(&mut self, name: &'a str, args: &'a [ExprId], env: &mut Env<'a>) -> AbsVal {
        if is_user_fn(&self.fns, name) {
            let out = self.call_user(name, args, env);
            if self.may_ckpt.contains(name) {
                env.clobber();
            }
            return out;
        }
        self.call_builtin(name, args, env)
    }

    fn call_user(&mut self, name: &'a str, args: &'a [ExprId], env: &mut Env<'a>) -> AbsVal {
        let func = self.fns[name];
        if func.params.len() != args.len() {
            // Arity error is raised before the callee runs; arguments are
            // still evaluated at the call site first.
            for &a in args {
                self.eval(a, env);
            }
            return AbsVal::Top;
        }
        let mut arg_vals = Vec::with_capacity(args.len());
        for &a in args {
            arg_vals.push(self.eval(a, env));
        }
        if self.recursive.contains(name) {
            // Recursive functions are summarized once under ⊤ parameters so
            // the in-progress-call cut below cannot under-approximate.
            arg_vals.fill(AbsVal::Top);
        }
        if self.stack.contains(&name) {
            return AbsVal::Top;
        }
        if self.stack.len() > self.fns.len() + 1 {
            self.complete = false;
            return AbsVal::Top;
        }
        if let Some(s) = self.summaries.get(name) {
            let fits = s.params.len() == arg_vals.len()
                && arg_vals.iter().zip(&s.params).all(|(a, p)| a.le(p));
            if fits && (!self.reporting || s.reported) {
                return s.ret.clone();
            }
        }
        // (Re-)analyze the body under the joined parameter context.
        let (params, runs) = match self.summaries.get(name) {
            Some(s) => {
                let runs = s.runs + 1;
                let params: Vec<AbsVal> = if runs >= MAX_FN_RUNS {
                    vec![AbsVal::Top; arg_vals.len()]
                } else {
                    s.params
                        .iter()
                        .zip(&arg_vals)
                        .map(|(p, a)| p.join(a))
                        .collect()
                };
                (params, runs)
            }
            None => (arg_vals, 1),
        };
        let mut fenv = Env::new();
        for (&p, v) in func.params.iter().zip(&params) {
            let p = self.program.name(p);
            self.record_assign(p, v);
            fenv.declare(p, v.clone());
        }
        self.stack.push(name);
        let flow = self.walk_block(&func.body, fenv);
        self.stack.pop();
        let mut ret = flow.ret;
        if flow.fall.is_some() {
            ret = ret.join(&AbsVal::Unit);
        }
        let reported = self.reporting || self.summaries.get(name).is_some_and(|s| s.reported);
        self.summaries.insert(
            name,
            FnSummary {
                params,
                ret: ret.clone(),
                runs,
                reported,
            },
        );
        self.summary_gen += 1;
        ret
    }

    fn call_builtin(&mut self, name: &str, args: &'a [ExprId], env: &mut Env<'a>) -> AbsVal {
        // Fixed-arity builtins check arity *before* evaluating arguments,
        // so a mismatch must not record argument effects or facts.
        let arity: Option<usize> = match name {
            "au_extract" | "au_write_back_n" | "input" | "append" | "min" | "max" => Some(2),
            "au_write_back" | "len" | "mark_input" | "mark_target" | "floor" | "abs" | "sqrt"
            | "sin" | "cos" | "exp" => Some(1),
            "au_checkpoint" | "au_restore" | "rand" => Some(0),
            "au_nn_rl" => Some(6),
            _ => None,
        };
        if let Some(n) = arity {
            if args.len() != n {
                return AbsVal::Top;
            }
        }
        match name {
            "au_config" if args.len() < 4 => return AbsVal::Top,
            "au_nn" if args.len() < 3 => return AbsVal::Top,
            _ => {}
        }
        let known = matches!(
            name,
            "au_config"
                | "au_extract"
                | "au_serialize"
                | "au_nn"
                | "au_nn_rl"
                | "au_write_back"
                | "au_write_back_n"
                | "au_checkpoint"
                | "au_restore"
                | "mark_input"
                | "mark_target"
                | "input"
                | "print"
                | "len"
                | "append"
                | "floor"
                | "abs"
                | "sqrt"
                | "sin"
                | "cos"
                | "exp"
                | "min"
                | "max"
                | "rand"
        );
        if !known {
            // Unknown function: the interpreter errors before evaluating
            // any argument.
            return AbsVal::Top;
        }
        let mut vals = Vec::with_capacity(args.len());
        for &a in args {
            vals.push(self.eval(a, env));
        }
        let unbounded_len = || Interval::make(0.0, f64::INFINITY, false);
        match name {
            "input" => AbsVal::Top,
            "rand" => AbsVal::Num(Interval::make(0.0, 1.0, false)),
            "print" | "au_config" | "au_extract" | "mark_input" | "mark_target"
            | "au_checkpoint" => AbsVal::Unit,
            "au_restore" => {
                env.clobber();
                AbsVal::Unit
            }
            "au_serialize" => AbsVal::Str(None),
            "au_nn" | "au_write_back_n" => {
                AbsVal::Array(Rc::new(AbsVal::Num(Interval::top_nan())), unbounded_len())
            }
            "au_nn_rl" => AbsVal::Num(unbounded_len()),
            "au_write_back" => AbsVal::Num(Interval::top_nan()),
            "len" => AbsVal::Num(match &vals[0] {
                AbsVal::Array(_, len) => *len,
                AbsVal::Str(Some(s)) => Interval::point(s.len() as f64),
                _ => unbounded_len(),
            }),
            "append" => match &vals[0] {
                AbsVal::Array(elem, len) => {
                    AbsVal::Array(Rc::new(elem.join(&vals[1])), len.add(Interval::point(1.0)))
                }
                _ => AbsVal::Array(
                    Rc::new(AbsVal::Top),
                    Interval::make(1.0, f64::INFINITY, false),
                ),
            },
            "floor" | "abs" | "sqrt" | "sin" | "cos" | "exp" => match as_num_domain(&vals[0]) {
                Some((i, _)) => AbsVal::Num(match name {
                    "floor" => i.floor_i(),
                    "abs" => i.abs_i(),
                    "sqrt" => i.sqrt_i(),
                    "sin" => i.trig_i(f64::sin),
                    "cos" => i.trig_i(f64::cos),
                    _ => i.exp_i(),
                }),
                None => AbsVal::Bottom,
            },
            "min" | "max" => match (as_num_domain(&vals[0]), as_num_domain(&vals[1])) {
                (Some((a, _)), Some((b, _))) => AbsVal::Num(if name == "min" {
                    a.min_with(b)
                } else {
                    a.max_with(b)
                }),
                _ => AbsVal::Bottom,
            },
            _ => AbsVal::Top,
        }
    }

    // -----------------------------------------------------------------
    // Branch refinement
    // -----------------------------------------------------------------

    /// Narrows `env` under the assumption that `cond` evaluated to `want`.
    ///
    /// Returns `None` when the assumption is infeasible (the branch can be
    /// skipped). This is deliberately *syntactic-shallow* — it never calls
    /// [`Analyzer::eval`], so no facts are double-recorded — and only
    /// understands literals, variables, `!`, short-circuit chains, and
    /// comparisons whose operands are variables or (negated) number
    /// literals.
    fn refine(&self, mut env: Env<'a>, cond: ExprId, want: bool) -> Option<Env<'a>> {
        match self.program.expr(cond).kind {
            ExprKind::Bool(b) => (b == want).then_some(env),
            ExprKind::Var(name) => {
                let name = self.program.name(name);
                match env.get(name) {
                    Some(AbsVal::Bool(b)) => {
                        if (want && !b.may_true) || (!want && !b.may_false) {
                            return None;
                        }
                    }
                    Some(AbsVal::Top | AbsVal::Bottom) => {}
                    _ => return Some(env),
                }
                env.assign(name, AbsVal::Bool(AbsBool::of(want)));
                Some(env)
            }
            ExprKind::Unary {
                op: UnOp::Not,
                expr,
            } => self.refine(env, expr, !want),
            ExprKind::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } if want => {
                let e = self.refine(env, lhs, true)?;
                self.refine(e, rhs, true)
            }
            ExprKind::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } if !want => {
                let e = self.refine(env, lhs, false)?;
                self.refine(e, rhs, false)
            }
            ExprKind::Binary { op, lhs, rhs }
                if matches!(
                    op,
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq
                ) =>
            {
                self.refine_cmp(env, op, lhs, rhs, want)
            }
            _ => Some(env),
        }
    }

    fn refine_cmp(
        &self,
        mut env: Env<'a>,
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
        want: bool,
    ) -> Option<Env<'a>> {
        // Resolve each operand to a variable or a numeric constant.
        fn side(p: &Program, e: ExprId) -> Option<Result<&str, f64>> {
            match p.expr(e).kind {
                ExprKind::Var(n) => Some(Ok(p.name(n))),
                ExprKind::Num(n) => Some(Err(n)),
                ExprKind::Unary {
                    op: UnOp::Neg,
                    expr,
                } => match p.expr(expr).kind {
                    ExprKind::Num(n) => Some(Err(-n)),
                    _ => None,
                },
                _ => None,
            }
        }
        let (Some(ls), Some(rs)) = (side(self.program, lhs), side(self.program, rhs)) else {
            return Some(env);
        };
        // Whether a side is a number literal or a variable that may hold
        // a number.
        let numeric = |env: &Env, s: &Result<&str, f64>| match s {
            Ok(name) => matches!(
                env.get(name),
                Some(AbsVal::Num(_) | AbsVal::Top | AbsVal::Bottom)
            ),
            Err(_) => true,
        };
        let iv_of = |s: &Result<&str, f64>| -> Option<Interval> {
            match s {
                Ok(name) => match env.get(name) {
                    Some(AbsVal::Num(i)) => Some(*i),
                    Some(AbsVal::Top | AbsVal::Bottom) => Some(Interval::top_nan()),
                    // Non-numeric binding: a numeric comparison errors at
                    // runtime (Eq never reaches here with want-tightening
                    // on non-num; bail without refinement either way).
                    _ => None,
                },
                Err(c) => Some(Interval::point(*c)),
            }
        };
        let (Some(a), Some(b)) = (iv_of(&ls), iv_of(&rs)) else {
            return Some(env);
        };
        // Negating a comparison is only interval-exact when neither side
        // can be NaN: `!(a < b)` includes the NaN cases `a >= b` misses.
        let eff = if want {
            op
        } else {
            if a.nan || b.nan {
                return Some(env);
            }
            match op {
                BinOp::Lt => BinOp::Ge,
                BinOp::Le => BinOp::Gt,
                BinOp::Gt => BinOp::Le,
                BinOp::Ge => BinOp::Lt,
                // Eq-false gives no interval information.
                _ => return Some(env),
            }
        };
        // A true ordered comparison implies both sides are non-NaN.
        let (na, nb) = match eff {
            BinOp::Lt => {
                if a.lo >= b.hi {
                    return None;
                }
                (
                    Interval::make(a.lo, a.hi.min(b.hi), false),
                    Interval::make(b.lo.max(a.lo), b.hi, false),
                )
            }
            BinOp::Le => {
                if a.lo > b.hi {
                    return None;
                }
                (
                    Interval::make(a.lo, a.hi.min(b.hi), false),
                    Interval::make(b.lo.max(a.lo), b.hi, false),
                )
            }
            BinOp::Gt => {
                if a.hi <= b.lo {
                    return None;
                }
                (
                    Interval::make(a.lo.max(b.lo), a.hi, false),
                    Interval::make(b.lo, b.hi.min(a.hi), false),
                )
            }
            BinOp::Ge => {
                if a.hi < b.lo {
                    return None;
                }
                (
                    Interval::make(a.lo.max(b.lo), a.hi, false),
                    Interval::make(b.lo, b.hi.min(a.hi), false),
                )
            }
            BinOp::Eq => {
                // Only refine when both sides are numeric; `==` on mixed
                // types is plain `false`, never an error.
                if !numeric(&env, &ls) || !numeric(&env, &rs) {
                    return Some(env);
                }
                if a.lo > b.hi || b.lo > a.hi {
                    return None;
                }
                let i = Interval::make(a.lo.max(b.lo), a.hi.min(b.hi), false);
                (i, i)
            }
            _ => return Some(env),
        };
        // Both sides are judged on the unrefined environment.
        let (l_num, r_num) = (numeric(&env, &ls), numeric(&env, &rs));
        if let (Ok(name), true) = (ls, l_num) {
            env.assign(name, AbsVal::Num(na));
        }
        if let (Ok(name), true) = (rs, r_num) {
            env.assign(name, AbsVal::Num(nb));
        }
        Some(env)
    }

    // -----------------------------------------------------------------
    // Statement walking
    // -----------------------------------------------------------------

    fn walk_block(&mut self, stmts: &'a [Stmt], mut env: Env<'a>) -> Flow<'a> {
        let entry_depth = env.depth();
        env.push();
        let mut result = Flow::halt();
        let mut cur = Some(env);
        for stmt in stmts {
            let Some(e) = cur.take() else {
                // The rest of the block is unreachable: leave it unvisited
                // so it lands in the unreachable set.
                break;
            };
            let f = self.walk_stmt(stmt, e);
            result.ret = result.ret.join(&f.ret);
            result.brk.extend(f.brk);
            result.cont.extend(f.cont);
            cur = f.fall;
        }
        result.fall = cur.map(|mut e| {
            e.truncate_to(entry_depth);
            e
        });
        result
    }

    fn walk_stmt(&mut self, stmt: &'a Stmt, mut env: Env<'a>) -> Flow<'a> {
        if !stmt.span.is_dummy() {
            // Recorded even in silent loop iterations: a statement visited
            // under any head state is certainly visited under the (larger)
            // final head, so this can only shrink the unreachable set.
            if let Ok(i) = self
                .stmt_spans
                .binary_search(&(stmt.span.start, stmt.span.end))
            {
                self.visited[i] = true;
            }
        }
        if self.fuel == 0 {
            self.complete = false;
        }
        match &stmt.kind {
            StmtKind::Let { name, init } => {
                let name = self.program.name(*name);
                let v = self.eval(*init, &mut env);
                self.record_assign(name, &v);
                env.declare(name, v);
                Flow::fall(env)
            }
            StmtKind::Assign { name, value } => {
                let name = self.program.name(*name);
                let v = self.eval(*value, &mut env);
                self.record_assign(name, &v);
                if env.assign(name, v) {
                    Flow::fall(env)
                } else {
                    Flow::halt()
                }
            }
            StmtKind::AssignIndex { name, index, value } => {
                let name = self.program.name(*name);
                self.eval(*index, &mut env);
                let v = self.eval(*value, &mut env);
                match env.get(name) {
                    Some(AbsVal::Array(elem, len)) => {
                        let updated = AbsVal::Array(Rc::new(elem.join(&v)), *len);
                        env.assign(name, updated);
                    }
                    Some(AbsVal::Top | AbsVal::Bottom) => {}
                    Some(_) => return Flow::halt(),
                    None => return Flow::halt(),
                }
                Flow::fall(env)
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(*cond, &mut env);
                let Some(ab) = as_bool_domain(&c) else {
                    return Flow::halt();
                };
                let mut merged = Flow::halt();
                // Each feasible branch refines its own copy of `env`.
                let (then_env, else_env) = match (ab.may_true, ab.may_false) {
                    (true, true) => (Some(env.clone()), Some(env)),
                    (true, false) => (Some(env), None),
                    (false, true) => (None, Some(env)),
                    (false, false) => (None, None),
                };
                let mut any = false;
                for (env, want, body) in [(then_env, true, then_body), (else_env, false, else_body)]
                {
                    let Some(e) = env.and_then(|env| self.refine(env, *cond, want)) else {
                        continue;
                    };
                    let f = self.walk_block(body, e);
                    merged.ret = merged.ret.join(&f.ret);
                    merged.brk.extend(f.brk);
                    merged.cont.extend(f.cont);
                    if let Some(e) = f.fall {
                        merged.fall = join_env_opt(merged.fall.take(), e);
                    }
                    any = true;
                }
                if !any {
                    return Flow::halt();
                }
                merged
            }
            StmtKind::While { cond, body } => self.walk_while(*cond, body, env),
            StmtKind::Return(e) => Flow {
                ret: match e {
                    Some(e) => self.eval(*e, &mut env),
                    None => AbsVal::Unit,
                },
                ..Flow::halt()
            },
            StmtKind::Break => Flow {
                brk: vec![env],
                ..Flow::halt()
            },
            StmtKind::Continue => Flow {
                cont: vec![env],
                ..Flow::halt()
            },
            StmtKind::Expr(e) => {
                self.eval(*e, &mut env);
                Flow::fall(env)
            }
        }
    }

    /// Solves a `while` loop: a silent fixpoint on the head (phase 1),
    /// then one pass over the stable head that records facts (phase 2).
    ///
    /// When the loop itself runs silently, phase 2 would repeat phase 1's
    /// last iteration exactly — same head, same condition, same body — so
    /// it reuses that iteration's results instead of walking the body
    /// again. That is exact only if the iteration changed no function
    /// summary: a call evaluated early in it may have used a summary that
    /// a later call then replaced, and a replay would see the new one.
    fn walk_while(&mut self, cond: ExprId, body: &'a [Stmt], env: Env<'a>) -> Flow<'a> {
        let entry_depth = env.depth();
        // Phase 1: silent fixpoint on the loop-head environment. Facts are
        // not recorded here; phase 2 records them once, against the stable
        // head that over-approximates every intermediate state.
        let saved_reporting = self.reporting;
        self.reporting = false;
        let mut head = env;
        let mut iters: u32 = 0;
        let mut last: Option<LastIter<'a>> = None;
        loop {
            if self.fuel == 0 {
                self.complete = false;
                head.clobber();
                break;
            }
            let gen = self.summary_gen;
            let mut probe = head.clone();
            let c = self.eval(cond, &mut probe);
            let may_true = as_bool_domain(&c).is_some_and(|ab| ab.may_true);
            let enter = if may_true {
                self.refine(probe.clone(), cond, true)
            } else {
                None
            };
            let Some(enter) = enter else {
                // The condition itself may call functions.
                if !saved_reporting && self.summary_gen == gen {
                    last = Some(LastIter {
                        cond: c,
                        probe,
                        body: None,
                    });
                }
                break;
            };
            let f = self.walk_block(body, enter);
            let mut back: Option<Env> = None;
            for mut e in f.fall.into_iter().chain(f.cont) {
                e.truncate_to(entry_depth);
                back = join_env_opt(back, e);
            }
            let reusable = !saved_reporting && self.summary_gen == gen;
            let this = LastIter {
                cond: c,
                probe,
                body: Some(Flow {
                    brk: f.brk,
                    ret: f.ret,
                    ..Flow::halt()
                }),
            };
            let Some(back) = back else {
                // The body never reaches the back edge; the head is stable.
                last = reusable.then_some(this);
                break;
            };
            let changed = if iters >= WIDEN_AFTER {
                head.widen_from(&back)
            } else {
                head.join_from(&back)
            };
            if !changed {
                last = reusable.then_some(this);
                break;
            }
            iters += 1;
            if iters > MAX_LOOP_ITERS {
                // All-⊤ is trivially a fixpoint.
                head.clobber();
                break;
            }
        }
        self.reporting = saved_reporting;
        // Phase 2: one pass over the stable head. The head
        // over-approximates every silent iteration, so everything visited
        // silently is visited (and, when reporting, recorded) again here.
        let (c, probe, reused) = match last {
            Some(it) => (it.cond, it.probe, Some(it.body)),
            None => {
                let mut probe = head;
                let c = self.eval(cond, &mut probe);
                (c, probe, None)
            }
        };
        let Some(ab) = as_bool_domain(&c) else {
            return Flow::halt();
        };
        let mut flow = Flow::halt();
        if ab.may_true {
            let walked = match reused {
                Some(walked) => walked,
                None => self
                    .refine(probe.clone(), cond, true)
                    .map(|enter| self.walk_block(body, enter)),
            };
            if let Some(f) = walked {
                flow.ret = flow.ret.join(&f.ret);
                for mut e in f.brk {
                    e.truncate_to(entry_depth);
                    flow.fall = join_env_opt(flow.fall.take(), e);
                }
                // Fall-through and continue feed the back edge, already
                // accounted for by the fixpoint.
            }
        }
        if ab.may_false {
            if let Some(mut exit) = self.refine(probe, cond, false) {
                exit.truncate_to(entry_depth);
                flow.fall = join_env_opt(flow.fall.take(), exit);
            }
        }
        flow
    }
}

// ---------------------------------------------------------------------
// Syntactic passes
// ---------------------------------------------------------------------

/// Computes the recursive-function set and the may-checkpoint closure from
/// the syntactic call graph.
fn call_graph_facts<'a>(
    program: &'a Program,
    fns: &HashMap<&'a str, &'a Function>,
) -> (HashSet<&'a str>, HashSet<&'a str>) {
    let mut calls: HashMap<&'a str, HashSet<&'a str>> = HashMap::new();
    let mut direct_ckpt: HashSet<&'a str> = HashSet::new();
    for (&name, &func) in fns {
        let mut out = HashSet::new();
        let mut ckpt = false;
        for_each_expr(program, &func.body, &mut |e| {
            if let ExprKind::Call { name: callee, .. } = e.kind {
                let callee = program.name(callee);
                if is_user_fn(fns, callee) {
                    out.insert(callee);
                } else if callee == "au_checkpoint" || callee == "au_restore" {
                    ckpt = true;
                }
            }
        });
        if ckpt {
            direct_ckpt.insert(name);
        }
        calls.insert(name, out);
    }
    // Transitive closure by iteration (programs are small).
    let mut reach = calls.clone();
    loop {
        let mut changed = false;
        for &name in calls.keys() {
            let cur = reach[name].clone();
            let mut next = cur.clone();
            for callee in &cur {
                if let Some(r) = reach.get(callee) {
                    next.extend(r.iter().copied());
                }
            }
            if next.len() != cur.len() {
                reach.insert(name, next);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let recursive: HashSet<&'a str> = reach
        .iter()
        .filter(|(name, r)| r.contains(*name))
        .map(|(name, _)| *name)
        .collect();
    let may_ckpt: HashSet<&'a str> = reach
        .iter()
        .filter(|(name, r)| {
            direct_ckpt.contains(*name) || r.iter().any(|g| direct_ckpt.contains(g))
        })
        .map(|(name, _)| *name)
        .collect();
    (recursive, may_ckpt)
}

/// Names the au_* protocol refers to by string literal (extraction keys,
/// model names, write-back keys, input keys, mark annotations). Such a
/// string coinciding with a variable name must not make the variable
/// "constant" for the `StaticFilter`, so they are excluded.
fn protocol_names(program: &Program) -> HashSet<String> {
    const PROTO: &[&str] = &[
        "input",
        "mark_input",
        "mark_target",
        "au_extract",
        "au_write_back",
        "au_write_back_n",
        "au_serialize",
        "au_nn",
        "au_nn_rl",
        "au_config",
    ];
    let mut out = HashSet::new();
    for func in program.functions() {
        for_each_expr(program, &func.body, &mut |e| {
            if let ExprKind::Call { name, args } = e.kind {
                if PROTO.contains(&program.name(name)) {
                    for &a in program.list(args) {
                        if let ExprKind::Str(s) = program.expr(a).kind {
                            out.insert(program.str(s).to_owned());
                        }
                    }
                }
            }
        });
    }
    out
}

/// Collects loop-invariant top-level assignments in every `while` body:
/// `let`/`=` statements whose right-hand side contains no call, at least
/// one variable, and no variable assigned anywhere in the loop body.
fn loop_invariants(program: &Program, may_ckpt: &HashSet<&str>) -> Vec<LoopInvariant> {
    let fns = function_map(program);
    let mut out = Vec::new();
    for func in program.functions() {
        for_each_stmt(&func.body, &mut |stmt| {
            let StmtKind::While { body, .. } = &stmt.kind else {
                return;
            };
            // A checkpoint restore may rewrite any variable mid-loop, so
            // nothing in such a body is provably invariant.
            let mut has_ckpt = false;
            for_each_expr(program, body, &mut |e| {
                if let ExprKind::Call { name, .. } = e.kind {
                    if may_checkpoint(program.name(name), &fns, may_ckpt) {
                        has_ckpt = true;
                    }
                }
            });
            if has_ckpt {
                return;
            }
            let mut assigned: HashSet<Sym> = HashSet::new();
            for_each_stmt(body, &mut |s| match &s.kind {
                StmtKind::Let { name, .. }
                | StmtKind::Assign { name, .. }
                | StmtKind::AssignIndex { name, .. } => {
                    assigned.insert(*name);
                }
                _ => {}
            });
            for s in body {
                let (name, value) = match &s.kind {
                    StmtKind::Let { name, init } => (name, init),
                    StmtKind::Assign { name, value } => (name, value),
                    _ => continue,
                };
                if s.span.is_dummy() {
                    continue;
                }
                let mut vars = 0usize;
                let mut blocked = false;
                let mut check = |e: &Expr| match e.kind {
                    ExprKind::Var(v) => {
                        vars += 1;
                        if assigned.contains(&v) {
                            blocked = true;
                        }
                    }
                    ExprKind::Call { .. } => blocked = true,
                    _ => {}
                };
                for_each_subexpr(program, *value, &mut check);
                if !blocked && vars >= 1 {
                    out.push(LoopInvariant {
                        name: program.name(*name).to_owned(),
                        span: s.span,
                    });
                }
            }
        });
    }
    out
}

// ---------------------------------------------------------------------
// Liveness (backward, per function)
// ---------------------------------------------------------------------

/// A backward liveness fact: either an explicit live set, or "everything
/// live except `names`" (after a whole-frame effect like `au_restore`).
#[derive(Debug, Clone, PartialEq)]
struct Live<'a> {
    all: bool,
    /// Live names when `!all`; *excluded* (killed) names when `all`.
    names: BTreeSet<&'a str>,
}

impl<'a> Live<'a> {
    fn none() -> Self {
        Live {
            all: false,
            names: BTreeSet::new(),
        }
    }

    fn everything() -> Self {
        Live {
            all: true,
            names: BTreeSet::new(),
        }
    }

    fn is_live(&self, name: &str) -> bool {
        if self.all {
            !self.names.contains(name)
        } else {
            self.names.contains(name)
        }
    }

    fn read(&mut self, name: &'a str) {
        if self.all {
            self.names.remove(name);
        } else {
            self.names.insert(name);
        }
    }

    fn kill(&mut self, name: &'a str) {
        if self.all {
            self.names.insert(name);
        } else {
            self.names.remove(name);
        }
    }

    fn set_all(&mut self) {
        *self = Live::everything();
    }

    fn join(&self, other: &Self) -> Self {
        match (self.all, other.all) {
            (false, false) => Live {
                all: false,
                names: self.names.union(&other.names).cloned().collect(),
            },
            (true, true) => Live {
                all: true,
                names: self.names.intersection(&other.names).cloned().collect(),
            },
            (true, false) => Live {
                all: true,
                names: self.names.difference(&other.names).cloned().collect(),
            },
            (false, true) => other.join(self),
        }
    }
}

struct LiveCtx<'c, 'a> {
    program: &'a Program,
    fns: &'c HashMap<&'a str, &'a Function>,
    may_ckpt: &'c HashSet<&'a str>,
    brk: Live<'a>,
    cont: Live<'a>,
}

fn expr_reads<'a>(e: ExprId, l: &mut Live<'a>, ctx: &LiveCtx<'_, 'a>) {
    let program = ctx.program;
    match program.expr(e).kind {
        ExprKind::Var(name) => l.read(program.name(name)),
        ExprKind::Call { name, .. } => {
            // Checkpoint/restore snapshot or rewrite every variable in
            // every frame: treat as a read of everything.
            if may_checkpoint(program.name(name), ctx.fns, ctx.may_ckpt) {
                l.set_all();
            }
            program
                .expr(e)
                .kind
                .for_each_operand(program, |a| expr_reads(a, l, ctx));
        }
        kind => kind.for_each_operand(program, |a| expr_reads(a, l, ctx)),
    }
}

/// Backward liveness over a block. Returns the live set at block entry;
/// dead stores are appended to `out` when `recording`.
fn live_block<'a>(
    stmts: &'a [Stmt],
    after: Live<'a>,
    ctx: &LiveCtx<'_, 'a>,
    recording: bool,
    out: &mut Vec<DeadStore>,
) -> Live<'a> {
    let mut l = after;
    for stmt in stmts.iter().rev() {
        match &stmt.kind {
            StmtKind::Let { name, init } => {
                let name = ctx.program.name(*name);
                if recording && !l.is_live(name) && !stmt.span.is_dummy() {
                    out.push(DeadStore {
                        name: name.to_owned(),
                        span: stmt.span,
                        value_span: ctx.program.expr(*init).span,
                    });
                }
                l.kill(name);
                expr_reads(*init, &mut l, ctx);
            }
            StmtKind::Assign { name, value } => {
                let name = ctx.program.name(*name);
                if recording && !l.is_live(name) && !stmt.span.is_dummy() {
                    out.push(DeadStore {
                        name: name.to_owned(),
                        span: stmt.span,
                        value_span: ctx.program.expr(*value).span,
                    });
                }
                l.kill(name);
                expr_reads(*value, &mut l, ctx);
            }
            StmtKind::AssignIndex { name, index, value } => {
                // Writes one element; the rest of the array survives.
                l.read(ctx.program.name(*name));
                expr_reads(*index, &mut l, ctx);
                expr_reads(*value, &mut l, ctx);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let t = live_block(then_body, l.clone(), ctx, recording, out);
                let e = live_block(else_body, l.clone(), ctx, recording, out);
                l = t.join(&e);
                expr_reads(*cond, &mut l, ctx);
            }
            StmtKind::While { cond, body } => {
                // Fixpoint on the loop-head live set (silent), then one
                // recording pass against the stable head.
                let mut head = l.clone();
                let mut iters: u32 = 0;
                loop {
                    let ictx = LiveCtx {
                        program: ctx.program,
                        fns: ctx.fns,
                        may_ckpt: ctx.may_ckpt,
                        brk: l.clone(),
                        cont: head.clone(),
                    };
                    let mut scratch = Vec::new();
                    let body_in = live_block(body, head.clone(), &ictx, false, &mut scratch);
                    let mut nh = l.join(&body_in);
                    expr_reads(*cond, &mut nh, ctx);
                    if nh == head {
                        break;
                    }
                    head = nh;
                    iters += 1;
                    if iters > MAX_LIVE_ITERS {
                        head = Live::everything();
                        expr_reads(*cond, &mut head, ctx);
                        break;
                    }
                }
                if recording {
                    let ictx = LiveCtx {
                        program: ctx.program,
                        fns: ctx.fns,
                        may_ckpt: ctx.may_ckpt,
                        brk: l.clone(),
                        cont: head.clone(),
                    };
                    live_block(body, head.clone(), &ictx, true, out);
                }
                l = head;
            }
            StmtKind::Return(e) => {
                l = Live::none();
                if let Some(e) = e {
                    expr_reads(*e, &mut l, ctx);
                }
            }
            StmtKind::Break => l = ctx.brk.clone(),
            StmtKind::Continue => l = ctx.cont.clone(),
            StmtKind::Expr(e) => expr_reads(*e, &mut l, ctx),
        }
    }
    // A `let` inside this block shadows any outer binding of the same
    // name; its kill must not leak above the block. Conservatively mark
    // every block-declared name live at entry (suppresses, never invents,
    // dead-store reports for outer bindings).
    for stmt in stmts {
        if let StmtKind::Let { name, .. } = &stmt.kind {
            l.read(ctx.program.name(*name));
        }
    }
    l
}

fn dead_stores<'a>(program: &'a Program, may_ckpt: &HashSet<&'a str>) -> Vec<DeadStore> {
    let fns = function_map(program);
    let mut out = Vec::new();
    for func in program.functions() {
        let ctx = LiveCtx {
            program,
            fns: &fns,
            may_ckpt,
            brk: Live::none(),
            cont: Live::none(),
        };
        live_block(&func.body, Live::none(), &ctx, true, &mut out);
    }
    out.sort_by_key(|d| (d.span.start, d.span.end));
    out
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Runs the abstract interpreter over a whole program.
///
/// Execution is modeled from `main` exactly as the interpreter would run
/// it; functions never (transitively) called from `main` are reported
/// unreachable in full. See [`Analysis`] for the guarantees on each field.
pub fn analyze(program: &Program) -> Analysis {
    let _t = au_telemetry::time!("au_lang.absint");
    let mut a = Analyzer::new(program);
    if let Some(main) = program.function("main") {
        if main.params.is_empty() {
            a.stack.push("main");
            a.walk_block(&main.body, Env::new());
            a.stack.pop();
        } else {
            // `main` with parameters errors at startup: nothing runs.
            a.complete = true;
        }
    }
    let complete = a.complete;

    let proto = protocol_names(program);
    let mut indexed: HashSet<String> = HashSet::new();
    for func in program.functions() {
        for_each_stmt(&func.body, &mut |s| {
            if let StmtKind::AssignIndex { name, .. } = &s.kind {
                indexed.insert(program.name(*name).to_owned());
            }
        });
    }

    let mut analysis = Analysis {
        dead_stores: dead_stores(program, &a.may_ckpt),
        loop_invariant: loop_invariants(program, &a.may_ckpt),
        complete,
        ..Analysis::default()
    };
    if !complete {
        return analysis;
    }

    for (&name, val) in &a.assigns {
        if indexed.contains(name) || proto.contains(name) {
            continue;
        }
        if let AbsVal::Num(i) = val {
            if let Some(c) = i.as_const() {
                analysis.constants.insert(name.to_owned(), c);
            }
        }
    }
    analysis.unreachable = a
        .stmt_spans
        .iter()
        .zip(&a.visited)
        .filter(|(_, &visited)| !visited)
        .map(|(&(start, end), _)| Span::new(start, end))
        .collect();
    analysis.div_zero = a
        .divs
        .into_iter()
        .filter(|(_, i)| i.lo <= 0.0 && i.hi >= 0.0 && i.lo.is_finite() && i.hi.is_finite())
        .map(|((start, end), i)| DivSite {
            span: Span::new(start, end),
            lo: i.lo,
            hi: i.hi,
        })
        .collect();
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> Analysis {
        analyze(&parse(src).expect("test program parses"))
    }

    #[test]
    fn interval_arithmetic_is_sound() {
        let a = Interval::make(1.0, 3.0, false);
        let b = Interval::make(-2.0, 4.0, false);
        let s = a.add(b);
        assert_eq!((s.lo, s.hi, s.nan), (-1.0, 7.0, false));
        let m = a.mul(b);
        assert_eq!((m.lo, m.hi), (-6.0, 12.0));
        // Divisor containing zero goes to ⊤ (IEEE inf/NaN values).
        assert!(a.div(b).nan);
        let d = a.div(Interval::make(2.0, 4.0, false));
        assert_eq!((d.lo, d.hi, d.nan), (0.25, 1.5, false));
        // min/max mirror f64 semantics: NaN loses to a number.
        let n = Interval::top_nan();
        let mm = a.min_with(n);
        assert!(!mm.nan || (mm.lo == f64::NEG_INFINITY));
        assert!(!a.min_with(n).nan, "one non-NaN side means non-NaN result");
    }

    #[test]
    fn negative_zero_is_not_a_constant() {
        let z = Interval::point(0.0).join(Interval::point(-0.0));
        assert_eq!(z.as_const(), None);
        assert_eq!(Interval::point(-0.0).as_const(), Some(-0.0));
    }

    #[test]
    fn constant_propagation_and_folding() {
        let src = "fn main() { let k = 3; let y = k * 2; let z = 1 / (k * 2 - 6); return y + z; }";
        let an = run(src);
        assert!(an.complete);
        assert_eq!(an.constants.get("k"), Some(&3.0));
        assert_eq!(an.constants.get("y"), Some(&6.0));
        // `k * 2` is exactly 6, so `k * 2 - 6` is a provably zero divisor.
        let d = &an.div_zero;
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].lo, d[0].hi), (0.0, 0.0));
    }

    #[test]
    fn branch_pruning_marks_unreachable() {
        let src = "fn main() { let debug = 0; if (debug > 0) { print(1); } return 0; }";
        let an = run(src);
        assert!(an.complete);
        // `debug > 0` is decided false: only the branch body is unreachable.
        let pr = src.find("print(1);").unwrap();
        assert_eq!(an.unreachable, vec![Span::new(pr, pr + 9)]);
    }

    #[test]
    fn loop_widening_terminates_and_bounds_survive_refinement() {
        let src = "fn main() { let i = 0; while (i < 10) { i = i + 1; } return i; }";
        let an = run(src);
        assert!(an.complete);
        // `i` is reassigned, so it is not a constant; the analysis must
        // simply terminate and keep everything reachable.
        assert!(!an.constants.contains_key("i"));
        assert!(an.unreachable.is_empty());
    }

    #[test]
    fn interprocedural_summary_folds_through_calls() {
        let src = "fn double(x) { return x * 2; }\n\
                   fn main() { let a = double(21); return a; }";
        let an = run(src);
        assert!(an.complete);
        assert_eq!(an.constants.get("a"), Some(&42.0));
        // The callee is analyzed in its one calling context.
        assert_eq!(an.constants.get("x"), Some(&21.0));
    }

    #[test]
    fn recursion_is_cut_soundly() {
        let src = "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
                   fn main() { return fib(10); }";
        let an = run(src);
        assert!(an.complete);
        // Nothing inside fib may be tied to the first call's context.
        assert!(!an.constants.contains_key("n"));
        assert!(an.unreachable.is_empty());
    }

    #[test]
    fn division_by_possible_zero_is_flagged() {
        let src = "fn main() { let x = input(\"x\", 0); let d = 0; \
                   if (x > 0) { d = 1; } let r = 10 / d; return r; }";
        let an = run(src);
        assert!(an.complete);
        assert_eq!(an.div_zero.len(), 1, "divisor interval [0,1] contains 0");
        assert_eq!(an.div_zero[0].lo, 0.0);
        assert_eq!(an.div_zero[0].hi, 1.0);
    }

    #[test]
    fn half_bounded_divisor_is_not_flagged() {
        let src = "fn main() { let n = input(\"n\", 1); let d = 0; \
                   while (d < n) { d = d + 1; } return 10 / d; }";
        let an = run(src);
        assert!(an.complete);
        // After widening, d ∈ [0, +inf): infinite bound → no AU014-style
        // report (matches the corpus division by a loop-counted `pairs`).
        assert!(an.div_zero.is_empty());
    }

    #[test]
    fn dead_store_detection() {
        let src = "fn main() { let a = 1; a = 2; return a; }";
        let an = run(src);
        let dead: Vec<_> = an.dead_stores.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(dead, vec!["a"], "only the initial `let a = 1` is dead");
        assert_eq!(
            an.dead_stores[0].span.start,
            src.find("let a = 1;").unwrap()
        );
    }

    #[test]
    fn dead_store_respects_loops_and_branches() {
        let src = "fn main() { let s = 0; let i = 0; \
                   while (i < 3) { s = s + i; i = i + 1; } return s; }";
        let an = run(src);
        assert!(an.dead_stores.is_empty(), "all stores feed the loop");
    }

    #[test]
    fn checkpoint_restore_clobbers_flow_sensitive_facts() {
        // After the restore x is 5 (the restored snapshot), not 7: without
        // the restore clobber the analysis would wrongly decide `x == 7`
        // and mark `return x` unreachable.
        let src = "fn main() { let x = 5; au_checkpoint(); x = 7; au_restore(); \
                   if (x == 7) { return 1; } return x; }";
        let an = run(src);
        assert!(an.complete);
        assert!(!an.constants.contains_key("x"), "x holds 5 then 7");
        assert!(
            an.unreachable.is_empty(),
            "the restored read of x is undecided"
        );
        // The checkpoint snapshot reads every variable: no dead stores.
        assert!(an.dead_stores.is_empty());
    }

    #[test]
    fn never_reassigned_var_stays_constant_across_restore() {
        // restore can only write back a previously-stored value, so a
        // variable with a single store is still provably constant.
        let src = "fn main() { let x = 5; au_checkpoint(); \
                   let y = input(\"y\", 0); \
                   if (y > 0) { au_restore(); } return x; }";
        let an = run(src);
        assert!(an.complete);
        assert_eq!(an.constants.get("x"), Some(&5.0));
    }

    #[test]
    fn loop_invariant_assignment_is_reported() {
        let src = "fn main() { let base = 10; let i = 0; let acc = 0; \
                   while (i < 5) { let scale = base * 2; acc = acc + scale; i = i + 1; } \
                   return acc; }";
        let an = run(src);
        assert_eq!(an.loop_invariant.len(), 1);
        assert_eq!(an.loop_invariant[0].name, "scale");
    }

    #[test]
    fn loop_variant_assignment_is_not_reported() {
        let src = "fn main() { let i = 0; let acc = 0; \
                   while (i < 5) { let step = i * 2; acc = acc + step; i = i + 1; } \
                   return acc; }";
        let an = run(src);
        assert!(
            an.loop_invariant.is_empty(),
            "`step` depends on assigned `i`"
        );
    }

    #[test]
    fn protocol_string_names_are_not_constants() {
        // The extraction key "k" collides with the variable name `k`;
        // the variable must not be reported constant for the filter.
        let src = "fn main() { let k = 3; au_extract(\"k\", [k]); return k; }";
        let an = run(src);
        assert!(an.complete);
        assert!(!an.constants.contains_key("k"));
    }

    #[test]
    fn indexed_arrays_are_not_constants() {
        let src = "fn main() { let a = [1, 2]; a[0] = 5; return a[0]; }";
        let an = run(src);
        assert!(!an.constants.contains_key("a"));
    }

    #[test]
    fn unreachable_after_return() {
        let src = "fn main() { return 1; print(2); }";
        let an = run(src);
        assert!(an.complete);
        let pr = src.find("print(2);").unwrap();
        assert!(an.unreachable.iter().any(|s| s.start == pr));
    }

    #[test]
    fn uncalled_function_is_unreachable() {
        let src = "fn helper() { print(9); }\nfn main() { return 0; }";
        let an = run(src);
        let pr = src.find("print(9);").unwrap();
        assert!(an.unreachable.iter().any(|s| s.start == pr));
    }

    #[test]
    fn rand_and_input_are_never_foldable() {
        let src = "fn main() { let r = rand(); let x = input(\"x\", 1); \
                   return (r + x) / rand(); }";
        let an = run(src);
        assert!(an.complete);
        assert!(!an.constants.contains_key("r"));
        assert!(!an.constants.contains_key("x"));
        // `rand()` is the whole range [0, 1], never one value.
        let d = &an.div_zero;
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].lo, d[0].hi), (0.0, 1.0));
    }

    #[test]
    fn refinement_narrows_input_driven_branches() {
        // x is ⊤ from input(); inside the branch x < 0 it is refined to a
        // negative range, making `x < 10` certainly true there.
        let src = "fn main() { let x = input(\"x\", 0); \
                   if (x < 0) { if (x < 10) { print(1); } else { print(2); } } return 0; }";
        let an = run(src);
        assert!(an.complete);
        // `x < 10` is decided true inside the branch: only `print(2)` is
        // unreachable.
        let pr = src.find("print(2);").unwrap();
        assert_eq!(an.unreachable, vec![Span::new(pr, pr + 9)]);
    }

    #[test]
    fn string_and_bool_folding() {
        let src = "fn main() { let on = true; if (on) { return 1; } return 2; }";
        let an = run(src);
        assert!(an.complete);
        let r2 = src.find("return 2;").unwrap();
        assert!(an.unreachable.iter().any(|s| s.start == r2));
    }

    /// Every fact of an analysis in one comparable value.
    type Facts = (
        Vec<(String, u64)>,
        Vec<(usize, usize)>,
        Vec<(usize, usize, u64, u64)>,
    );

    fn facts(an: &Analysis) -> Facts {
        (
            an.constants
                .iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect(),
            an.unreachable.iter().map(|s| (s.start, s.end)).collect(),
            an.div_zero
                .iter()
                .map(|d| (d.span.start, d.span.end, d.lo.to_bits(), d.hi.to_bits()))
                .collect(),
        )
    }

    #[test]
    fn silent_replay_after_a_summary_change_sees_the_new_summary() {
        // The inner loop runs silently while the outer loop solves its
        // head. On its last silent iteration `j` reaches a new interval,
        // so `pos(j)` re-walks `pos` and widens its summary, after
        // `pos(2)` in the same iteration used the old one. Phase 2 must
        // not reuse that iteration: evaluated again, `pos(2)` returns the
        // widened summary, `r > 2` is undecided, and the outer loop may
        // run again. Reusing it would leave `r` at 3 and collapse the
        // outer loop to a single iteration (`i < 4` true, `i + 1` = 1), so
        // `last` would hold exactly 1.
        let src = "fn pos(v) { if (v < 0) { return 0; } return v + 1; }\n\
                   fn main() {\n\
                     let r = 0; let hit = 0; let i = 0;\n\
                     while (i < 4) {\n\
                       r = 4;\n\
                       let j = 0;\n\
                       while (j < 3) {\n\
                         r = pos(2); let s1 = pos(j); j = j + 1;\n\
                         if (r > 1) { break; }\n\
                       }\n\
                       i = i + 1;\n\
                       if (r > 2) { break; }\n\
                     }\n\
                     let last = i;\n\
                     if (r > 2) { hit = 1; }\n\
                     return hit + r + last;\n\
                   }";
        let an = run(src);
        assert!(an.complete);
        assert!(
            !an.constants.contains_key("last"),
            "the outer loop may repeat"
        );
        // Only `pos`'s guard is decided.
        let ret0 = src.find("return 0;").unwrap();
        assert_eq!(an.unreachable, vec![Span::new(ret0, ret0 + 9)]);
        assert_eq!(facts(&an), facts(&run(src)));
    }

    #[test]
    fn nested_silent_loops_match_the_reporting_pass() {
        // A three-deep nest whose inner loops run only silently until the
        // outermost loop reports; the inner fixpoints feed the outer head.
        let src = "fn main() {\n\
                     let a = 0; let t = 0; let odd = 2;\n\
                     while (a < 4) {\n\
                       let b = 0;\n\
                       while (b < 3) {\n\
                         let c = 0;\n\
                         while (c < 2) { t = t + c; c = c + 1; }\n\
                         if (c == 2) { t = t + 1; } else { odd = 3; }\n\
                         b = b + 1;\n\
                       }\n\
                       a = a + 1;\n\
                     }\n\
                     return t + odd;\n\
                   }";
        let an = run(src);
        assert!(an.complete);
        assert!(an.unreachable.is_empty());
        assert!(!an.constants.contains_key("t"));
        // `c == 2` after the innermost loop is not decided: `c < 2` may
        // exit at any c ≥ 2 once c is widened, so the reporting pass
        // records the `else` arm too.
        assert!(!an.constants.contains_key("odd"));
        // Nor is `b < 3`: the reporting pass leaves the `b` loop and
        // records `a = a + 1`.
        assert!(!an.constants.contains_key("a"));
    }

    #[test]
    fn loop_in_a_function_first_reached_while_reporting_records_facts() {
        // `count` is first called from straight-line `main` code, so its
        // loop runs with reporting on and phase 2 must walk the body to
        // record the facts inside it; the later silent calls from the loop
        // in `main` reuse that reported summary.
        let src = "fn count(n) {\n\
                     let k = 0; let z = 7;\n\
                     while (k < n) { let w = z * 2; k = k + 1; }\n\
                     return k;\n\
                   }\n\
                   fn main() {\n\
                     let a = count(3);\n\
                     let i = 0;\n\
                     while (i < 2) { a = a + count(3); i = i + 1; }\n\
                     return a;\n\
                   }";
        let an = run(src);
        assert!(an.complete);
        assert_eq!(an.constants.get("w"), Some(&14.0));
        assert!(an.unreachable.is_empty());
        assert_eq!(an.constants.get("z"), Some(&7.0));
        assert!(!an.constants.contains_key("k"));
    }

    #[test]
    fn loop_in_a_function_first_reached_silently_still_reports() {
        // The first call to `count` happens inside `main`'s loop, i.e.
        // silently; the reporting pass over that loop must still re-walk
        // `count` (its summary is unreported) and record its facts.
        let src = "fn count(n) {\n\
                     let k = 0; let z = 7;\n\
                     while (k < n) { let w = z * 2; k = k + 1; }\n\
                     return k;\n\
                   }\n\
                   fn main() {\n\
                     let a = 0; let i = 0;\n\
                     while (i < 2) { a = a + count(3); i = i + 1; }\n\
                     return a;\n\
                   }";
        let an = run(src);
        assert!(an.complete);
        assert_eq!(an.constants.get("w"), Some(&14.0));
        assert_eq!(an.constants.get("z"), Some(&7.0));
        assert!(an.unreachable.is_empty());
    }

    fn joined<'a>(a: &Env<'a>, b: &Env<'a>) -> Env<'a> {
        let mut out = a.clone();
        out.join_from(b);
        out
    }

    #[test]
    fn env_join_and_widen_make_one_sided_keys_top() {
        let mut a = Env::new();
        a.declare("x", AbsVal::Num(Interval::point(1.0)));
        a.declare("only_a", AbsVal::Num(Interval::point(5.0)));
        let mut b = Env::new();
        b.declare("x", AbsVal::Num(Interval::point(3.0)));
        b.declare("only_b", AbsVal::Bool(AbsBool::of(true)));
        let mut widened = a.clone();
        assert!(widened.widen_from(&b));
        for merged in [joined(&a, &b), joined(&b, &a), widened.clone()] {
            assert_eq!(merged.get("only_a"), Some(&AbsVal::Top));
            assert_eq!(merged.get("only_b"), Some(&AbsVal::Top));
            assert_eq!(merged.depth(), 1);
        }
        assert_eq!(
            joined(&a, &b).get("x"),
            Some(&AbsVal::Num(Interval::make(1.0, 3.0, false)))
        );
        assert_eq!(
            widened.get("x"),
            Some(&AbsVal::Num(Interval::make(1.0, f64::INFINITY, false)))
        );
        // Join is order-independent on these keys, and the merged result
        // is a fixpoint of joining either side in again.
        let mut j = joined(&a, &b);
        assert_eq!(j, joined(&b, &a));
        assert!(!j.join_from(&a));
        assert!(!j.join_from(&b));
    }

    #[test]
    fn env_in_place_join_matches_the_general_merge() {
        // The same names in the same scopes but distinct string storage
        // (as for two declarations of one name) take the in-place path and
        // must agree with the allocating merge.
        let (x1, x2) = (String::from("x"), String::from("x"));
        let mut a = Env::new();
        a.declare(&x1, AbsVal::Num(Interval::point(0.0)));
        let mut b = Env::new();
        b.declare(&x2, AbsVal::Num(Interval::point(2.0)));
        let general = a.merge_with(&b, AbsVal::join);
        let mut in_place = a.clone();
        assert!(in_place.join_from(&b));
        assert_eq!(in_place, general);
        assert_eq!(
            in_place.get("x"),
            Some(&AbsVal::Num(Interval::make(0.0, 2.0, false)))
        );
        // An unchanged merge reports no change.
        let mut same = a.clone();
        assert!(!same.join_from(&a));
        assert_eq!(same, a);
    }

    #[test]
    fn env_shadowing_and_scope_mismatch() {
        let mut outer = Env::new();
        outer.declare("x", AbsVal::Num(Interval::point(1.0)));
        let mut inner = outer.clone();
        inner.push();
        inner.declare("x", AbsVal::Bool(AbsBool::of(false)));
        // The innermost binding wins for reads and writes.
        assert_eq!(inner.get("x"), Some(&AbsVal::Bool(AbsBool::of(false))));
        assert!(inner.assign("x", AbsVal::Bool(AbsBool::of(true))));
        assert_eq!(inner.get("x"), Some(&AbsVal::Bool(AbsBool::of(true))));
        // Re-declaring in the same scope overwrites, not duplicates.
        inner.declare("x", AbsVal::Unit);
        assert_eq!(inner.get("x"), Some(&AbsVal::Unit));
        // A scope-count mismatch truncates to the shorter environment:
        // the shadowing scope is dropped and the outer `x` survives.
        let j = joined(&inner, &outer);
        assert_eq!(j.depth(), 1);
        assert_eq!(j.get("x"), Some(&AbsVal::Num(Interval::point(1.0))));
        assert_eq!(j, joined(&outer, &inner));
        let mut shrunk = inner.clone();
        assert!(shrunk.join_from(&outer), "dropping a scope is a change");
        assert_eq!(shrunk, outer);
        inner.truncate_to(1);
        assert_eq!(inner, outer);
        // Truncation never drops the last scope.
        inner.truncate_to(0);
        assert_eq!(inner.depth(), 1);
        // Clobbering forgets values but keeps every binding and scope.
        let mut c = outer.clone();
        c.push();
        c.declare("y", AbsVal::Num(Interval::point(2.0)));
        c.clobber();
        assert_eq!(c.depth(), 2);
        assert_eq!(c.get("x"), Some(&AbsVal::Top));
        assert_eq!(c.get("y"), Some(&AbsVal::Top));
        assert_eq!(c.get("z"), None);
    }

    #[test]
    fn nine_corpus_programs_analyze_completely() {
        for p in crate::corpus::all() {
            let program = parse(p.src).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let an = analyze(&program);
            assert!(an.complete, "{} should analyze within fuel", p.name);
        }
    }
}
