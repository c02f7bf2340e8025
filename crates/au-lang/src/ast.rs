//! AuLang abstract syntax with byte-offset source spans.
//!
//! Every expression, statement, and function carries a [`Span`] — the
//! half-open byte range of the source text it was parsed from. Spans are
//! threaded from the lexer through the parser so downstream tooling
//! (`au-lint` diagnostics, error rendering) can point at the offending
//! source. Structural equality (`PartialEq`) deliberately **ignores
//! spans**: the pretty-printer round-trip property compares programs by
//! shape, and synthetic nodes (desugared `for` loops, test-built ASTs)
//! use [`Span::DUMMY`].
//!
//! Names are [`Sym`]s: the lexer interns each distinct identifier once
//! into the [`Symbols`] table its [`Program`] owns, so every later pass
//! compares names as integers and keeps per-name facts in tables indexed
//! by [`Sym::index`]. [`Program::name`] reads a symbol's text back.
//! Equality of expressions, statements and functions compares symbols,
//! which is meaningful within one program; equality of programs compares
//! the names the symbols spell, so programs with differently numbered
//! tables compare equal when their sources say the same thing.

use std::fmt;

/// An identifier: an index into its program's [`Symbols`]. It means
/// nothing without that table; [`Program::name`] spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The symbol's position in its table, for per-name tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The symbol at position `index` of its table.
    pub(crate) fn from_index(index: usize) -> Sym {
        Sym(index as u32)
    }
}

/// A program's identifiers, each stored once and numbered in order of
/// first interning (for a parsed program, first occurrence in the
/// source).
///
/// The names share one string buffer, and an open-addressing index finds
/// a name's symbol, so interning a name already present allocates
/// nothing, and a new one only grows the buffers.
#[derive(Clone, Default)]
pub struct Symbols {
    /// Every name, back to back.
    text: String,
    /// `ends[s]` is where symbol `s`'s name ends in `text`.
    ends: Vec<u32>,
    /// Symbol plus one per slot, 0 for an empty slot; the length is a
    /// power of two at least twice the number of symbols.
    slots: Vec<u32>,
}

impl Symbols {
    /// An empty table with room for about `names` names of `bytes` bytes
    /// in all before it grows.
    pub fn with_capacity(names: usize, bytes: usize) -> Self {
        Symbols {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
            slots: vec![0; (2 * names).next_power_of_two().max(16)],
        }
    }

    /// The number of symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no name has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The name `sym` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from another table.
    pub fn name(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The symbol of `name`, if it has been interned.
    pub fn get(&self, name: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.probe(name)] {
            0 => None,
            s => Some(Sym(s - 1)),
        }
    }

    /// The symbol of `name`, interning it first if it is new.
    pub fn intern(&mut self, name: &str) -> Sym {
        if self.slots.len() < 2 * (self.len() + 1) {
            self.grow();
        }
        let slot = self.probe(name);
        if self.slots[slot] == 0 {
            self.text.push_str(name);
            self.ends.push(self.text.len() as u32);
            self.slots[slot] = self.len() as u32;
        }
        Sym(self.slots[slot] - 1)
    }

    /// Every symbol with its name, in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.len() as u32).map(|i| (Sym(i), self.name(Sym(i))))
    }

    /// The slot holding `name`, or the empty slot where it would go.
    fn probe(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash(name) & mask;
        loop {
            match self.slots[i] {
                0 => return i,
                s if self.name(Sym(s - 1)) == name => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots = vec![0; len];
        for i in 0..self.len() {
            let slot = self.probe(self.name(Sym(i as u32)));
            self.slots[slot] = i as u32 + 1;
        }
    }
}

/// FNV-1a over the name's bytes, folded so the low bits mix in the high.
fn hash(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    (h ^ (h >> 32)) as usize
}

impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, n)| n)).finish()
    }
}

/// A half-open byte range `[start, end)` into the original source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// The empty span used for synthetic nodes with no source location.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Creates a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// True for [`Span::DUMMY`] (no source location).
    pub fn is_dummy(self) -> bool {
        self.start == 0 && self.end == 0
    }

    /// The smallest span covering both `self` and `other`. Dummy spans are
    /// absorbed (joining with one returns the other unchanged).
    pub fn join(self, other: Span) -> Span {
        if self.is_dummy() {
            return other;
        }
        if other.is_dummy() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// The source text this span covers, clamped to `src`'s bounds.
    pub fn slice(self, src: &str) -> &str {
        let start = self.start.min(src.len());
        let end = self.end.clamp(start, src.len());
        &src[start..end]
    }
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuiting)
    And,
    /// `||` (short-circuiting)
    Or,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Boolean not.
    Not,
}

/// An expression: shape plus source span.
#[derive(Debug, Clone)]
pub struct Expr {
    /// The expression's shape.
    pub kind: ExprKind,
    /// Source bytes this expression was parsed from.
    pub span: Span,
}

impl Expr {
    /// Builds an expression at an explicit span.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }
}

impl From<ExprKind> for Expr {
    /// Builds a synthetic expression with [`Span::DUMMY`].
    fn from(kind: ExprKind) -> Self {
        Expr {
            kind,
            span: Span::DUMMY,
        }
    }
}

/// Structural equality — spans are ignored.
impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

/// An expression's shape.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Numeric literal.
    Num(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Variable reference.
    Var(Sym),
    /// Array literal `[e1, e2, …]`.
    Array(Vec<Expr>),
    /// Indexing `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Function or builtin call.
    Call {
        /// Callee name.
        name: Sym,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
}

/// A statement: shape plus source span.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// The statement's shape.
    pub kind: StmtKind,
    /// Source bytes this statement was parsed from.
    pub span: Span,
}

impl Stmt {
    /// Builds a statement at an explicit span.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }
}

impl From<StmtKind> for Stmt {
    /// Builds a synthetic statement with [`Span::DUMMY`].
    fn from(kind: StmtKind) -> Self {
        Stmt {
            kind,
            span: Span::DUMMY,
        }
    }
}

/// Structural equality — spans are ignored.
impl PartialEq for Stmt {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

/// A statement's shape.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let x = e;` — introduces a variable in the current scope.
    Let {
        /// Variable name.
        name: Sym,
        /// Initializer.
        init: Expr,
    },
    /// `x = e;`
    Assign {
        /// Variable name.
        name: Sym,
        /// New value.
        value: Expr,
    },
    /// `a[i] = e;`
    AssignIndex {
        /// Array variable name.
        name: Sym,
        /// Index expression.
        index: Expr,
        /// New value.
        value: Expr,
    },
    /// `if (cond) { … } else { … }`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { … }`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return e;` / `return;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Expression statement (calls evaluated for effect).
    Expr(Expr),
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name.
    pub name: Sym,
    /// Parameter names.
    pub params: Vec<Sym>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source bytes of the whole definition (`fn` through closing brace).
    pub span: Span,
}

/// Structural equality — spans are ignored.
impl PartialEq for Function {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.params == other.params && self.body == other.body
    }
}

/// A whole program: a list of functions and the symbol table their names
/// index; execution starts at `main`.
///
/// A test or tool that builds or edits an AST names things through
/// [`Program::intern`]:
///
/// ```
/// use au_lang::{Function, Program, Span};
///
/// let mut program = Program::default();
/// let main = program.intern("main");
/// program.functions.push(Function {
///     name: main,
///     params: Vec::new(),
///     body: Vec::new(),
///     span: Span::DUMMY,
/// });
/// assert_eq!(program.function("main").map(|f| f.name), Some(main));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Function definitions in source order.
    pub functions: Vec<Function>,
    /// The names every [`Sym`] in `functions` indexes.
    symbols: Symbols,
}

impl Program {
    /// A program over `functions`, whose symbols index `symbols`.
    pub(crate) fn new(functions: Vec<Function>, symbols: Symbols) -> Self {
        Program { functions, symbols }
    }

    /// The name `sym` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from another program's table.
    pub fn name(&self, sym: Sym) -> &str {
        self.symbols.name(sym)
    }

    /// The symbol spelling `name`, if any identifier of the program does.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.symbols.get(name)
    }

    /// The symbol spelling `name`, added to the table if it is new.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.symbols.intern(name)
    }

    /// The program's symbol table.
    pub(crate) fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Finds the first function named `name`.
    pub fn function(&self, name: &str) -> Option<&Function> {
        let sym = self.sym(name)?;
        self.functions.iter().find(|f| f.name == sym)
    }

    /// The source bytes the functions span (none for a built AST): the
    /// passes after the parser size their buffers from it.
    pub(crate) fn source_len(&self) -> usize {
        self.functions
            .iter()
            .map(|f| f.span.end - f.span.start)
            .sum()
    }

    /// Per symbol, the index of the first function of that name: the one
    /// a call runs. `None` for a symbol that names no function.
    pub(crate) fn first_defs(&self) -> Vec<Option<u32>> {
        let mut first = vec![None; self.symbols.len()];
        for (i, f) in self.functions.iter().enumerate().rev() {
            first[f.name.index()] = Some(i as u32);
        }
        first
    }
}

/// Structural equality by name: the functions must match node for node
/// and each pair of symbols spell the same name, however the two tables
/// number them. Spans are ignored.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        let same = SameNames(self, other);
        self.functions.len() == other.functions.len()
            && self.functions.iter().zip(&other.functions).all(|(f, g)| {
                same.sym(f.name, g.name)
                    && same.syms(&f.params, &g.params)
                    && same.block(&f.body, &g.body)
            })
    }
}

/// Compares two programs' nodes, symbols by their names.
struct SameNames<'a>(&'a Program, &'a Program);

impl SameNames<'_> {
    fn sym(&self, a: Sym, b: Sym) -> bool {
        self.0.name(a) == self.1.name(b)
    }

    fn syms(&self, a: &[Sym], b: &[Sym]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| self.sym(x, y))
    }

    fn block(&self, a: &[Stmt], b: &[Stmt]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| self.stmt(x, y))
    }

    fn exprs(&self, a: &[Expr], b: &[Expr]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| self.expr(x, y))
    }

    fn stmt(&self, a: &Stmt, b: &Stmt) -> bool {
        use StmtKind as S;
        match (&a.kind, &b.kind) {
            (S::Let { name: m, init: x }, S::Let { name: n, init: y })
            | (S::Assign { name: m, value: x }, S::Assign { name: n, value: y }) => {
                self.sym(*m, *n) && self.expr(x, y)
            }
            (
                S::AssignIndex {
                    name: m,
                    index: i,
                    value: x,
                },
                S::AssignIndex {
                    name: n,
                    index: j,
                    value: y,
                },
            ) => self.sym(*m, *n) && self.expr(i, j) && self.expr(x, y),
            (
                S::If {
                    cond: c,
                    then_body: t,
                    else_body: e,
                },
                S::If {
                    cond: d,
                    then_body: u,
                    else_body: f,
                },
            ) => self.expr(c, d) && self.block(t, u) && self.block(e, f),
            (S::While { cond: c, body: t }, S::While { cond: d, body: u }) => {
                self.expr(c, d) && self.block(t, u)
            }
            (S::Return(Some(x)), S::Return(Some(y))) | (S::Expr(x), S::Expr(y)) => self.expr(x, y),
            (S::Return(None), S::Return(None))
            | (S::Break, S::Break)
            | (S::Continue, S::Continue) => true,
            _ => false,
        }
    }

    fn expr(&self, a: &Expr, b: &Expr) -> bool {
        use ExprKind as E;
        match (&a.kind, &b.kind) {
            (E::Var(m), E::Var(n)) => self.sym(*m, *n),
            (E::Call { name: m, args: x }, E::Call { name: n, args: y }) => {
                self.sym(*m, *n) && self.exprs(x, y)
            }
            (E::Array(x), E::Array(y)) => self.exprs(x, y),
            (E::Index(x, i), E::Index(y, j)) => self.expr(x, y) && self.expr(i, j),
            (
                E::Binary {
                    op: o,
                    lhs: x,
                    rhs: i,
                },
                E::Binary {
                    op: p,
                    lhs: y,
                    rhs: j,
                },
            ) => o == p && self.expr(x, y) && self.expr(i, j),
            (E::Unary { op: o, expr: x }, E::Unary { op: p, expr: y }) => o == p && self.expr(x, y),
            (x, y) => x == y,
        }
    }
}

// ---------------------------------------------------------------------
// Visitor
// ---------------------------------------------------------------------

impl Stmt {
    /// The expressions this statement evaluates itself, in evaluation
    /// order: a condition, but not the statements of the blocks it guards.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (first, second) = match &self.kind {
            StmtKind::Let { init: e, .. }
            | StmtKind::Assign { value: e, .. }
            | StmtKind::Expr(e)
            | StmtKind::Return(Some(e))
            | StmtKind::If { cond: e, .. }
            | StmtKind::While { cond: e, .. } => (Some(e), None),
            StmtKind::AssignIndex { index, value, .. } => (Some(index), Some(value)),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// Calls `f` on `e` and every expression inside it, parents first and
/// operands left to right.
pub fn for_each_subexpr<'e>(e: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Array(items) => items.iter().for_each(|i| for_each_subexpr(i, f)),
        ExprKind::Index(a, b) => {
            for_each_subexpr(a, f);
            for_each_subexpr(b, f);
        }
        ExprKind::Call { args, .. } => args.iter().for_each(|a| for_each_subexpr(a, f)),
        ExprKind::Binary { lhs, rhs, .. } => {
            for_each_subexpr(lhs, f);
            for_each_subexpr(rhs, f);
        }
        ExprKind::Unary { expr, .. } => for_each_subexpr(expr, f),
        _ => {}
    }
}

/// Calls `f` on every statement of `stmts` and of the blocks nested in
/// them, each statement before the blocks it guards.
pub fn for_each_stmt<'s>(stmts: &'s [Stmt], f: &mut impl FnMut(&'s Stmt)) {
    for stmt in stmts {
        f(stmt);
        match &stmt.kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                for_each_stmt(then_body, f);
                for_each_stmt(else_body, f);
            }
            StmtKind::While { body, .. } => for_each_stmt(body, f),
            _ => {}
        }
    }
}

/// Calls `f` on every expression in `stmts`, nested blocks included, in
/// source order: each statement's own expressions (see [`Stmt::exprs`])
/// through [`for_each_subexpr`], then its blocks.
pub fn for_each_expr<'e>(stmts: &'e [Stmt], f: &mut impl FnMut(&'e Expr)) {
    for_each_stmt(stmts, &mut |s| {
        s.exprs().for_each(|e| for_each_subexpr(e, f))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_covers_both_and_absorbs_dummy() {
        let a = Span::new(3, 7);
        let b = Span::new(10, 12);
        assert_eq!(a.join(b), Span::new(3, 12));
        assert_eq!(Span::DUMMY.join(b), b);
        assert_eq!(a.join(Span::DUMMY), a);
    }

    #[test]
    fn span_slice_is_clamped() {
        let src = "hello";
        assert_eq!(Span::new(1, 4).slice(src), "ell");
        assert_eq!(Span::new(3, 99).slice(src), "lo");
        assert_eq!(Span::new(99, 120).slice(src), "");
    }

    #[test]
    fn symbols_intern_each_name_once_in_order() {
        let mut table = Symbols::default();
        assert_eq!(table.get("x"), None, "an empty table finds nothing");
        let names: Vec<String> = (0..100).map(|i| format!("v{i}")).collect();
        let syms: Vec<Sym> = names.iter().map(|n| table.intern(n)).collect();
        assert_eq!(table.len(), 100, "grew past its first slots");
        for (i, (name, &sym)) in names.iter().zip(&syms).enumerate() {
            assert_eq!(sym.index(), i, "ids follow first interning");
            assert_eq!(table.name(sym), name);
            assert_eq!(table.get(name), Some(sym));
            assert_eq!(table.intern(name), sym);
        }
        assert_eq!(table.len(), 100);
        assert_eq!(table.get("v100"), None);
    }

    /// Builds `fn main() { let <a> = <b>; }`, interning `order` first.
    fn one_let(order: &[&str], a: &str, b: &str) -> Program {
        let mut p = Program::default();
        for name in order {
            p.intern(name);
        }
        let (main, a, b) = (p.intern("main"), p.intern(a), p.intern(b));
        let body = vec![Stmt::from(StmtKind::Let {
            name: a,
            init: ExprKind::Var(b).into(),
        })];
        p.functions.push(Function {
            name: main,
            params: Vec::new(),
            body,
            span: Span::DUMMY,
        });
        p
    }

    #[test]
    fn program_equality_compares_names_not_ids() {
        let ab = one_let(&["a", "b"], "a", "b");
        let ba = one_let(&["b", "a"], "a", "b");
        assert_ne!(ab.sym("a"), ba.sym("a"), "the tables number differently");
        assert_eq!(ab, ba);
        assert_ne!(ab, one_let(&["a", "b"], "b", "a"));
        assert_ne!(ab, one_let(&[], "a", "c"));
    }

    #[test]
    fn equality_ignores_spans() {
        let a = Expr::new(ExprKind::Num(1.0), Span::new(0, 1));
        let b = Expr::new(ExprKind::Num(1.0), Span::new(5, 6));
        assert_eq!(a, b);
        let s = Stmt::new(StmtKind::Expr(a), Span::new(0, 2));
        let t = Stmt::new(StmtKind::Expr(b), Span::DUMMY);
        assert_eq!(s, t);
    }
}
