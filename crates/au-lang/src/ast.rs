//! AuLang abstract syntax with byte-offset source spans.
//!
//! Every expression, statement, and function carries a [`Span`] — the
//! half-open byte range of the source text it was parsed from. Spans are
//! threaded from the lexer through the parser so downstream tooling
//! (`au-lint` diagnostics, error rendering) can point at the offending
//! source. Synthetic nodes (desugared `for` loops, built ASTs) use
//! [`Span::DUMMY`].
//!
//! A [`Program`] lays its nodes out flat. Its expressions sit in one
//! arena, addressed by [`ExprId`] and read with [`Program::expr`]; call
//! arguments and array items are [`ExprList`] ranges of one id pool, and
//! string literals [`StrId`] ranges of one text buffer. Statements keep
//! their `Vec<Stmt>` blocks and hold expression ids. Names are [`Sym`]s:
//! the lexer interns each distinct identifier once into the [`Symbols`]
//! table the program owns, so every later pass compares names as
//! integers and keeps per-name facts in tables indexed by [`Sym::index`].
//! [`Program::name`] reads a symbol's text back.
//!
//! A program is immutable once built, by the parser or by a
//! [`ProgramBuilder`], so it computes what it proves statically once, on
//! first use, for every pass that asks. Ids and symbols mean something
//! only within their program; equality of programs compares the shapes
//! and names they spell, ignoring spans, so programs with differently
//! numbered tables compare equal when their sources say the same thing.

use crate::parser::MAX_NESTING;
use crate::static_analysis::StaticFacts;
use crate::LangError;
pub use au_trace::{Sym, Symbols};
use std::sync::OnceLock;

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

/// An expression's index in its program's arena; [`Program::expr`]
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The expression's position in the arena, for per-expression tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Call arguments or array items: a run of ids in the program's id pool;
/// [`Program::list`] reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExprList {
    start: u32,
    len: u32,
}

impl ExprList {
    /// The number of expressions in the list.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for an empty list.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A string literal's value: a range of the program's literal text;
/// [`Program::str`] reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrId {
    start: u32,
    end: u32,
}

/// An expression: shape plus source span.
#[derive(Debug, Clone, Copy)]
pub struct Expr {
    /// The expression's shape.
    pub kind: ExprKind,
    /// Source bytes this expression was parsed from.
    pub span: Span,
}

/// An expression's shape. Operands are ids in the same program's arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprKind {
    /// Numeric literal.
    Num(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(StrId),
    /// Variable reference.
    Var(Sym),
    /// Array literal `[e1, e2, …]`.
    Array(ExprList),
    /// Indexing `a[i]`.
    Index(ExprId, ExprId),
    /// Function or builtin call.
    Call {
        /// Callee name.
        name: Sym,
        /// Argument expressions.
        args: ExprList,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: ExprId,
    },
}

impl ExprKind {
    /// Calls `f` on each operand, left to right.
    pub fn for_each_operand(self, program: &Program, f: impl FnMut(ExprId)) {
        self.each_operand(&program.nodes.lists, f)
    }

    /// Calls `f` on each operand, reading lists from `lists`.
    fn each_operand(self, lists: &[ExprId], mut f: impl FnMut(ExprId)) {
        match self {
            ExprKind::Array(l) | ExprKind::Call { args: l, .. } => {
                lists[l.range()].iter().for_each(|&e| f(e))
            }
            ExprKind::Index(a, b) | ExprKind::Binary { lhs: a, rhs: b, .. } => {
                f(a);
                f(b);
            }
            ExprKind::Unary { expr, .. } => f(expr),
            ExprKind::Num(_) | ExprKind::Bool(_) | ExprKind::Str(_) | ExprKind::Var(_) => {}
        }
    }
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

/// A statement's shape. Expressions are ids in the program's arena.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `let x = e;` — introduces a variable in the current scope.
    Let {
        /// Variable name.
        name: Sym,
        /// Initializer.
        init: ExprId,
    },
    /// `x = e;`
    Assign {
        /// Variable name.
        name: Sym,
        /// New value.
        value: ExprId,
    },
    /// `a[i] = e;`
    AssignIndex {
        /// Array variable name.
        name: Sym,
        /// Index expression.
        index: ExprId,
        /// New value.
        value: ExprId,
    },
    /// `if (cond) { … } else { … }`
    If {
        /// Condition.
        cond: ExprId,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { … }`
    While {
        /// Condition.
        cond: ExprId,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return e;` / `return;`
    Return(Option<ExprId>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Expression statement (calls evaluated for effect).
    Expr(ExprId),
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

/// The nodes of a program: what [`Program`] and [`ProgramBuilder`] share.
#[derive(Debug, Clone, Default)]
struct Nodes {
    /// Function definitions in source order.
    functions: Vec<Function>,
    /// The names every [`Sym`] indexes.
    symbols: Symbols,
    /// Every expression; an expression's operands precede it.
    exprs: Vec<Expr>,
    /// The id pool [`ExprList`]s index.
    lists: Vec<ExprId>,
    /// The text [`StrId`]s index.
    text: String,
}

/// A whole program: its functions, the arena their expressions live in,
/// and the symbol table their names index; execution starts at `main`.
///
/// The parser builds one from source, and a [`ProgramBuilder`] from
/// nodes:
///
/// ```
/// use au_lang::{ExprKind, Function, ProgramBuilder, Span, StmtKind};
///
/// let mut b = ProgramBuilder::new();
/// let (main, x) = (b.intern("main"), b.intern("x"));
/// let one = b.expr(ExprKind::Num(1.0), Span::DUMMY);
/// let program = b
///     .function(Function {
///         name: main,
///         params: Vec::new(),
///         body: vec![StmtKind::Let { name: x, init: one }.into()],
///         span: Span::DUMMY,
///     })
///     .build()?;
/// assert_eq!(program.function("main").map(|f| f.name), Some(main));
/// # Ok::<(), au_lang::LangError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    nodes: Nodes,
    /// What the program proves statically, built on first use.
    facts: OnceLock<StaticFacts>,
}

impl Program {
    /// Function definitions in source order.
    pub fn functions(&self) -> &[Function] {
        &self.nodes.functions
    }

    /// The expression `id` names.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from another program.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.nodes.exprs[id.index()]
    }

    /// The expressions of a call's arguments or an array's items.
    pub fn list(&self, list: ExprList) -> &[ExprId] {
        &self.nodes.lists[list.range()]
    }

    /// A string literal's value.
    pub fn str(&self, s: StrId) -> &str {
        &self.nodes.text[s.start as usize..s.end as usize]
    }

    /// The number of expressions in the arena: every [`ExprId`] of the
    /// program indexes below it.
    #[cfg(test)]
    pub(crate) fn expr_count(&self) -> usize {
        self.nodes.exprs.len()
    }

    /// The name `sym` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from another program's table.
    pub fn name(&self, sym: Sym) -> &str {
        self.nodes.symbols.name(sym)
    }

    /// The symbol spelling `name`, if any identifier of the program does.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.nodes.symbols.get(name)
    }

    /// The program's symbol table.
    pub(crate) fn symbols(&self) -> &Symbols {
        &self.nodes.symbols
    }

    /// The program's static facts, from one walk made on first use.
    pub(crate) fn facts(&self) -> &StaticFacts {
        self.facts.get_or_init(|| StaticFacts::new(self))
    }

    /// Finds the first function named `name`.
    pub fn function(&self, name: &str) -> Option<&Function> {
        let sym = self.sym(name)?;
        self.functions().iter().find(|f| f.name == sym)
    }

    /// A builder holding a copy of this program's nodes, to derive an
    /// edited program from it; the copy's ids and symbols are this
    /// program's.
    pub fn to_builder(&self) -> ProgramBuilder {
        ProgramBuilder {
            nodes: self.nodes.clone(),
        }
    }

    /// The source bytes the functions span (none for a built AST): the
    /// passes after the parser size their buffers from it.
    pub(crate) fn source_len(&self) -> usize {
        self.functions()
            .iter()
            .map(|f| f.span.end - f.span.start)
            .sum()
    }
}

/// Builds a [`Program`]: names are interned, expressions added operands
/// first, and functions appended; [`build`](Self::build) checks the result
/// as the parser checks source.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    nodes: Nodes,
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// A builder sized for a program parsed from `src_len` bytes, whose
    /// symbols come with [`finish`](Self::finish).
    pub(crate) fn for_source(src_len: usize) -> Self {
        ProgramBuilder {
            nodes: Nodes {
                functions: Vec::new(),
                symbols: Symbols::default(),
                // The corpus programs average an expression per 5 bytes,
                // a listed one per 12 and a literal byte per 6.
                exprs: Vec::with_capacity(src_len / 5 + 8),
                lists: Vec::with_capacity(src_len / 12 + 8),
                text: String::with_capacity(src_len / 6 + 8),
            },
        }
    }

    /// The symbol spelling `name`, added to the table if it is new.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.nodes.symbols.intern(name)
    }

    /// The symbol spelling `name`, if it has been interned.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.nodes.symbols.get(name)
    }

    /// The name `sym` stands for.
    pub fn name(&self, sym: Sym) -> &str {
        self.nodes.symbols.name(sym)
    }

    /// Adds an expression and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an operand of `kind` is not an expression of this
    /// builder.
    pub fn expr(&mut self, kind: ExprKind, span: Span) -> ExprId {
        let id = ExprId(self.nodes.exprs.len() as u32);
        let nodes = &self.nodes;
        let known = |e: ExprId| e < id;
        let listed = |l: ExprList| {
            nodes
                .lists
                .get(l.range())
                .is_some_and(|ids| ids.iter().all(|&e| known(e)))
        };
        let ok = match kind {
            ExprKind::Array(l) | ExprKind::Call { args: l, .. } => listed(l),
            ExprKind::Index(a, b) | ExprKind::Binary { lhs: a, rhs: b, .. } => known(a) && known(b),
            ExprKind::Unary { expr, .. } => known(expr),
            ExprKind::Str(s) => s.start <= s.end && s.end as usize <= nodes.text.len(),
            ExprKind::Num(_) | ExprKind::Bool(_) | ExprKind::Var(_) => true,
        };
        assert!(ok, "an operand of {kind:?} is not in this builder");
        self.push_expr(kind, span)
    }

    /// [`expr`](Self::expr) for operands known to be this builder's.
    pub(crate) fn push_expr(&mut self, kind: ExprKind, span: Span) -> ExprId {
        let id = ExprId(self.nodes.exprs.len() as u32);
        self.nodes.exprs.push(Expr { kind, span });
        id
    }

    /// The expression `id` names.
    pub(crate) fn get(&self, id: ExprId) -> &Expr {
        &self.nodes.exprs[id.index()]
    }

    /// Stores `ids`, in order, as one list of call arguments or array
    /// items.
    pub fn list(&mut self, ids: &[ExprId]) -> ExprList {
        let start = self.nodes.lists.len() as u32;
        self.nodes.lists.extend_from_slice(ids);
        ExprList {
            start,
            len: ids.len() as u32,
        }
    }

    /// Stores a string literal's value.
    pub fn str(&mut self, value: &str) -> StrId {
        let start = self.nodes.text.len() as u32;
        self.nodes.text.push_str(value);
        StrId {
            start,
            end: self.nodes.text.len() as u32,
        }
    }

    /// Appends a function definition.
    pub fn function(mut self, function: Function) -> Self {
        self.push_function(function);
        self
    }

    /// Appends a function definition in place.
    pub fn push_function(&mut self, function: Function) {
        self.nodes.functions.push(function);
    }

    /// The functions so far, to edit in place.
    pub fn functions_mut(&mut self) -> &mut Vec<Function> {
        &mut self.nodes.functions
    }

    /// The program, checked as the parser checks source.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Parse`], at line 0, unless exactly one function
    /// is named `main`, or when blocks and expressions nest deeper than
    /// [`MAX_NESTING`] levels (a block, and an expression inside its
    /// parent, each open one).
    pub fn build(mut self) -> Result<Program, LangError> {
        let nodes = &self.nodes;
        // Operands precede their expression, so one pass in id order
        // finds every expression's height.
        let mut height = vec![0u8; nodes.exprs.len()];
        for (i, e) in nodes.exprs.iter().enumerate() {
            let mut h = 0;
            e.kind
                .each_operand(&nodes.lists, |o| h = h.max(height[o.index()]));
            height[i] = h.saturating_add(1);
        }
        let deepest = nodes
            .functions
            .iter()
            .map(|f| block_depth(&f.body, 1, &height))
            .max()
            .unwrap_or(0);
        if deepest > MAX_NESTING {
            return Err(LangError::Parse {
                line: 0,
                message: format!("nesting deeper than {MAX_NESTING} levels"),
            });
        }
        let symbols = std::mem::take(&mut self.nodes.symbols);
        self.finish(symbols, 0)
    }

    /// How many expressions, list entries and literal bytes the builder
    /// holds, for [`rewind`](Self::rewind).
    pub(crate) fn mark(&self) -> (usize, usize, usize) {
        let n = &self.nodes;
        (n.exprs.len(), n.lists.len(), n.text.len())
    }

    /// Drops what was added since `mark`.
    pub(crate) fn rewind(&mut self, (exprs, lists, text): (usize, usize, usize)) {
        self.nodes.exprs.truncate(exprs);
        self.nodes.lists.truncate(lists);
        self.nodes.text.truncate(text);
    }

    /// The program over `symbols`, checked for its `main` only: the parser
    /// has checked nesting as it went. An error names `line`.
    pub(crate) fn finish(mut self, symbols: Symbols, line: usize) -> Result<Program, LangError> {
        self.nodes.symbols = symbols;
        let main = self.sym("main");
        let mains = self
            .nodes
            .functions
            .iter()
            .filter(|f| Some(f.name) == main)
            .count();
        if mains != 1 {
            return Err(LangError::Parse {
                line,
                message: "program must define exactly one `main` function".to_owned(),
            });
        }
        Ok(Program {
            nodes: self.nodes,
            facts: OnceLock::new(),
        })
    }
}

/// The deepest level a block at level `level` reaches, counting each
/// nested block and each expression below its statement's block; past
/// [`MAX_NESTING`] it stops looking, so the walk stays shallow.
fn block_depth(stmts: &[Stmt], level: usize, height: &[u8]) -> usize {
    let mut deepest = level;
    for stmt in stmts {
        if deepest > MAX_NESTING {
            break;
        }
        for e in stmt.exprs() {
            deepest = deepest.max(level + height[e.index()] as usize);
        }
        match &stmt.kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                deepest = deepest
                    .max(block_depth(then_body, level + 1, height))
                    .max(block_depth(else_body, level + 1, height));
            }
            StmtKind::While { body, .. } => {
                deepest = deepest.max(block_depth(body, level + 1, height))
            }
            _ => {}
        }
    }
    deepest
}

/// Structural equality by name: the functions must match node for node
/// and each pair of symbols spell the same name, however the two tables
/// number them. Spans are ignored.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        let same = SameNames(self, other);
        let (fs, gs) = (self.functions(), other.functions());
        fs.len() == gs.len()
            && fs.iter().zip(gs).all(|(f, g)| {
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

    fn list(&self, a: ExprList, b: ExprList) -> bool {
        let (a, b) = (self.0.list(a), self.1.list(b));
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| self.expr(x, y))
    }

    fn opt(&self, a: Option<ExprId>, b: Option<ExprId>) -> bool {
        match (a, b) {
            (Some(x), Some(y)) => self.expr(x, y),
            (x, y) => x.is_none() && y.is_none(),
        }
    }

    fn stmt(&self, a: &Stmt, b: &Stmt) -> bool {
        use StmtKind as S;
        match (&a.kind, &b.kind) {
            (S::Let { name: m, init: x }, S::Let { name: n, init: y })
            | (S::Assign { name: m, value: x }, S::Assign { name: n, value: y }) => {
                self.sym(*m, *n) && self.expr(*x, *y)
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
            ) => self.sym(*m, *n) && self.expr(*i, *j) && self.expr(*x, *y),
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
            ) => self.expr(*c, *d) && self.block(t, u) && self.block(e, f),
            (S::While { cond: c, body: t }, S::While { cond: d, body: u }) => {
                self.expr(*c, *d) && self.block(t, u)
            }
            (S::Return(x), S::Return(y)) => self.opt(*x, *y),
            (S::Expr(x), S::Expr(y)) => self.expr(*x, *y),
            (S::Break, S::Break) | (S::Continue, S::Continue) => true,
            _ => false,
        }
    }

    fn expr(&self, a: ExprId, b: ExprId) -> bool {
        use ExprKind as E;
        match (self.0.expr(a).kind, self.1.expr(b).kind) {
            (E::Var(m), E::Var(n)) => self.sym(m, n),
            (E::Str(s), E::Str(t)) => self.0.str(s) == self.1.str(t),
            (E::Call { name: m, args: x }, E::Call { name: n, args: y }) => {
                self.sym(m, n) && self.list(x, y)
            }
            (E::Array(x), E::Array(y)) => self.list(x, y),
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
            (E::Num(x), E::Num(y)) => x == y,
            (E::Bool(x), E::Bool(y)) => x == y,
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------
// Visitor
// ---------------------------------------------------------------------

impl Stmt {
    /// The expressions this statement evaluates itself, in evaluation
    /// order: a condition, but not the statements of the blocks it guards.
    pub fn exprs(&self) -> impl Iterator<Item = ExprId> {
        let (first, second) = match self.kind {
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
pub fn for_each_subexpr<'p>(program: &'p Program, e: ExprId, f: &mut impl FnMut(&'p Expr)) {
    let expr = program.expr(e);
    f(expr);
    expr.kind
        .for_each_operand(program, |o| for_each_subexpr(program, o, f));
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
pub fn for_each_expr<'p>(program: &'p Program, stmts: &'p [Stmt], f: &mut impl FnMut(&'p Expr)) {
    for_each_stmt(stmts, &mut |s| {
        s.exprs().for_each(|e| for_each_subexpr(program, e, f))
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

    /// A builder holding `fn main() { let <a> = <b>; }`, interning
    /// `order` first.
    fn one_let_builder(order: &[&str], a: &str, b: &str) -> ProgramBuilder {
        let mut p = ProgramBuilder::new();
        for name in order {
            p.intern(name);
        }
        let (main, a, b) = (p.intern("main"), p.intern(a), p.intern(b));
        let init = p.expr(ExprKind::Var(b), Span::new(4, 5));
        p.function(Function {
            name: main,
            params: Vec::new(),
            body: vec![StmtKind::Let { name: a, init }.into()],
            span: Span::DUMMY,
        })
    }

    fn one_let(order: &[&str], a: &str, b: &str) -> Program {
        one_let_builder(order, a, b).build().expect("one main")
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
    fn equality_ignores_spans_and_compares_literal_text() {
        let lit = |text: &str, span: Span| {
            let mut b = ProgramBuilder::new();
            let main = b.intern("main");
            let s = b.str(text);
            let e = b.expr(ExprKind::Str(s), span);
            b.function(Function {
                name: main,
                params: Vec::new(),
                body: vec![Stmt::new(StmtKind::Expr(e), span)],
                span,
            })
            .build()
            .unwrap()
        };
        assert_eq!(lit("hi", Span::new(0, 4)), lit("hi", Span::DUMMY));
        assert_ne!(lit("hi", Span::DUMMY), lit("ho", Span::DUMMY));
    }

    #[test]
    fn build_requires_exactly_one_main() {
        let error = |b: ProgramBuilder| match b.build() {
            Err(LangError::Parse { message, .. }) => message,
            other => panic!("expected a parse error, got {other:?}"),
        };
        let missing = error(ProgramBuilder::new());
        assert_eq!(missing, "program must define exactly one `main` function");
        let twice = one_let_builder(&[], "a", "b");
        let main = twice.sym("main").unwrap();
        let twice = twice.function(Function {
            name: main,
            params: Vec::new(),
            body: Vec::new(),
            span: Span::DUMMY,
        });
        assert_eq!(error(twice), missing);
    }

    #[test]
    fn build_refuses_nesting_past_the_parser_limit() {
        // `let x = - - … - 1;` in main: the block is one level and each
        // expression one more.
        let nested = |negations: usize| {
            let mut b = ProgramBuilder::new();
            let (main, x) = (b.intern("main"), b.intern("x"));
            let mut e = b.expr(ExprKind::Num(1.0), Span::DUMMY);
            for _ in 0..negations {
                e = b.expr(
                    ExprKind::Unary {
                        op: UnOp::Neg,
                        expr: e,
                    },
                    Span::DUMMY,
                );
            }
            b.function(Function {
                name: main,
                params: Vec::new(),
                body: vec![StmtKind::Let { name: x, init: e }.into()],
                span: Span::DUMMY,
            })
            .build()
        };
        assert!(nested(MAX_NESTING - 2).is_ok());
        assert!(matches!(
            nested(MAX_NESTING - 1),
            Err(LangError::Parse { line: 0, .. })
        ));
        assert!(nested(100_000).is_err(), "no deeper than the limit looks");
    }

    #[test]
    #[should_panic(expected = "not in this builder")]
    fn operands_must_come_from_the_same_builder() {
        let mut other = ProgramBuilder::new();
        other.expr(ExprKind::Num(1.0), Span::DUMMY);
        let far = other.expr(ExprKind::Num(2.0), Span::DUMMY);
        let mut b = ProgramBuilder::new();
        b.expr(
            ExprKind::Unary {
                op: UnOp::Neg,
                expr: far,
            },
            Span::DUMMY,
        );
    }
}
