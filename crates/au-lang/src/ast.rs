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
    Var(String),
    /// Array literal `[e1, e2, …]`.
    Array(Vec<Expr>),
    /// Indexing `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Function or builtin call.
    Call {
        /// Callee name.
        name: String,
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
        name: String,
        /// Initializer.
        init: Expr,
    },
    /// `x = e;`
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// `a[i] = e;`
    AssignIndex {
        /// Array variable name.
        name: String,
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
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
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

/// A whole program: a list of functions; execution starts at `main`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Function definitions in source order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
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
    fn equality_ignores_spans() {
        let a = Expr::new(ExprKind::Num(1.0), Span::new(0, 1));
        let b = Expr::new(ExprKind::Num(1.0), Span::new(5, 6));
        assert_eq!(a, b);
        let s = Stmt::new(StmtKind::Expr(a), Span::new(0, 2));
        let t = Stmt::new(StmtKind::Expr(b), Span::DUMMY);
        assert_eq!(s, t);
    }
}
