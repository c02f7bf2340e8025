//! Recursive-descent parser for AuLang.
//!
//! Every produced AST node carries the byte-offset [`Span`] of the source
//! text it was parsed from (desugared `for` loops reuse the spans of the
//! surface tokens they came from), so downstream tooling — `au-lint`
//! diagnostics, error rendering — can point back into the file.
//!
//! The parser, and every pass after it, recurses once per level of
//! nesting, so the parser refuses source nested deeper than
//! [`MAX_NESTING`] levels instead of overflowing the stack.

use crate::ast::{
    BinOp, ExprId, ExprKind, Function, Program, ProgramBuilder, Span, Stmt, StmtKind, Sym, UnOp,
};
use crate::lexer::{string_value, Lexer, Token, TokenKind};
use crate::LangError;

/// The deepest nesting [`parse`] accepts, the same bound as the runtime's
/// call depth. Each block, each expression (the parenthesized, bracketed,
/// argument and index ones nested inside others included), each unary or
/// binary operator, each `[index]` and each `else if` opens one level; a
/// chain like `a + b + c` opens one per operator, as deep as its tree,
/// and a `for` body two, as deep as its desugared `if` and `while`.
pub const MAX_NESTING: usize = 64;

/// Parses AuLang source into a [`Program`].
///
/// # Errors
///
/// Returns [`LangError::Lex`] or [`LangError::Parse`] with a line number;
/// source nested deeper than [`MAX_NESTING`] levels is a parse error.
pub fn parse(src: &str) -> Result<Program, LangError> {
    let mut lexer = Lexer::new(src);
    let mut parser = Parser {
        src,
        tok: lexer.next_token()?,
        lexer,
        lex_error: None,
        prev_end: 0,
        b: ProgramBuilder::for_source(src.len()),
        listed: Vec::with_capacity(16),
        stmts: Vec::with_capacity(32),
        depth: 0,
    };
    let parsed = parser.program();
    // A lex error anywhere in the source wins over a parse error, as if
    // the whole source had been lexed first.
    if let Some(e) = parser.lex_error {
        return Err(e);
    }
    match parsed {
        Ok(program) => Ok(program),
        Err(e) => loop {
            match parser.lexer.next_token() {
                Err(lex) => return Err(lex),
                Ok(t) if t.kind == TokenKind::Eof => return Err(*e),
                Ok(_) => {}
            }
        },
    }
}

/// A parse step's result. The error is boxed, so a result carries no
/// more than its value up the precedence chain.
type PResult<T> = Result<T, Box<LangError>>;

/// Where the parser stands: enough to come back and read the same tokens
/// again.
struct Mark {
    lexer: (usize, usize),
    tok: Token,
    prev_end: usize,
    nodes: (usize, usize, usize),
}

struct Parser<'src> {
    src: &'src str,
    /// Reads the tokens one at a time, interning identifiers into the
    /// table the program will own.
    lexer: Lexer<'src>,
    /// The token about to be consumed.
    tok: Token,
    /// The first lex error met; the parser sees an end of input there.
    lex_error: Option<LangError>,
    /// End offset of the most recently consumed token.
    prev_end: usize,
    /// The program so far.
    b: ProgramBuilder,
    /// The arguments or items of the lists being parsed, innermost last.
    listed: Vec<ExprId>,
    /// The statements of the blocks being parsed, innermost last.
    stmts: Vec<Stmt>,
    /// Levels of nesting open at the current token; see [`MAX_NESTING`].
    depth: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> &TokenKind {
        &self.tok.kind
    }

    fn line(&self) -> usize {
        self.tok.line
    }

    /// Span of the token about to be consumed.
    fn span(&self) -> Span {
        self.tok.span
    }

    /// End offset of the most recently consumed token — the natural end of
    /// a construct once its last token has been bumped.
    fn prev_end(&self) -> usize {
        self.prev_end
    }

    fn bump(&mut self) {
        if self.tok.kind == TokenKind::Eof {
            return;
        }
        self.prev_end = self.tok.span.end;
        self.tok = match self.lexer.next_token() {
            Ok(token) => token,
            Err(e) => {
                self.lex_error = Some(e);
                let at = self.prev_end;
                Token {
                    kind: TokenKind::Eof,
                    line: self.tok.line,
                    span: Span::new(at, at),
                }
            }
        };
    }

    fn mark(&self) -> Mark {
        Mark {
            lexer: self.lexer.state(),
            tok: self.tok,
            prev_end: self.prev_end,
            nodes: self.b.mark(),
        }
    }

    /// Goes back to `mark`, dropping the expressions parsed since.
    fn rewind(&mut self, mark: Mark) {
        self.lexer.set_state(mark.lexer);
        self.tok = mark.tok;
        self.prev_end = mark.prev_end;
        self.b.rewind(mark.nodes);
    }

    /// The token about to be consumed as error messages name it: its
    /// `Debug` form, with an identifier or string spelled out.
    fn found(&self) -> String {
        let token = &self.tok;
        match token.kind {
            TokenKind::Ident(name) => format!("Ident({:?})", self.lexer.symbols().name(name)),
            TokenKind::Str => format!("Str({:?})", string_value(self.raw_string(token.span))),
            kind => format!("{kind:?}"),
        }
    }

    /// The text between the quotes of the string literal token at `span`.
    fn raw_string(&self, span: Span) -> &'src str {
        &self.src[span.start + 1..span.end - 1]
    }

    fn err(&self, message: impl Into<String>) -> Box<LangError> {
        Box::new(LangError::Parse {
            line: self.line(),
            message: message.into(),
        })
    }

    /// Opens one level of nesting. An error ends the whole parse, so only
    /// the success paths close their levels again.
    fn enter(&mut self) -> PResult<()> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> PResult<()> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {}", self.found())))
        }
    }

    fn ident(&mut self, what: &str) -> PResult<Sym> {
        match *self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            _ => Err(self.err(format!("expected {what}, found {}", self.found()))),
        }
    }

    fn program(&mut self) -> PResult<Program> {
        while *self.peek() != TokenKind::Eof {
            let function = self.function()?;
            self.b.push_function(function);
        }
        let symbols = self.lexer.take_symbols();
        Ok(std::mem::take(&mut self.b).finish(symbols, self.line())?)
    }

    fn function(&mut self) -> PResult<Function> {
        let start = self.span();
        self.expect(TokenKind::Fn, "`fn`")?;
        let name = self.ident("function name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                params.push(self.ident("parameter name")?);
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        let body = self.block()?;
        let span = Span::new(start.start, self.prev_end());
        Ok(Function {
            name,
            params,
            body,
            span,
        })
    }

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect(TokenKind::LBrace, "`{`")?;
        self.enter()?;
        let base = self.stmts.len();
        while *self.peek() != TokenKind::RBrace {
            if *self.peek() == TokenKind::Eof {
                return Err(self.err("unterminated block"));
            }
            let stmt = self.statement()?;
            self.stmts.push(stmt);
        }
        self.bump(); // `}`
        self.depth -= 1;
        Ok(self.stmts.drain(base..).collect())
    }

    fn statement(&mut self) -> PResult<Stmt> {
        let start = self.span();
        match *self.peek() {
            TokenKind::Let => {
                self.bump();
                let name = self.ident("variable name")?;
                self.expect(TokenKind::Assign, "`=`")?;
                let init = self.expr()?;
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(self.stmt_from(StmtKind::Let { name, init }, start))
            }
            TokenKind::If => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                let then_body = self.block()?;
                let else_body = if *self.peek() == TokenKind::Else {
                    self.bump();
                    if *self.peek() == TokenKind::If {
                        self.enter()?;
                        let else_if = self.statement()?;
                        self.depth -= 1;
                        vec![else_if]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(self.stmt_from(
                    StmtKind::If {
                        cond,
                        then_body,
                        else_body,
                    },
                    start,
                ))
            }
            TokenKind::While => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                let body = self.block()?;
                Ok(self.stmt_from(StmtKind::While { cond, body }, start))
            }
            TokenKind::For => self.for_statement(),
            TokenKind::Return => {
                self.bump();
                let value = if *self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(self.stmt_from(StmtKind::Return(value), start))
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(self.stmt_from(StmtKind::Break, start))
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(self.stmt_from(StmtKind::Continue, start))
            }
            TokenKind::Ident(name) => {
                // Lookahead distinguishes `x = …;`, `x[i] = …;`, and an
                // expression statement starting with an identifier.
                let back = self.mark();
                self.bump();
                match *self.peek() {
                    TokenKind::Assign => {
                        self.bump();
                        let value = self.expr()?;
                        self.expect(TokenKind::Semi, "`;`")?;
                        Ok(self.stmt_from(StmtKind::Assign { name, value }, start))
                    }
                    TokenKind::LBracket => {
                        self.bump();
                        let index = self.expr()?;
                        self.expect(TokenKind::RBracket, "`]`")?;
                        if *self.peek() == TokenKind::Assign {
                            self.bump();
                            let value = self.expr()?;
                            self.expect(TokenKind::Semi, "`;`")?;
                            Ok(self.stmt_from(StmtKind::AssignIndex { name, index, value }, start))
                        } else {
                            // Not an assignment — rewind and parse as expr.
                            self.rewind(back);
                            let e = self.expr()?;
                            self.expect(TokenKind::Semi, "`;`")?;
                            Ok(self.stmt_from(StmtKind::Expr(e), start))
                        }
                    }
                    _ => {
                        self.rewind(back);
                        let e = self.expr()?;
                        self.expect(TokenKind::Semi, "`;`")?;
                        Ok(self.stmt_from(StmtKind::Expr(e), start))
                    }
                }
            }
            _ => {
                let e = self.expr()?;
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(self.stmt_from(StmtKind::Expr(e), start))
            }
        }
    }

    /// Wraps a statement shape with the span running from `start` to the
    /// last consumed token.
    fn stmt_from(&self, kind: StmtKind, start: Span) -> Stmt {
        Stmt::new(kind, Span::new(start.start, self.prev_end()))
    }

    /// Parses C-style `for (init; cond; post) { body }` and desugars it at
    /// parse time into `if (true) { init; while (cond) { body…; post; } }`
    /// (the `if` introduces a scope for the initializer), so the
    /// interpreter and analyses only ever see core statements. The
    /// desugared statements keep the spans of the surface tokens they were
    /// built from; the synthetic `true` condition gets the `for` keyword's
    /// span.
    ///
    /// Known sugar limitation: `continue` inside a `for` body skips the
    /// `post` step too — documented AuLang behaviour matching the naive
    /// expansion.
    fn for_statement(&mut self) -> PResult<Stmt> {
        let for_span = self.span();
        self.bump(); // `for`
        self.expect(TokenKind::LParen, "`(`")?;
        // init: `let x = e` or `x = e`
        let init_start = self.span();
        let init = match *self.peek() {
            TokenKind::Let => {
                self.bump();
                let name = self.ident("variable name")?;
                self.expect(TokenKind::Assign, "`=`")?;
                let value = self.expr()?;
                self.stmt_from(StmtKind::Let { name, init: value }, init_start)
            }
            TokenKind::Ident(name) => {
                self.bump();
                self.expect(TokenKind::Assign, "`=`")?;
                let value = self.expr()?;
                self.stmt_from(StmtKind::Assign { name, value }, init_start)
            }
            _ => {
                return Err(self.err(format!(
                    "expected for-loop initializer, found {}",
                    self.found()
                )))
            }
        };
        self.expect(TokenKind::Semi, "`;`")?;
        let cond = self.expr()?;
        self.expect(TokenKind::Semi, "`;`")?;
        // post: `x = e` (no trailing semicolon)
        let post = {
            let post_start = self.span();
            let name = self.ident("post-step variable")?;
            self.expect(TokenKind::Assign, "`=`")?;
            let value = self.expr()?;
            self.stmt_from(StmtKind::Assign { name, value }, post_start)
        };
        self.expect(TokenKind::RParen, "`)`")?;
        // The body nests two statements deep once desugared: one level
        // for the `if`, one for the `while`'s block.
        self.enter()?;
        let mut body = self.block()?;
        self.depth -= 1;
        body.push(post);
        let whole = Span::new(for_span.start, self.prev_end());
        let while_stmt = Stmt::new(StmtKind::While { cond, body }, whole);
        Ok(Stmt::new(
            StmtKind::If {
                cond: self.node(ExprKind::Bool(true), for_span),
                then_body: vec![init, while_stmt],
                else_body: Vec::new(),
            },
            whole,
        ))
    }

    fn expr(&mut self) -> PResult<ExprId> {
        self.enter()?;
        let e = self.or_expr()?;
        self.depth -= 1;
        Ok(e)
    }

    /// Adds an expression at `span`; its operands are the parser's own.
    fn node(&mut self, kind: ExprKind, span: Span) -> ExprId {
        self.b.push_expr(kind, span)
    }

    fn span_of(&self, e: ExprId) -> Span {
        self.b.get(e).span
    }

    /// Joins two operand spans into the covering binary-expression node.
    fn binary(&mut self, op: BinOp, lhs: ExprId, rhs: ExprId) -> ExprId {
        let span = self.span_of(lhs).join(self.span_of(rhs));
        self.node(ExprKind::Binary { op, lhs, rhs }, span)
    }

    /// A chain `operand (op operand)*` at one precedence level, left
    /// associative; each operator opens one more level of nesting until the
    /// chain ends. Without `repeat` the chain stops after one operator
    /// (comparisons do not chain). Each level calls the next from one
    /// place only, so the levels inline into one function.
    #[inline(always)]
    fn chain(
        &mut self,
        repeat: bool,
        op_at: impl Fn(&TokenKind) -> Option<BinOp>,
        mut operand: impl FnMut(&mut Self) -> PResult<ExprId>,
    ) -> PResult<ExprId> {
        let depth = self.depth;
        let mut pending: Option<(ExprId, BinOp)> = None;
        loop {
            let rhs = operand(self)?;
            let joined = pending.is_some();
            let lhs = match pending.take() {
                Some((lhs, op)) => self.binary(op, lhs, rhs),
                None => rhs,
            };
            match op_at(self.peek()) {
                Some(op) if repeat || !joined => {
                    self.bump();
                    self.enter()?;
                    pending = Some((lhs, op));
                }
                _ => {
                    self.depth = depth;
                    return Ok(lhs);
                }
            }
        }
    }

    fn or_expr(&mut self) -> PResult<ExprId> {
        self.chain(
            true,
            |t| (*t == TokenKind::Or).then_some(BinOp::Or),
            Self::and_expr,
        )
    }

    #[inline(always)]
    fn and_expr(&mut self) -> PResult<ExprId> {
        self.chain(
            true,
            |t| (*t == TokenKind::And).then_some(BinOp::And),
            Self::cmp_expr,
        )
    }

    #[inline(always)]
    fn cmp_expr(&mut self) -> PResult<ExprId> {
        let op_at = |t: &TokenKind| match t {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::Ne => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        self.chain(false, op_at, Self::add_expr)
    }

    #[inline(always)]
    fn add_expr(&mut self) -> PResult<ExprId> {
        let op_at = |t: &TokenKind| match t {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        };
        self.chain(true, op_at, Self::mul_expr)
    }

    #[inline(always)]
    fn mul_expr(&mut self) -> PResult<ExprId> {
        let op_at = |t: &TokenKind| match t {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            TokenKind::Percent => Some(BinOp::Rem),
            _ => None,
        };
        self.chain(true, op_at, Self::unary_expr)
    }

    fn unary_expr(&mut self) -> PResult<ExprId> {
        let op_span = self.span();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            _ => return self.postfix_expr(),
        };
        self.bump();
        self.enter()?;
        let inner = self.unary_expr()?;
        self.depth -= 1;
        let span = op_span.join(self.span_of(inner));
        Ok(self.node(ExprKind::Unary { op, expr: inner }, span))
    }

    #[inline(always)]
    fn postfix_expr(&mut self) -> PResult<ExprId> {
        let depth = self.depth;
        let mut expr = self.primary_expr()?;
        while *self.peek() == TokenKind::LBracket {
            self.bump();
            self.enter()?;
            let index = self.expr()?;
            self.expect(TokenKind::RBracket, "`]`")?;
            let span = Span::new(self.span_of(expr).start, self.prev_end());
            expr = self.node(ExprKind::Index(expr, index), span);
        }
        self.depth = depth;
        Ok(expr)
    }

    fn primary_expr(&mut self) -> PResult<ExprId> {
        let start = self.span();
        let kind = match *self.peek() {
            TokenKind::Num(n) => ExprKind::Num(n),
            TokenKind::Str => {
                let raw = self.raw_string(start);
                ExprKind::Str(if raw.contains('\\') {
                    self.b.str(&string_value(raw))
                } else {
                    self.b.str(raw)
                })
            }
            TokenKind::True => ExprKind::Bool(true),
            TokenKind::False => ExprKind::Bool(false),
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                // The node keeps its own span; the parens only group.
                return Ok(e);
            }
            TokenKind::LBracket => {
                self.bump();
                let items = self.list(TokenKind::RBracket, "`]`")?;
                let span = Span::new(start.start, self.prev_end());
                return Ok(self.node(ExprKind::Array(items), span));
            }
            TokenKind::Ident(name) => {
                self.bump();
                if *self.peek() != TokenKind::LParen {
                    return Ok(self.node(ExprKind::Var(name), start));
                }
                self.bump();
                let args = self.list(TokenKind::RParen, "`)`")?;
                let span = Span::new(start.start, self.prev_end());
                return Ok(self.node(ExprKind::Call { name, args }, span));
            }
            _ => return Err(self.err(format!("expected expression, found {}", self.found()))),
        };
        self.bump();
        Ok(self.node(kind, start))
    }

    /// Comma-separated expressions up to and including the `close` token,
    /// stored as one list.
    fn list(&mut self, close: TokenKind, what: &str) -> PResult<crate::ast::ExprList> {
        let base = self.listed.len();
        if *self.peek() != close {
            loop {
                let e = self.expr()?;
                self.listed.push(e);
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(close, what)?;
        let list = self.b.list(&self.listed[base..]);
        self.listed.truncate(base);
        Ok(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_main() {
        let p = parse("fn main() { return 1; }").unwrap();
        assert_eq!(p.functions().len(), 1);
        assert_eq!(p.name(p.functions()[0].name), "main");
    }

    #[test]
    fn requires_main() {
        assert!(matches!(
            parse("fn helper() { return 0; }"),
            Err(LangError::Parse { .. })
        ));
    }

    #[test]
    fn parses_precedence() {
        let p = parse("fn main() { let x = 1 + 2 * 3; return x; }").unwrap();
        match &p.functions()[0].body[0].kind {
            StmtKind::Let { init, .. } => match p.expr(*init).kind {
                ExprKind::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(
                        p.expr(rhs).kind,
                        ExprKind::Binary { op: BinOp::Mul, .. }
                    ));
                }
                other => panic!("expected add at top: {other:?}"),
            },
            other => panic!("expected let: {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let src = "fn main() { if (1 < 2) { return 1; } else if (2 < 3) { return 2; } else { return 3; } }";
        let p = parse(src).unwrap();
        match &p.functions()[0].body[0].kind {
            StmtKind::If { else_body, .. } => {
                assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if: {other:?}"),
        }
    }

    #[test]
    fn parses_index_assignment_and_read() {
        let src = "fn main() { let a = [1, 2]; a[0] = 5; return a[0]; }";
        let p = parse(src).unwrap();
        assert!(matches!(
            p.functions()[0].body[1].kind,
            StmtKind::AssignIndex { .. }
        ));
    }

    #[test]
    fn parses_calls_with_string_args() {
        let src = r#"fn main() { au_extract("PX", 1); return 0; }"#;
        let p = parse(src).unwrap();
        match &p.functions()[0].body[0].kind {
            StmtKind::Expr(e) => match p.expr(*e).kind {
                ExprKind::Call { name, args } => {
                    assert_eq!(p.name(name), "au_extract");
                    assert_eq!(args.len(), 2);
                }
                other => panic!("expected call: {other:?}"),
            },
            other => panic!("expected expr stmt: {other:?}"),
        }
    }

    #[test]
    fn index_read_statement_is_not_assignment() {
        let src = "fn main() { let a = [1]; a[0]; return 0; }";
        let p = parse(src).unwrap();
        assert!(matches!(p.functions()[0].body[1].kind, StmtKind::Expr(_)));
    }

    #[test]
    fn errors_name_the_token_found() {
        let message = |src: &str| match parse(src) {
            Err(LangError::Parse { message, .. }) => message,
            other => panic!("expected a parse error, got {other:?}"),
        };
        assert_eq!(
            message("fn main() { let = 3; }"),
            "expected variable name, found Assign"
        );
        assert_eq!(
            message("fn main() { return x y; }"),
            r#"expected `;`, found Ident("y")"#
        );
        assert_eq!(
            message(r#"fn main() { let "a\"b" = 1; }"#),
            r#"expected variable name, found Str("a\"b")"#
        );
        assert_eq!(
            message("fn main() { for (2; x; x = 1) {} }"),
            "expected for-loop initializer, found Num(2.0)"
        );
        assert_eq!(
            message("fn main() { return ); }"),
            "expected expression, found RParen"
        );
    }

    #[test]
    fn a_lex_error_anywhere_wins_over_a_parse_error() {
        // The parser reads tokens as it goes, but reports what lexing the
        // whole source first would.
        assert!(matches!(
            parse("fn main() { let = 1; }\n@"),
            Err(LangError::Lex { line: 2, .. })
        ));
        assert!(matches!(
            parse("fn main() { return 0; } @"),
            Err(LangError::Lex { line: 1, .. })
        ));
        assert!(matches!(parse("@"), Err(LangError::Lex { .. })));
    }

    #[test]
    fn an_index_read_statement_leaves_no_nodes_behind() {
        // `a[0];` is first read as the start of `a[0] = …;`; the parser
        // drops what that look-ahead built.
        let p = parse("fn main() { let a = [1]; a[0]; return 0; }").unwrap();
        let mut reachable = 0;
        crate::ast::for_each_expr(&p, &p.functions()[0].body, &mut |_| reachable += 1);
        assert_eq!(p.expr_count(), reachable);
    }

    #[test]
    fn reports_parse_error_line() {
        let err = parse("fn main() {\n let = 3; }").unwrap_err();
        match err {
            LangError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error: {other:?}"),
        }
    }

    #[test]
    fn for_loop_desugars_and_runs() {
        let src =
            "fn main() { let s = 0; for (let i = 0; i < 5; i = i + 1) { s = s + i; } return s; }";
        let p = parse(src).unwrap();
        // Desugared: the for becomes an if-true wrapper.
        assert!(matches!(p.functions()[0].body[1].kind, StmtKind::If { .. }));
    }

    #[test]
    fn for_loop_with_assign_initializer() {
        let src = "fn main() { let i = 9; for (i = 0; i < 3; i = i + 1) { } return i; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn for_loop_rejects_missing_post() {
        let src = "fn main() { for (let i = 0; i < 3;) { } return 0; }";
        assert!(matches!(parse(src), Err(LangError::Parse { .. })));
    }

    #[test]
    fn parses_while_with_break_continue() {
        let src = "fn main() { let i = 0; while (true) { i = i + 1; if (i > 3) { break; } continue; } return i; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn statement_spans_slice_source_text() {
        let src = "fn main() { let x = 1 + 2; return x; }";
        let p = parse(src).unwrap();
        let body = &p.functions()[0].body;
        assert_eq!(body[0].span.slice(src), "let x = 1 + 2;");
        assert_eq!(body[1].span.slice(src), "return x;");
        assert_eq!(p.functions()[0].span.slice(src), src);
    }

    #[test]
    fn expression_spans_cover_their_tokens() {
        let src = "fn main() { let y = foo(1, bar) + [2, 3][0]; return y; }";
        let p = parse(src).unwrap();
        match &p.functions()[0].body[0].kind {
            StmtKind::Let { init, .. } => {
                let init = p.expr(*init);
                assert_eq!(init.span.slice(src), "foo(1, bar) + [2, 3][0]");
                match init.kind {
                    ExprKind::Binary { lhs, rhs, .. } => {
                        assert_eq!(p.expr(lhs).span.slice(src), "foo(1, bar)");
                        assert_eq!(p.expr(rhs).span.slice(src), "[2, 3][0]");
                    }
                    other => panic!("expected binary: {other:?}"),
                }
            }
            other => panic!("expected let: {other:?}"),
        }
    }

    #[test]
    fn call_spans_point_at_the_call() {
        let src = "fn main() {\n    au_nn(\"M\", \"F\", \"Y\");\n    return 0;\n}";
        let p = parse(src).unwrap();
        match &p.functions()[0].body[0].kind {
            StmtKind::Expr(e) => {
                assert_eq!(p.expr(*e).span.slice(src), "au_nn(\"M\", \"F\", \"Y\")");
            }
            other => panic!("expected expr stmt: {other:?}"),
        }
    }

    #[test]
    fn desugared_for_keeps_surface_spans() {
        let src = "fn main() { for (let i = 0; i < 3; i = i + 1) { } return 0; }";
        let p = parse(src).unwrap();
        match &p.functions()[0].body[0].kind {
            StmtKind::If {
                cond, then_body, ..
            } => {
                assert_eq!(p.expr(*cond).span.slice(src), "for");
                assert_eq!(then_body[0].span.slice(src), "let i = 0");
                assert!(matches!(then_body[1].kind, StmtKind::While { .. }));
            }
            other => panic!("expected desugared if: {other:?}"),
        }
    }
}
