//! Property-based round-trip testing: arbitrary generated ASTs survive
//! pretty-printing and re-parsing unchanged, the lexer/parser reject
//! nothing the printer emits, and every span the parser attaches slices
//! back to exactly the source text of its node.

use au_lang::pretty::print_program;
use au_lang::{
    parse, BinOp, ExprId, ExprKind, Function, Program, ProgramBuilder, Span, Stmt, StmtKind, Sym,
    UnOp,
};
use proptest::prelude::*;

/// A fixed vocabulary of identifiers that cannot collide with keywords
/// or builtins: `v_`, a letter, then up to six of `[a-z0-9_]`.
fn vocabulary() -> Vec<String> {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n) as usize
    };
    let mut names: Vec<String> = Vec::new();
    while names.len() < 48 {
        let len = 1 + next(7);
        let mut name = String::from("v_");
        name.push(CHARS[next(26)] as char);
        for _ in 1..len {
            name.push(CHARS[next(CHARS.len() as u64)] as char);
        }
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// A builder whose table holds `main` and the vocabulary, in that order;
/// the generated trees name things by its symbols.
fn names_builder() -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    b.intern("main");
    for name in vocabulary() {
        b.intern(&name);
    }
    b
}

/// An identifier of [`names_builder`]'s vocabulary.
fn ident_strategy() -> impl Strategy<Value = Sym> {
    let b = names_builder();
    let vocabulary: Vec<Sym> = vocabulary()
        .iter()
        .map(|n| b.sym(n).expect("interned"))
        .collect();
    (0..vocabulary.len()).prop_map(move |i| vocabulary[i])
}

/// A generated expression, before it is laid out in a program's arena.
#[derive(Debug, Clone)]
enum E {
    Num(f64),
    Bool(bool),
    Str(String),
    Var(Sym),
    Array(Vec<E>),
    Index(Box<E>, Box<E>),
    Call(Sym, Vec<E>),
    Binary(BinOp, Box<E>, Box<E>),
    Unary(UnOp, Box<E>),
}

/// A generated statement.
#[derive(Debug, Clone)]
enum S {
    Let(Sym, E),
    Assign(Sym, E),
    AssignIndex(Sym, E, E),
    If(E, Vec<S>, Vec<S>),
    While(E, Vec<S>),
    Return(Option<E>),
    Break,
    Continue,
    Expr(E),
}

/// Adds `e` and its operands to `b`.
fn lay_expr(b: &mut ProgramBuilder, e: &E) -> ExprId {
    let kind = match e {
        E::Num(n) => ExprKind::Num(*n),
        E::Bool(v) => ExprKind::Bool(*v),
        E::Str(s) => ExprKind::Str(b.str(s)),
        E::Var(v) => ExprKind::Var(*v),
        E::Array(items) => {
            let ids: Vec<ExprId> = items.iter().map(|i| lay_expr(b, i)).collect();
            ExprKind::Array(b.list(&ids))
        }
        E::Index(target, index) => {
            let target = lay_expr(b, target);
            ExprKind::Index(target, lay_expr(b, index))
        }
        E::Call(name, args) => {
            let ids: Vec<ExprId> = args.iter().map(|a| lay_expr(b, a)).collect();
            ExprKind::Call {
                name: *name,
                args: b.list(&ids),
            }
        }
        E::Binary(op, lhs, rhs) => {
            let lhs = lay_expr(b, lhs);
            ExprKind::Binary {
                op: *op,
                lhs,
                rhs: lay_expr(b, rhs),
            }
        }
        E::Unary(op, expr) => ExprKind::Unary {
            op: *op,
            expr: lay_expr(b, expr),
        },
    };
    b.expr(kind, Span::DUMMY)
}

fn lay_block(b: &mut ProgramBuilder, stmts: &[S]) -> Vec<Stmt> {
    stmts.iter().map(|s| lay_stmt(b, s)).collect()
}

fn lay_stmt(b: &mut ProgramBuilder, s: &S) -> Stmt {
    match s {
        S::Let(name, init) => StmtKind::Let {
            name: *name,
            init: lay_expr(b, init),
        },
        S::Assign(name, value) => StmtKind::Assign {
            name: *name,
            value: lay_expr(b, value),
        },
        S::AssignIndex(name, index, value) => {
            let index = lay_expr(b, index);
            StmtKind::AssignIndex {
                name: *name,
                index,
                value: lay_expr(b, value),
            }
        }
        S::If(cond, then_body, else_body) => StmtKind::If {
            cond: lay_expr(b, cond),
            then_body: lay_block(b, then_body),
            else_body: lay_block(b, else_body),
        },
        S::While(cond, body) => StmtKind::While {
            cond: lay_expr(b, cond),
            body: lay_block(b, body),
        },
        S::Return(e) => StmtKind::Return(e.as_ref().map(|e| lay_expr(b, e))),
        S::Break => StmtKind::Break,
        S::Continue => StmtKind::Continue,
        S::Expr(e) => StmtKind::Expr(lay_expr(b, e)),
    }
    .into()
}

fn leaf_expr() -> impl Strategy<Value = E> {
    prop_oneof![
        // Integers and simple fractions print/parse exactly.
        (0i64..1000).prop_map(|n| E::Num(n as f64)),
        (0i64..1000).prop_map(|n| E::Num(n as f64 / 4.0)),
        any::<bool>().prop_map(E::Bool),
        // Printable ASCII (quotes and backslashes included), the escaped
        // controls, and two- to four-byte UTF-8.
        "[ -~\n\tà-ÿα-ω✓×😀-😏]{0,8}".prop_map(E::Str),
        ident_strategy().prop_map(E::Var),
    ]
}

fn expr_strategy() -> impl Strategy<Value = E> {
    leaf_expr().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), bin_op()).prop_map(|(lhs, rhs, op)| E::Binary(
                op,
                Box::new(lhs),
                Box::new(rhs)
            )),
            (inner.clone(), un_op()).prop_map(|(expr, op)| E::Unary(op, Box::new(expr))),
            prop::collection::vec(inner.clone(), 0..3).prop_map(E::Array),
            (ident_strategy(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(name, args)| E::Call(name, args)),
            (inner.clone(), inner).prop_map(|(target, index)| E::Index(
                Box::new(E::Array(vec![target])),
                Box::new(index)
            )),
        ]
    })
}

fn bin_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::And),
        Just(BinOp::Or),
    ]
}

fn un_op() -> impl Strategy<Value = UnOp> {
    prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)]
}

fn stmt_strategy() -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        (ident_strategy(), expr_strategy()).prop_map(|(name, init)| S::Let(name, init)),
        (ident_strategy(), expr_strategy()).prop_map(|(name, value)| S::Assign(name, value)),
        (ident_strategy(), expr_strategy(), expr_strategy())
            .prop_map(|(name, index, value)| S::AssignIndex(name, index, value)),
        expr_strategy().prop_map(|e| S::Return(Some(e))),
        Just(S::Return(None)),
        Just(S::Break),
        Just(S::Continue),
        expr_strategy().prop_map(S::Expr),
    ];
    leaf.prop_recursive(2, 16, 3, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(cond, then_body, else_body)| S::If(cond, then_body, else_body)),
            (expr_strategy(), prop::collection::vec(inner, 0..3))
                .prop_map(|(cond, body)| S::While(cond, body)),
        ]
    })
}

fn program_strategy() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(stmt_strategy(), 0..6),
        prop::collection::vec(
            (
                ident_strategy(),
                prop::collection::vec(ident_strategy(), 0..3),
                prop::collection::vec(stmt_strategy(), 0..4),
            ),
            0..2,
        ),
    )
        .prop_map(|(main_body, mut helpers)| {
            let mut b = names_builder();
            // Helper names must be unique and differ from main.
            helpers.dedup_by(|a, b| a.0 == b.0);
            for (name, mut params, body) in helpers {
                params.dedup();
                let body = lay_block(&mut b, &body);
                b.push_function(Function {
                    name,
                    params,
                    body,
                    span: Span::DUMMY,
                });
            }
            let body = lay_block(&mut b, &main_body);
            let main = b.sym("main").expect("interned");
            b.function(Function {
                name: main,
                params: Vec::new(),
                body,
                span: Span::DUMMY,
            })
            .build()
            .expect("one main, shallow nesting")
        })
}

// ---------------------------------------------------------------------
// Span validation: every node of a parsed program must carry a span that
// slices back to text representing exactly that node.
// ---------------------------------------------------------------------

fn check_expr_spans(p: &Program, expr: ExprId, src: &str) -> Result<(), String> {
    let expr = p.expr(expr);
    let text = expr.span.slice(src);
    match expr.kind {
        ExprKind::Var(name) => {
            let name = p.name(name);
            if text != name {
                return Err(format!("Var `{name}` span sliced `{text}`"));
            }
        }
        ExprKind::Num(n) => {
            let parsed: f64 = text
                .parse()
                .map_err(|e| format!("Num span sliced non-number `{text}`: {e}"))?;
            if parsed != n {
                return Err(format!("Num {n} span sliced `{text}`"));
            }
        }
        ExprKind::Str(_) if !(text.starts_with('"') && text.ends_with('"') && text.len() >= 2) => {
            return Err(format!("Str span sliced unquoted `{text}`"));
        }
        // `true` from a desugared `for` carries the `for` keyword's span.
        ExprKind::Bool(b) if text != b.to_string() && text != "for" => {
            return Err(format!("Bool {b} span sliced `{text}`"));
        }
        ExprKind::Call { name, .. } => {
            let name = p.name(name);
            if !text.starts_with(name) {
                return Err(format!("Call `{name}` span sliced `{text}`"));
            }
        }
        _ => {}
    }
    let mut result = Ok(());
    expr.kind.for_each_operand(p, |e| {
        if result.is_ok() {
            result = check_expr_spans(p, e, src);
        }
    });
    result
}

fn check_stmt_spans(p: &Program, stmt: &Stmt, src: &str) -> Result<(), String> {
    let text = stmt.span.slice(src);
    let starts_ok = match &stmt.kind {
        StmtKind::Let { .. } => text.starts_with("let"),
        StmtKind::Return(_) => text.starts_with("return"),
        StmtKind::Break => text.starts_with("break"),
        StmtKind::Continue => text.starts_with("continue"),
        StmtKind::While { .. } => text.starts_with("while") || text.starts_with("for"),
        StmtKind::If { .. } => text.starts_with("if") || text.starts_with("for"),
        // Assignments and expression statements start with their own text.
        _ => !text.is_empty(),
    };
    if !starts_ok {
        return Err(format!("{:?} span sliced `{text}`", stmt.span));
    }
    match &stmt.kind {
        StmtKind::Let { init: e, .. }
        | StmtKind::Assign { value: e, .. }
        | StmtKind::Expr(e)
        | StmtKind::Return(Some(e)) => check_expr_spans(p, *e, src),
        StmtKind::AssignIndex { index, value, .. } => {
            check_expr_spans(p, *index, src)?;
            check_expr_spans(p, *value, src)
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            check_expr_spans(p, *cond, src)?;
            then_body
                .iter()
                .chain(else_body)
                .try_for_each(|s| check_stmt_spans(p, s, src))
        }
        StmtKind::While { cond, body } => {
            check_expr_spans(p, *cond, src)?;
            body.iter().try_for_each(|s| check_stmt_spans(p, s, src))
        }
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => Ok(()),
    }
}

fn check_program_spans(program: &Program, src: &str) -> Result<(), String> {
    for func in program.functions() {
        let text = func.span.slice(src);
        if !text.starts_with("fn") {
            let name = program.name(func.name);
            return Err(format!("function `{name}` span sliced `{text}`"));
        }
        for stmt in &func.body {
            check_stmt_spans(program, stmt, src)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print ∘ parse ∘ print = print (the printer emits canonical source).
    #[test]
    fn print_parse_print_is_stable(program in program_strategy()) {
        let once = print_program(&program);
        let reparsed = parse(&once);
        prop_assume!(reparsed.is_ok()); // e.g. duplicate param names are rejected
        let twice = print_program(&reparsed.unwrap());
        prop_assert_eq!(once, twice);
    }

    /// parse ∘ print = id on the AST (full round trip).
    #[test]
    fn parse_of_printed_program_matches_ast(program in program_strategy()) {
        let printed = print_program(&program);
        match parse(&printed) {
            Ok(reparsed) => prop_assert_eq!(program, reparsed),
            Err(e) => {
                // The only legitimate rejections are semantic (duplicate
                // function/parameter names); syntax must always re-parse.
                let msg = format!("{e}");
                prop_assert!(
                    msg.contains("main"),
                    "printer emitted unparseable source: {msg}\n{printed}"
                );
            }
        }
    }

    /// Every span the parser attaches slices back to the text of its own
    /// node: identifiers to their name, numbers to an equal literal,
    /// strings to a quoted literal, statements to their leading keyword.
    #[test]
    fn parsed_spans_slice_to_their_nodes(program in program_strategy()) {
        let printed = print_program(&program);
        let reparsed = parse(&printed);
        prop_assume!(reparsed.is_ok());
        if let Err(msg) = check_program_spans(&reparsed.unwrap(), &printed) {
            prop_assert!(false, "span mismatch: {msg}\nsource:\n{printed}");
        }
    }
}
