//! Property-based round-trip testing: arbitrary generated ASTs survive
//! pretty-printing and re-parsing unchanged, the lexer/parser reject
//! nothing the printer emits, and every span the parser attaches slices
//! back to exactly the source text of its node.

use au_lang::pretty::print_program;
use au_lang::{parse, BinOp, Expr, ExprKind, Function, Program, Span, Stmt, StmtKind, Sym, UnOp};
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

/// An empty program whose table holds `main` and the vocabulary; the
/// generated ASTs name things through it.
fn names_program() -> Program {
    let mut program = Program::default();
    program.intern("main");
    for name in vocabulary() {
        program.intern(&name);
    }
    program
}

/// An identifier of [`names_program`]'s vocabulary.
fn ident_strategy() -> impl Strategy<Value = Sym> {
    let program = names_program();
    let vocabulary: Vec<Sym> = vocabulary()
        .iter()
        .map(|n| program.sym(n).expect("interned"))
        .collect();
    (0..vocabulary.len()).prop_map(move |i| vocabulary[i])
}

fn leaf_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        // Integers and simple fractions print/parse exactly.
        (0i64..1000).prop_map(|n| ExprKind::Num(n as f64).into()),
        (0i64..1000).prop_map(|n| ExprKind::Num(n as f64 / 4.0).into()),
        any::<bool>().prop_map(|b| ExprKind::Bool(b).into()),
        // Printable ASCII (quotes and backslashes included), the escaped
        // controls, and two- to four-byte UTF-8.
        "[ -~\n\tà-ÿα-ω✓×😀-😏]{0,8}".prop_map(|s| ExprKind::Str(s).into()),
        ident_strategy().prop_map(|v| ExprKind::Var(v).into()),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    leaf_expr().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), bin_op()).prop_map(|(lhs, rhs, op)| {
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                }
                .into()
            }),
            (inner.clone(), un_op()).prop_map(|(expr, op)| {
                ExprKind::Unary {
                    op,
                    expr: Box::new(expr),
                }
                .into()
            }),
            prop::collection::vec(inner.clone(), 0..3)
                .prop_map(|items| ExprKind::Array(items).into()),
            (ident_strategy(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(name, args)| ExprKind::Call { name, args }.into()),
            (inner.clone(), inner).prop_map(|(target, index)| ExprKind::Index(
                Box::new(ExprKind::Array(vec![target]).into()),
                Box::new(index)
            )
            .into()),
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

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (ident_strategy(), expr_strategy())
            .prop_map(|(name, init)| StmtKind::Let { name, init }.into()),
        (ident_strategy(), expr_strategy()).prop_map(|(name, value)| StmtKind::Assign {
            name,
            value
        }
        .into()),
        (ident_strategy(), expr_strategy(), expr_strategy())
            .prop_map(|(name, index, value)| StmtKind::AssignIndex { name, index, value }.into()),
        expr_strategy().prop_map(|e| StmtKind::Return(Some(e)).into()),
        Just(StmtKind::Return(None).into()),
        Just(StmtKind::Break.into()),
        Just(StmtKind::Continue.into()),
        expr_strategy().prop_map(|e| StmtKind::Expr(e).into()),
    ];
    leaf.prop_recursive(2, 16, 3, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(cond, then_body, else_body)| {
                    StmtKind::If {
                        cond,
                        then_body,
                        else_body,
                    }
                    .into()
                }),
            (expr_strategy(), prop::collection::vec(inner, 0..3))
                .prop_map(|(cond, body)| StmtKind::While { cond, body }.into()),
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
        .prop_map(|(main_body, helpers)| {
            let mut program = names_program();
            let mut functions: Vec<Function> = helpers
                .into_iter()
                .map(|(name, mut params, body)| {
                    params.dedup();
                    Function {
                        name,
                        params,
                        body,
                        span: Span::DUMMY,
                    }
                })
                .collect();
            // Helper names must be unique and differ from main.
            functions.dedup_by(|a, b| a.name == b.name);
            functions.push(Function {
                name: program.sym("main").expect("interned"),
                params: Vec::new(),
                body: main_body,
                span: Span::DUMMY,
            });
            program.functions = functions;
            program
        })
}

// ---------------------------------------------------------------------
// Span validation: every node of a parsed program must carry a span that
// slices back to text representing exactly that node.
// ---------------------------------------------------------------------

fn check_expr_spans(p: &Program, expr: &Expr, src: &str) -> Result<(), String> {
    let text = expr.span.slice(src);
    match &expr.kind {
        ExprKind::Var(name) => {
            let name = p.name(*name);
            if text != name {
                return Err(format!("Var `{name}` span sliced `{text}`"));
            }
        }
        ExprKind::Num(n) => {
            let parsed: f64 = text
                .parse()
                .map_err(|e| format!("Num span sliced non-number `{text}`: {e}"))?;
            if parsed != *n {
                return Err(format!("Num {n} span sliced `{text}`"));
            }
        }
        ExprKind::Str(_) => {
            if !(text.starts_with('"') && text.ends_with('"') && text.len() >= 2) {
                return Err(format!("Str span sliced unquoted `{text}`"));
            }
        }
        // `true` from a desugared `for` carries the `for` keyword's span.
        ExprKind::Bool(b) => {
            if text != b.to_string() && text != "for" {
                return Err(format!("Bool {b} span sliced `{text}`"));
            }
        }
        ExprKind::Array(items) => {
            for item in items {
                check_expr_spans(p, item, src)?;
            }
        }
        ExprKind::Index(target, index) => {
            check_expr_spans(p, target, src)?;
            check_expr_spans(p, index, src)?;
        }
        ExprKind::Call { name, args } => {
            let name = p.name(*name);
            if !text.starts_with(name) {
                return Err(format!("Call `{name}` span sliced `{text}`"));
            }
            for arg in args {
                check_expr_spans(p, arg, src)?;
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            check_expr_spans(p, lhs, src)?;
            check_expr_spans(p, rhs, src)?;
        }
        ExprKind::Unary { expr, .. } => check_expr_spans(p, expr, src)?,
    }
    Ok(())
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
        | StmtKind::Return(Some(e)) => check_expr_spans(p, e, src),
        StmtKind::AssignIndex { index, value, .. } => {
            check_expr_spans(p, index, src)?;
            check_expr_spans(p, value, src)
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            check_expr_spans(p, cond, src)?;
            then_body
                .iter()
                .chain(else_body)
                .try_for_each(|s| check_stmt_spans(p, s, src))
        }
        StmtKind::While { cond, body } => {
            check_expr_spans(p, cond, src)?;
            body.iter().try_for_each(|s| check_stmt_spans(p, s, src))
        }
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => Ok(()),
    }
}

fn check_program_spans(program: &Program, src: &str) -> Result<(), String> {
    for func in &program.functions {
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
