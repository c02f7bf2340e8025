//! AST pretty-printer: renders a [`Program`] back to AuLang source.
//!
//! The printer produces canonical source that re-parses to the same AST
//! (round-trip property), which the test suite uses to validate the parser
//! against itself. It writes only the parentheses precedence and
//! associativity need, so `aulang fmt` output stays within the parser's
//! nesting limit whenever its input did.

use crate::ast::{BinOp, Expr, ExprKind, Function, Program, Stmt, StmtKind, UnOp};
use std::fmt::Write;

/// Renders a whole program as canonical AuLang source.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, func) in program.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_function(func, &mut out);
    }
    out
}

fn print_function(func: &Function, out: &mut String) {
    let _ = writeln!(out, "fn {}({}) {{", func.name, func.params.join(", "));
    for stmt in &func.body {
        print_stmt(stmt, 1, out);
    }
    out.push_str("}\n");
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_block(stmts: &[Stmt], level: usize, out: &mut String) {
    out.push_str("{\n");
    for stmt in stmts {
        print_stmt(stmt, level + 1, out);
    }
    indent(level, out);
    out.push('}');
}

/// The parts of a desugared `for`: an `if (true)` with no `else` whose
/// body is a `let` or `=` followed by a `while` whose body ends in an `=`.
/// Printing that shape back as `for (init; cond; post)` re-parses to the
/// same AST and keeps the condition and the post-step as shallow as in
/// the `for` it came from.
fn as_for(stmt: &Stmt) -> Option<(&Stmt, &Expr, &[Stmt], &Stmt)> {
    let StmtKind::If {
        cond,
        then_body,
        else_body,
    } = &stmt.kind
    else {
        return None;
    };
    let ([init, looped], ExprKind::Bool(true), true) =
        (then_body.as_slice(), &cond.kind, else_body.is_empty())
    else {
        return None;
    };
    let StmtKind::While { cond, body } = &looped.kind else {
        return None;
    };
    let (post, body) = body.split_last()?;
    let simple = |s: &Stmt| matches!(s.kind, StmtKind::Let { .. } | StmtKind::Assign { .. });
    (simple(init) && matches!(post.kind, StmtKind::Assign { .. }))
        .then_some((init, cond, body, post))
}

/// A `let` or `=` without its `;`, as a `for` header writes it.
fn print_simple(stmt: &Stmt) -> String {
    match &stmt.kind {
        StmtKind::Let { name, init } => format!("let {name} = {}", print_expr(init)),
        StmtKind::Assign { name, value } => format!("{name} = {}", print_expr(value)),
        _ => unreachable!("as_for admits only `let` and `=`"),
    }
}

fn print_stmt(stmt: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    if let Some((init, cond, body, post)) = as_for(stmt) {
        let _ = write!(
            out,
            "for ({}; {}; {}) ",
            print_simple(init),
            print_expr(cond),
            print_simple(post)
        );
        print_block(body, level, out);
        out.push('\n');
        return;
    }
    match &stmt.kind {
        StmtKind::Let { .. } | StmtKind::Assign { .. } => {
            let _ = writeln!(out, "{};", print_simple(stmt));
        }
        StmtKind::AssignIndex { name, index, value } => {
            let _ = writeln!(
                out,
                "{name}[{}] = {};",
                print_expr(index),
                print_expr(value)
            );
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = write!(out, "if ({}) ", print_expr(cond));
            print_block(then_body, level, out);
            if !else_body.is_empty() {
                out.push_str(" else ");
                // `else if` chains are parsed as a single-statement else
                // block; print them back flat.
                if else_body.len() == 1 && as_for(&else_body[0]).is_none() {
                    if let StmtKind::If { .. } = &else_body[0].kind {
                        let mut nested = String::new();
                        print_stmt(&else_body[0], 0, &mut nested);
                        out.push_str(nested.trim_start());
                        return;
                    }
                }
                print_block(else_body, level, out);
            }
            out.push('\n');
        }
        StmtKind::While { cond, body } => {
            let _ = write!(out, "while ({}) ", print_expr(cond));
            print_block(body, level, out);
            out.push('\n');
        }
        StmtKind::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", print_expr(e));
        }
        StmtKind::Return(None) => out.push_str("return;\n"),
        StmtKind::Break => out.push_str("break;\n"),
        StmtKind::Continue => out.push_str("continue;\n"),
        StmtKind::Expr(e) => {
            let _ = writeln!(out, "{};", print_expr(e));
        }
    }
}

fn bin_op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

/// How tightly an expression's outermost operator binds, following the
/// parser's grammar: `||` < `&&` < comparisons < `+ -` < `* / %` < unary
/// operators < postfix indexing and atoms.
fn precedence(expr: &Expr) -> u8 {
    match &expr.kind {
        ExprKind::Binary { op, .. } => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
        },
        ExprKind::Unary { .. } => 6,
        _ => 7,
    }
}

/// Renders one expression in canonical form: it re-parses to the
/// identical AST, with parentheses only around an operand that binds more
/// loosely than its position allows (`a - (b - c)`, `(a < b) == c`,
/// `-(a + b)`, `(-a)[0]`). Parentheses count toward the parser's nesting
/// limit, so this keeps an expression as shallow as any source it could
/// have been parsed from.
pub fn print_expr(expr: &Expr) -> String {
    print_operand(expr, 0)
}

/// Renders `expr` in a position that needs at least precedence `min`.
fn print_operand(expr: &Expr, min: u8) -> String {
    let text = match &expr.kind {
        ExprKind::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Str(s) => {
            // Only the escapes the lexer understands: \n, \t, \", \\.
            // Other characters pass through verbatim.
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    other => out.push(other),
                }
            }
            out.push('"');
            out
        }
        ExprKind::Var(name) => name.clone(),
        ExprKind::Array(items) => {
            let inner: Vec<String> = items.iter().map(print_expr).collect();
            format!("[{}]", inner.join(", "))
        }
        ExprKind::Index(target, index) => {
            format!("{}[{}]", print_operand(target, 7), print_expr(index))
        }
        ExprKind::Call { name, args } => {
            let inner: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", inner.join(", "))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            // Left-associative chains keep their left operand bare; a
            // comparison takes no comparison operand on either side.
            let own = precedence(expr);
            let lhs_min = if own == 3 { own + 1 } else { own };
            format!(
                "{} {} {}",
                print_operand(lhs, lhs_min),
                bin_op_str(*op),
                print_operand(rhs, own + 1)
            )
        }
        ExprKind::Unary { op, expr: inner } => {
            let sign = match op {
                UnOp::Neg => '-',
                UnOp::Not => '!',
            };
            format!("{sign}{}", print_operand(inner, 6))
        }
    };
    if precedence(expr) < min {
        format!("({text})")
    } else {
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(src: &str) {
        let ast = parse(src).unwrap();
        let printed = print_program(&ast);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("printed source must re-parse: {e}\n{printed}"));
        assert_eq!(ast, reparsed, "round-trip AST mismatch for:\n{printed}");
    }

    #[test]
    fn round_trips_basic_program() {
        round_trip("fn main() { let x = 1 + 2 * 3; return x; }");
    }

    #[test]
    fn round_trips_control_flow() {
        round_trip(
            "fn main() { let i = 0; while (i < 10) { if (i % 2 == 0) { i = i + 1; } else { break; } continue; } return i; }",
        );
    }

    #[test]
    fn round_trips_arrays_and_calls() {
        round_trip(
            r#"fn f(a, b) { return a[0] + b; } fn main() { let a = [1, 2, 3]; a[1] = f(a, 2); return len(a); }"#,
        );
    }

    #[test]
    fn round_trips_primitives() {
        round_trip(
            r#"fn main() { au_config("M", "DNN", "AdamOpt", 1, 8); au_extract("X", 1); au_nn("M", "X", "Y"); let y = au_write_back("Y"); return y; }"#,
        );
    }

    #[test]
    fn round_trips_strings_with_escapes() {
        round_trip(r#"fn main() { print("a\"b\\c\n"); return 0; }"#);
    }

    #[test]
    fn round_trips_unary_and_logic() {
        round_trip(
            "fn main() { let b = !(1 < 2) || true && false; if (b) { return -1; } return 0 - -2; }",
        );
    }

    #[test]
    fn round_trips_else_if_chain() {
        round_trip(
            "fn main() { let x = 3; if (x < 1) { return 1; } else if (x < 2) { return 2; } else { return 3; } }",
        );
        // A `for` alone in an `else` desugars to an `if`, but prints as a
        // `for` inside the block: `else for` would not parse.
        round_trip(
            "fn main() { let s = 0; if (s > 1) { s = 1; } else { for (let i = 0; i < 3; i = i + 1) { s = s + i; } } return s; }",
        );
    }

    #[test]
    fn canonical_form_is_stable() {
        // Printing the parse of a printed program yields the same text.
        let src = "fn main() { let x = (1 + 2) * 3; return x; }";
        let once = print_program(&parse(src).unwrap());
        let twice = print_program(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }
}
