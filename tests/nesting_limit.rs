//! The parser's nesting limit: every shape of nesting is accepted up to
//! `MAX_NESTING` levels, and a program at the limit goes through every
//! pass after the parser (lint, the interpreter, the VM in each trace
//! mode) on a default-sized test thread and pretty-prints to source that
//! parses back to the same program. One level deeper is a parse error,
//! not a stack overflow.

use autonomizer::lang::{parse, pretty, Interpreter, LangError, TraceMode, Value, Vm, MAX_NESTING};

/// One shape of nesting: `build(d)` is a program whose deepest point
/// sits exactly `d` levels deep.
struct Shape {
    name: &'static str,
    build: fn(usize) -> String,
    /// What `main` returns at any depth.
    result: f64,
}

fn shapes() -> Vec<Shape> {
    vec![
        // Body block, `return` expression, then one level per paren.
        Shape {
            name: "parens",
            build: |d| {
                let k = d - 2;
                format!(
                    "fn main() {{ return {}1{}; }}",
                    "(".repeat(k),
                    ")".repeat(k)
                )
            },
            result: 1.0,
        },
        // One operator per level: the chain's tree is as deep as it is long.
        Shape {
            name: "binary chain",
            build: |d| format!("fn main() {{ return 0{}; }}", " + 0".repeat(d - 2)),
            result: 0.0,
        },
        Shape {
            name: "unary chain",
            build: |d| format!("fn main() {{ return {}0; }}", "- ".repeat(d - 2)),
            result: 0.0,
        },
        // Each array item is an expression of its own; the k-th `[0]` of
        // the chain opens a level and its index expression one more.
        Shape {
            name: "arrays and indexes",
            build: |d| {
                let k = d - 3;
                format!(
                    "fn main() {{ return {}1{}{}; }}",
                    "[".repeat(k),
                    "]".repeat(k),
                    "[0]".repeat(k)
                )
            },
            result: 1.0,
        },
        // Each call argument is an expression of its own.
        Shape {
            name: "call arguments",
            build: |d| {
                let k = d - 2;
                format!(
                    "fn id(x) {{ return x; }}\nfn main() {{ return {}1{}; }}",
                    "id(".repeat(k),
                    ")".repeat(k)
                )
            },
            result: 1.0,
        },
        // Body block, then one block per `if`; the innermost `x = x + 1`
        // adds its expression and its operator.
        Shape {
            name: "nested ifs",
            build: |d| {
                let k = d - 3;
                format!(
                    "fn main() {{\nlet x = 0;\n{}x = x + 1;\n{}return x;\n}}",
                    "if (x < 1) {\n".repeat(k),
                    "}\n".repeat(k)
                )
            },
            result: 1.0,
        },
        // Two levels per `for`; the innermost statement's operators make
        // up an odd depth.
        Shape {
            name: "nested for loops",
            build: |d| {
                let k = (d - 3) / 2;
                let mut src = String::from("fn main() {\nlet s = 0;\n");
                for i in 0..k {
                    src += &format!("for (let i{i} = 0; i{i} < 1; i{i} = i{i} + 1) {{\n");
                }
                src += if (d - 3) % 2 == 0 {
                    "s = s + 1;\n"
                } else {
                    "s = s + 1 + 0;\n"
                };
                src += &"}\n".repeat(k);
                src += "return s;\n}";
                src
            },
            result: 1.0,
        },
        // A `for` inside nested `if`s: its body block and its post-step's
        // two operators each reach three levels past the `for`.
        Shape {
            name: "for inside ifs",
            build: |d| {
                let k = d - 4;
                format!(
                    "fn main() {{\nlet x = 0;\n{}for (let i = 0; i < 1; i = i + 1 + 0) {{ x = 1; }}\n{}return x;\n}}",
                    "if (x < 1) {\n".repeat(k),
                    "}\n".repeat(k)
                )
            },
            result: 1.0,
        },
        // Body block, the `if`'s condition and its comparison, then one
        // level per `else if`.
        Shape {
            name: "else-if chain",
            build: |d| {
                let mut src = String::from("fn main() {\nlet x = 0;\nif (x == 1) { x = 1; }");
                for i in 0..d - 3 {
                    src += &format!(" else if (x == {}) {{ x = 1; }}", i + 2);
                }
                src += " else { x = 2; }\nreturn x;\n}";
                src
            },
            result: 2.0,
        },
    ]
}

/// Runs `src` on the interpreter (traced and untraced) and on the VM in
/// every trace mode; all must agree with `want`, and the fully traced VM's
/// dependence graph with the interpreter's.
fn run_everywhere(name: &str, src: &str, want: f64) {
    let mut results = Vec::new();
    let mut interp_dot = String::new();
    for tracing in [false, true] {
        let mut interp = Interpreter::compile(src).expect("at-limit program parses");
        interp.set_tracing(tracing);
        results.push((format!("interp tracing={tracing}"), interp.run()));
        if tracing {
            interp_dot = interp.analysis().to_dot();
        }
    }
    for mode in [TraceMode::Off, TraceMode::Full, TraceMode::Selective] {
        let mut vm = Vm::compile(src, mode).expect("at-limit program compiles");
        results.push((format!("vm {mode:?}"), vm.run()));
        if mode == TraceMode::Full {
            assert_eq!(vm.analysis().to_dot(), interp_dot, "[{name}] Full-trace db");
        }
    }
    for (engine, result) in results {
        match result {
            Ok(Value::Num(n)) => assert_eq!(n, want, "[{name}] {engine}"),
            other => panic!("[{name}] {engine}: {other:?}"),
        }
    }
}

#[test]
fn programs_at_the_limit_run_through_every_pass() {
    for shape in shapes() {
        let src = (shape.build)(MAX_NESTING);
        parse(&src).unwrap_or_else(|e| panic!("[{}] {e}", shape.name));
        autonomizer::lint::lint_source(&src).expect("lint parses what parse accepts");
        run_everywhere(shape.name, &src, shape.result);
    }
}

#[test]
fn programs_at_the_limit_print_to_source_that_parses_back() {
    for shape in shapes() {
        let program = parse(&(shape.build)(MAX_NESTING)).expect("at-limit program parses");
        let printed = pretty::print_program(&program);
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("[{}] {e}\n{printed}", shape.name));
        assert_eq!(reparsed, program, "[{}] printed:\n{printed}", shape.name);
    }
}

#[test]
fn one_level_deeper_is_a_parse_error() {
    for shape in shapes() {
        match parse(&(shape.build)(MAX_NESTING + 1)) {
            Err(LangError::Parse { message, .. }) => assert!(
                message.contains("nesting deeper than 64 levels"),
                "[{}] {message}",
                shape.name
            ),
            other => panic!("[{}] want a nesting error, got {other:?}", shape.name),
        }
    }
}

#[test]
fn far_too_deep_source_is_rejected_without_overflow() {
    let src = format!(
        "fn main() {{ return {}1{}; }}",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    assert!(matches!(parse(&src), Err(LangError::Parse { .. })));
}
