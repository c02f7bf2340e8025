//! AuLang — a small imperative language with the Autonomizer primitives.
//!
//! The paper autonomizes C/C++ programs by adding `au_*` library calls and
//! collecting dynamic dependence facts with Valgrind. This crate packages
//! both roles for the reproduction:
//!
//! - a lexer/parser/interpreter for **AuLang**, an expression-oriented
//!   imperative language whose programs look like the paper's Fig. 2/Fig. 11
//!   snippets, with the seven primitives available as built-in calls;
//! - **automatic dynamic-dependence instrumentation**: every executed
//!   assignment records def/use edges, runtime values, and enclosing
//!   functions into an [`au_trace::AnalysisDb`] — this is the repo's
//!   Valgrind. Feature extraction (Algorithms 1–2) then runs on the recorded
//!   facts with zero extra effort from the programmer.
//!
//! Checkpoint/restore follows the paper's intent: `au_checkpoint()`
//! snapshots all program variables together with the database store π, and
//! `au_restore()` reinstates them (models keep learning across restores).
//! Control flow continues after the restoring statement, which is equivalent
//! to the paper's usage where the checkpoint sits at the top of the main
//! loop.
//!
//! # Example
//!
//! ```
//! use au_lang::Interpreter;
//!
//! let src = r#"
//!     fn main() {
//!         let x = input("x", 3);
//!         let y = x * 2;
//!         au_extract("Y", y);
//!         let z = 0;
//!         z = au_write_back("Y");
//!         return z;
//!     }
//! "#;
//! let mut interp = Interpreter::compile(src)?;
//! let result = interp.run()?;
//! assert_eq!(result.as_num(), Some(6.0));
//! # Ok::<(), au_lang::LangError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
mod ast;
mod bytecode;
mod compile;
pub mod corpus;
mod interp;
mod lexer;
mod parser;
pub mod pretty;
pub mod static_analysis;
mod value;
mod vm;

pub use ast::{
    for_each_expr, for_each_stmt, for_each_subexpr, BinOp, Expr, ExprId, ExprKind, ExprList,
    Function, Program, ProgramBuilder, Span, Stmt, StmtKind, StrId, Sym, Symbols, UnOp,
};
pub use bytecode::{CompiledProgram, TraceMode};
pub use compile::{compile_program, compile_program_opt};
pub use interp::{Interpreter, RunStats};
pub use lexer::{string_value, Lexer, Token, TokenKind};
pub use parser::{parse, MAX_NESTING};
pub use value::Value;
pub use vm::Vm;

use std::error::Error;
use std::fmt;

/// Errors from compiling or running AuLang programs.
#[derive(Debug)]
pub enum LangError {
    /// Lexical error with 1-based line number.
    Lex {
        /// Line the error occurred on.
        line: usize,
        /// Description.
        message: String,
    },
    /// Parse error with 1-based line number.
    Parse {
        /// Line the error occurred on.
        line: usize,
        /// Description.
        message: String,
    },
    /// Runtime error (undefined variable, type mismatch, …).
    Runtime(String),
    /// An error surfaced by the Autonomizer engine.
    Engine(au_core::AuError),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { line, message } => write!(f, "lex error at line {line}: {message}"),
            LangError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            LangError::Runtime(message) => write!(f, "runtime error: {message}"),
            LangError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl Error for LangError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LangError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<au_core::AuError> for LangError {
    fn from(e: au_core::AuError) -> Self {
        LangError::Engine(e)
    }
}
