//! The site table: every instrumentation site the lints match against,
//! gathered in one walk of the program.
//!
//! The whole-program protocol lints (AU003, AU006, AU009), the dependence
//! lints (AU007, AU008) and the value lints (AU011–AU013) all read the
//! same `au_*` call sites; [`Sites::scan`] records them once, in source
//! order, so each lint is a loop over the table rather than a walk of its
//! own. The flow-sensitive protocol walk (`protocol.rs`) follows control
//! flow instead, and the value facts come from `au_lang::absint`.

use au_lang::{for_each_stmt, for_each_subexpr, ExprId, ExprKind, Program, Span, StmtKind};
use std::collections::BTreeMap;

/// The string literal at `args[i]`, if it is one.
pub(crate) fn str_arg<'p>(program: &'p Program, args: &[ExprId], i: usize) -> Option<&'p str> {
    match args.get(i).map(|&a| program.expr(a).kind) {
        Some(ExprKind::Str(s)) => Some(program.str(s)),
        _ => None,
    }
}

/// One call to an `au_*` primitive.
pub(crate) struct Call<'p> {
    program: &'p Program,
    pub name: &'p str,
    pub args: &'p [ExprId],
    pub span: Span,
    /// For `au_extract`: each variable its values read, with the span of
    /// its first occurrence in this call.
    pub features: Vec<(&'p str, Span)>,
}

impl<'p> Call<'p> {
    fn new(program: &'p Program, name: &'p str, args: &'p [ExprId], span: Span) -> Self {
        let mut features: Vec<(&str, Span)> = Vec::new();
        if name == "au_extract" {
            for &arg in args.iter().skip(1) {
                for_each_subexpr(program, arg, &mut |e| {
                    if let ExprKind::Var(var) = e.kind {
                        let var = program.name(var);
                        if features.iter().all(|&(seen, _)| seen != var) {
                            features.push((var, e.span));
                        }
                    }
                });
            }
        }
        Call {
            program,
            name,
            args,
            span,
            features,
        }
    }

    /// The string literal at argument `i`, if it is one.
    pub fn str_arg(&self, i: usize) -> Option<&'p str> {
        str_arg(self.program, self.args, i)
    }

    /// The string literals from argument `from` on.
    pub fn str_args_from(&self, from: usize) -> impl Iterator<Item = &'p str> + '_ {
        (from..self.args.len()).filter_map(|i| self.str_arg(i))
    }

    /// The engine-store lists whose contents this call's value carries.
    fn store_reads(&self) -> Vec<&'p str> {
        match self.name {
            "au_write_back" | "au_write_back_n" => self.str_arg(0).into_iter().collect(),
            "au_nn_rl" => self.str_arg(4).into_iter().collect(),
            "au_serialize" => self.str_args_from(0).collect(),
            _ => Vec::new(),
        }
    }
}

/// A `let`/`=` statement whose value reads π, the engine's list store.
pub(crate) struct Store<'p> {
    /// The assigned variable.
    pub var: &'p str,
    /// The whole statement.
    pub span: Span,
    /// The lists it reads, in evaluation order.
    pub keys: Vec<&'p str>,
}

/// Every primitive site of one program.
pub(crate) struct Sites<'p> {
    pub program: &'p Program,
    /// Every `au_*` call in source order, each before the calls nested in
    /// its arguments.
    pub calls: Vec<Call<'p>>,
    pub stores: Vec<Store<'p>>,
}

impl<'p> Sites<'p> {
    /// Builds the table in one walk over every function, called or not.
    pub fn scan(program: &'p Program) -> Self {
        let mut calls = Vec::new();
        let mut stores = Vec::new();
        for func in program.functions() {
            for_each_stmt(&func.body, &mut |stmt| {
                let first = calls.len();
                for e in stmt.exprs() {
                    for_each_subexpr(program, e, &mut |e| {
                        if let ExprKind::Call { name, args } = e.kind {
                            let name = program.name(name);
                            if name.starts_with("au_") {
                                let args = program.list(args);
                                calls.push(Call::new(program, name, args, e.span));
                            }
                        }
                    });
                }
                if let StmtKind::Let { name, .. } | StmtKind::Assign { name, .. } = &stmt.kind {
                    let keys: Vec<&str> =
                        calls[first..].iter().flat_map(Call::store_reads).collect();
                    if !keys.is_empty() {
                        stores.push(Store {
                            var: program.name(*name),
                            span: stmt.span,
                            keys,
                        });
                    }
                }
            });
        }
        Sites {
            program,
            calls,
            stores,
        }
    }

    /// The calls to primitive `name`.
    pub fn calls_to<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Call<'p>> {
        self.calls.iter().filter(move |c| c.name == name)
    }

    /// Each feature variable with the span of its first occurrence in an
    /// `au_extract`; with `named_only`, only extractions whose list name
    /// is a string literal count.
    pub fn features(&self, named_only: bool) -> BTreeMap<&'p str, Span> {
        let mut out = BTreeMap::new();
        for c in self.calls_to("au_extract") {
            if named_only && c.str_arg(0).is_none() {
                continue;
            }
            for &(var, span) in &c.features {
                out.entry(var).or_insert(span);
            }
        }
        out
    }
}
