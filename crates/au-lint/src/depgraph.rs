//! Dependence lints: AU007/AU008 on the static program-dependence graph.
//!
//! These lints reuse [`au_lang::static_analysis::analyze`] — the same
//! over-approximated PDG that feeds the `static_vs_dynamic` ablation — and
//! augment it with **π-list pseudo-variables**: each engine-store list `E`
//! becomes a graph node `π:E`, with edges from the variables an
//! `au_extract("E", …)` reads, between the feature and write-back lists of
//! a prediction, and from a consumed list to the variable an
//! `au_write_back`/`au_serialize` result is assigned to. The augmentation
//! makes dataflow *through the engine* visible to the graph, so a feature
//! that genuinely feeds a prediction whose result reaches a target is never
//! flagged.
//!
//! Because the static graph over-approximates the dynamic one, "no static
//! relation" implies "no dynamic relation": these warnings are conservative
//! in the sound direction.

use crate::sites::Sites;
use crate::{RawDiag, Severity};
use au_lang::{static_analysis, Span};
use au_trace::AnalysisDb;
use std::collections::{BTreeMap, BTreeSet};

/// Name of the pseudo-variable for engine-store list `list`.
fn pi(list: &str) -> String {
    format!("\u{3c0}:{list}")
}

/// Runs AU007/AU008 over the program behind `sites`.
pub(crate) fn lints(sites: &Sites) -> Vec<RawDiag> {
    let mut db = static_analysis::analyze(sites.program);
    let produced = add_pi_edges(sites, &mut db);
    let features = sites.features(true);

    let mut diags = Vec::new();

    // Targets usable for relatedness checks: exclude any target fed by a
    // write-back key no extraction or prediction produces — that program
    // already gets AU003, and warning that features are "unrelated" to a
    // broken target would be cascade noise.
    let usable_targets: Vec<(&str, Span)> = sites
        .stores
        .iter()
        .filter(|t| t.keys.iter().all(|k| produced.contains(k)))
        .filter_map(|t| db.id(t.var).map(|_| (t.var, t.span)))
        .collect();

    // AU007: an extracted feature variable with no static dependence
    // relation to any target can never influence a prediction outcome.
    if !usable_targets.is_empty() {
        let target_deps: Vec<(&str, BTreeSet<au_trace::VarId>)> = usable_targets
            .iter()
            .map(|(name, _)| (*name, db.dependents(db.id(name).unwrap())))
            .collect();
        for (feat, span) in &features {
            let Some(w) = db.id(feat) else { continue };
            if usable_targets.iter().any(|(t, _)| t == feat) {
                continue;
            }
            let dep_w = db.dependents(w);
            let related = target_deps.iter().any(|(t_name, dep_v)| {
                let v = db.id(t_name).unwrap();
                dep_w.contains(&v) || dep_v.contains(&w) || !dep_w.is_disjoint(dep_v)
            });
            if !related {
                diags.push(RawDiag {
                    code: "AU007",
                    severity: Severity::Warning,
                    span: *span,
                    message: format!(
                        "extracted feature `{feat}` has no static dependence \
                         relation to any write-back target — it cannot influence \
                         a prediction outcome"
                    ),
                });
            }
        }
    }

    // AU008: a write-back target unrelated to every program input predicts
    // from features that cannot vary with the program's inputs.
    let inputs: Vec<au_trace::VarId> = db.inputs().iter().copied().collect();
    if !inputs.is_empty() {
        let input_deps: Vec<BTreeSet<au_trace::VarId>> =
            inputs.iter().map(|&i| db.dependents(i)).collect();
        for (t_name, span) in &usable_targets {
            let v = db.id(t_name).unwrap();
            let dep_v = db.dependents(v);
            let related = inputs.iter().zip(&input_deps).any(|(&i, dep_i)| {
                dep_i.contains(&v) || dep_v.contains(&i) || !dep_i.is_disjoint(&dep_v)
            });
            if !related {
                diags.push(RawDiag {
                    code: "AU008",
                    severity: Severity::Warning,
                    span: *span,
                    message: format!(
                        "write-back target `{t_name}` has no static dependence \
                         relation to any program input — the prediction cannot \
                         react to the program's inputs"
                    ),
                });
            }
        }
    }

    diags
}

/// Adds the π-list edges to `db`: from the variables an extraction reads
/// to its list, from a prediction's feature list to its write-back lists,
/// and from the lists a store reads to its variable. Returns the lists
/// produced somewhere (extractions and prediction write-backs).
fn add_pi_edges<'p>(sites: &Sites<'p>, db: &mut AnalysisDb) -> BTreeSet<&'p str> {
    let mut produced = BTreeSet::new();
    // List name → variables read by its extraction expressions.
    let mut extract_srcs: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    // (feature list, write-back lists) per prediction.
    let mut pred_edges: Vec<(&str, Vec<&str>)> = Vec::new();
    for c in &sites.calls {
        match c.name {
            "au_extract" => {
                if let Some(list) = c.str_arg(0) {
                    produced.insert(list);
                    let srcs = extract_srcs.entry(list).or_default();
                    srcs.extend(c.features.iter().map(|&(var, _)| var));
                }
            }
            "au_nn" | "au_nn_rl" => {
                if let Some(ext) = c.str_arg(1) {
                    let wbs: Vec<&str> = if c.name == "au_nn" {
                        c.str_args_from(2).collect()
                    } else {
                        c.str_arg(4).into_iter().collect()
                    };
                    produced.extend(&wbs);
                    pred_edges.push((ext, wbs));
                }
            }
            _ => {}
        }
    }
    for (list, srcs) in &extract_srcs {
        for src in srcs {
            db.record_edge(src, &pi(list));
        }
    }
    for (ext, wbs) in &pred_edges {
        for wb in wbs {
            db.record_edge(&pi(ext), &pi(wb));
        }
    }
    for store in &sites.stores {
        for key in &store.keys {
            db.record_edge(&pi(key), store.var);
        }
    }
    produced
}

/// AU007/AU008 on a program of their own, for the tests below.
#[cfg(test)]
fn dependence_lints(program: &au_lang::Program) -> Vec<RawDiag> {
    lints(&Sites::scan(program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_lang::parse;

    fn codes(src: &str) -> Vec<String> {
        let program = parse(src).unwrap();
        let mut diags = dependence_lints(&program);
        diags.sort_by_key(|d| (d.span.start, d.code));
        diags.into_iter().map(|d| d.code.to_owned()).collect()
    }

    #[test]
    fn feature_feeding_a_prediction_is_related_via_pi() {
        let src = r#"
fn main() {
    au_config("M", "DNN", "AdamOpt", 1, 8);
    let x = input("x", 1);
    au_extract("F", x);
    au_extract("Y", x * 2);
    au_nn("M", "F", "Y");
    let t = 0;
    t = au_write_back("Y");
    return t;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn unrelated_feature_fires_au007() {
        let src = r#"
fn main() {
    au_config("M", "DNN", "AdamOpt", 1, 8);
    au_config("M2", "DNN", "AdamOpt", 1, 8);
    let x = input("x", 1);
    let junk = 5;
    au_extract("F", x);
    au_extract("G", junk);
    au_extract("Y", x * 2);
    au_extract("Z", x * 3);
    au_nn("M", "F", "Y");
    au_nn("M2", "G", "Z");
    let t = 0;
    t = au_write_back("Y");
    return t;
}
"#;
        assert_eq!(codes(src), vec!["AU007"]);
    }

    #[test]
    fn input_independent_target_fires_au008() {
        let src = r#"
fn main() {
    au_config("M", "DNN", "AdamOpt", 1, 8);
    let u = input("u", 1);
    let w = 3;
    au_extract("F", w);
    au_extract("Y", w * 2);
    au_nn("M", "F", "Y");
    let t = 0;
    t = au_write_back("Y");
    return t + u;
}
"#;
        assert_eq!(codes(src), vec!["AU008"]);
    }

    #[test]
    fn unknown_write_back_key_suppresses_cascade() {
        // `t` reads a key nothing produces: AU003 territory. Without
        // suppression every feature would also trip AU007.
        let src = r#"
fn main() {
    au_config("M", "DNN", "AdamOpt", 1, 8);
    let x = input("x", 1);
    au_extract("F", x);
    au_extract("Y", x * 2);
    au_nn("M", "F", "Y");
    let t = 0;
    t = au_write_back("Z");
    return t;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn serialize_links_lists_to_their_blob() {
        let src = r#"
fn main() {
    let x = input("x", 1);
    au_extract("F", x);
    let blob = au_serialize("F");
    return blob;
}
"#;
        // No targets at all: AU007/AU008 have nothing to check.
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn no_inputs_means_no_au008() {
        let src = r#"
fn main() {
    au_config("M", "DNN", "AdamOpt", 1, 8);
    let w = 3;
    au_extract("F", w);
    au_extract("Y", w * 2);
    au_nn("M", "F", "Y");
    let t = 0;
    t = au_write_back("Y");
    return t;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }
}
