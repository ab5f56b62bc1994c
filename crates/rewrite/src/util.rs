//! Plan-analysis utilities shared by the rules and passes.

use mix_algebra::{ChildSpec, Op};
use mix_common::Name;
use mix_xml::Step;
use std::collections::HashMap;

/// All children of an operator for rewriting purposes: the tuple
/// inputs plus, for `apply`, the nested plan (last).
pub fn children(op: &Op) -> Vec<&Op> {
    let mut c = op.inputs();
    if let Op::Apply { plan, .. } = op {
        c.push(plan);
    }
    c
}

/// The `n`-th child of `op` (in [`children`] order), for replacing a
/// subtree in place.
pub fn child_mut(op: &mut Op, n: usize) -> &mut Op {
    match (op, n) {
        (
            Op::MkSrcOver { input, .. }
            | Op::GetD { input, .. }
            | Op::Select { input, .. }
            | Op::Project { input, .. }
            | Op::CrElt { input, .. }
            | Op::Cat { input, .. }
            | Op::TupleDestroy { input, .. }
            | Op::GroupBy { input, .. }
            | Op::OrderBy { input, .. }
            | Op::Apply { input, .. },
            0,
        ) => input,
        (Op::Apply { plan, .. }, 1) => plan,
        (Op::Join { left, .. } | Op::SemiJoin { left, .. }, 0) => left,
        (Op::Join { right, .. } | Op::SemiJoin { right, .. }, 1) => right,
        (op, n) => panic!("{} has no child {n}", op.name()),
    }
}

/// Replace `slot` by `f` of its current value, moving the subtree
/// rather than copying it.
pub fn map_in_place(slot: &mut Op, f: impl FnOnce(Op) -> Op) {
    let old = std::mem::replace(slot, Op::Empty { vars: Vec::new() });
    *slot = f(old);
}

/// `op` with its `n`-th child (in [`children`] order) replaced by
/// `wrap` of it — the shape of every pushdown: the child moves, it is
/// not copied.
pub fn wrap_child(mut op: Op, n: usize, wrap: impl FnOnce(Op) -> Op) -> Op {
    map_in_place(child_mut(&mut op, n), wrap);
    op
}

/// Variables *bound* (introduced) anywhere in the subtree, including
/// nested plans.
pub fn bound_vars(op: &Op) -> Vec<Name> {
    let mut out = Vec::new();
    collect_bound(op, &mut out);
    out
}

fn collect_bound(op: &Op, out: &mut Vec<Name>) {
    match op {
        Op::MkSrc { var, .. } | Op::MkSrcOver { var, .. } => out.push(var.clone()),
        Op::GetD { to, .. } => out.push(to.clone()),
        Op::CrElt { out: o, .. }
        | Op::Cat { out: o, .. }
        | Op::GroupBy { out: o, .. }
        | Op::Apply { out: o, .. } => out.push(o.clone()),
        Op::RelQuery { map, .. } => out.extend(map.iter().map(|b| b.var.clone())),
        Op::Empty { vars } => out.extend(vars.iter().cloned()),
        _ => {}
    }
    for c in children(op) {
        collect_bound(c, out);
    }
}

/// Variables the operator itself *references* (reads), not counting
/// what its subtree binds.
pub fn referenced_vars(op: &Op) -> Vec<Name> {
    match op {
        Op::GetD { from, .. } => vec![from.clone()],
        Op::Select { cond, .. } => cond.vars(),
        Op::Project { vars, .. } => vars.clone(),
        Op::Join { cond, .. } | Op::SemiJoin { cond, .. } => {
            cond.as_ref().map(|c| c.vars()).unwrap_or_default()
        }
        Op::CrElt {
            group, children, ..
        } => {
            let mut v = group.clone();
            v.push(children.var().clone());
            v
        }
        Op::Cat { left, right, .. } => vec![left.var().clone(), right.var().clone()],
        Op::TupleDestroy { var, .. } => vec![var.clone()],
        Op::GroupBy { group, .. } => group.clone(),
        Op::Apply { param, .. } => param.iter().cloned().collect(),
        Op::OrderBy { vars, .. } => vars.clone(),
        Op::NestedSrc { var } => vec![var.clone()],
        _ => vec![],
    }
}

/// How many times each variable is *referenced* in the plan (binding
/// occurrences not counted). Used e.g. by the getD-chain merge, which
/// may only drop an intermediate variable nothing else reads.
pub fn use_counts(op: &Op) -> HashMap<Name, usize> {
    let mut m = HashMap::new();
    fn walk(op: &Op, m: &mut HashMap<Name, usize>) {
        for v in referenced_vars(op) {
            *m.entry(v).or_insert(0) += 1;
        }
        for c in children(op) {
            walk(c, m);
        }
    }
    walk(op, &mut m);
    m
}

/// What we can statically say about the node a variable is bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelGuess {
    /// An element with exactly this label.
    Known(Name),
    /// A list value (virtual label `list`).
    List,
    /// A text leaf.
    Leaf,
    Unknown,
}

/// Find the operator that binds `var` within `op`'s subtree (including
/// nested plans).
pub fn find_producer<'a>(op: &'a Op, var: &Name) -> Option<&'a Op> {
    let binds = match op {
        Op::MkSrc { var: v, .. } | Op::MkSrcOver { var: v, .. } => v == var,
        Op::GetD { to, .. } => to == var,
        Op::CrElt { out, .. }
        | Op::Cat { out, .. }
        | Op::GroupBy { out, .. }
        | Op::Apply { out, .. } => out == var,
        Op::RelQuery { map, .. } => map.iter().any(|b| &b.var == var),
        _ => false,
    };
    if binds {
        return Some(op);
    }
    children(op).into_iter().find_map(|c| find_producer(c, var))
}

/// Guess the label of the node `var` is bound to, by inspecting its
/// producer inside `scope`.
pub fn var_label(scope: &Op, var: &Name) -> LabelGuess {
    let Some(p) = find_producer(scope, var) else {
        return LabelGuess::Unknown;
    };
    match p {
        Op::CrElt { label, .. } => LabelGuess::Known(label.clone()),
        Op::Cat { .. } | Op::Apply { .. } => LabelGuess::List,
        Op::GetD { path, .. } => match path.steps().last() {
            Some(Step::Label(l)) => LabelGuess::Known(l.clone()),
            Some(Step::Data) => LabelGuess::Leaf,
            _ => LabelGuess::Unknown,
        },
        Op::RelQuery { map, .. } => map
            .iter()
            .find(|b| &b.var == var)
            .map(|b| match &b.kind {
                mix_algebra::RqKind::Element { element, .. }
                | mix_algebra::RqKind::FieldElement { element, .. } => {
                    LabelGuess::Known(element.clone())
                }
                mix_algebra::RqKind::Value { .. } => LabelGuess::Leaf,
            })
            .unwrap_or(LabelGuess::Unknown),
        _ => LabelGuess::Unknown,
    }
}

/// Guess the label of the *elements* of the list `var` is bound to.
pub fn list_elem_label(scope: &Op, var: &Name) -> LabelGuess {
    let Some(p) = find_producer(scope, var) else {
        return LabelGuess::Unknown;
    };
    match p {
        Op::Cat {
            left, right, input, ..
        } => {
            let l = cat_arg_elem_label(input, left);
            let r = cat_arg_elem_label(input, right);
            if l == r {
                l
            } else {
                LabelGuess::Unknown
            }
        }
        Op::Apply { input, plan, .. } => {
            // Elements are the nested tD variable's values; that
            // variable is bound below the apply (through the group
            // partition).
            if let Op::TupleDestroy { var: u, .. } = &**plan {
                var_label(input, u)
            } else {
                LabelGuess::Unknown
            }
        }
        _ => LabelGuess::Unknown,
    }
}

fn cat_arg_elem_label(scope: &Op, arg: &ChildSpec) -> LabelGuess {
    match arg {
        ChildSpec::Single(v) => var_label(scope, v),
        ChildSpec::ListVar(v) => list_elem_label(scope, v),
    }
}

/// Can a path step match a node with this label guess?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Match3 {
    Yes,
    No,
    Maybe,
}

/// Static match test of a step against a label guess.
pub fn step_matches_guess(step: &Step, guess: &LabelGuess) -> Match3 {
    match (step, guess) {
        (Step::Label(l), LabelGuess::Known(k)) => {
            if l == k {
                Match3::Yes
            } else {
                Match3::No
            }
        }
        (Step::Label(l), LabelGuess::List) => {
            if l.as_str() == "list" {
                Match3::Yes
            } else {
                Match3::No
            }
        }
        (Step::Label(_), LabelGuess::Leaf) => Match3::No,
        (Step::Wild, LabelGuess::Leaf) => Match3::No,
        (Step::Wild, LabelGuess::Unknown) => Match3::Maybe,
        (Step::Wild, _) => Match3::Yes,
        (Step::Data, LabelGuess::Leaf) => Match3::Yes,
        (Step::Data, LabelGuess::Unknown) => Match3::Maybe,
        (Step::Data, _) => Match3::No,
        (_, LabelGuess::Unknown) => Match3::Maybe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_algebra::translate;
    use mix_xquery::parse_query;

    const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

    fn q1_body() -> Op {
        let plan = translate(&parse_query(Q1).unwrap()).unwrap();
        match plan.root {
            Op::TupleDestroy { input, .. } => *input,
            _ => unreachable!(),
        }
    }

    #[test]
    fn children_and_child_mut_agree() {
        let body = q1_body();
        let kids = children(&body);
        assert!(!kids.is_empty());
        let mut copy = body.clone();
        for (i, k) in kids.iter().enumerate() {
            assert_eq!(child_mut(&mut copy, i), *k);
        }
        let rebuilt = wrap_child(body.clone(), 0, |k| k);
        assert_eq!(rebuilt, body);
    }

    #[test]
    fn bound_and_use_counts() {
        let body = q1_body();
        let bound = bound_vars(&body);
        for v in ["C", "O", "K", "J", "1", "2", "P", "W", "X", "Z", "V"] {
            assert!(bound.contains(&Name::new(v)), "missing {v} in {bound:?}");
        }
        let uses = use_counts(&body);
        // $C is used by: getD (condition path), gBy group list, crElt
        // skolem args, cat argument.
        assert!(uses[&Name::new("C")] >= 3);
        // $1 and $2 are used only by the join condition.
        assert_eq!(uses[&Name::new("1")], 1);
    }

    #[test]
    fn label_guesses() {
        let body = q1_body();
        assert_eq!(
            var_label(&body, &Name::new("V")),
            LabelGuess::Known(Name::new("CustRec"))
        );
        assert_eq!(
            var_label(&body, &Name::new("P")),
            LabelGuess::Known(Name::new("OrderInfo"))
        );
        assert_eq!(var_label(&body, &Name::new("W")), LabelGuess::List);
        assert_eq!(var_label(&body, &Name::new("1")), LabelGuess::Leaf);
        assert_eq!(
            var_label(&body, &Name::new("C")),
            LabelGuess::Known(Name::new("customer"))
        );
        // $Z collects OrderInfo elements via apply.
        assert_eq!(
            list_elem_label(&body, &Name::new("Z")),
            LabelGuess::Known(Name::new("OrderInfo"))
        );
        // $W = cat(list($C), $Z): customer vs OrderInfo → unknown.
        assert_eq!(list_elem_label(&body, &Name::new("W")), LabelGuess::Unknown);
    }

    #[test]
    fn step_match_logic() {
        use Match3::*;
        let l = |s: &str| Step::Label(Name::new(s));
        assert_eq!(
            step_matches_guess(&l("a"), &LabelGuess::Known(Name::new("a"))),
            Yes
        );
        assert_eq!(
            step_matches_guess(&l("a"), &LabelGuess::Known(Name::new("b"))),
            No
        );
        assert_eq!(step_matches_guess(&l("list"), &LabelGuess::List), Yes);
        assert_eq!(step_matches_guess(&l("x"), &LabelGuess::List), No);
        assert_eq!(step_matches_guess(&Step::Data, &LabelGuess::Leaf), Yes);
        assert_eq!(
            step_matches_guess(&Step::Wild, &LabelGuess::Known(Name::new("a"))),
            Yes
        );
        assert_eq!(step_matches_guess(&l("a"), &LabelGuess::Unknown), Maybe);
    }
}
