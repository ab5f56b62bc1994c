//! The local rewrite rules (Table 2).
//!
//! Each rule matches a small operator pattern and returns the rewritten
//! subtree, possibly with *global* variable renamings (aliasing rules 2
//! and 11 merge two variables; the driver applies the renaming to the
//! whole plan). Rule numbering follows DESIGN.md's reconstruction of
//! the paper's Table 2.

use crate::util::{
    bound_vars, list_elem_label, step_matches_guess, use_counts, var_label, wrap_child, Match3,
};
use mix_algebra::plan::{all_vars, fresh_var, rename_var};
use mix_algebra::{ChildSpec, Cond, Op, Side};
use mix_common::Name;
use mix_xml::Step;
use std::cell::OnceCell;
use std::collections::HashMap;

/// Context the rules may consult: the whole plan the matched subtree
/// belongs to. What the rules read of it (variable reference counts,
/// the names in use) is derived only when a rule reaches the check
/// that reads it, and at most once per context.
pub struct RuleCtx<'a> {
    root: &'a Op,
    enabled: Enabled<'a>,
    use_counts: OnceCell<HashMap<Name, usize>>,
    all_vars: OnceCell<Vec<Name>>,
}

/// Which rules may fire.
enum Enabled<'a> {
    /// All but these (ablation experiments disable rules by name).
    AllBut(&'a [&'a str]),
    /// Only this one (replaying a recorded step).
    Only(&'a str),
}

impl<'a> RuleCtx<'a> {
    /// A context over the whole plan `root`, with the named rules
    /// disabled.
    pub fn new(root: &'a Op, disabled: &'a [&'a str]) -> RuleCtx<'a> {
        RuleCtx::with(root, Enabled::AllBut(disabled))
    }

    /// A context over the whole plan `root` in which only `rule` may
    /// fire. Rules are pure functions of the subtree and the whole
    /// plan, so at a recorded step's place this reproduces the step:
    /// the rules tried before it either did not match there or were
    /// disabled, and a rule of the same name tried before it would
    /// have fired instead.
    pub(crate) fn only(root: &'a Op, rule: &'a str) -> RuleCtx<'a> {
        RuleCtx::with(root, Enabled::Only(rule))
    }

    fn with(root: &'a Op, enabled: Enabled<'a>) -> RuleCtx<'a> {
        RuleCtx {
            root,
            enabled,
            use_counts: OnceCell::new(),
            all_vars: OnceCell::new(),
        }
    }

    fn enabled(&self, rule: &str) -> bool {
        match self.enabled {
            Enabled::AllBut(disabled) => !disabled.contains(&rule),
            Enabled::Only(only) => only == rule,
        }
    }

    /// How many times the whole plan references `var`.
    pub fn use_count(&self, var: &Name) -> usize {
        let counts = self.use_counts.get_or_init(|| use_counts(self.root));
        counts.get(var).copied().unwrap_or(0)
    }

    /// Every variable name present in the whole plan (for freshness).
    pub fn all_vars(&self) -> &[Name] {
        self.all_vars.get_or_init(|| all_vars(self.root))
    }
}

/// A successful rule application.
pub struct Applied {
    pub rule: &'static str,
    pub op: Op,
    /// Global renamings `(from, to)` the driver must apply.
    pub renames: Vec<(Name, Name)>,
}

/// Try every rule at this node (not recursing); first match wins.
/// Rules the context does not enable are skipped.
pub fn try_rules(op: &Op, ctx: &RuleCtx) -> Option<Applied> {
    let keep = |a: Option<Applied>| a.filter(|x| ctx.enabled(x.rule));
    keep(empty_propagation(op))
        .or_else(|| keep(r11_td_mksrc(op)))
        .or_else(|| keep(getd_over_crelt(op)))
        .or_else(|| keep(getd_over_cat(op)))
        .or_else(|| keep(r10_chain_merge(op, ctx)))
        .or_else(|| keep(r12_semijoin_below(op)))
        .or_else(|| keep(select_pushdown(op)))
        .or_else(|| keep(getd_pushdown(op)))
        .or_else(|| keep(r9_join_introduction(op, ctx)))
}

fn applied(rule: &'static str, op: Op) -> Option<Applied> {
    Some(Applied {
        rule,
        op,
        renames: vec![],
    })
}

/// ⊥-propagation: an operator over the empty plan is empty (rule 4's
/// aftermath).
fn empty_propagation(op: &Op) -> Option<Applied> {
    let is_empty = |o: &Op| matches!(o, Op::Empty { .. });
    let make_empty = |op: &Op| Op::Empty {
        vars: bound_vars(op),
    };
    match op {
        Op::GetD { input, .. }
        | Op::Select { input, .. }
        | Op::Project { input, .. }
        | Op::CrElt { input, .. }
        | Op::Cat { input, .. }
        | Op::GroupBy { input, .. }
        | Op::Apply { input, .. }
        | Op::OrderBy { input, .. }
        | Op::MkSrcOver { input, .. }
            if is_empty(input) =>
        {
            applied("empty-propagation", make_empty(op))
        }
        Op::Join { left, right, .. } if is_empty(left) || is_empty(right) => {
            applied("empty-propagation", make_empty(op))
        }
        // A semijoin against an empty side filters everything out; an
        // empty kept side is empty anyway.
        Op::SemiJoin { left, right, .. } if is_empty(left) || is_empty(right) => {
            applied("empty-propagation", make_empty(op))
        }
        _ => None,
    }
}

/// Rule 11: `mksrc` over the view's `tD` — splice the view body in and
/// merge the query's source variable with the view's result variable
/// (Fig. 13→14).
fn r11_td_mksrc(op: &Op) -> Option<Applied> {
    let Op::MkSrcOver { input, var } = op else {
        return None;
    };
    match &**input {
        Op::TupleDestroy {
            input: body,
            var: v1,
            ..
        } => Some(Applied {
            rule: "R11-td-mksrc",
            op: (**body).clone(),
            renames: vec![(var.clone(), v1.clone())],
        }),
        Op::Empty { .. } => Some(Applied {
            rule: "R11-td-mksrc",
            op: Op::Empty {
                vars: vec![var.clone()],
            },
            renames: vec![],
        }),
        _ => None,
    }
}

/// Rules 1–4: `getD` whose start variable is produced by a `crElt`
/// directly below.
fn getd_over_crelt(op: &Op) -> Option<Applied> {
    let Op::GetD {
        input,
        from,
        path,
        to,
    } = op
    else {
        return None;
    };
    let Op::CrElt {
        input: celt_in,
        label,
        children,
        out,
        ..
    } = &**input
    else {
        return None;
    };
    if from != out {
        return None;
    }
    // Rule 4: the path's first label cannot match the constructed label.
    if !path.first_matches_label(label) {
        return Some(Applied {
            rule: "R4-unsatisfiable",
            op: Op::Empty {
                vars: bound_vars(op),
            },
            renames: vec![],
        });
    }
    match path.rest() {
        // Rule 2: exact match — the getD target *is* the constructed
        // element; alias the variables.
        None => Some(Applied {
            rule: "R2-getd-crelt-exact",
            op: (**input).clone(),
            renames: vec![(to.clone(), out.clone())],
        }),
        Some(q) => {
            // Rules 1/3: push below the crElt, addressing its children.
            let (new_from, new_path) = match children {
                ChildSpec::ListVar(w) => (w.clone(), q.prepend(Step::Label(Name::new("list")))),
                ChildSpec::Single(w) => (w.clone(), q),
            };
            let rule = match children {
                ChildSpec::ListVar(_) => "R1-getd-crelt-push",
                ChildSpec::Single(_) => "R3-getd-crelt-single",
            };
            let new_getd = Op::GetD {
                input: celt_in.clone(),
                from: new_from,
                path: new_path,
                to: to.clone(),
            };
            let mut crelt = (**input).clone();
            if let Op::CrElt { input: i, .. } = &mut crelt {
                **i = new_getd;
            }
            applied(rule, crelt)
        }
    }
}

/// Rules 5–7: `getD` over a `cat` — push into the branch whose elements
/// can match (label-directed), or collapse to ⊥ when neither can.
fn getd_over_cat(op: &Op) -> Option<Applied> {
    let Op::GetD {
        input,
        from,
        path,
        to,
    } = op
    else {
        return None;
    };
    let Op::Cat {
        input: cat_in,
        left,
        right,
        out,
    } = &**input
    else {
        return None;
    };
    if from != out {
        return None;
    }
    // The cat output is a list node: the first step must match `list`.
    match path.first() {
        Step::Label(l) if l.as_str() == "list" => {}
        Step::Wild => {}
        _ => {
            return Some(Applied {
                rule: "R4-unsatisfiable",
                op: Op::Empty {
                    vars: bound_vars(op),
                },
                renames: vec![],
            })
        }
    }
    let q = path.rest()?; // `getD($V.list, $X)` (bind the list itself) — leave alone
    let assess = |arg: &ChildSpec| -> Match3 {
        let guess = match arg {
            ChildSpec::Single(v) => var_label(cat_in, v),
            ChildSpec::ListVar(v) => list_elem_label(cat_in, v),
        };
        step_matches_guess(q.first(), &guess)
    };
    let (ml, mr) = (assess(left), assess(right));
    let push = |arg: &ChildSpec| -> Op {
        let (new_from, new_path) = match arg {
            ChildSpec::Single(v) => (v.clone(), q.clone()),
            ChildSpec::ListVar(v) => (v.clone(), q.prepend(Step::Label(Name::new("list")))),
        };
        let new_getd = Op::GetD {
            input: cat_in.clone(),
            from: new_from,
            path: new_path,
            to: to.clone(),
        };
        let mut cat = (**input).clone();
        if let Op::Cat { input: i, .. } = &mut cat {
            **i = new_getd;
        }
        cat
    };
    match (ml, mr) {
        (Match3::No, Match3::No) => Some(Applied {
            rule: "R4-unsatisfiable",
            op: Op::Empty {
                vars: bound_vars(op),
            },
            renames: vec![],
        }),
        (Match3::No, _) => applied("R5-getd-cat-push", push(right)),
        (_, Match3::No) => applied("R5-getd-cat-push", push(left)),
        // Both branches might match: no safe single-branch push.
        _ => None,
    }
}

/// Rule 10: merge `getD` chains over an intermediate variable nothing
/// else references.
fn r10_chain_merge(op: &Op, ctx: &RuleCtx) -> Option<Applied> {
    let Op::GetD {
        input,
        from,
        path: q,
        to,
    } = op
    else {
        return None;
    };
    let Op::GetD {
        input: inner_in,
        from: a,
        path: p,
        to: b,
    } = &**input
    else {
        return None;
    };
    if from != b || ctx.use_count(b) != 1 {
        return None;
    }
    let joined = p.join(q)?;
    applied(
        "R10-chain-merge",
        Op::GetD {
            input: inner_in.clone(),
            from: a.clone(),
            path: joined,
            to: to.clone(),
        },
    )
}

/// Rule 9: a `getD` into the collected list of an `apply` over a
/// `groupBy` cannot be pushed further — introduce a join against a
/// fresh copy of the pre-grouping subplan so the path (and later the
/// selections on it) can be evaluated per *tuple* without destroying
/// the grouped result (Fig. 16→18).
fn r9_join_introduction(op: &Op, ctx: &RuleCtx) -> Option<Applied> {
    let Op::GetD {
        input,
        from,
        path,
        to,
    } = op
    else {
        return None;
    };
    let Op::Apply {
        input: apply_in,
        plan,
        param,
        out,
    } = &**input
    else {
        return None;
    };
    if from != out {
        return None;
    }
    let Op::GroupBy {
        input: p1,
        group,
        out: part,
    } = &**apply_in
    else {
        return None;
    };
    // Only the pure-collection nested plan shape (what the translator
    // emits): tD($u) over nestedSrc(partition).
    let Op::TupleDestroy {
        input: nsrc,
        var: u,
        ..
    } = &**plan
    else {
        return None;
    };
    let Op::NestedSrc { var: nvar } = &**nsrc else {
        return None;
    };
    if param.as_ref() != Some(part) || nvar != part {
        return None;
    }
    // Single grouping variable (a join condition per variable would be
    // needed otherwise; the paper's example — and our translator's
    // output for it — uses one).
    let [g] = group.as_slice() else { return None };
    // The path addresses elements of the collected list.
    match path.first() {
        Step::Label(l) if l.as_str() == "list" => {}
        Step::Wild => {}
        _ => return None,
    }
    let q = path.rest()?;
    // Fresh-rename a copy of the pre-grouping subplan.
    let mut copy = (**p1).clone();
    let mut taken: Vec<Name> = ctx.all_vars().to_vec();
    let mut copy_of: HashMap<Name, Name> = HashMap::new();
    for v in bound_vars(p1) {
        if copy_of.contains_key(&v) {
            continue;
        }
        let fresh = fresh_var(&format!("{v}_c"), &taken);
        taken.push(fresh.clone());
        copy = rename_var(&copy, &v, &fresh);
        copy_of.insert(v, fresh);
    }
    let u_copy = copy_of.get(u)?.clone();
    let g_copy = copy_of.get(g)?.clone();
    let left = Op::GetD {
        input: Box::new(copy),
        from: u_copy,
        path: q,
        to: to.clone(),
    };
    applied(
        "R9-join-introduction",
        Op::Join {
            left: Box::new(left),
            right: input.clone(),
            cond: Some(Cond::OidCmp {
                l: g_copy,
                r: g.clone(),
            }),
        },
    )
}

/// Rule 12 (+ the prose's semijoin pushdown): move a semijoin below
/// grouping, collection, and per-tuple construction so it reaches the
/// source (Fig. 20→21). Also simplifies the *filter* (non-kept) side:
/// existence against a grouped stream equals existence against its
/// ungrouped input when the condition only reads group variables, so
/// the grouping machinery there is dropped.
fn r12_semijoin_below(op: &Op) -> Option<Applied> {
    let Op::SemiJoin {
        left,
        right,
        cond,
        keep,
    } = op
    else {
        return None;
    };
    // Simplify the filter side first: apply/gBy layers contribute
    // nothing to an existence check on group variables.
    let cond_vars_all = cond.as_ref().map(|c| c.vars()).unwrap_or_default();
    let filter_side = match keep {
        Side::Left => right,
        Side::Right => left,
    };
    match &**filter_side {
        Op::Apply { input, out, .. } if !cond_vars_all.contains(out) => {
            let mut new = op.clone();
            if let Op::SemiJoin { left, right, .. } = &mut new {
                match keep {
                    Side::Left => *right = input.clone(),
                    Side::Right => *left = input.clone(),
                }
            }
            return applied("R12-semijoin-below-group", new);
        }
        Op::GroupBy { input, group, out }
            if !cond_vars_all.contains(out)
                && cond_vars_all
                    .iter()
                    .all(|v| group.contains(v) || !bound_vars(filter_side).contains(v)) =>
        {
            let mut new = op.clone();
            if let Op::SemiJoin { left, right, .. } = &mut new {
                match keep {
                    Side::Left => *right = input.clone(),
                    Side::Right => *left = input.clone(),
                }
            }
            return applied("R12-semijoin-below-group", new);
        }
        _ => {}
    }
    // Normalize to the kept-side subtree we want to push into.
    let (filter, target, keep) = match keep {
        Side::Right => (left, right, Side::Right),
        Side::Left => (right, left, Side::Left),
    };
    let cond_vars = cond.as_ref().map(|c| c.vars()).unwrap_or_default();
    // The target with the semijoin pushed onto its input.
    let push_below = || -> Op {
        wrap_child((**target).clone(), 0, |target_input| match keep {
            Side::Right => Op::SemiJoin {
                left: filter.clone(),
                right: Box::new(target_input),
                cond: cond.clone(),
                keep,
            },
            Side::Left => Op::SemiJoin {
                left: Box::new(target_input),
                right: filter.clone(),
                cond: cond.clone(),
                keep,
            },
        })
    };
    match &**target {
        // Below apply: sound when the condition ignores the collected
        // output.
        Op::Apply { out, .. } if !cond_vars.contains(out) => {
            applied("R12-semijoin-below-group", push_below())
        }
        // Below groupBy: sound when the kept-side condition variables
        // are group variables (whole groups pass or fail together).
        Op::GroupBy { group, out, .. } => {
            let kept_ok = cond_vars
                .iter()
                .all(|v| group.contains(v) || !bound_vars(target).contains(v));
            if cond_vars.contains(out) || !kept_ok {
                return None;
            }
            applied("R12-semijoin-below-group", push_below())
        }
        // Below per-tuple construction (crElt/cat) and below getD
        // (filtering before expansion): sound when the condition does
        // not reference the operator's output.
        Op::CrElt { out, .. } | Op::Cat { out, .. } | Op::GetD { to: out, .. }
            if !cond_vars.contains(out) =>
        {
            applied("R12-semijoin-below-group", push_below())
        }
        _ => None,
    }
}

/// Selection pushdown (Section 6 prose: "pushing selections down").
fn select_pushdown(op: &Op) -> Option<Applied> {
    let Op::Select { input, cond } = op else {
        return None;
    };
    let cond_vars = cond.vars();
    // The input with the selection pushed onto its `n`-th child.
    let push_into = |n: usize| {
        let pushed = wrap_child((**input).clone(), n, |inner| Op::Select {
            input: Box::new(inner),
            cond: cond.clone(),
        });
        applied("select-pushdown", pushed)
    };
    match &**input {
        Op::GetD { to, .. } if !cond_vars.contains(to) => push_into(0),
        Op::CrElt { out, .. } | Op::Cat { out, .. } | Op::Apply { out, .. }
            if !cond_vars.contains(out) =>
        {
            push_into(0)
        }
        Op::OrderBy { .. } => push_into(0),
        Op::GroupBy { group, out, .. } => {
            if cond_vars.contains(out) || !cond_vars.iter().all(|v| group.contains(v)) {
                return None;
            }
            push_into(0)
        }
        Op::Join { left, right, .. } => {
            let (lb, rb) = (bound_vars(left), bound_vars(right));
            if cond_vars.iter().all(|v| lb.contains(v)) {
                push_into(0)
            } else if cond_vars.iter().all(|v| rb.contains(v)) {
                push_into(1)
            } else {
                None
            }
        }
        Op::SemiJoin {
            left, right, keep, ..
        } => {
            let (kept_idx, kept): (usize, &Op) = match keep {
                Side::Left => (0, left),
                Side::Right => (1, right),
            };
            if cond_vars.iter().all(|v| bound_vars(kept).contains(v)) {
                push_into(kept_idx)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// `getD` pushdown through constructive operators and into join
/// branches, so path navigation lands next to the operators that bind
/// its start variable.
fn getd_pushdown(op: &Op) -> Option<Applied> {
    let Op::GetD {
        input,
        from,
        path,
        to,
    } = op
    else {
        return None;
    };
    // The input with the getD pushed onto its `n`-th child.
    let push_into = |n: usize| {
        let pushed = wrap_child((**input).clone(), n, |inner| Op::GetD {
            input: Box::new(inner),
            from: from.clone(),
            path: path.clone(),
            to: to.clone(),
        });
        applied("getd-pushdown", pushed)
    };
    match &**input {
        Op::CrElt { out, .. } | Op::Cat { out, .. } | Op::Apply { out, .. } if from != out => {
            push_into(0)
        }
        Op::Join { left, right, .. } => {
            if bound_vars(left).contains(from) {
                push_into(0)
            } else if bound_vars(right).contains(from) {
                push_into(1)
            } else {
                None
            }
        }
        Op::SemiJoin {
            left, right, keep, ..
        } => {
            let (kept_idx, kept): (usize, &Op) = match keep {
                Side::Left => (0, left),
                Side::Right => (1, right),
            };
            if bound_vars(kept).contains(from) {
                push_into(kept_idx)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_algebra::Plan;
    use mix_xml::LabelPath;

    /// Try the rules at the root of `plan`.
    fn try_at_root(plan: &Op) -> Option<Applied> {
        try_rules(plan, &RuleCtx::new(plan, &[]))
    }

    fn mk(source: &str, var: &str) -> Op {
        Op::MkSrc {
            source: Name::new(source),
            var: Name::new(var),
        }
    }

    fn getd(input: Op, from: &str, path: &str, to: &str) -> Op {
        Op::GetD {
            input: Box::new(input),
            from: Name::new(from),
            path: LabelPath::parse(path).unwrap(),
            to: Name::new(to),
        }
    }

    fn crelt(input: Op, label: &str, group: &[&str], children: ChildSpec, out: &str) -> Op {
        Op::CrElt {
            input: Box::new(input),
            label: Name::new(label),
            skolem: Name::new("f"),
            group: group.iter().map(Name::new).collect(),
            children,
            tag: Name::new(out),
            out: Name::new(out),
        }
    }

    #[test]
    fn rule2_exact_match_aliases() {
        let base = crelt(
            mk("r", "A"),
            "rec",
            &["A"],
            ChildSpec::Single(Name::new("A")),
            "Z",
        );
        let plan = getd(base.clone(), "Z", "rec", "X");
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "R2-getd-crelt-exact");
        assert_eq!(a.op, base);
        assert_eq!(a.renames, vec![(Name::new("X"), Name::new("Z"))]);
    }

    #[test]
    fn rule1_pushes_below_crelt_list() {
        let base = crelt(
            mk("r", "W"),
            "rec",
            &[],
            ChildSpec::ListVar(Name::new("W")),
            "Z",
        );
        let plan = getd(base, "Z", "rec.item.data()", "X");
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "R1-getd-crelt-push");
        let text = Plan::new(a.op).render();
        assert!(text.contains("getD($W.list.item.data(), $X)"), "{text}");
        // crElt stays on top
        assert!(text.starts_with("crElt(rec"), "{text}");
    }

    #[test]
    fn rule3_pushes_below_crelt_single() {
        let base = crelt(
            mk("r", "O"),
            "OrderInfo",
            &["O"],
            ChildSpec::Single(Name::new("O")),
            "P",
        );
        let plan = getd(base, "P", "OrderInfo.order.value", "3");
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "R3-getd-crelt-single");
        let text = Plan::new(a.op).render();
        assert!(text.contains("getD($O.order.value, $3)"), "{text}");
    }

    #[test]
    fn rule4_unsatisfiable_path() {
        let base = crelt(
            mk("r", "A"),
            "rec",
            &[],
            ChildSpec::Single(Name::new("A")),
            "Z",
        );
        let plan = getd(base, "Z", "other.x", "X");
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "R4-unsatisfiable");
        assert!(matches!(a.op, Op::Empty { .. }));
    }

    #[test]
    fn rule10_merges_chains_only_when_dead() {
        let inner = getd(mk("r", "A"), "A", "custRec", "R");
        let plan = getd(inner.clone(), "R", "custRec.orderInfo", "S");
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "R10-chain-merge");
        let text = Plan::new(a.op).render();
        assert!(text.contains("getD($A.custRec.orderInfo, $S)"), "{text}");
        // With another use of $R the merge must not fire.
        let plan2 = getd(inner, "R", "custRec.orderInfo", "S");
        let whole = Op::Project {
            input: Box::new(plan2.clone()),
            vars: vec![Name::new("R"), Name::new("S")],
        };
        assert!(try_rules(&plan2, &RuleCtx::new(&whole, &[])).is_none());
    }

    #[test]
    fn plan_wide_analyses_are_derived_only_when_read() {
        // R2 fires without reading the context: nothing is derived.
        let base = crelt(
            mk("r", "A"),
            "rec",
            &["A"],
            ChildSpec::Single(Name::new("A")),
            "Z",
        );
        let plan = getd(base, "Z", "rec", "X");
        let ctx = RuleCtx::new(&plan, &[]);
        assert_eq!(try_rules(&plan, &ctx).unwrap().rule, "R2-getd-crelt-exact");
        assert!(ctx.use_counts.get().is_none() && ctx.all_vars.get().is_none());
        // R10's liveness check reads the counts, once.
        let chain = getd(getd(mk("r", "A"), "A", "a", "R"), "R", "a.b", "S");
        let ctx = RuleCtx::new(&chain, &[]);
        assert_eq!(try_rules(&chain, &ctx).unwrap().rule, "R10-chain-merge");
        assert!(ctx.use_counts.get().is_some() && ctx.all_vars.get().is_none());
    }

    #[test]
    fn rule11_splices_views() {
        let view_body = getd(mk("root1", "K"), "K", "customer", "C");
        let view = Op::TupleDestroy {
            input: Box::new(view_body.clone()),
            var: Name::new("C"),
            root: Some(Name::new("rootv")),
        };
        let plan = Op::MkSrcOver {
            input: Box::new(view),
            var: Name::new("A"),
        };
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "R11-td-mksrc");
        assert_eq!(a.op, view_body);
        assert_eq!(a.renames, vec![(Name::new("A"), Name::new("C"))]);
    }

    #[test]
    fn empty_propagates() {
        let plan = Op::Select {
            input: Box::new(Op::Empty {
                vars: vec![Name::new("X")],
            }),
            cond: Cond::cmp_const("X", mix_common::CmpOp::Eq, 1),
        };
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "empty-propagation");
        assert!(matches!(a.op, Op::Empty { .. }));
    }

    #[test]
    fn select_pushes_below_crelt_and_into_join_branch() {
        let join = Op::Join {
            left: Box::new(getd(mk("r1", "A"), "A", "a.x.data()", "1")),
            right: Box::new(mk("r2", "B")),
            cond: None,
        };
        let celt = crelt(join, "rec", &[], ChildSpec::Single(Name::new("A")), "V");
        let plan = Op::Select {
            input: Box::new(celt),
            cond: Cond::cmp_const("1", mix_common::CmpOp::Gt, 5),
        };
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "select-pushdown");
        // One more application reaches the join's left branch.
        let Op::CrElt { input, .. } = &a.op else {
            panic!()
        };
        let b = try_rules(input, &RuleCtx::new(&a.op, &[])).unwrap();
        assert_eq!(b.rule, "select-pushdown");
        let text = Plan::new(b.op).render();
        assert!(text.lines().nth(1).unwrap().contains("select"), "{text}");
    }

    #[test]
    fn getd_pushes_through_construction() {
        let celt = crelt(
            getd(mk("r1", "A"), "A", "a", "S"),
            "rec",
            &[],
            ChildSpec::Single(Name::new("A")),
            "V",
        );
        let plan = getd(celt, "S", "a.x", "N");
        let a = try_at_root(&plan).unwrap();
        assert_eq!(a.rule, "getd-pushdown");
        let text = Plan::new(a.op).render();
        assert!(text.starts_with("crElt(rec"), "{text}");
        assert!(text.contains("getD($S.a.x, $N)"), "{text}");
    }
}
