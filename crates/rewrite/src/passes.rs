//! Whole-plan passes: live-variable analysis with dead-operator
//! elimination, and join→semijoin conversion (Section 6 prose,
//! Fig. 19→20).

use crate::util::{bound_vars, child_mut, children, map_in_place, referenced_vars};
use mix_algebra::{Op, Plan, Side};
use mix_common::Name;
use std::collections::HashSet;

// Both passes walk an owned copy of the plan top-down, moving every
// subtree into its new parent rather than copying it. The variables
// needed above an operator are a stack: an operator pushes what it
// references before visiting its children and pops it after.

/// Remove operators that only bind dead variables: `getD`, `crElt`,
/// `cat` and `apply` whose output no operator above references.
///
/// Dropping `crElt`/`cat`/`apply` is always sound (exactly one output
/// per input tuple). Dropping a `getD` assumes its path is
/// single-valued per start node (true for the wrapper's column fields)
/// or set semantics — the same license the paper's live-variable step
/// takes.
///
/// Returns `None` when nothing changed.
pub fn dead_elimination(plan: &Plan) -> Option<Plan> {
    let mut changed = false;
    let new_root = go(plan.root.clone(), &mut td_needed(&plan.root), &mut changed);
    changed.then(|| Plan::new(new_root))
}

/// What a `tD`-rooted (sub)plan needs: its exported variable.
fn td_needed(op: &Op) -> Vec<Name> {
    match op {
        Op::TupleDestroy { var, .. } => vec![var.clone()],
        _ => Vec::new(),
    }
}

fn go(mut op: Op, needed: &mut Vec<Name>, changed: &mut bool) -> Op {
    // Drop this operator entirely?
    let dead = match &op {
        Op::GetD { to: out, .. }
        | Op::CrElt { out, .. }
        | Op::Cat { out, .. }
        | Op::Apply { out, .. } => !needed.contains(out),
        _ => false,
    };
    if dead {
        *changed = true;
        let input = std::mem::replace(child_mut(&mut op, 0), Op::Empty { vars: Vec::new() });
        return go(input, needed, changed);
    }
    // Recurse: children need what we need plus what this op references.
    let mark = needed.len();
    needed.extend(referenced_vars(&op));
    match &mut op {
        Op::Apply { input, plan, .. } => {
            // Everything a nested plan reads may come from the group
            // partition, i.e. from the outer input's tuples.
            needed.extend(deep_refs(plan));
            map_in_place(input, |i| go(i, needed, changed));
            // The nested plan needs its own tD variable (and whatever it
            // references internally).
            let mut nested = td_needed(plan);
            map_in_place(plan, |p| go(p, &mut nested, changed));
        }
        Op::MkSrcOver { input, .. } => {
            // The inline view plan has its own tD-rooted liveness.
            let mut inner = td_needed(input);
            map_in_place(input, |i| go(i, &mut inner, changed));
        }
        Op::TupleDestroy { input, var, .. } => {
            let mut n = vec![var.clone()];
            map_in_place(input, |i| go(i, &mut n, changed));
        }
        _ => {
            for i in 0..children(&op).len() {
                map_in_place(child_mut(&mut op, i), |k| go(k, needed, changed));
            }
        }
    }
    needed.truncate(mark);
    op
}

/// Every variable referenced anywhere in a subtree (used to treat a
/// nested plan's reads as live outside it).
fn deep_refs(op: &Op) -> HashSet<Name> {
    let mut out: HashSet<Name> = referenced_vars(op).into_iter().collect();
    for c in children(op) {
        out.extend(deep_refs(c));
    }
    out
}

/// Convert joins whose one side contributes no live variables into
/// semijoins (Fig. 19→20: "the live variable analysis … shows that the
/// variable $P is dead: this allows us to convert the join operation
/// into a semi-join").
pub fn join_to_semijoin(plan: &Plan) -> Option<Plan> {
    let mut changed = false;
    let new_root = go_semijoin(plan.root.clone(), &mut td_needed(&plan.root), &mut changed);
    changed.then(|| Plan::new(new_root))
}

fn go_semijoin(mut op: Op, needed: &mut Vec<Name>, changed: &mut bool) -> Op {
    if let Op::Join { left, right, cond } = op {
        // The join condition itself is evaluated by the semijoin, so
        // only variables needed *above* count.
        let lb: HashSet<Name> = bound_vars(&left).into_iter().collect();
        let rb: HashSet<Name> = bound_vars(&right).into_iter().collect();
        let keep = if needed.iter().all(|v| !rb.contains(v)) {
            Some(Side::Left)
        } else if needed.iter().all(|v| !lb.contains(v)) {
            Some(Side::Right)
        } else {
            None
        };
        op = match keep {
            Some(keep) => {
                *changed = true;
                let new = Op::SemiJoin {
                    left,
                    right,
                    cond,
                    keep,
                };
                return go_semijoin(new, needed, changed);
            }
            None => Op::Join { left, right, cond },
        };
    }
    let mark = needed.len();
    needed.extend(referenced_vars(&op));
    match &mut op {
        Op::Apply { input, plan, .. } => {
            needed.extend(deep_refs(plan));
            map_in_place(input, |i| go_semijoin(i, needed, changed));
            let mut nested = td_needed(plan);
            map_in_place(plan, |p| go_semijoin(p, &mut nested, changed));
        }
        Op::TupleDestroy { input, var, .. } => {
            let mut n = vec![var.clone()];
            map_in_place(input, |i| go_semijoin(i, &mut n, changed));
        }
        _ => {
            for i in 0..children(&op).len() {
                map_in_place(child_mut(&mut op, i), |k| go_semijoin(k, needed, changed));
            }
        }
    }
    needed.truncate(mark);
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_algebra::{Cond, Op, Plan};
    use mix_common::CmpOp;
    use mix_xml::LabelPath;

    fn mk(source: &str, var: &str) -> Op {
        Op::MkSrc {
            source: mix_common::Name::new(source),
            var: mix_common::Name::new(var),
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

    #[test]
    fn dead_getd_is_removed() {
        let plan = Plan::new(Op::TupleDestroy {
            input: Box::new(getd(
                getd(mk("r", "A"), "A", "a.x", "Dead"),
                "A",
                "a.y",
                "Live",
            )),
            var: Name::new("Live"),
            root: None,
        });
        let out = dead_elimination(&plan).unwrap();
        let text = out.render();
        assert!(!text.contains("$Dead"), "{text}");
        assert!(text.contains("getD($A.a.y, $Live)"), "{text}");
        // Fixpoint: second run reports no change.
        assert!(dead_elimination(&out).is_none());
    }

    #[test]
    fn live_getd_stays_when_used_by_select() {
        let plan = Plan::new(Op::TupleDestroy {
            input: Box::new(Op::Select {
                input: Box::new(getd(mk("r", "A"), "A", "a.x", "X")),
                cond: Cond::cmp_const("X", CmpOp::Gt, 1),
            }),
            var: Name::new("A"),
            root: None,
        });
        assert!(dead_elimination(&plan).is_none());
    }

    #[test]
    fn join_with_dead_right_becomes_left_semijoin() {
        let plan = Plan::new(Op::TupleDestroy {
            input: Box::new(Op::Join {
                left: Box::new(getd(mk("r1", "A"), "A", "a.k.data()", "1")),
                right: Box::new(getd(mk("r2", "B"), "B", "b.k.data()", "2")),
                cond: Some(Cond::cmp_vars("1", CmpOp::Eq, "2")),
            }),
            var: Name::new("A"),
            root: None,
        });
        let out = join_to_semijoin(&plan).unwrap();
        let text = out.render();
        assert!(text.contains("Rsemijoin($1 = $2)"), "{text}");
        assert!(join_to_semijoin(&out).is_none());
    }

    #[test]
    fn join_with_both_sides_live_stays() {
        let plan = Plan::new(Op::TupleDestroy {
            input: Box::new(Op::Cat {
                input: Box::new(Op::Join {
                    left: Box::new(mk("r1", "A")),
                    right: Box::new(mk("r2", "B")),
                    cond: None,
                }),
                left: mix_algebra::ChildSpec::Single(Name::new("A")),
                right: mix_algebra::ChildSpec::Single(Name::new("B")),
                out: Name::new("W"),
            }),
            var: Name::new("W"),
            root: None,
        });
        assert!(join_to_semijoin(&plan).is_none());
    }
}
