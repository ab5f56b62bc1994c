//! The rewrite driver: applies local rules and global passes to a
//! fixpoint. A firing replaces the first (pre-order) rule match in
//! place, along its child path, so it costs the subtree it touches.
//! The derivation (the Figs. 13→22 trace) is kept as data — the plan
//! the rewrite started from plus, per step, the rule and the place it
//! fired — and is replayed into rendered plans only on request.

use crate::passes::{dead_elimination, join_to_semijoin};
use crate::rules::{try_rules, Applied, RuleCtx};
use crate::split::{schema_prune, split_plan};
use crate::util::{child_mut, children};
use mix_algebra::plan::rename_var;
use mix_algebra::{Op, Plan};
use mix_common::Name;
use mix_wrapper::Catalog;

/// One recorded rewrite step.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The rule or pass that fired.
    pub rule: &'static str,
    edit: Edit,
}

/// What one step did to the plan before it. Rules and passes are pure
/// functions of the plan, so replaying a step re-runs them; only the
/// catalog-dependent steps keep their output.
#[derive(Debug, Clone)]
enum Edit {
    /// The local rule fired at the subtree at this child path
    /// ([`children`] order, from the root).
    Rule(Vec<usize>),
    /// The whole-plan pass fired.
    Pass(Pass),
    /// Schema pruning or the split produced this plan.
    Whole(Plan),
}

/// A whole-plan pass: rewrites the plan in place, `false` when it does
/// not apply.
type Pass = fn(&mut Plan) -> bool;

impl TraceStep {
    fn apply(&self, plan: &mut Plan) {
        match &self.edit {
            Edit::Rule(path) => {
                let Applied { op, renames, .. } = {
                    let ctx = RuleCtx::only(&plan.root, self.rule);
                    try_rules(subtree(&plan.root, path), &ctx)
                        .expect("a recorded rule fires again where it fired")
                };
                replace(&mut plan.root, path, op, &renames);
            }
            Edit::Pass(pass) => assert!(pass(plan), "a recorded pass fires again"),
            Edit::Whole(p) => *plan = p.clone(),
        }
    }
}

/// The full derivation: the plan it started from and one edit per
/// step. Rendering replays the edits.
#[derive(Debug, Clone)]
pub struct RewriteTrace {
    start: Plan,
    pub steps: Vec<TraceStep>,
}

impl Default for RewriteTrace {
    fn default() -> RewriteTrace {
        RewriteTrace::new(Plan::new(Op::Empty { vars: Vec::new() }))
    }
}

impl RewriteTrace {
    fn new(start: Plan) -> RewriteTrace {
        RewriteTrace {
            start,
            steps: Vec::new(),
        }
    }

    fn push(&mut self, rule: &'static str, edit: Edit) {
        self.steps.push(TraceStep { rule, edit });
    }

    /// Names of the rules applied, in order.
    pub fn rule_sequence(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.rule).collect()
    }

    /// Replay the derivation: `visit` sees each step with the whole
    /// plan after it.
    fn replay(&self, mut visit: impl FnMut(&TraceStep, &Plan)) {
        let mut plan = self.start.clone();
        for step in &self.steps {
            step.apply(&mut plan);
            visit(step, &plan);
        }
    }

    /// Render the whole derivation (one figure per step).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut n = 0;
        self.replay(|step, plan| {
            n += 1;
            out.push_str(&format!(
                "--- step {n} ({}) ---\n{}\n",
                step.rule,
                plan.render()
            ));
        });
        out
    }
}

/// A rewritten plan plus its derivation.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    pub plan: Plan,
    pub trace: RewriteTrace,
}

/// What [`optimize`] compiles a plan to.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The executable plan: rewritten, schema-pruned and split into
    /// `rQ` fragments.
    pub plan: Plan,
    /// The first rewrite's fixpoint, before schema pruning and the
    /// split (exactly [`rewrite`]'s plan): what composition and
    /// decontextualization splice from.
    pub logical: Plan,
    /// The whole derivation, the pruning and the split included.
    pub trace: RewriteTrace,
}

/// Safety cap on rewrite steps (each step strictly simplifies or pushes
/// work downward; the cap only guards against rule-interaction bugs).
const MAX_STEPS: usize = 500;

/// Run the Table 2 rules plus the global passes (selection pushdown is
/// a local rule; live-variable/dead-operator elimination and
/// join→semijoin conversion are whole-plan passes) to a fixpoint.
pub fn rewrite(plan: &Plan) -> RewriteOutcome {
    rewrite_with_disabled(plan, &[])
}

/// [`rewrite`] with the named rules disabled — the hook the ablation
/// experiments (E8) use to measure what a rule buys.
pub fn rewrite_with_disabled(plan: &Plan, disabled: &[&str]) -> RewriteOutcome {
    let mut trace = RewriteTrace::new(plan.clone());
    let plan = run(plan.clone(), disabled, &mut trace);
    RewriteOutcome { plan, trace }
}

/// Rewrite `plan` to a fixpoint, appending each step to `trace`.
fn run(mut plan: Plan, disabled: &[&str], trace: &mut RewriteTrace) -> Plan {
    'steps: for _ in 0..MAX_STEPS {
        if empty_root(&mut plan) {
            trace.push("empty-propagation", Edit::Pass(empty_root));
            continue;
        }
        let found = {
            let ctx = RuleCtx::new(&plan.root, disabled);
            let mut path = Vec::new();
            first_match(&plan.root, &ctx, &mut path).map(|a| (path, a))
        };
        if let Some((path, Applied { rule, op, renames })) = found {
            replace(&mut plan.root, &path, op, &renames);
            trace.push(rule, Edit::Rule(path));
            continue;
        }
        for (rule, pass) in PASSES {
            if pass(&mut plan) {
                trace.push(rule, Edit::Pass(pass));
                continue 'steps;
            }
        }
        break;
    }
    plan
}

/// The whole-plan passes, tried in order once no local rule matches.
const PASSES: [(&str, Pass); 2] = [
    ("dead-elimination", |plan| {
        set_if(plan, dead_elimination(plan))
    }),
    ("join-to-semijoin", |plan| {
        set_if(plan, join_to_semijoin(plan))
    }),
];

fn set_if(plan: &mut Plan, new: Option<Plan>) -> bool {
    new.map(|p| *plan = p).is_some()
}

/// Plan-level ⊥: a tD over the empty plan stays a tD over the
/// canonical empty — the tD is what carries the result-root document
/// name, and dropping it would re-root the (empty) answer under a
/// default name, diverging from the naive plan.
fn empty_root(plan: &mut Plan) -> bool {
    if let Op::TupleDestroy { input, var, .. } = &mut plan.root {
        if let Op::Empty { vars } = &mut **input {
            if vars.as_slice() != std::slice::from_ref(var) {
                *vars = vec![var.clone()];
                return true;
            }
        }
    }
    false
}

/// Rewrite + split: the full composition-optimization pipeline
/// (Section 6), ending with the maximal relational fragments pushed
/// into `rQ` operators (Fig. 22). The rewrite runs once; its fixpoint
/// is also returned as the logical plan.
pub fn optimize(plan: &Plan, catalog: &Catalog) -> Optimized {
    let RewriteOutcome {
        plan: logical,
        mut trace,
    } = rewrite(plan);
    // Schema-aware pruning (the paper's suggested source-schema rules):
    // may expose further simplification, so interleave with rewriting.
    let mut pruned: Option<Plan> = None;
    while let Some(p) = schema_prune(pruned.as_ref().unwrap_or(&logical), catalog) {
        trace.push("schema-prune", Edit::Whole(p.clone()));
        pruned = Some(run(p, &[], &mut trace));
    }
    let pre_split = pruned.as_ref().unwrap_or(&logical);
    let split = split_plan(pre_split, catalog);
    let plan = if split != *pre_split {
        trace.push("split-to-sql", Edit::Whole(split.clone()));
        split
    } else {
        pruned.unwrap_or_else(|| logical.clone())
    };
    Optimized {
        plan,
        logical,
        trace,
    }
}

/// Find the first (pre-order) rule match in the subtree, recording the
/// child path that leads to it.
fn first_match(op: &Op, ctx: &RuleCtx, path: &mut Vec<usize>) -> Option<Applied> {
    if let Some(a) = try_rules(op, ctx) {
        return Some(a);
    }
    for (i, kid) in children(op).into_iter().enumerate() {
        path.push(i);
        if let Some(a) = first_match(kid, ctx, path) {
            return Some(a);
        }
        path.pop();
    }
    None
}

/// The subtree at `path` (child indexes in [`children`] order).
fn subtree<'a>(mut op: &'a Op, path: &[usize]) -> &'a Op {
    for &i in path {
        op = children(op)[i];
    }
    op
}

/// Put a rule's output at `path`, then apply its aliasing renames
/// throughout the plan.
fn replace(root: &mut Op, path: &[usize], new: Op, renames: &[(Name, Name)]) {
    let mut slot = &mut *root;
    for &i in path {
        slot = child_mut(slot, i);
    }
    *slot = new;
    for (from, to) in renames {
        *root = rename_var(root, from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_algebra::{translate, validate};
    use mix_xquery::parse_query;

    const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

    /// Fig. 12's query against the Q1 view, naively composed (Fig. 13).
    pub(super) fn fig13_for_fig22() -> Plan {
        fig13_plan()
    }

    fn fig13_plan() -> Plan {
        let view = translate(&parse_query(Q1).unwrap()).unwrap();
        let query = parse_query(
            "FOR $R in document(rootv)/CustRec $S in $R/OrderInfo \
             WHERE $S/order/value > 20000 RETURN $R",
        )
        .unwrap();
        let qplan = translate(&query).unwrap();
        // Splice: replace mksrc(rootv, $v) with mksrc-over-view.
        fn splice(op: &Op, view: &Plan) -> Op {
            match op {
                Op::MkSrc { source, var } if source.as_str() == "rootv" => Op::MkSrcOver {
                    input: Box::new(view.root.clone()),
                    var: var.clone(),
                },
                other => {
                    let kids = crate::util::children(other);
                    let mut out = other.clone();
                    for (i, k) in kids.iter().enumerate() {
                        *crate::util::child_mut(&mut out, i) = splice(k, view);
                    }
                    out
                }
            }
        }
        // Alpha-rename the view to avoid clashes with query vars.
        let qvars = mix_algebra::plan::all_vars(&qplan.root);
        let mut view_renamed = view.root.clone();
        let mut taken = qvars.clone();
        taken.extend(mix_algebra::plan::all_vars(&view.root));
        for v in mix_algebra::plan::all_vars(&view.root) {
            if qvars.contains(&v) {
                let fresh = mix_algebra::plan::fresh_var(&format!("{v}v"), &taken);
                taken.push(fresh.clone());
                view_renamed = rename_var(&view_renamed, &v, &fresh);
            }
        }
        Plan::new(splice(&qplan.root, &Plan::new(view_renamed)))
    }

    #[test]
    fn fig13_to_fig21_derivation() {
        let naive = fig13_plan();
        validate(&naive).unwrap();
        let out = rewrite(&naive);
        validate(&out.plan)
            .unwrap_or_else(|e| panic!("rewritten plan invalid: {e}\n{}", out.plan.render()));
        let rules = out.trace.rule_sequence();
        // The derivation exercises the headline rules of Table 2.
        for expected in [
            "R11-td-mksrc",
            "R2-getd-crelt-exact",
            "R1-getd-crelt-push",
            "R5-getd-cat-push",
            "R9-join-introduction",
            "R10-chain-merge",
            "R3-getd-crelt-single",
            "select-pushdown",
            "join-to-semijoin",
            "R12-semijoin-below-group",
            "dead-elimination",
        ] {
            assert!(
                rules.contains(&expected),
                "expected {expected} in derivation; got {rules:?}\n{}",
                out.trace.render()
            );
        }
        let text = out.plan.render();
        // Fig. 21 shape: semijoin pushed below the grouping, selection
        // down at the source branch.
        assert!(
            text.contains("Lsemijoin") || text.contains("Rsemijoin"),
            "{text}"
        );
        assert!(
            text.contains("select($3 > 20000)") || text.contains("> 20000"),
            "{text}"
        );
        // The re-grouping machinery survives for the result shape.
        assert!(text.contains("gBy"), "{text}");
        assert!(text.contains("crElt(CustRec"), "{text}");
    }

    #[test]
    fn replay_reproduces_every_derivation() {
        // Ablations included: a step replays with only its own rule
        // enabled, whatever was disabled when it fired.
        let naive = fig13_plan();
        let ablations: [&[&str]; 4] = [
            &[],
            &["R12-semijoin-below-group"],
            &["R9-join-introduction"],
            &["select-pushdown", "getd-pushdown"],
        ];
        for disabled in ablations {
            let out = rewrite_with_disabled(&naive, disabled);
            let mut replayed = Vec::new();
            out.trace
                .replay(|step, plan| replayed.push((step.rule, plan.clone())));
            assert_eq!(replayed.len(), out.trace.steps.len(), "{disabled:?}");
            assert_eq!(
                replayed.last().map(|r| &r.1),
                Some(&out.plan),
                "{disabled:?}"
            );
        }
    }

    #[test]
    fn rewrite_is_idempotent_at_fixpoint() {
        let naive = fig13_plan();
        let once = rewrite(&naive);
        let twice = rewrite(&once.plan);
        assert!(twice.trace.steps.is_empty(), "{}", twice.trace.render());
        assert_eq!(once.plan, twice.plan);
    }

    #[test]
    fn unsatisfiable_composition_collapses() {
        let view = translate(&parse_query(Q1).unwrap()).unwrap();
        // Query a label the view never constructs.
        let q = parse_query("FOR $R in document(rootv)/Nothing WHERE $R/x > 1 RETURN $R").unwrap();
        let qplan = translate(&q).unwrap();
        let naive = {
            let Op::TupleDestroy { input, var, root } = qplan.root else {
                panic!()
            };
            // splice manually
            fn splice(op: &Op, view: &Plan) -> Op {
                match op {
                    Op::MkSrc { source, var } if source.as_str() == "rootv" => Op::MkSrcOver {
                        input: Box::new(view.root.clone()),
                        var: var.clone(),
                    },
                    other => {
                        let kids = crate::util::children(other);
                        let mut out = other.clone();
                        for (i, k) in kids.iter().enumerate() {
                            *crate::util::child_mut(&mut out, i) = splice(k, view);
                        }
                        out
                    }
                }
            }
            // rename view vars (R,S,K don't collide except K/J/W/V/X/Z/C/O...)
            let mut vr = view.root.clone();
            let qvars = mix_algebra::plan::all_vars(&input);
            let mut taken = qvars.clone();
            taken.extend(mix_algebra::plan::all_vars(&view.root));
            for v in mix_algebra::plan::all_vars(&view.root) {
                if qvars.contains(&v) {
                    let fresh = mix_algebra::plan::fresh_var(&format!("{v}v"), &taken);
                    taken.push(fresh.clone());
                    vr = rename_var(&vr, &v, &fresh);
                }
            }
            Plan::new(Op::TupleDestroy {
                input: Box::new(splice(&input, &Plan::new(vr))),
                var,
                root,
            })
        };
        let out = rewrite(&naive);
        // The plan collapses to tD over empty: the tD survives because
        // it carries the result-root document name.
        assert!(
            matches!(
                &out.plan.root,
                Op::TupleDestroy { input, .. } if matches!(&**input, Op::Empty { .. })
            ),
            "expected tD(empty) plan:\n{}",
            out.plan.render()
        );
        assert!(out.trace.rule_sequence().contains(&"R4-unsatisfiable"));
    }
}

#[cfg(test)]
mod fig22_tests {
    use super::*;
    use mix_wrapper::fig2_catalog;

    #[test]
    fn fig22_single_pushed_sql_query() {
        // The complete Section 6 pipeline on the Fig. 13 naive
        // composition: rewrite + split must produce ONE rQ carrying a
        // four-table self-join with DISTINCT and the presorted-gBy
        // ORDER BY — the Fig. 22 outcome.
        let naive = super::tests::fig13_for_fig22();
        let (cat, _db) = fig2_catalog();
        let out = optimize(&naive, &cat);
        mix_algebra::validate(&out.plan)
            .unwrap_or_else(|e| panic!("invalid: {e}\n{}", out.plan.render()));
        let text = out.plan.render();
        assert_eq!(text.matches("rQ(").count(), 1, "{text}");
        assert!(text.contains("SELECT DISTINCT"), "{text}");
        // Four-table self-join: customer twice, orders twice.
        assert_eq!(text.matches("customer c").count(), 2, "{text}");
        assert_eq!(text.matches("orders o").count(), 2, "{text}");
        assert!(text.contains("> 20000"), "{text}");
        // ORDER BY the (kept) customer key, then the order key — the
        // presorted-gBy support of Fig. 22 (aliases may differ from the
        // paper's c1/o1).
        assert!(text.contains("ORDER BY c2.id, o2.orid"), "{text}");
        assert!(text.contains("c1.id = c2.id"), "{text}");
        // Mediator part keeps restructuring/grouping only.
        assert!(text.contains("crElt(CustRec"), "{text}");
        assert!(text.contains("gBy("), "{text}");
        assert!(!text.contains("mksrc"), "{text}");
    }
}
