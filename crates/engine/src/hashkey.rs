//! Normalized hash keys for the equi-join/semi-join/groupBy kernels.
//!
//! The kernels bucket tuples by the values the extracted equi-conjuncts
//! compare ([`mix_algebra::split_equi`]). Bucketing must be *complete*
//! with respect to the condition semantics: whenever the predicate can
//! hold for a pair, both sides must land in the same bucket. It need
//! not be *exact* — every bucket candidate is re-verified against the
//! full original condition, so a collision merely costs one extra
//! probe.
//!
//! Completeness drives the normalization, which is [`Value::eq_key`]
//! (shared with the relational sources' column indexes):
//! [`Value::satisfies`] compares `Int` and `Float` numerically
//! (`3 = 3.0`), so both normalize to the same f64 bit pattern (with
//! `-0.0` folded into `0.0`). `Null` is never equal to anything — a
//! `Null` (or absent) key means the tuple cannot match, so it gets no
//! key at all and is dropped from the build side / skipped on the probe
//! side.

use crate::context::EvalContext;
use crate::lval::LTuple;
use mix_algebra::{EquiPair, KeyKind, Side};
use mix_common::{Name, ScalarKey, Value};
use mix_xml::Oid;
use std::sync::Arc;

/// One normalized key component.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyPart {
    /// Scalar key: [`Value::eq_key`].
    Scalar(ScalarKey),
    /// Node-identity key (`≐` conjuncts): the grouping oid.
    Node(Oid),
}

/// Normalize a scalar into a key part; `None` for `Null` (which no
/// equality can accept).
pub(crate) fn scalar_part(v: &Value) -> Option<KeyPart> {
    v.eq_key().map(KeyPart::Scalar)
}

/// The hash key of `t` for its side of the extracted pairs. `None`
/// means at least one component is `Null`/missing — the tuple cannot
/// satisfy the equi-conjuncts, so it joins nothing.
pub(crate) fn tuple_key(
    ctx: &EvalContext,
    t: &LTuple,
    pairs: &[EquiPair],
    side: Side,
) -> Option<Vec<KeyPart>> {
    pairs
        .iter()
        .map(|p| {
            let var = match side {
                Side::Left => &p.left,
                Side::Right => &p.right,
            };
            let lv = t.get(var)?;
            match p.kind {
                KeyKind::Scalar => ctx.lval_scalar(lv).as_ref().and_then(scalar_part),
                KeyKind::Node => Some(KeyPart::Node(ctx.lval_key(lv))),
            }
        })
        .collect()
}

/// Cached variable→position resolution for one side of an equi-key.
///
/// [`tuple_key`] resolves each pair's variable by a linear name search
/// in the tuple's schema — fine for one tuple, loop-invariant work for
/// a *stream*: every tuple a stream produces shares one
/// `Arc<Vec<Name>>`. The cache keys on that `Rc`'s identity and
/// re-resolves only when the schema pointer actually changes (in
/// practice: once per build/probe side), so the per-tuple cost is an
/// indexed load instead of `pairs × vars` name comparisons.
pub(crate) struct KeyCache {
    side: Side,
    vars: Option<Arc<Vec<Name>>>,
    pos: Vec<Option<usize>>,
}

impl KeyCache {
    pub(crate) fn new(side: Side) -> KeyCache {
        KeyCache {
            side,
            vars: None,
            pos: Vec::new(),
        }
    }

    /// Which join side this cache extracts keys for.
    pub(crate) fn side(&self) -> Side {
        self.side
    }

    /// The hash key of `t` — same result as [`tuple_key`] for this
    /// cache's side, with the name resolution amortized.
    pub(crate) fn key(
        &mut self,
        ctx: &EvalContext,
        t: &LTuple,
        pairs: &[EquiPair],
    ) -> Option<Vec<KeyPart>> {
        if !self.vars.as_ref().is_some_and(|v| Arc::ptr_eq(v, &t.vars)) {
            self.pos.clear();
            self.pos.extend(pairs.iter().map(|p| {
                let var = match self.side {
                    Side::Left => &p.left,
                    Side::Right => &p.right,
                };
                t.vars.iter().position(|n| n == var)
            }));
            self.vars = Some(Arc::clone(&t.vars));
        }
        pairs
            .iter()
            .zip(&self.pos)
            .map(|(p, pos)| {
                let lv = t.vals.get((*pos)?)?;
                match p.kind {
                    KeyKind::Scalar => ctx.lval_scalar(lv).as_ref().and_then(scalar_part),
                    KeyKind::Node => Some(KeyPart::Node(ctx.lval_key(lv))),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_keys_collide() {
        assert_eq!(scalar_part(&Value::Int(3)), scalar_part(&Value::Float(3.0)));
        assert_eq!(
            scalar_part(&Value::Float(-0.0)),
            scalar_part(&Value::Int(0))
        );
    }

    #[test]
    fn incomparable_types_get_distinct_keys() {
        // Int(3) and Str("3") are incomparable under satisfies — they
        // must not share a bucket's *match*, though sharing a bucket
        // would be harmless; here they don't even share one.
        assert_ne!(scalar_part(&Value::Int(3)), scalar_part(&Value::str("3")));
    }

    #[test]
    fn null_has_no_key() {
        assert_eq!(scalar_part(&Value::Null), None);
    }
}
