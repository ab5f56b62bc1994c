//! The scalar value domain `D` and comparison semantics.
//!
//! The paper's data model gives vertices labels from a set of constants
//! `D` that "includes all string-like data, i.e., element names,
//! character content, etc.". Because MIX wraps relational databases, the
//! leaf values flowing through the engine are typed: integers, floats,
//! booleans and strings. [`Value`] covers that domain; comparisons
//! follow SQL-ish rules (numeric cross-type comparison, lexicographic
//! strings, `Null` incomparable).

use crate::intern::intern;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A scalar constant: the domain `D` of the labeled-ordered-tree model,
/// plus the typed values relational sources produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL / absent value. Never equal to anything, including itself,
    /// under [`Value::compare`]; equal to itself under `Eq` (so values can
    /// key hash maps and be deduplicated).
    Null,
    /// Boolean constant.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalized to `Null` at construction sites;
    /// `Float` payloads are expected to be non-NaN.
    Float(f64),
    /// String / character content. The payload is a shared `Arc<str>`
    /// (see [`mod@crate::intern`]): cloning a string cell is a
    /// reference-count bump, and repeated parsed literals share one
    /// allocation.
    Str(Arc<str>),
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            // `Float(-0.0) == Float(0.0)`, so both must hash alike.
            Value::Float(f) => norm_bits(*f).hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

/// `f`'s bit pattern with `-0.0` folded into `0.0` (the two compare
/// equal). NaN never reaches here: `Value::Float` is NaN-free by
/// construction.
fn norm_bits(f: f64) -> u64 {
    if f == 0.0 {
        0f64.to_bits()
    } else {
        f.to_bits()
    }
}

/// A normalized equality key for one scalar (see [`Value::eq_key`]).
///
/// Keying is *complete* with respect to [`Value::compare`]: whenever
/// `a = b` holds, `a.eq_key() == b.eq_key()`. It is exact for almost
/// every probe — see [`Value::eq_key_is_exact`] — but not for integers
/// of magnitude 2^53 and beyond, which share an f64 with their
/// neighbours; a candidate found by such a key must be re-checked with
/// the comparison itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarKey {
    /// `Int` and `Float` alike, as f64 bits (`-0.0` folded), because
    /// `3 = 3.0` under [`Value::compare`].
    Num(u64),
    /// String content; shares the cell's allocation (a refcount bump).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// This value's equality key; `None` for `Null`, which no equality
    /// accepts. The one normalization shared by the mediator's hash
    /// kernels and the sources' column indexes.
    pub fn eq_key(&self) -> Option<ScalarKey> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(ScalarKey::Bool(*b)),
            Value::Int(i) => Some(ScalarKey::Num(norm_bits(*i as f64))),
            Value::Float(f) => Some(ScalarKey::Num(norm_bits(*f))),
            Value::Str(s) => Some(ScalarKey::Str(Arc::clone(s))),
        }
    }

    /// True when every value sharing this value's [`Value::eq_key`] is
    /// equal to it under [`Value::compare`], so candidates found by the
    /// key need no re-check. Only an `Int` of magnitude 2^53 or more
    /// fails: `Int(2^53 + 1)` keys like `Int(2^53)`, yet the two differ.
    /// (Its float image is no problem: `compare` itself converts an
    /// integer met by a float, so those pairs are equal exactly when
    /// their keys are.)
    pub fn eq_key_is_exact(&self) -> bool {
        !matches!(self, Value::Int(i) if i.unsigned_abs() >= 1 << 53)
    }
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse a textual token into the most specific value type:
    /// integer, then float, then bool, falling back to an interned
    /// string.
    ///
    /// This is how the XML parser and the wrapper type leaf content.
    /// A numeric parse is accepted only when re-rendering the parsed
    /// value reproduces the input exactly, so `parse_literal` is a
    /// left inverse of [`Display`](fmt::Display) and canonicalization
    /// can never change observable output: `"007"`, `"1e3"` or `"+5"`
    /// stay strings instead of collapsing to `7`, `1000.0` or `5`.
    pub fn parse_literal(s: &str) -> Value {
        if let Ok(i) = s.parse::<i64>() {
            let v = Value::Int(i);
            if v.to_string() == s {
                return v;
            }
        }
        if let Ok(f) = s.parse::<f64>() {
            if f.is_finite() {
                let v = Value::Float(f);
                if v.to_string() == s {
                    return v;
                }
            }
        }
        match s {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Str(intern(s)),
        }
    }

    /// Total ordering used for deterministic output (sorting, group
    /// keys). Unlike [`Value::compare`], this orders across types
    /// (Null < Bool < numeric < Str) and is total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// SQL-style comparison: `None` when the operands are incomparable
    /// (either is `Null`, or the types are incompatible, e.g. a string
    /// against an integer).
    ///
    /// Query conditions built on this treat `None` as *false*, matching
    /// the paper's select semantics (a tuple qualifies only when the
    /// condition evaluates to true).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            _ => None,
        }
    }

    /// Evaluate `self op other` with [`Value::compare`] semantics;
    /// incomparable operands yield `false`.
    pub fn satisfies(&self, op: CmpOp, other: &Value) -> bool {
        match self.compare(other) {
            Some(ord) => op.matches(ord),
            None => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            // Integral floats always render with a `.0` suffix — even at
            // and above 1e15, where they previously printed like plain
            // integers and broke the `parse_literal` round trip.
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

/// The comparison operators of the Fig. 4 grammar
/// (`RelOp ::= = | != | < | <= | > | >=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Does an ordering outcome satisfy this operator?
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with operands swapped: `a op b == b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Logical negation: `!(a op b) == a op.negate() b` (for non-null
    /// comparable operands).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Parse the textual operator as it appears in XQuery and SQL.
    pub fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "=" | "==" => CmpOp::Eq,
            "!=" | "<>" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_literal_types() {
        assert_eq!(Value::parse_literal("42"), Value::Int(42));
        assert_eq!(Value::parse_literal("-7"), Value::Int(-7));
        assert_eq!(Value::parse_literal("2.5"), Value::Float(2.5));
        assert_eq!(Value::parse_literal("true"), Value::Bool(true));
        assert_eq!(Value::parse_literal("XYZ123"), Value::str("XYZ123"));
    }

    fn hash_of(v: &Value) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_alike() {
        // -0.0 == 0.0, so DISTINCT's `HashSet<Row>` must see one key.
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
        let set: std::collections::HashSet<Value> = [Value::Float(-0.0), Value::Float(0.0)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn eq_keys_are_complete_for_equality() {
        assert_eq!(Value::Int(3).eq_key(), Value::Float(3.0).eq_key());
        assert_eq!(Value::Float(-0.0).eq_key(), Value::Int(0).eq_key());
        assert_eq!(Value::str("a").eq_key(), Value::str("a").eq_key());
        assert_ne!(Value::Int(3).eq_key(), Value::str("3").eq_key());
        assert_ne!(Value::Bool(true).eq_key(), Value::Int(1).eq_key());
        assert_eq!(Value::Null.eq_key(), None);
    }

    #[test]
    fn eq_keys_are_exact_below_2_pow_53() {
        let big = 1i64 << 53;
        // Sharing a key implies equality, except for integers past 2^53.
        assert_eq!(Value::Int(big + 1).eq_key(), Value::Int(big).eq_key());
        assert!(!Value::Int(big + 1).satisfies(CmpOp::Eq, &Value::Int(big)));
        assert!(!Value::Int(big).eq_key_is_exact());
        assert!(!Value::Int(-big).eq_key_is_exact());
        assert!(Value::Int(big - 1).eq_key_is_exact());
        // A float meets an integer through the integer's f64 image.
        assert!(Value::Float(big as f64).eq_key_is_exact());
        assert!(Value::Float(big as f64).satisfies(CmpOp::Eq, &Value::Int(big + 1)));
        assert!(Value::str("x").eq_key_is_exact() && Value::Bool(true).eq_key_is_exact());
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert!(Value::Int(2).satisfies(CmpOp::Lt, &Value::Float(2.5)));
        assert!(Value::Float(3.0).satisfies(CmpOp::Eq, &Value::Int(3)));
    }

    #[test]
    fn null_is_incomparable() {
        assert!(!Value::Null.satisfies(CmpOp::Eq, &Value::Null));
        assert!(!Value::Int(1).satisfies(CmpOp::Ne, &Value::Null));
    }

    #[test]
    fn incompatible_types_are_false() {
        assert!(!Value::str("a").satisfies(CmpOp::Lt, &Value::Int(1)));
        assert!(!Value::str("a").satisfies(CmpOp::Eq, &Value::Int(1)));
    }

    #[test]
    fn string_compare_is_lexicographic() {
        // The paper's Q2: customer name < "B" selects names starting with "A".
        assert!(Value::str("ABCInc.").satisfies(CmpOp::Lt, &Value::str("B")));
        assert!(!Value::str("XYZInc.").satisfies(CmpOp::Lt, &Value::str("B")));
    }

    #[test]
    fn total_cmp_is_total_and_cross_type() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Less);
        assert_eq!(Value::Int(1).total_cmp(&Value::str("a")), Less);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Equal);
    }

    #[test]
    fn op_flip_negate() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn display_round_trip() {
        for v in [Value::Int(5), Value::str("x"), Value::Bool(true)] {
            assert_eq!(Value::parse_literal(&v.to_string()), v);
        }
    }

    #[test]
    fn display_round_trip_large_integral_floats() {
        // ≥ 1e15 with zero fraction used to print like an integer and
        // come back as Value::Int.
        for x in [1e15, 1e16, 2.0f64.powi(60), 1e300, -1e15] {
            let v = Value::Float(x);
            assert_eq!(Value::parse_literal(&v.to_string()), v, "x={x}");
        }
    }

    #[test]
    fn numeric_looking_strings_stay_strings() {
        // Non-canonical numeric spellings must not collapse: rendering
        // would change the observable text.
        for s in ["007", "+5", "1e3", "0x10", " 42", "2.50", "1_000", "-0"] {
            let v = Value::parse_literal(s);
            assert_eq!(v, Value::str(s), "literal {s:?}");
            assert_eq!(v.to_string(), s, "round trip {s:?}");
        }
        // Canonical spellings still parse to their typed values.
        assert_eq!(Value::parse_literal("-7"), Value::Int(-7));
        assert_eq!(Value::parse_literal("2.5"), Value::Float(2.5));
        assert_eq!(Value::parse_literal("-0.0"), Value::Float(-0.0));
    }

    #[test]
    fn parsed_string_literals_are_interned() {
        let a = Value::parse_literal("not-a-number-at-all");
        let b = Value::parse_literal("not-a-number-at-all");
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(std::sync::Arc::ptr_eq(x, y)),
            _ => panic!("expected strings, got {a:?} / {b:?}"),
        }
    }
}
