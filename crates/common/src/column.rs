//! Typed column vectors: the columnar block representation.
//!
//! Blocks used to be `Vec<Row>` — every cell a boxed [`Value`], every
//! string its own allocation, every operator dispatching on the value
//! tag once per cell. A [`ColumnBlock`] stores the same tuples
//! column-major in typed vectors (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`,
//! `Vec<Arc<str>>`), so the hot drain path moves machine words and
//! reference-counted string handles instead of enum-tagged boxes, and
//! kernels (predicate masks, range copies, gathers) run
//! column-at-a-time with one type dispatch per *column* per block.
//!
//! Layout and nullability:
//!
//! * Each column is a typed data vector plus an optional validity mask
//!   (`None` means every cell is valid — the common case pays nothing).
//! * A column that has only ever seen `Null` stores no data at all
//!   ([`ColData::Null`]).
//! * Heterogeneously typed columns demote to [`ColData::Mixed`]
//!   (`Vec<Value>`), which preserves arbitrary rows exactly — any
//!   `Vec<Value>` survives a round trip through a block (pinned by a
//!   property test).
//!
//! The row-compat view ([`ColumnBlock::iter_rows`] /
//! [`ColumnBlock::value_at`]) lets not-yet-vectorized operators consume
//! columnar blocks; string cells come back as `Arc` clones (refcount
//! bumps), never re-allocations.

use crate::value::{CmpOp, Value};
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

/// The shared placeholder stored in `Str` columns under a null cell.
fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from("")))
}

/// Typed storage for one column of a block.
#[derive(Debug, Clone, PartialEq)]
pub enum ColData {
    /// Every cell seen so far is null: no storage.
    Null,
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Interned / shared strings.
    Str(Vec<Arc<str>>),
    /// Heterogeneous fallback: boxed values, stored exactly.
    Mixed(Vec<Value>),
}

/// One column: typed data plus an optional validity mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColData,
    /// `None` = all cells valid. `Some(mask)` runs parallel to the
    /// data vector; `false` marks a null cell (the data slot holds a
    /// placeholder). [`ColData::Mixed`] stores `Value::Null` inline and
    /// keeps the mask `None`; [`ColData::Null`] is implicitly all-null.
    valid: Option<Vec<bool>>,
}

impl Column {
    fn new() -> Column {
        Column {
            data: ColData::Null,
            valid: None,
        }
    }

    /// The typed data vector (exposed for column-at-a-time kernels).
    pub fn data(&self) -> &ColData {
        &self.data
    }

    /// The validity mask, if one is materialized (`None` = every cell
    /// valid; [`ColData::Null`] is implicitly all-null and carries no
    /// mask). Exposed so serializers can write the column verbatim.
    pub fn validity(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }

    /// Rebuild a column from its parts (the wire-decode constructor).
    /// `len` is the row count of the enclosing block. Fails — instead
    /// of panicking later — when the data vector or mask disagrees with
    /// `len`, or when a mask is attached to a representation that never
    /// carries one ([`ColData::Null`] and [`ColData::Mixed`] encode
    /// nullness in the data itself).
    pub fn from_parts(
        data: ColData,
        valid: Option<Vec<bool>>,
        len: usize,
    ) -> crate::Result<Column> {
        let data_len = match &data {
            ColData::Null => len,
            ColData::Int(xs) => xs.len(),
            ColData::Float(xs) => xs.len(),
            ColData::Bool(xs) => xs.len(),
            ColData::Str(xs) => xs.len(),
            ColData::Mixed(xs) => xs.len(),
        };
        if data_len != len {
            return Err(crate::MixError::invalid(format!(
                "column data holds {data_len} rows, block claims {len}"
            )));
        }
        if let Some(mask) = &valid {
            if matches!(data, ColData::Null | ColData::Mixed(_)) {
                return Err(crate::MixError::invalid(
                    "null/mixed columns never carry a validity mask",
                ));
            }
            if mask.len() != len {
                return Err(crate::MixError::invalid(format!(
                    "validity mask holds {} rows, block claims {len}",
                    mask.len()
                )));
            }
        }
        Ok(Column { data, valid })
    }

    /// Is cell `r` valid (non-null)?
    pub fn is_valid(&self, r: usize) -> bool {
        match &self.data {
            ColData::Null => false,
            ColData::Mixed(xs) => !matches!(xs[r], Value::Null),
            _ => self.valid.as_ref().is_none_or(|m| m[r]),
        }
    }

    /// Cell `r` as a boxed [`Value`] (strings are `Arc` clones).
    pub fn get(&self, r: usize) -> Value {
        if let Some(m) = &self.valid {
            if !m[r] {
                return Value::Null;
            }
        }
        match &self.data {
            ColData::Null => Value::Null,
            ColData::Int(xs) => Value::Int(xs[r]),
            ColData::Float(xs) => Value::Float(xs[r]),
            ColData::Bool(xs) => Value::Bool(xs[r]),
            ColData::Str(xs) => Value::Str(Arc::clone(&xs[r])),
            ColData::Mixed(xs) => xs[r].clone(),
        }
    }

    /// Ensure the validity mask is materialized for `len` existing rows.
    fn mask_mut(&mut self, len: usize) -> &mut Vec<bool> {
        self.valid.get_or_insert_with(|| vec![true; len])
    }

    /// Rebuild this column as [`ColData::Mixed`] over its `len` rows.
    fn demote_to_mixed(&mut self, len: usize) {
        let xs: Vec<Value> = (0..len).map(|r| self.get(r)).collect();
        self.data = ColData::Mixed(xs);
        self.valid = None;
    }

    /// Append `v` to a column currently holding `len` rows.
    fn push(&mut self, v: Value, len: usize) {
        match (&mut self.data, v) {
            (ColData::Null, Value::Null) => {}
            (ColData::Mixed(xs), v) => xs.push(v),
            (ColData::Null, v) => {
                // First non-null cell: materialize typed storage with
                // placeholders (all invalid) for the prior rows.
                self.data = match v {
                    Value::Int(i) => {
                        let mut xs = vec![0i64; len];
                        xs.push(i);
                        ColData::Int(xs)
                    }
                    Value::Float(f) => {
                        let mut xs = vec![0f64; len];
                        xs.push(f);
                        ColData::Float(xs)
                    }
                    Value::Bool(b) => {
                        let mut xs = vec![false; len];
                        xs.push(b);
                        ColData::Bool(xs)
                    }
                    Value::Str(s) => {
                        let mut xs = vec![empty_str(); len];
                        xs.push(s);
                        ColData::Str(xs)
                    }
                    Value::Null => unreachable!("null handled above"),
                };
                if len > 0 {
                    let mut m = vec![false; len];
                    m.push(true);
                    self.valid = Some(m);
                }
            }
            (ColData::Int(xs), Value::Int(i)) => {
                xs.push(i);
                if let Some(m) = &mut self.valid {
                    m.push(true);
                }
            }
            (ColData::Float(xs), Value::Float(f)) => {
                xs.push(f);
                if let Some(m) = &mut self.valid {
                    m.push(true);
                }
            }
            (ColData::Bool(xs), Value::Bool(b)) => {
                xs.push(b);
                if let Some(m) = &mut self.valid {
                    m.push(true);
                }
            }
            (ColData::Str(xs), Value::Str(s)) => {
                xs.push(s);
                if let Some(m) = &mut self.valid {
                    m.push(true);
                }
            }
            (_, Value::Null) => {
                // A null lands in a typed column: placeholder + mask.
                match &mut self.data {
                    ColData::Int(xs) => xs.push(0),
                    ColData::Float(xs) => xs.push(0.0),
                    ColData::Bool(xs) => xs.push(false),
                    ColData::Str(xs) => xs.push(empty_str()),
                    ColData::Null | ColData::Mixed(_) => unreachable!("handled above"),
                }
                self.mask_mut(len).push(false);
            }
            (_, v) => {
                // Type clash: demote to Mixed and store exactly.
                self.demote_to_mixed(len);
                match &mut self.data {
                    ColData::Mixed(xs) => xs.push(v),
                    _ => unreachable!("just demoted"),
                }
            }
        }
    }

    /// Append rows `pick`ed from `src` (which holds `src_len` rows) to
    /// this column currently holding `len` rows.
    fn append_from(&mut self, src: &Column, pick: Pick<'_>, len: usize) {
        // All-null source: just extend with nulls.
        if matches!(src.data, ColData::Null) {
            if matches!(self.data, ColData::Null) {
                return; // stays implicitly all-null
            }
            for _ in 0..pick.count() {
                self.push(Value::Null, len);
            }
            return;
        }
        // Typed bulk path: destination empty-null or same variant, and
        // neither side is Mixed.
        let same = matches!(
            (&self.data, &src.data),
            (ColData::Null, _)
                | (ColData::Int(_), ColData::Int(_))
                | (ColData::Float(_), ColData::Float(_))
                | (ColData::Bool(_), ColData::Bool(_))
                | (ColData::Str(_), ColData::Str(_))
        ) && !matches!(src.data, ColData::Mixed(_));
        if !same {
            // Fallback: per-cell through boxed values (rare — only
            // heterogeneous columns take this path).
            let mut at = len;
            pick.for_each(|r| {
                self.push(src.get(r), at);
                at += 1;
            });
            return;
        }
        if matches!(self.data, ColData::Null) {
            if len == 0 {
                // Adopt the source variant with empty storage.
                self.data = match &src.data {
                    ColData::Int(_) => ColData::Int(Vec::new()),
                    ColData::Float(_) => ColData::Float(Vec::new()),
                    ColData::Bool(_) => ColData::Bool(Vec::new()),
                    ColData::Str(_) => ColData::Str(Vec::new()),
                    ColData::Null | ColData::Mixed(_) => unreachable!("filtered above"),
                };
            } else {
                // Prior rows were all null: materialize placeholders.
                self.data = match &src.data {
                    ColData::Int(_) => ColData::Int(vec![0; len]),
                    ColData::Float(_) => ColData::Float(vec![0.0; len]),
                    ColData::Bool(_) => ColData::Bool(vec![false; len]),
                    ColData::Str(_) => ColData::Str(vec![empty_str(); len]),
                    ColData::Null | ColData::Mixed(_) => unreachable!("filtered above"),
                };
                self.valid = Some(vec![false; len]);
            }
        }
        match (&mut self.data, &src.data) {
            (ColData::Int(dst), ColData::Int(s)) => pick.extend_copy(dst, s),
            (ColData::Float(dst), ColData::Float(s)) => pick.extend_copy(dst, s),
            (ColData::Bool(dst), ColData::Bool(s)) => pick.extend_copy(dst, s),
            (ColData::Str(dst), ColData::Str(s)) => pick.extend_clone(dst, s),
            _ => unreachable!("variants matched above"),
        }
        // Merge validity: needed if either side carries a mask.
        if src.valid.is_some() || self.valid.is_some() {
            let mask = self.mask_mut(len);
            match &src.valid {
                Some(sm) => pick.for_each(|r| mask.push(sm[r])),
                None => mask.extend(std::iter::repeat_n(true, pick.count())),
            }
        }
    }
}

/// Row selection for bulk copies: a contiguous range or an index list.
#[derive(Clone, Copy)]
enum Pick<'a> {
    Range(usize, usize),
    Index(&'a [usize]),
}

impl Pick<'_> {
    fn count(&self) -> usize {
        match self {
            Pick::Range(a, b) => b - a,
            Pick::Index(idx) => idx.len(),
        }
    }

    fn for_each(&self, mut f: impl FnMut(usize)) {
        match self {
            Pick::Range(a, b) => (*a..*b).for_each(&mut f),
            Pick::Index(idx) => idx.iter().copied().for_each(&mut f),
        }
    }

    fn extend_copy<T: Copy>(&self, dst: &mut Vec<T>, src: &[T]) {
        match self {
            Pick::Range(a, b) => dst.extend_from_slice(&src[*a..*b]),
            Pick::Index(idx) => dst.extend(idx.iter().map(|&r| src[r])),
        }
    }

    fn extend_clone<T: Clone>(&self, dst: &mut Vec<T>, src: &[T]) {
        match self {
            Pick::Range(a, b) => dst.extend_from_slice(&src[*a..*b]),
            Pick::Index(idx) => dst.extend(idx.iter().map(|&r| src[r].clone())),
        }
    }
}

/// A block of tuples stored column-major in typed vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBlock {
    cols: Vec<Column>,
    len: usize,
}

impl ColumnBlock {
    /// An empty block with `arity` columns.
    pub fn new(arity: usize) -> ColumnBlock {
        ColumnBlock {
            cols: (0..arity).map(|_| Column::new()).collect(),
            len: 0,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns, for column-at-a-time kernels.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Drop all rows (column types and capacity are kept where
    /// possible, so a reused block does not re-allocate).
    pub fn clear(&mut self) {
        for c in &mut self.cols {
            match &mut c.data {
                ColData::Null => {}
                ColData::Int(xs) => xs.clear(),
                ColData::Float(xs) => xs.clear(),
                ColData::Bool(xs) => xs.clear(),
                ColData::Str(xs) => xs.clear(),
                ColData::Mixed(xs) => xs.clear(),
            }
            if let Some(m) = &mut c.valid {
                m.clear();
            }
        }
        self.len = 0;
    }

    /// Reserve room for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.cols {
            match &mut c.data {
                ColData::Null => {}
                ColData::Int(xs) => xs.reserve(additional),
                ColData::Float(xs) => xs.reserve(additional),
                ColData::Bool(xs) => xs.reserve(additional),
                ColData::Str(xs) => xs.reserve(additional),
                ColData::Mixed(xs) => xs.reserve(additional),
            }
            if let Some(m) = &mut c.valid {
                m.reserve(additional);
            }
        }
    }

    /// Append one row, consuming it (string handles move, no refcount
    /// traffic). The row length must equal the block arity.
    pub fn push_row(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v, self.len);
        }
        self.len += 1;
    }

    /// Rebuild a block from decoded columns (the wire constructor —
    /// the inverse of walking [`ColumnBlock::columns`]). Every column
    /// must hold exactly `len` rows; see [`Column::from_parts`].
    pub fn from_columns(cols: Vec<Column>, len: usize) -> ColumnBlock {
        debug_assert!(cols.iter().all(|c| match c.data() {
            ColData::Null => true,
            ColData::Int(xs) => xs.len() == len,
            ColData::Float(xs) => xs.len() == len,
            ColData::Bool(xs) => xs.len() == len,
            ColData::Str(xs) => xs.len() == len,
            ColData::Mixed(xs) => xs.len() == len,
        }));
        ColumnBlock { cols, len }
    }

    /// Build a block from row-major tuples (arity taken from the first
    /// row; an empty input yields an empty zero-arity block).
    pub fn from_rows(rows: Vec<Vec<Value>>) -> ColumnBlock {
        let arity = rows.first().map_or(0, Vec::len);
        let mut b = ColumnBlock::new(arity);
        b.reserve(rows.len());
        for r in rows {
            b.push_row(r);
        }
        b
    }

    /// Cell `(r, c)` as a boxed [`Value`].
    pub fn value_at(&self, r: usize, c: usize) -> Value {
        self.cols[c].get(r)
    }

    /// True when cells `(a, col)` and `(b, col)` hold the same value,
    /// without cloning. Nulls compare equal to nulls (run detection
    /// treats two null keys as one run, matching the rendered-text
    /// comparison of the row-at-a-time decoder). Floats compare by bit
    /// pattern so `-0.0` and `0.0` — which render differently — never
    /// merge a run.
    pub fn cell_eq(&self, a: usize, b: usize, col: usize) -> bool {
        let c = &self.cols[col];
        match (c.is_valid(a), c.is_valid(b)) {
            (false, false) => return true,
            (true, true) => {}
            _ => return false,
        }
        match c.data() {
            ColData::Null => true,
            ColData::Int(xs) => xs[a] == xs[b],
            ColData::Float(xs) => xs[a].to_bits() == xs[b].to_bits(),
            ColData::Bool(xs) => xs[a] == xs[b],
            ColData::Str(xs) => Arc::ptr_eq(&xs[a], &xs[b]) || xs[a] == xs[b],
            ColData::Mixed(xs) => match (&xs[a], &xs[b]) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (x, y) => x == y,
            },
        }
    }

    /// Append row `r`'s cells to `out`.
    pub fn emit_row(&self, r: usize, out: &mut Vec<Value>) {
        out.reserve(self.cols.len());
        for c in &self.cols {
            out.push(c.get(r));
        }
    }

    /// Row `r` as a boxed tuple.
    pub fn row(&self, r: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.cols.len());
        for c in &self.cols {
            out.push(c.get(r));
        }
        out
    }

    /// Row view: iterate rows as boxed tuples, for consumers that build
    /// per-row structures (the lazy wrapper's tuple nodes, row drains).
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len).map(|r| self.row(r))
    }

    /// Append every row to `out` as boxed tuples.
    pub fn append_rows_to(&self, out: &mut Vec<Vec<Value>>) {
        out.reserve(self.len);
        out.extend(self.iter_rows());
    }

    /// Append rows `start..end` of `self` to `out` column-at-a-time
    /// (bulk slice copies on matching typed columns).
    pub fn append_range(&self, start: usize, end: usize, out: &mut ColumnBlock) {
        debug_assert!(start <= end && end <= self.len);
        debug_assert_eq!(self.cols.len(), out.cols.len(), "arity mismatch");
        for (dst, src) in out.cols.iter_mut().zip(&self.cols) {
            dst.append_from(src, Pick::Range(start, end), out.len);
        }
        out.len += end - start;
    }

    /// Append rows `start..end` of the source columns listed in `cols`
    /// (in that order) to `out`, whose arity must be `cols.len()` — the
    /// vectorized projection kernel: one bulk column copy per output
    /// column instead of one `Vec<Value>` per row.
    pub fn append_projected(
        &self,
        cols: &[usize],
        start: usize,
        end: usize,
        out: &mut ColumnBlock,
    ) {
        debug_assert!(start <= end && end <= self.len);
        debug_assert!(cols.iter().all(|&c| c < self.cols.len()));
        debug_assert_eq!(cols.len(), out.cols.len(), "projection arity mismatch");
        for (dst, &c) in out.cols.iter_mut().zip(cols) {
            dst.append_from(&self.cols[c], Pick::Range(start, end), out.len);
        }
        out.len += end - start;
    }

    /// Column-wise join append (an hstack gather): for every `k`,
    /// append row `idx[k]` of `self` concatenated with row `ridx[k]`
    /// of `right` to `out`, whose arity must be the sum of the two
    /// input arities. One bulk column gather per output column — no
    /// per-row tuple is ever built.
    pub fn append_join(
        &self,
        idx: &[usize],
        right: &ColumnBlock,
        ridx: &[usize],
        out: &mut ColumnBlock,
    ) {
        debug_assert_eq!(idx.len(), ridx.len(), "join selection length mismatch");
        debug_assert!(idx.iter().all(|&r| r < self.len));
        debug_assert!(ridx.iter().all(|&r| r < right.len));
        debug_assert_eq!(
            self.cols.len() + right.cols.len(),
            out.cols.len(),
            "join arity mismatch"
        );
        let (lout, rout) = out.cols.split_at_mut(self.cols.len());
        for (dst, src) in lout.iter_mut().zip(&self.cols) {
            dst.append_from(src, Pick::Index(idx), out.len);
        }
        for (dst, src) in rout.iter_mut().zip(&right.cols) {
            dst.append_from(src, Pick::Index(ridx), out.len);
        }
        out.len += idx.len();
    }

    /// Append the rows selected by `idx` to `out` column-at-a-time.
    pub fn gather_rows(&self, idx: &[usize], out: &mut ColumnBlock) {
        debug_assert!(idx.iter().all(|&r| r < self.len));
        debug_assert_eq!(self.cols.len(), out.cols.len(), "arity mismatch");
        for (dst, src) in out.cols.iter_mut().zip(&self.cols) {
            dst.append_from(src, Pick::Index(idx), out.len);
        }
        out.len += idx.len();
    }

    /// Append the rows selected by `idx`, restricted to the source
    /// columns listed in `cols` (in that order), to `out`, whose arity
    /// must be `cols.len()`: [`ColumnBlock::gather_rows`] for a kernel
    /// that reads only a few columns.
    pub fn gather_projected(&self, cols: &[usize], idx: &[usize], out: &mut ColumnBlock) {
        debug_assert!(idx.iter().all(|&r| r < self.len));
        debug_assert_eq!(cols.len(), out.cols.len(), "projection arity mismatch");
        for (dst, &c) in out.cols.iter_mut().zip(cols) {
            dst.append_from(&self.cols[c], Pick::Index(idx), out.len);
        }
        out.len += idx.len();
    }

    /// Vectorized predicate against a constant: fill `out` with
    /// `cell(r, col) op rhs` for `r` in `start..end`, under
    /// [`Value::satisfies`] semantics (null or incomparable cells are
    /// `false`). One type dispatch per call, not per cell.
    pub fn cmp_const_mask(
        &self,
        col: usize,
        op: CmpOp,
        rhs: &Value,
        start: usize,
        end: usize,
        out: &mut Vec<bool>,
    ) {
        debug_assert!(start <= end && end <= self.len);
        out.clear();
        out.reserve(end - start);
        let c = &self.cols[col];
        match (&c.data, rhs) {
            (ColData::Int(xs), Value::Int(b)) => {
                out.extend(xs[start..end].iter().map(|x| op.matches(x.cmp(b))))
            }
            (ColData::Int(xs), Value::Float(b)) => out.extend(
                xs[start..end]
                    .iter()
                    .map(|&x| (x as f64).partial_cmp(b).is_some_and(|o| op.matches(o))),
            ),
            (ColData::Float(xs), Value::Float(b)) => out.extend(
                xs[start..end]
                    .iter()
                    .map(|x| x.partial_cmp(b).is_some_and(|o| op.matches(o))),
            ),
            (ColData::Float(xs), Value::Int(b)) => out.extend(
                xs[start..end]
                    .iter()
                    .map(|x| x.partial_cmp(&(*b as f64)).is_some_and(|o| op.matches(o))),
            ),
            (ColData::Bool(xs), Value::Bool(b)) => {
                out.extend(xs[start..end].iter().map(|x| op.matches(x.cmp(b))))
            }
            (ColData::Str(xs), Value::Str(b)) => {
                let rhs: &str = b;
                out.extend(xs[start..end].iter().map(|x| op.matches((**x).cmp(rhs))));
            }
            (ColData::Mixed(xs), rhs) => {
                out.extend(xs[start..end].iter().map(|x| x.satisfies(op, rhs)))
            }
            // Null column, null rhs, or incompatible types: all false.
            _ => out.extend(std::iter::repeat_n(false, end - start)),
        }
        if let Some(m) = &c.valid {
            for (o, v) in out.iter_mut().zip(&m[start..end]) {
                *o &= v;
            }
        }
    }

    /// Vectorized column-vs-column predicate: fill `out` with
    /// `cell(r, lcol) op cell(r, rcol)` for `r` in `start..end` under
    /// [`Value::satisfies`] semantics.
    pub fn cmp_cols_mask(
        &self,
        lcol: usize,
        op: CmpOp,
        rcol: usize,
        start: usize,
        end: usize,
        out: &mut Vec<bool>,
    ) {
        debug_assert!(start <= end && end <= self.len);
        out.clear();
        out.reserve(end - start);
        let l = &self.cols[lcol];
        let r = &self.cols[rcol];
        match (&l.data, &r.data) {
            (ColData::Int(a), ColData::Int(b)) => out.extend(
                a[start..end]
                    .iter()
                    .zip(&b[start..end])
                    .map(|(x, y)| op.matches(x.cmp(y))),
            ),
            (ColData::Float(a), ColData::Float(b)) => out.extend(
                a[start..end]
                    .iter()
                    .zip(&b[start..end])
                    .map(|(x, y)| x.partial_cmp(y).is_some_and(|o| op.matches(o))),
            ),
            (ColData::Int(a), ColData::Float(b)) => out.extend(
                a[start..end]
                    .iter()
                    .zip(&b[start..end])
                    .map(|(&x, y)| (x as f64).partial_cmp(y).is_some_and(|o| op.matches(o))),
            ),
            (ColData::Float(a), ColData::Int(b)) => out.extend(
                a[start..end]
                    .iter()
                    .zip(&b[start..end])
                    .map(|(x, &y)| x.partial_cmp(&(y as f64)).is_some_and(|o| op.matches(o))),
            ),
            (ColData::Str(a), ColData::Str(b)) => out.extend(
                a[start..end]
                    .iter()
                    .zip(&b[start..end])
                    .map(|(x, y)| op.matches((**x).cmp(&**y))),
            ),
            (ColData::Bool(a), ColData::Bool(b)) => out.extend(
                a[start..end]
                    .iter()
                    .zip(&b[start..end])
                    .map(|(x, y)| op.matches(x.cmp(y))),
            ),
            // Heterogeneous / null columns: boxed fallback per cell.
            _ => out.extend((start..end).map(|i| l.get(i).satisfies(op, &r.get(i)))),
        }
        let lv = l.valid.as_ref();
        let rv = r.valid.as_ref();
        if lv.is_some() || rv.is_some() {
            for (off, o) in out.iter_mut().enumerate() {
                let i = start + off;
                *o &= lv.is_none_or(|m| m[i]) && rv.is_none_or(|m| m[i]);
            }
        }
    }

    /// Approximate heap footprint in bytes. String payload bytes are
    /// charged only for unshared cells (`Arc::strong_count == 1`) —
    /// interned or otherwise shared content counts just its 16-byte
    /// handle, which is what makes the `BlockBytes` counter reflect the
    /// interning win.
    pub fn byte_size(&self) -> u64 {
        let str_cell = |s: &Arc<str>| {
            let handle = size_of::<Arc<str>>() as u64;
            if Arc::strong_count(s) > 1 {
                handle
            } else {
                handle + s.len() as u64
            }
        };
        let mut total = 0u64;
        for c in &self.cols {
            total += match &c.data {
                ColData::Null => 0,
                ColData::Int(xs) => (xs.len() * size_of::<i64>()) as u64,
                ColData::Float(xs) => (xs.len() * size_of::<f64>()) as u64,
                ColData::Bool(xs) => xs.len() as u64,
                ColData::Str(xs) => xs.iter().map(str_cell).sum(),
                ColData::Mixed(xs) => {
                    (xs.len() * size_of::<Value>()) as u64
                        + xs.iter()
                            .map(|v| match v {
                                Value::Str(s) if Arc::strong_count(s) > 1 => 0,
                                Value::Str(s) => s.len() as u64,
                                _ => 0,
                            })
                            .sum::<u64>()
                }
            };
            if let Some(m) = &c.valid {
                total += m.len() as u64;
            }
        }
        total
    }

    /// Number of string cells whose allocation is shared with another
    /// owner (`Arc::strong_count > 1`) — the `InternHits` measurement.
    pub fn shared_str_cells(&self) -> u64 {
        let mut n = 0u64;
        for c in &self.cols {
            match &c.data {
                ColData::Str(xs) => {
                    n += xs.iter().filter(|s| Arc::strong_count(s) > 1).count() as u64
                }
                ColData::Mixed(xs) => {
                    n += xs
                        .iter()
                        .filter(|v| matches!(v, Value::Str(s) if Arc::strong_count(s) > 1))
                        .count() as u64
                }
                _ => {}
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(s: &str) -> Value {
        Value::str(s)
    }

    #[test]
    fn typed_round_trip() {
        let rows = vec![
            vec![Value::Int(1), vs("a"), Value::Float(1.5), Value::Bool(true)],
            vec![
                Value::Int(2),
                vs("b"),
                Value::Float(2.5),
                Value::Bool(false),
            ],
        ];
        let b = ColumnBlock::from_rows(rows.clone());
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 4);
        assert!(matches!(b.columns()[0].data(), ColData::Int(_)));
        assert!(matches!(b.columns()[1].data(), ColData::Str(_)));
        assert_eq!(b.iter_rows().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn nulls_use_validity_masks() {
        let rows = vec![
            vec![Value::Null, Value::Int(1)],
            vec![Value::Int(7), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        let b = ColumnBlock::from_rows(rows.clone());
        // Column 0 saw null first: the typed vec materializes late.
        assert!(matches!(b.columns()[0].data(), ColData::Int(_)));
        assert_eq!(b.iter_rows().collect::<Vec<_>>(), rows);
        assert!(!b.columns()[0].is_valid(0));
        assert!(b.columns()[0].is_valid(1));
    }

    #[test]
    fn all_null_column_stores_nothing() {
        let rows = vec![vec![Value::Null], vec![Value::Null]];
        let b = ColumnBlock::from_rows(rows.clone());
        assert!(matches!(b.columns()[0].data(), ColData::Null));
        assert_eq!(b.iter_rows().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn heterogeneous_column_demotes_to_mixed() {
        let rows = vec![
            vec![Value::Int(1)],
            vec![vs("two")],
            vec![Value::Null],
            vec![Value::Bool(true)],
        ];
        let b = ColumnBlock::from_rows(rows.clone());
        assert!(matches!(b.columns()[0].data(), ColData::Mixed(_)));
        assert_eq!(b.iter_rows().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn append_range_and_gather_preserve_rows() {
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                vec![
                    Value::Int(i),
                    vs(&format!("s{i}")),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64)
                    },
                ]
            })
            .collect();
        let b = ColumnBlock::from_rows(rows.clone());
        let mut out = ColumnBlock::new(3);
        b.append_range(2, 5, &mut out);
        b.gather_rows(&[0, 9, 3], &mut out);
        let got: Vec<_> = out.iter_rows().collect();
        let want: Vec<_> = [2, 3, 4, 0, 9, 3]
            .iter()
            .map(|&i| rows[i].clone())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cmp_mask_matches_row_at_a_time_semantics() {
        let rows = vec![
            vec![Value::Int(5)],
            vec![Value::Int(50)],
            vec![Value::Null],
            vec![Value::Int(7)],
        ];
        let b = ColumnBlock::from_rows(rows.clone());
        let mut mask = Vec::new();
        b.cmp_const_mask(0, CmpOp::Gt, &Value::Int(6), 0, b.len(), &mut mask);
        let want: Vec<bool> = rows
            .iter()
            .map(|r| r[0].satisfies(CmpOp::Gt, &Value::Int(6)))
            .collect();
        assert_eq!(mask, want);
        // Cross-type numeric comparison stays vectorized.
        b.cmp_const_mask(0, CmpOp::Lt, &Value::Float(7.5), 0, b.len(), &mut mask);
        let want: Vec<bool> = rows
            .iter()
            .map(|r| r[0].satisfies(CmpOp::Lt, &Value::Float(7.5)))
            .collect();
        assert_eq!(mask, want);
        // Sub-range evaluation.
        b.cmp_const_mask(0, CmpOp::Gt, &Value::Int(6), 1, 3, &mut mask);
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn cmp_cols_mask_matches_row_at_a_time_semantics() {
        let rows = vec![
            vec![Value::Int(5), Value::Int(5)],
            vec![Value::Int(2), Value::Int(9)],
            vec![Value::Null, Value::Int(1)],
            vec![Value::Int(3), Value::Null],
        ];
        let b = ColumnBlock::from_rows(rows.clone());
        let mut mask = Vec::new();
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            b.cmp_cols_mask(0, op, 1, 0, b.len(), &mut mask);
            let want: Vec<bool> = rows.iter().map(|r| r[0].satisfies(op, &r[1])).collect();
            assert_eq!(mask, want, "op={op}");
        }
        // Mixed-typed columns fall back but still agree.
        let rows = vec![
            vec![vs("a"), vs("b")],
            vec![Value::Int(1), vs("b")],
            vec![vs("c"), vs("c")],
        ];
        let b = ColumnBlock::from_rows(rows.clone());
        b.cmp_cols_mask(0, CmpOp::Eq, 1, 0, b.len(), &mut mask);
        let want: Vec<bool> = rows
            .iter()
            .map(|r| r[0].satisfies(CmpOp::Eq, &r[1]))
            .collect();
        assert_eq!(mask, want);
    }

    #[test]
    fn clear_keeps_column_types() {
        let mut b = ColumnBlock::from_rows(vec![vec![Value::Int(1), vs("x")]]);
        b.clear();
        assert!(b.is_empty());
        assert!(matches!(b.columns()[0].data(), ColData::Int(_)));
        b.push_row(vec![Value::Int(2), vs("y")]);
        assert_eq!(b.row(0), vec![Value::Int(2), vs("y")]);
    }

    #[test]
    fn shared_strings_are_counted_and_cheap() {
        let s = crate::intern::intern("columnar-shared-label");
        let rows = vec![
            vec![Value::Str(Arc::clone(&s))],
            vec![Value::Str(Arc::clone(&s))],
            vec![Value::Str(Arc::from("unique-not-pooled-here"))],
        ];
        let b = ColumnBlock::from_rows(rows);
        assert_eq!(b.shared_str_cells(), 2);
        // Shared cells charge only their handle, unshared ones their payload.
        assert!(b.byte_size() >= 3 * 16);
    }

    /// Property: *any* row-major `Vec<Value>` sequence survives the
    /// column round-trip exactly — per-cell, per-row, and through the
    /// row-compat iterator — across seeded random type mixes (forcing
    /// typed columns, null masks, and `Mixed` demotion alike).
    #[test]
    fn any_rows_survive_column_round_trip() {
        // Small seeded LCG; the crate takes no property-testing deps.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for case in 0..200u32 {
            let arity = 1 + (next() % 5) as usize;
            let len = (next() % 17) as usize;
            let rows: Vec<Vec<Value>> = (0..len)
                .map(|_| {
                    (0..arity)
                        .map(|_| match next() % 8 {
                            0 => Value::Null,
                            1 => Value::Bool(next() % 2 == 0),
                            2 => Value::Int(next() as i64 - (1 << 30)),
                            3 => Value::Int(i64::MIN / 2 + next() as i64),
                            4 => Value::Float(next() as f64 / 7.0 - 1e8),
                            5 => Value::Float(if next() % 2 == 0 { -0.0 } else { 1e300 }),
                            6 => Value::str(format!("s{}", next() % 50)),
                            // Numeric-looking and empty strings stay strings.
                            _ => Value::str(if next() % 2 == 0 { "007" } else { "" }),
                        })
                        .collect()
                })
                .collect();
            let mut b = ColumnBlock::from_rows(rows.clone());
            if rows.is_empty() {
                // from_rows of nothing has arity 0; nothing to check.
                continue;
            }
            assert_eq!(b.len(), rows.len(), "case {case}");
            assert_eq!(b.arity(), arity, "case {case}");
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(&b.row(r), row, "case {case} row {r}");
                for (c, cell) in row.iter().enumerate() {
                    assert_eq!(&b.value_at(r, c), cell, "case {case} cell {r},{c}");
                }
            }
            let back: Vec<Vec<Value>> = b.iter_rows().collect();
            assert_eq!(back, rows, "case {case}");
            // Incremental append after a bulk build keeps the invariants.
            let extra: Vec<Value> = rows[rows.len() - 1].clone();
            b.push_row(extra.clone());
            assert_eq!(b.row(b.len() - 1), extra, "case {case} appended row");
        }
    }
}
