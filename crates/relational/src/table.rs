//! Row storage.

use crate::schema::Schema;
use mix_common::{ColumnBlock, Result, ScalarKey, Value};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One tuple.
pub type Row = Vec<Value>;

/// An in-memory table: a schema plus rows in insertion order, with a
/// lazily built columnar mirror for the vectorized scan path and a
/// lazily built equality index per column for lookups and join probes.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
    /// Columnar mirror of `rows`, built on first [`Table::block`]
    /// call and discarded by any mutation. `OnceLock` so concurrent
    /// scans through `Arc<Table>` share one build.
    cols: OnceLock<ColumnBlock>,
    /// One equality index slot per column, each built on first
    /// [`Table::key_index`] call; the slots themselves appear on the
    /// first call, so loading a table costs nothing here, and any
    /// mutation discards them with one `take`, like `cols`.
    idx: OnceLock<Box<[OnceLock<KeyIndex>]>>,
}

/// An equality index over one column: the row ids of every key, in
/// ascending row order. Keys are [`Value::eq_key`]s, so the index is
/// complete for `=` under [`Value::compare`] (`3` finds `3.0`), and
/// exact unless the probe is an integer past 2^53
/// ([`Value::eq_key_is_exact`]), whose candidates callers re-check with
/// the comparison itself. `Null` cells have no key and are not indexed.
#[derive(Debug)]
pub struct KeyIndex {
    /// Row ids grouped by key, ascending within a key.
    ids: Vec<u32>,
    /// Each key's group: a range of `ids`.
    groups: HashMap<ScalarKey, (u32, u32)>,
}

impl KeyIndex {
    /// Index column `col` of `rows`: a counting sort of the row ids by
    /// key, so each key costs one map entry and no vector of its own.
    fn build(rows: &[Row], col: usize) -> KeyIndex {
        assert!(
            u32::try_from(rows.len()).is_ok(),
            "table too large to index"
        );
        const NO_KEY: u32 = u32::MAX;
        // Pass 1: each row's group id, and each group's size.
        let mut groups: HashMap<ScalarKey, (u32, u32)> = HashMap::new();
        let mut sizes: Vec<u32> = Vec::new();
        let group_of: Vec<u32> = rows
            .iter()
            .map(|r| {
                let Some(key) = r[col].eq_key() else {
                    return NO_KEY;
                };
                let next = sizes.len() as u32;
                let g = groups.entry(key).or_insert((next, 0)).0;
                if g == next {
                    sizes.push(0);
                }
                sizes[g as usize] += 1;
                g
            })
            .collect();
        // Pass 2: each group's start, then its rows in ascending order.
        let mut fill: Vec<u32> = sizes
            .iter()
            .scan(0u32, |at, &n| {
                let start = *at;
                *at += n;
                Some(start)
            })
            .collect();
        for range in groups.values_mut() {
            let g = range.0 as usize;
            *range = (fill[g], fill[g] + sizes[g]);
        }
        let mut ids = vec![0u32; sizes.iter().map(|&n| n as usize).sum()];
        for (r, &g) in group_of.iter().enumerate() {
            if g != NO_KEY {
                let slot = &mut fill[g as usize];
                ids[*slot as usize] = r as u32;
                *slot += 1;
            }
        }
        KeyIndex { ids, groups }
    }

    /// The ids of the rows whose cell shares `key`'s equality key, in
    /// ascending order; empty for `Null` or an absent key.
    pub fn lookup(&self, key: &Value) -> &[u32] {
        key.eq_key()
            .and_then(|k| self.groups.get(&k))
            .map_or(&[], |&(a, b)| &self.ids[a as usize..b as usize])
    }
}

impl Clone for Table {
    fn clone(&self) -> Table {
        // The mirror and the indexes are caches: the clone rebuilds
        // them on demand.
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            cols: OnceLock::new(),
            idx: OnceLock::new(),
        }
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
            cols: OnceLock::new(),
            idx: OnceLock::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a row after schema checking.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        self.drop_caches();
        self.rows.push(row);
        Ok(())
    }

    /// Append many rows.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The columnar mirror of the table, built on first use. Cell
    /// values are shared with the row storage (`Arc` string handles are
    /// cloned, not re-interned), so the mirror costs one refcount bump
    /// per string cell plus the typed vectors themselves.
    pub fn block(&self) -> &ColumnBlock {
        self.cols.get_or_init(|| {
            let mut b = ColumnBlock::new(self.schema.arity());
            b.reserve(self.rows.len());
            for r in &self.rows {
                b.push_row(r.clone());
            }
            b
        })
    }

    /// The equality index of column `col`, built on first use. Like
    /// the mirror it lives as long as the table is unmodified, so every
    /// statement (and every thread) after the first shares one build.
    pub fn key_index(&self, col: usize) -> &KeyIndex {
        let slots = self
            .idx
            .get_or_init(|| (0..self.schema.arity()).map(|_| OnceLock::new()).collect());
        slots[col].get_or_init(|| KeyIndex::build(&self.rows, col))
    }

    /// Discard the mirror and the indexes (any mutation does).
    fn drop_caches(&mut self) {
        self.cols.take();
        self.idx.take();
    }

    /// Sort rows by the primary key (the wrapper exports tuples in key
    /// order so repeated scans are deterministic).
    pub fn sort_by_key(&mut self) {
        let key: Vec<usize> = self.schema.key().to_vec();
        self.drop_caches();
        self.rows.sort_by(|a, b| {
            for &k in &key {
                let o = a[k].total_cmp(&b[k]);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn orders() -> Table {
        let s = Schema::new(
            vec![
                Column::new("orid", ColumnType::Int),
                Column::new("cid", ColumnType::Text),
                Column::new("value", ColumnType::Int),
            ],
            &["orid"],
        )
        .unwrap();
        Table::new(s)
    }

    #[test]
    fn insert_and_read() {
        let mut t = orders();
        t.insert(vec![
            Value::Int(28904),
            Value::str("XYZ123"),
            Value::Int(2400),
        ])
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][2], Value::Int(2400));
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn columnar_mirror_tracks_mutations() {
        let mut t = orders();
        t.insert(vec![Value::Int(2), Value::str("b"), Value::Int(20)])
            .unwrap();
        let c = t.block();
        assert_eq!(c.len(), 1);
        assert_eq!(c.value_at(0, 2), Value::Int(20));
        // Mutation discards the mirror; the next call rebuilds it.
        t.insert(vec![Value::Int(1), Value::str("a"), Value::Int(10)])
            .unwrap();
        assert_eq!(t.block().len(), 2);
        t.sort_by_key();
        assert_eq!(t.block().value_at(0, 0), Value::Int(1));
        // Clones rebuild their own mirror.
        let u = t.clone();
        assert_eq!(u.block().len(), 2);

        // The column indexes follow the same lifecycle.
        let mut t = orders();
        for (orid, cid) in [(3, "b"), (1, "a"), (2, "b")] {
            t.insert(vec![Value::Int(orid), Value::str(cid), Value::Int(0)])
                .unwrap();
        }
        // Rows of one key come in ascending row order.
        assert_eq!(t.key_index(1).lookup(&Value::str("b")), &[0, 2]);
        assert_eq!(t.key_index(1).lookup(&Value::str("z")), &[] as &[u32]);
        assert_eq!(t.key_index(1).lookup(&Value::Null), &[] as &[u32]);
        // Numeric keys are normalized: a float finds its integer.
        assert_eq!(t.key_index(0).lookup(&Value::Float(1.0)), &[1]);
        // Mutation discards every index; the next call rebuilds it.
        t.insert(vec![Value::Int(4), Value::str("a"), Value::Null])
            .unwrap();
        assert_eq!(t.key_index(1).lookup(&Value::str("a")), &[1, 3]);
        // Null cells are not indexed.
        assert_eq!(t.key_index(2).lookup(&Value::Int(0)), &[0, 1, 2]);
        t.sort_by_key();
        assert_eq!(t.key_index(1).lookup(&Value::str("b")), &[1, 2]);
        assert_eq!(t.key_index(0).lookup(&Value::Int(1)), &[0]);
        // Clones rebuild their own index.
        let u = t.clone();
        assert_eq!(u.key_index(1).lookup(&Value::str("a")), &[0, 3]);
    }

    #[test]
    fn sort_by_key_orders_rows() {
        let mut t = orders();
        for orid in [3, 1, 2] {
            t.insert(vec![Value::Int(orid), Value::str("c"), Value::Int(0)])
                .unwrap();
        }
        t.sort_by_key();
        let ids: Vec<_> = t.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}
