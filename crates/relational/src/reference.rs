//! A deliberately naive reference evaluator.
//!
//! Computes SELECT statements by materializing the full cartesian
//! product and filtering — obviously correct, obviously slow. Property
//! tests compare the pipelined executor against it.

use crate::ast::{ColRef, Operand, SelectStmt};
use crate::db::Database;
use crate::table::Row;
use mix_common::{MixError, Result, Value};

/// Evaluate `stmt` the slow, obvious way.
pub fn eval_reference(db: &Database, stmt: &SelectStmt) -> Result<Vec<Row>> {
    if stmt.from.is_empty() {
        return Err(MixError::invalid("empty FROM clause"));
    }
    // Materialize the cartesian product, tracking column offsets.
    let mut offsets = Vec::new();
    let mut rows: Vec<Row> = vec![vec![]];
    let mut offset = 0;
    for item in &stmt.from {
        let t = db.table(item.table.as_str())?;
        offsets.push((item.binding().clone(), t.schema().clone(), offset));
        offset += t.schema().arity();
        let mut next = Vec::new();
        for base in &rows {
            for r in t.rows() {
                let mut row = base.clone();
                row.extend(r.iter().cloned());
                next.push(row);
            }
        }
        rows = next;
    }
    let resolve = |col: &ColRef| -> Result<usize> {
        let mut found = None;
        for (name, schema, off) in &offsets {
            let applies = match &col.qualifier {
                Some(q) => q == name,
                None => true,
            };
            if !applies {
                continue;
            }
            if let Some(i) = schema.col_index(col.column.as_str()) {
                if found.is_some() && col.qualifier.is_none() {
                    return Err(MixError::invalid(format!("ambiguous column {col}")));
                }
                found = Some(off + i);
                if col.qualifier.is_some() {
                    break;
                }
            }
        }
        found.ok_or_else(|| MixError::unknown("column", col.to_string()))
    };
    // Filter.
    let mut preds = Vec::new();
    for p in &stmt.preds {
        let l = resolve(&p.lhs)?;
        let r = match &p.rhs {
            Operand::Const(v) => Err(v.clone()),
            Operand::Col(c) => Ok(resolve(c)?),
        };
        preds.push((l, p.op, r));
    }
    rows.retain(|row| {
        preds.iter().all(|(l, op, r)| {
            let rv: &Value = match r {
                Ok(i) => &row[*i],
                Err(v) => v,
            };
            row[*l].satisfies(*op, rv)
        })
    });
    // Sort.
    if !stmt.order_by.is_empty() {
        let keys: Vec<usize> = stmt
            .order_by
            .iter()
            .map(&resolve)
            .collect::<Result<Vec<_>>>()?;
        rows.sort_by(|a, b| {
            for &k in &keys {
                let o = a[k].total_cmp(&b[k]);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    // Project.
    let cols: Vec<usize> = if stmt.items.is_empty() {
        (0..offset).collect()
    } else {
        stmt.items
            .iter()
            .map(|it| resolve(&it.col))
            .collect::<Result<Vec<_>>>()?
    };
    let mut out: Vec<Row> = rows
        .iter()
        .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
        .collect();
    // Distinct (stable, first occurrence wins).
    if stmt.distinct {
        let mut seen = std::collections::HashSet::new();
        out.retain(|r| seen.insert(r.clone()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{gen_db, sample_db};
    use crate::parser::parse_sql;
    use crate::sharded::{Backend, ShardScheme, ShardSpec, ShardedDatabase};

    /// Sort rows for order-insensitive comparison.
    fn canon(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    /// Pull `cur` to exhaustion in blocks of `n`, checking no pull
    /// overruns its block.
    fn pull_all(mut cur: crate::Cursor, n: usize) -> Vec<Row> {
        let mut block = mix_common::ColumnBlock::new(cur.arity());
        let mut rows = Vec::new();
        loop {
            block.clear();
            let k = cur.next_cblock(&mut block, n).unwrap();
            assert!(k <= n, "a pull of {n} returned {k}");
            if k == 0 {
                return rows;
            }
            block.append_rows_to(&mut rows);
        }
    }

    /// Assert that every backend of `db` — the single database, two
    /// range shards and four hash shards — pulls exactly the reference
    /// result of each query in blocks of 1, 2, 3 and 512 (in order
    /// under `ORDER BY`, as a multiset otherwise).
    fn assert_backends_agree(db: &Database, spec: &ShardSpec, queries: &[&str]) {
        let backends = [
            Backend::from(db.clone()),
            Backend::from(
                ShardedDatabase::partition(
                    db,
                    spec.clone(),
                    ShardScheme::range_from(db, spec, 2).unwrap(),
                )
                .unwrap(),
            ),
            Backend::from(
                ShardedDatabase::partition(db, spec.clone(), ShardScheme::Hash { shards: 4 })
                    .unwrap(),
            ),
        ];
        for q in queries {
            let stmt = parse_sql(q).unwrap();
            let slow = eval_reference(db, &stmt).unwrap();
            for backend in &backends {
                for n in [1, 2, 3, 512] {
                    let fast = pull_all(backend.execute(&stmt).unwrap(), n);
                    if stmt.order_by.is_empty() {
                        assert_eq!(canon(fast), canon(slow.clone()), "{q} in blocks of {n}");
                    } else {
                        assert_eq!(fast, slow, "{q} in blocks of {n}");
                    }
                }
            }
        }
    }

    fn customer_orders_spec() -> ShardSpec {
        ShardSpec::new()
            .with("customer", "id")
            .with("orders", "cid")
    }

    #[test]
    fn executor_agrees_with_reference_on_sample_queries() {
        let queries = [
            "SELECT * FROM customer",
            "SELECT c.name FROM customer c WHERE c.name < 'B'",
            "SELECT c.id, o.value FROM customer c, orders o WHERE c.id = o.cid",
            "SELECT DISTINCT c.id FROM customer c, orders o WHERE c.id = o.cid AND o.value > 100",
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid ORDER BY c.id, o.orid",
            "SELECT c1.id FROM customer c1, customer c2 WHERE c1.id = c2.id AND c2.name < 'M'",
            "SELECT c.id, o.orid FROM customer c, orders o",
            "SELECT o.orid FROM orders o WHERE o.value >= 500 AND o.value != 2400",
            // The decontextualized in-place query, exactly as `q` ships it.
            "SELECT DISTINCT c1.id, c1.addr, c1.name, o1.orid, o1.cid, o1.value \
             FROM customer c1, orders o1, customer c2, orders o2 \
             WHERE c1.id = 'C000000' AND o1.value < 40000 AND c1.id = o1.cid \
             AND c2.id = 'C000000' AND c2.id = o2.cid AND c1.id = c2.id \
             ORDER BY c1.id, o1.orid",
            // A cross-table post predicate on a hash join.
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid AND c.name < o.cid",
            // No equi-key: a filtered nested-loop join.
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id < o.cid ORDER BY o.orid",
            "SELECT DISTINCT o.cid FROM orders o WHERE o.value > 500",
            // Addresses repeat across shards: the merge dedups them.
            "SELECT DISTINCT c.addr FROM customer c ORDER BY c.addr",
            // Lookups: a float key on an INT column, a non-key column
            // with many matches, two `=` conjuncts on one scan, a key
            // that matches nothing.
            "SELECT o.orid, o.cid FROM orders o WHERE o.value = 2400.0",
            "SELECT c.id, c.name FROM customer c WHERE c.addr = 'NewYork'",
            "SELECT c.id FROM customer c WHERE c.addr = 'NewYork' AND c.id = 'C000001'",
            "SELECT c.id FROM customer c WHERE c.id = 'C999999'",
            // A probe whose inner scan carries its own predicate, and a
            // lookup under a nested-loop join.
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid AND o.value = 2400",
            "SELECT c.id, o.orid FROM customer c, orders o WHERE o.cid = 'DEF345' AND c.id < o.cid",
            // An inner predicate comparing two of the probed table's columns.
            "SELECT c1.id, c2.name FROM customer c1, customer c2 \
             WHERE c1.id = c2.id AND c2.addr < c2.name",
        ];
        let spec = customer_orders_spec();
        for mut db in [sample_db(), gen_db(17, 3, 9)] {
            db.sort_table_by_key("customer").unwrap();
            db.sort_table_by_key("orders").unwrap();
            assert_backends_agree(&db, &spec, &queries);
        }
    }

    /// The customers/orders shape with everything an index can get
    /// wrong: rows inserted out of key order, duplicate join keys on
    /// both sides, `Null` in join and looked-up columns, one key with
    /// more matches than a scan chunk, and the cross-type numeric pair
    /// `a(id, x FLOAT)` / `b(id, y INT)` (a `FLOAT` column admits
    /// integers, so `a.x` is a mixed column), with integers past 2^53
    /// that share one key without being equal.
    fn edge_db() -> Database {
        const BIG: i64 = 1 << 53;
        use crate::schema::{Column, ColumnType, Schema};
        let mut db = Database::new("edge");
        let table = |cols: &[(&str, ColumnType)], key: &str| {
            Schema::new(
                cols.iter().map(|&(n, t)| Column::new(n, t)).collect(),
                &[key],
            )
            .unwrap()
        };
        use ColumnType::{Float, Int, Text};
        db.create_table(
            "customer",
            table(&[("id", Text), ("addr", Text), ("name", Text)], "id"),
        )
        .unwrap();
        db.create_table(
            "orders",
            table(&[("orid", Int), ("cid", Text), ("value", Int)], "orid"),
        )
        .unwrap();
        db.create_table("a", table(&[("id", Int), ("x", Float)], "id"))
            .unwrap();
        db.create_table("b", table(&[("id", Int), ("y", Int)], "id"))
            .unwrap();
        let s = |v: &str| Value::str(v);
        for (id, addr, name) in [
            ("C3", s("NewYork"), s("Cora")),
            ("C1", Value::Null, s("Abe")),
            ("C2", s("NewYork"), s("Bea")),
            ("C5", s("Austin"), s("Eve")),
            ("C4", s("NewYork"), Value::Null),
        ] {
            db.insert("customer", vec![s(id), addr, name]).unwrap();
        }
        let mut orders = vec![
            (907, s("C2"), 2400),
            (3, s("C1"), 500),
            (9, Value::Null, 2400),
            (1, s("C3"), 100),
            (5, s("C3"), 2400),
            (2, s("C9"), 7),
        ];
        // C2 alone has more orders than one scan chunk.
        orders.extend((0..300).map(|i| (600 - i, s("C2"), i % 7)));
        for (orid, cid, value) in orders {
            db.insert("orders", vec![Value::Int(orid), cid, Value::Int(value)])
                .unwrap();
        }
        for (id, x) in [
            (1, Value::Float(5.0)),
            (2, Value::Float(-0.0)),
            (3, Value::Null),
            (4, Value::Int(5)),
            (5, Value::Float(2.5)),
            (6, Value::Float(BIG as f64)),
        ] {
            db.insert("a", vec![Value::Int(id), x]).unwrap();
        }
        for (id, y) in [
            (2, Value::Int(0)),
            (1, Value::Int(5)),
            (3, Value::Null),
            (4, Value::Int(BIG)),
            (5, Value::Int(BIG + 1)),
        ] {
            db.insert("b", vec![Value::Int(id), y]).unwrap();
        }
        db
    }

    #[test]
    fn executor_agrees_with_reference_on_index_edge_cases() {
        let queries = [
            // Unsorted tables, duplicate keys, a `Null` join key.
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid",
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid ORDER BY o.orid",
            // Duplicate join keys on both sides, `Null` among them.
            "SELECT c1.id, c2.id FROM customer c1, customer c2 WHERE c1.addr = c2.addr",
            // More matches than a scan chunk, alone and as a probe.
            "SELECT o.orid FROM orders o WHERE o.cid = 'C2'",
            "SELECT c.name, o.orid FROM customer c, orders o WHERE o.cid = c.id AND c.id = 'C2'",
            "SELECT o.orid, o.value FROM orders o WHERE o.value = 2400.0",
            // A looked-up column holding `Null`; two `=` conjuncts.
            "SELECT c.id FROM customer c WHERE c.addr = 'NewYork'",
            "SELECT c.id FROM customer c WHERE c.addr = 'NewYork' AND c.name = 'Cora'",
            "SELECT c.id FROM customer c WHERE c.id = 'C7'",
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid AND o.value = 2400",
            // Cross-type numeric equality, as a join and as lookups on
            // a mixed `FLOAT` column.
            "SELECT a.id, b.id FROM a, b WHERE a.x = b.y",
            "SELECT b.id, a.id FROM b, a WHERE b.y = a.x",
            "SELECT a.id FROM a WHERE a.x = 5",
            "SELECT a.id FROM a WHERE a.x = 0",
            "SELECT a.id FROM a WHERE a.x = 2.5 AND a.id = 5",
            // Keys past 2^53: equal keys, unequal integers.
            "SELECT b1.id, b2.id FROM b b1, b b2 WHERE b1.y = b2.y",
            "SELECT b.id FROM b WHERE b.y = 9007199254740993",
            "SELECT a.id FROM a WHERE a.x = 9007199254740993",
        ];
        let spec = customer_orders_spec().with("a", "id").with("b", "id");
        assert_backends_agree(&edge_db(), &spec, &queries);
    }

    /// A float column joined to an int column matches numerically,
    /// `-0.0` included, and 2^53 as a float equals both integers that
    /// round to it.
    #[test]
    fn cross_type_numeric_join_matches() {
        let db = edge_db();
        let stmt = parse_sql("SELECT a.id, b.id FROM a, b WHERE a.x = b.y").unwrap();
        let want: Vec<Row> = [(1, 1), (2, 2), (4, 1), (6, 4), (6, 5)]
            .iter()
            .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
            .collect();
        assert_eq!(eval_reference(&db, &stmt).unwrap(), want);
        assert_eq!(db.execute(&stmt).unwrap().collect_all().unwrap(), want);
    }
}
