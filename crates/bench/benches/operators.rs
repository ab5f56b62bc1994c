//! Microbenchmarks: the compilation pipeline (parse → translate →
//! rewrite → split) that runs once per client query, plus the
//! relational substrate the mediator leans on.

use mix::prelude::*;
use mix_bench::harness::Harness;
use mix_bench::{Q1, Q_FIG12};
use std::hint::black_box;

fn bench_pipeline(h: &mut Harness) {
    h.bench("parse_q1", || parse_query(black_box(Q1)).unwrap());
    let q1 = parse_query(Q1).unwrap();
    h.bench("translate_q1", || translate(black_box(&q1)).unwrap());
    h.bench("parse_sql_fig22", || {
        mix::relational::parse_sql(black_box(
            "SELECT c1.id, c1.name, c1.addr, o1.orid, o1.value \
             FROM customer c1, orders o1, customer c2, orders o2 \
             WHERE c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id \
             AND o2.value > 20000 ORDER BY c1.id, o1.orid",
        ))
        .unwrap()
    });
    // The full Fig. 13→22 pipeline: compose, rewrite, split.
    let (catalog, _db) = mix::wrapper::fig2_catalog();
    let view = mix::algebra::translate_with_root(&q1, "rootv").unwrap();
    let q12 = translate(&parse_query(Q_FIG12).unwrap()).unwrap();
    let naive = mix::qdom::splice::compose(&q12, "rootv", &view);
    h.bench("rewrite_fig13_to_21", || rewrite(black_box(&naive)));
    let rewritten = rewrite(&naive).plan;
    h.bench("split_fig21_to_22", || {
        split_plan(black_box(&rewritten), black_box(&catalog))
    });
}

fn bench_relational(h: &mut Harness) {
    let db = mix::relational::fixtures::gen_db(2000, 4, 5);
    h.bench("relational/scan_filter_8000_rows", || {
        db.execute_sql("SELECT * FROM orders WHERE value > 90000")
            .unwrap()
            .collect_all()
    });
    h.bench("relational/hash_join_2000x8000", || {
        db.execute_sql("SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid")
            .unwrap()
            .collect_all()
    });
    for k in [1usize, 100] {
        h.bench(&format!("relational/cursor_first_k/{k}"), || {
            let mut cur = db
                .execute_sql("SELECT * FROM orders WHERE value > 1000")
                .unwrap();
            let mut block = ColumnBlock::new(cur.arity());
            let mut n = 0;
            while n < k {
                if cur.next_cblock(&mut block, 1).unwrap() == 0 {
                    break;
                }
                n += 1;
            }
            n
        });
    }
}

fn main() {
    let mut h = Harness::from_args("operators");
    bench_pipeline(&mut h);
    bench_relational(&mut h);
    h.finish();
}
