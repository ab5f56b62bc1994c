//! E7: the stateless presorted groupBy (Table 1) vs. the hash
//! implementation, and the per-node `Auto` choice between them.

use mix::prelude::*;
use mix_bench::harness::Harness;
use mix_bench::{drain, Q1};

fn main() {
    let mut h = Harness::from_args("gby_drain_q1");
    for n in [500usize, 2000] {
        for (label, mode) in [
            ("stateless", GByMode::StatelessPresorted),
            ("hash", GByMode::Hash),
            ("auto", GByMode::Auto),
        ] {
            h.bench(&format!("{label}/{n}"), || {
                let (catalog, _db) = mix_repro::datagen::customers_orders(n, 5, 31);
                let m =
                    Mediator::with_options(catalog, MediatorOptions::builder().gby(mode).build());
                let mut s = m.session();
                let p0 = s.query(Q1).unwrap();
                drain(&mut s, p0)
            });
        }
    }
    h.finish();
}
