//! The traced run's per-layer numbers: probes that time one layer's
//! public entry points directly, and the reduction of everything the
//! phases recorded into the `per_layer` metrics of `BENCHMARK.json`.

use crate::rec::{Op, Rec};
use crate::stats::Samples;
use crate::system::{mediator_over, run_local, Counters, Local, Outcome, Phase, System};
use crate::workload::Q1;
use mix::algebra::Op as PlanOp;
use mix::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A value and the number of samples (or scripts, or probe rounds)
/// behind it.
pub type Measured = (f64, usize);

/// Layer probes: each times a public entry point of one crate on this
/// workload's data, outside any script.
#[derive(Debug, Default)]
pub struct Probes {
    pub lazy_walk_ns_per_node: Measured,
    pub cblock_ns_per_row: Measured,
    pub null_rtt_us: Measured,
    pub session_open_us: Vec<f64>,
    pub session_close_us: Vec<f64>,
    pub shared_cache_q_us: Measured,
}

/// Longest any one probe runs.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// `wrapper`: walk the lazily wrapped `root1` source node by node.
fn lazy_walk(catalog: &Catalog) -> Measured {
    fn below(doc: &dyn NavDoc, p: mix::xml::NodeRef, n: &mut u64, until: Instant) {
        let mut cur = doc.first_child(p);
        while let Some(c) = cur {
            *n += 1;
            if (*n).is_multiple_of(64) && Instant::now() >= until {
                return;
            }
            below(doc, c, n, until);
            cur = doc.next_sibling(c);
        }
    }
    let Ok(doc) = catalog.lazy("root1") else {
        return (0.0, 0);
    };
    let t0 = Instant::now();
    let mut n = 0;
    below(doc.as_ref(), doc.root(), &mut n, t0 + PROBE_BUDGET);
    (t0.elapsed().as_nanos() as f64 / n.max(1) as f64, n as usize)
}

/// `relational`: the SQL Q1's split plan ships, executed and pulled in
/// 512-row column blocks straight from the backend.
fn cblock_scan(catalog: &Catalog) -> Measured {
    fn first_sql(op: &PlanOp) -> Option<(&Name, &mix::relational::SelectStmt)> {
        if let PlanOp::RelQuery { server, sql, .. } = op {
            return Some((server, sql));
        }
        op.inputs().into_iter().find_map(first_sql)
    }
    let Ok(plan) = parse_query(Q1).and_then(|q| translate_with_root(&q, "rootv_probe")) else {
        return (0.0, 0);
    };
    let exec = optimize(&plan, catalog).plan;
    let Some((server, sql)) = first_sql(&exec.root) else {
        return (0.0, 0);
    };
    let Ok(db) = catalog.database(server.as_str()) else {
        return (0.0, 0);
    };
    let t0 = Instant::now();
    let mut rows = 0u64;
    while t0.elapsed() < PROBE_BUDGET {
        let Ok(mut cursor) = db.execute(sql) else {
            return (0.0, 0);
        };
        let mut block = ColumnBlock::new(cursor.arity());
        loop {
            block.clear();
            match cursor.next_cblock(&mut block, 512) {
                Ok(0) | Err(_) => break,
                Ok(n) => rows += n as u64,
            }
        }
    }
    (
        t0.elapsed().as_nanos() as f64 / rows.max(1) as f64,
        rows as usize,
    )
}

/// `serve`: round trips that do no mediator work, and session churn.
fn serve_probes(sys: &System, probes: &mut Probes) {
    let Ok(mut client) = sys.connect() else {
        return;
    };
    let mut rtts = Vec::new();
    for _ in 0..300 {
        let t = Instant::now();
        let _ = client.stats();
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let _ = client.close();
    let rounds = rtts.len();
    probes.null_rtt_us = (Samples::new(rtts).median(), rounds);
    for _ in 0..12 {
        let t = Instant::now();
        let Ok(client) = sys.connect() else {
            return;
        };
        probes
            .session_open_us
            .push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        let _ = client.close();
        probes
            .session_close_us
            .push(t.elapsed().as_nanos() as f64 / 1e3);
    }
}

/// `qdom`: the workload's `q`s against a mediator whose sessions share
/// one process-wide plan cache, so later sessions hit what the first
/// compiled.
fn shared_cache_q(sys: &System, seed: u64, epoch: Instant) -> Measured {
    let shared = Arc::new(SharedPlanCache::default());
    let options = MediatorOptions::builder()
        .prefetch(sys.mediator.options().prefetch)
        .shared_plan_cache(shared)
        .build();
    let mediator = mediator_over(sys.catalog.clone(), options);
    let phase = Phase {
        seed,
        duration: PROBE_BUDGET * 2,
        max_scripts: u64::MAX,
        trace: false,
        digest: false,
        epoch,
    };
    let out = run_local(&mediator, sys, phase, Local::Session);
    (
        out.rec.samples(Op::CmdQ).median() / 1e3,
        out.rec.count(Op::CmdQ),
    )
}

pub fn run_probes(sys: &System, issues_q: bool, seed: u64, epoch: Instant) -> Probes {
    let mut p = Probes {
        lazy_walk_ns_per_node: lazy_walk(&sys.catalog),
        cblock_ns_per_row: cblock_scan(&sys.catalog),
        ..Probes::default()
    };
    if sys.workload.served() {
        serve_probes(sys, &mut p);
    }
    if issues_q {
        p.shared_cache_q_us = shared_cache_q(sys, seed, epoch);
    }
    p
}

/// Everything the traced run measured.
pub struct Traced<'a> {
    pub sys: &'a System,
    /// Counting phase: scripts run, their backend and session counters.
    pub counted_scripts: u64,
    pub counted: &'a Counters,
    /// Live phases, tracing off and on; and the staged replay.
    pub untraced: &'a Outcome,
    pub traced: &'a Outcome,
    pub replay: &'a Outcome,
    pub probes: &'a Probes,
    /// Process CPU seconds and server wire bytes over the untraced
    /// live phase.
    pub cpu_s: f64,
    pub wire_bytes: u64,
    pub sessions_rejected: u64,
}

fn median_us(rec: &Rec, op: Op) -> Measured {
    (rec.samples(op).median() / 1e3, rec.count(op))
}

/// A tail for a per-layer metric: informational, so too few samples
/// is said aloud, not fatal (the largest sample stands in).
fn tail_us(rec: &Rec, op: Op, p: f64, name: &str) -> Measured {
    let s = rec.samples(op);
    if s.is_empty() {
        return (0.0, 0);
    }
    let v = s.tail(p, name).unwrap_or_else(|e| {
        eprintln!("mixbench: note: {e}; reporting the largest sample");
        s.max()
    });
    (v / 1e3, s.len())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every `per_layer` metric of `BENCHMARK.json`: name, value, samples.
pub fn per_layer(t: &Traced) -> Vec<(&'static str, f64, usize)> {
    let served = t.sys.workload.served();
    let (live, replay) = (&t.untraced.rec, &t.replay.rec);
    let scripts = t.counted_scripts as usize;
    let per_script =
        |c: Counter| -> Measured { (ratio(t.counted.get(c) as f64, scripts as f64), scripts) };
    let hits = t.counted.get(Counter::PlanCacheHits) as f64;
    let misses = t.counted.get(Counter::PlanCacheMisses) as f64;
    // Codec cost of one small round trip: both frames, both ends.
    let enc = replay.samples(Op::ProtoEncodeSmall).median();
    let dec = replay.samples(Op::ProtoDecodeSmall).median();
    let small_frames = replay.count(Op::ProtoEncodeSmall);
    let large_frames = replay.count(Op::ProtoEncodeLarge);
    let wire_nav_ns = live.samples(Op::Nav).median();
    let wire_navs = live.count(Op::Nav);
    let local_nav_ns = replay.ns_per_unit(Op::DispatchNav);
    let local_navs = replay.total_units(Op::DispatchNav) as usize;
    let frame_bytes = [Op::ProtoEncodeSmall, Op::ProtoEncodeLarge]
        .iter()
        .map(|&op| replay.total_units(op))
        .sum::<u64>() as f64;
    let if_served = |v: f64, n: usize| -> Measured {
        if served {
            (v, n)
        } else {
            (0.0, 0)
        }
    };
    let live_cmds = t.untraced.cmds as usize;
    let opens = Samples::new(t.probes.session_open_us.clone());
    let closes = Samples::new(t.probes.session_close_us.clone());
    let explained = Samples::new(t.replay.explained.clone());
    let exec_open = (
        median_us(replay, Op::RelExecute).0 + median_us(replay, Op::RelCblock).0,
        replay.count(Op::RelExecute),
    );
    let rows: Vec<(&'static str, Measured)> = vec![
        ("client.walk_us_p50", median_us(live, Op::Walk)),
        (
            "client.walk_us_p95",
            tail_us(live, Op::Walk, 0.95, "client.walk_us_p95"),
        ),
        ("client.inplace_q_us_p50", median_us(live, Op::InplaceQ)),
        (
            "client.inplace_q_us_p95",
            tail_us(live, Op::InplaceQ, 0.95, "client.inplace_q_us_p95"),
        ),
        (
            "client.drain_nodes_per_s",
            (
                ratio(
                    live.total_units(Op::Drain) as f64 * 1e9,
                    live.total_ns(Op::Drain),
                ),
                live.count(Op::Drain),
            ),
        ),
        ("client.bulk_us_p50", median_us(live, Op::Bulk)),
        (
            "client.nav_us_p99",
            tail_us(live, Op::Nav, 0.99, "client.nav_us_p99"),
        ),
        ("client.script_us_p50", median_us(live, Op::Script)),
        ("xquery.parse_us", median_us(replay, Op::XqueryParse)),
        (
            "algebra.translate_us",
            median_us(replay, Op::AlgebraTranslate),
        ),
        (
            "rewrite.optimize_us",
            median_us(replay, Op::RewriteOptimize),
        ),
        ("rewrite.split_us", median_us(replay, Op::RewriteSplit)),
        ("rewrite.logical_us", median_us(replay, Op::RewriteLogical)),
        (
            "rewrite.rules_fired",
            (
                ratio(
                    replay.total_units(Op::RewriteOptimize) as f64,
                    replay.count(Op::RewriteOptimize) as f64,
                ),
                replay.count(Op::RewriteOptimize),
            ),
        ),
        (
            "qdom.dispatch_query_us",
            median_us(replay, Op::DispatchQuery),
        ),
        ("qdom.decontext_us", median_us(replay, Op::QdomDecontext)),
        ("qdom.q_hit_us", median_us(replay, Op::DispatchQHit)),
        ("qdom.q_miss_us", median_us(replay, Op::DispatchQMiss)),
        (
            "qdom.plan_cache_hit_ratio",
            (ratio(hits, hits + misses), (hits + misses) as usize),
        ),
        ("qdom.shared_cache_q_us", t.probes.shared_cache_q_us),
        ("qdom.nav_dispatch_ns", (local_nav_ns, local_navs)),
        ("engine.open_us", median_us(replay, Op::EngineOpen)),
        (
            "engine.first_child_us",
            median_us(replay, Op::EngineFirstChild),
        ),
        (
            "engine.drain_ns_per_node",
            (
                ratio(replay.total_ns(Op::DispatchNav), t.replay.nodes as f64),
                t.replay.nodes as usize,
            ),
        ),
        ("engine.nodes_built", per_script(Counter::NodesBuilt)),
        ("engine.cells_decoded", per_script(Counter::CellsDecoded)),
        ("common.block_bytes", per_script(Counter::BlockBytes)),
        (
            "wrapper.lazy_walk_ns_per_node",
            t.probes.lazy_walk_ns_per_node,
        ),
        ("relational.exec_open_us", exec_open),
        ("relational.cblock_ns_per_row", t.probes.cblock_ns_per_row),
        ("relational.rows_scanned", per_script(Counter::RowsScanned)),
        (
            "relational.tuples_shipped",
            per_script(Counter::TuplesShipped),
        ),
        (
            "relational.blocks_shipped",
            per_script(Counter::BlocksShipped),
        ),
        ("relational.sql_queries", per_script(Counter::SqlQueries)),
        (
            "relational.prefetch_hit_ratio",
            (
                ratio(
                    t.counted.get(Counter::PrefetchHitBlocks) as f64,
                    t.counted.get(Counter::BlocksShipped) as f64,
                ),
                t.counted.get(Counter::BlocksShipped) as usize,
            ),
        ),
        (
            "relational.prefetch_stall_ms",
            (per_script(Counter::PrefetchStallNs).0 / 1e6, scripts),
        ),
        (
            "relational.scatter_merges",
            per_script(Counter::ScatterMerges),
        ),
        (
            "relational.shards_targeted",
            per_script(Counter::ShardsTargeted),
        ),
        (
            "relational.shard_queries_routed",
            per_script(Counter::ShardQueriesRouted),
        ),
        ("relational.retries", per_script(Counter::RetriesAttempted)),
        ("proto.encode_ns_per_frame", (enc, small_frames)),
        ("proto.decode_ns_per_frame", (dec, small_frames)),
        (
            "proto.bytes_per_cmd",
            (
                ratio(frame_bytes, t.replay.cmds as f64),
                small_frames + large_frames,
            ),
        ),
        (
            "proto.encode_ns_per_kb",
            (
                replay.ns_per_unit(Op::ProtoEncodeLarge) * 1024.0,
                large_frames,
            ),
        ),
        (
            "proto.decode_ns_per_kb",
            (
                replay.ns_per_unit(Op::ProtoDecodeLarge) * 1024.0,
                large_frames,
            ),
        ),
        ("serve.null_rtt_us", t.probes.null_rtt_us),
        (
            "serve.overhead_us",
            if_served(
                (wire_nav_ns - local_nav_ns - 2.0 * (enc + dec)) / 1e3,
                wire_navs,
            ),
        ),
        (
            "serve.wire_share_pct",
            if_served(100.0 * (1.0 - ratio(local_nav_ns, wire_nav_ns)), wire_navs),
        ),
        ("serve.session_open_us", (opens.median(), opens.len())),
        ("serve.session_close_us", (closes.median(), closes.len())),
        (
            "serve.cpu_ms_per_kcmd",
            if_served(ratio(t.cpu_s * 1e3, live_cmds as f64 / 1e3), live_cmds),
        ),
        (
            "serve.os_threads",
            if_served(t.untraced.os_threads as f64, 1),
        ),
        (
            "serve.wire_mb_per_s",
            if_served(
                ratio(t.wire_bytes as f64 / 1e6, t.untraced.wall.as_secs_f64()),
                live_cmds,
            ),
        ),
        (
            "serve.sessions_rejected",
            if_served(t.sessions_rejected as f64, 1),
        ),
        (
            "trace.first_result_explained_pct",
            (100.0 * explained.median(), explained.len()),
        ),
        (
            "trace.overhead_pct",
            (
                100.0 * (1.0 - ratio(t.traced.cmds_per_s(), t.untraced.cmds_per_s())),
                t.traced.cmds as usize,
            ),
        ),
    ];
    rows.into_iter()
        .map(|(name, (v, n))| (name, v, n))
        .collect()
}
