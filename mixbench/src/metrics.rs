//! The metric contract: every name `BENCHMARK.json` declares, with its
//! unit, direction and (end-to-end only) regression bound. The JSON
//! file is generated from these tables (`--print-benchmark-json`) and
//! a test keeps the two identical.

use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: None,
    }
}

/// What a client of the mediator sees. Every workload reports every
/// one, and none is ever zero.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("cmds_per_s", "1/s", true, 0.20),
    e2e("cpu_us_per_cmd", "us", false, 0.25),
    e2e("script_us_p90", "us", false, 0.25),
    e2e("first_result_us_p50", "us", false, 0.25),
    e2e("first_result_us_p90", "us", false, 0.25),
    e2e("nav_us_p50", "us", false, 0.25),
    e2e("tuples_per_script", "rows", false, 0.02),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// One or more per program crate on the QDOM path, plus the client's
/// per-workload operations and the tracing's own cost. A metric whose
/// layer does no work in a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("client.walk_us_p50", "us", false),
    layer("client.walk_us_p95", "us", false),
    layer("client.inplace_q_us_p50", "us", false),
    layer("client.inplace_q_us_p95", "us", false),
    layer("client.drain_nodes_per_s", "1/s", true),
    layer("client.bulk_us_p50", "us", false),
    layer("client.nav_us_p99", "us", false),
    layer("client.script_us_p50", "us", false),
    layer("xquery.parse_us", "us", false),
    layer("algebra.translate_us", "us", false),
    layer("rewrite.optimize_us", "us", false),
    layer("rewrite.split_us", "us", false),
    layer("rewrite.logical_us", "us", false),
    layer("rewrite.rules_fired", "count", false),
    layer("qdom.dispatch_query_us", "us", false),
    layer("qdom.decontext_us", "us", false),
    layer("qdom.q_hit_us", "us", false),
    layer("qdom.q_miss_us", "us", false),
    layer("qdom.plan_cache_hit_ratio", "ratio", true),
    layer("qdom.shared_cache_q_us", "us", false),
    layer("qdom.nav_dispatch_ns", "ns", false),
    layer("engine.open_us", "us", false),
    layer("engine.first_child_us", "us", false),
    layer("engine.drain_ns_per_node", "ns", false),
    layer("engine.nodes_built", "count", false),
    layer("engine.cells_decoded", "count", false),
    layer("common.block_bytes", "bytes", false),
    layer("wrapper.lazy_walk_ns_per_node", "ns", false),
    layer("relational.exec_open_us", "us", false),
    layer("relational.cblock_ns_per_row", "ns", false),
    layer("relational.rows_scanned", "count", false),
    layer("relational.tuples_shipped", "count", false),
    layer("relational.blocks_shipped", "count", false),
    layer("relational.sql_queries", "count", false),
    layer("relational.prefetch_hit_ratio", "ratio", true),
    layer("relational.prefetch_stall_ms", "ms", false),
    layer("relational.scatter_merges", "count", false),
    layer("relational.shards_targeted", "count", false),
    layer("relational.shard_queries_routed", "count", false),
    layer("relational.retries", "count", false),
    layer("proto.encode_ns_per_frame", "ns", false),
    layer("proto.decode_ns_per_frame", "ns", false),
    layer("proto.bytes_per_cmd", "bytes", false),
    layer("proto.encode_ns_per_kb", "ns", false),
    layer("proto.decode_ns_per_kb", "ns", false),
    layer("serve.null_rtt_us", "us", false),
    layer("serve.overhead_us", "us", false),
    layer("serve.wire_share_pct", "%", false),
    layer("serve.session_open_us", "us", false),
    layer("serve.session_close_us", "us", false),
    layer("serve.cpu_ms_per_kcmd", "ms", false),
    layer("serve.os_threads", "count", false),
    layer("serve.wire_mb_per_s", "MB/s", true),
    layer("serve.sessions_rejected", "count", false),
    layer("trace.first_result_explained_pct", "%", true),
    layer("trace.overhead_pct", "%", false),
];

/// Program crates with code on the QDOM path; each must own at least
/// one per-layer metric.
pub const LAYERS: &[&str] = &[
    "xquery",
    "algebra",
    "rewrite",
    "qdom",
    "engine",
    "wrapper",
    "relational",
    "common",
    "proto",
    "serve",
];

/// The layer a per-layer metric belongs to: its name up to the dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Layers none of `names` measures.
pub fn missing_layers<'a>(names: impl Iterator<Item = &'a str> + Clone) -> Vec<&'static str> {
    LAYERS
        .iter()
        .copied()
        .filter(|l| !names.clone().any(|n| layer_of(n) == *l))
        .collect()
}

/// How long one run measures.
pub const RUN_SECONDS: u64 = 10;

fn why(w: Workload) -> &'static str {
    match w {
        Workload::BrowseInproc => {
            "12 query classes, first d, 20-sibling walk: compile pipeline and first \
             one-row pull dominate; bulk engine path and serve idle"
        }
        Workload::InplaceInproc => {
            "in-place q from visited nodes, 90% hot classes, 10% never-seen: \
             decontextualization and plan cache, hit and miss paths"
        }
        Workload::DrainInproc => {
            "full d/r drains of Q1 and the view-composed REPORT: operator spine, rQ \
             decode, columnar blocks, joins; compile under 1%"
        }
        Workload::RemoteDrain => {
            "4 hash shards at 2 ms RTT with prefetch: ring, shard merge and routing \
             work; RTT-bound, so CPU-only engine gains must not show"
        }
        Workload::ServedNav => {
            "the browse script over loopback, 2 clients: serve and proto on tiny \
             frames are nearly all of each step; pairs with browse_inproc"
        }
        Workload::ServedBulk => {
            "over loopback, few large frames (512-row exports, renders): a \
             small-frame fast path that costs large replies shows here"
        }
    }
}

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"mixbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"mixbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(w)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let dir = |m: &MetricDef| if m.higher { "higher" } else { "lower" };
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                dir(m),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                dir(m)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_limits_hold() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{m:?}");
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{m:?}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in Workload::ALL {
            names.push(w.name());
            assert!(ok_name(w.name()) && why(w).len() <= 200 && !why(w).contains('\n'));
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    #[test]
    fn every_layer_on_the_qdom_path_has_a_metric() {
        assert!(missing_layers(PER_LAYER.iter().map(|m| m.name)).is_empty());
        let without_wrapper = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| layer_of(n) != "wrapper");
        assert_eq!(missing_layers(without_wrapper), vec!["wrapper"]);
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
