//! Typed work counters.
//!
//! Counters use relaxed atomics wrapped in `Arc` by the owners that
//! share them. Each QDOM session is a synchronous command loop, but a
//! session's counters are written from several threads: the pooled
//! prefetch producers account `RetriesAttempted`/`FaultsInjected`/
//! backoff from pool workers, and server threads observe session stats
//! concurrently — so the counter cells are `AtomicU64` rather than
//! `Cell`. All accesses are
//! `Relaxed`: counters are statistics, not synchronization. The counter
//! set is closed and typed: adding a counter means adding a [`Counter`]
//! variant, and every read goes through [`Stats::get`] or the
//! [`Snapshot`]/[`Delta`] API rather than per-counter getters.

use std::fmt;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of counters (one per [`Counter`] variant).
const N: usize = 34;

/// One kind of work the substrate counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// SQL queries issued to a relational source.
    SqlQueries,
    /// Tuples actually shipped from source cursors to the mediator
    /// (the high-watermark of rows pulled; the paper's "partial result
    /// evaluation" shows up as this staying far below the full result).
    TuplesShipped,
    /// Rows examined inside the relational executor (internal work):
    /// the rows a full scan consumed, the candidates an index lookup
    /// checked, and the candidates a join probe checked. A table that
    /// is only probed is never counted whole.
    RowsScanned,
    /// Navigation commands answered by the mediator
    /// (`d`/`r`/`fl`/`fv`/`getRoot`).
    NavCommands,
    /// XMAS operator invocations at the mediator (element creations,
    /// group formations, …) — the "mediator work" metric of claim E5.
    MediatorOps,
    /// Result-tree nodes materialized at the mediator.
    NodesBuilt,
    /// Hash indexes built by the physical join/semi-join/groupBy
    /// kernels (each is one full drain of the build side).
    HashBuilds,
    /// Join predicate evaluations: every candidate pair a join or
    /// semi-join examines. Nested loops pay |L|·|R|; the hash kernels
    /// pay one per probe-side tuple plus bucket matches, i.e.
    /// O(|L| + |R| + |output|).
    JoinProbes,
    /// Joins/semi-joins run as nested loops (the join kernel with no
    /// keys): no equi-conjunct was extractable, or hash joins are off.
    NlFallbacks,
    /// Decontextualized-plan cache hits in the QDOM session.
    PlanCacheHits,
    /// Decontextualized-plan cache misses (full translate + rewrite).
    PlanCacheMisses,
    /// Blocks of tuples shipped from source cursors (block-at-a-time
    /// execution; `Off` mode ships one-row blocks, so this equals
    /// `TuplesShipped` there). Use [`Stats::record_block`] so the
    /// per-block row statistics stay consistent.
    BlocksShipped,
    /// Retries of a failed cursor pull (each re-issue of the same
    /// block after a transient backend fault counts once).
    RetriesAttempted,
    /// Faults the chaos backend injected (transient and permanent).
    FaultsInjected,
    /// Backend errors that *escaped* the retry loop — permanent faults
    /// and exhausted retry budgets surfacing to the layers above.
    BackendErrors,
    /// Total milliseconds of retry backoff scheduled (0 under the
    /// deterministic test policy, whose base backoff is zero).
    RetryBackoffMs,
    /// Blocks the consumer found already waiting in the prefetch
    /// channel (no stall): the pipelined prefetcher hid the backend
    /// round trip for these.
    PrefetchHitBlocks,
    /// Nanoseconds the consumer spent blocked waiting on the prefetch
    /// channel. `PrefetchStallNs` near zero with many
    /// `PrefetchHitBlocks` is what "the overlap is real" looks like.
    PrefetchStallNs,
    /// Prefetcher threads cancelled before they drained their cursor
    /// (session dropped mid-drain, error latched above, …).
    PrefetchAborted,
    /// Approximate heap bytes of shipped columnar blocks (typed column
    /// vectors + validity masks; shared string cells charge only their
    /// handle — see `ColumnBlock::byte_size` in `mix-common`).
    BlockBytes,
    /// Cells (rows × arity) decoded from shipped blocks into result
    /// values — the denominator of the per-cell decode cost.
    CellsDecoded,
    /// String cells in shipped columnar blocks whose allocation was
    /// shared (interned or otherwise multiply-owned) rather than
    /// copied.
    InternHits,
    /// Wire sessions the server accepted (handshake completed and a
    /// worker session started).
    SessionsOpened,
    /// Wire sessions that ended (client close, idle timeout, protocol
    /// error, or server shutdown). `SessionsOpened - SessionsClosed`
    /// is the live-session gauge.
    SessionsClosed,
    /// Connections refused by admission control (max-sessions reached
    /// or version mismatch) — the client got a clean rejection frame,
    /// not a dropped socket.
    SessionsRejected,
    /// QDOM commands dispatched on behalf of wire clients (the served
    /// counterpart of `NavCommands`, counted per framed command).
    WireCommands,
    /// Bytes read off the wire by the server (frame headers included).
    WireBytesIn,
    /// Bytes written to the wire by the server (frame headers
    /// included).
    WireBytesOut,
    /// Shared plan-cache lookups/inserts that found their shard lock
    /// already held and had to wait (mutex-striped LRU; see
    /// `mix_common::ShardedLru`). High values relative to hits+misses
    /// mean too few shards for the session count.
    PlanCacheShardContention,
    /// Cumulative prefetch-executor queue-depth samples, one per job
    /// enqueue (depth observed after the push). Divide by
    /// `PoolTasksRun` for the average backlog a job saw when queued.
    PrefetchQueueDepth,
    /// Jobs dispatched by a worker pool (each pickup of a queued job
    /// counts once; a job that parks and resumes counts again).
    PoolTasksRun,
    /// Total shard executions a sharded backend issued: +1 per routed
    /// query, +N per N-shard scatter. `ShardsTargeted /
    /// (ShardQueriesRouted + ScatterMerges)` is the average fan-out.
    ShardsTargeted,
    /// Statements whose shard-key conjuncts pinned exactly one shard
    /// (no scatter, no merge — the zero-overhead federation path).
    ShardQueriesRouted,
    /// Scatter-gather executions: the statement went to every shard and
    /// the mediator ran a k-way ordered merge over the shard cursors.
    ScatterMerges,
}

impl Counter {
    /// Every counter, in canonical (display) order.
    pub const ALL: [Counter; N] = [
        Counter::SqlQueries,
        Counter::TuplesShipped,
        Counter::RowsScanned,
        Counter::NavCommands,
        Counter::MediatorOps,
        Counter::NodesBuilt,
        Counter::HashBuilds,
        Counter::JoinProbes,
        Counter::NlFallbacks,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::BlocksShipped,
        Counter::RetriesAttempted,
        Counter::FaultsInjected,
        Counter::BackendErrors,
        Counter::RetryBackoffMs,
        Counter::PrefetchHitBlocks,
        Counter::PrefetchStallNs,
        Counter::PrefetchAborted,
        Counter::BlockBytes,
        Counter::CellsDecoded,
        Counter::InternHits,
        Counter::SessionsOpened,
        Counter::SessionsClosed,
        Counter::SessionsRejected,
        Counter::WireCommands,
        Counter::WireBytesIn,
        Counter::WireBytesOut,
        Counter::PlanCacheShardContention,
        Counter::PrefetchQueueDepth,
        Counter::PoolTasksRun,
        Counter::ShardsTargeted,
        Counter::ShardQueriesRouted,
        Counter::ScatterMerges,
    ];

    /// A stable snake_case label (table rendering, log output).
    pub fn label(self) -> &'static str {
        match self {
            Counter::SqlQueries => "sql_queries",
            Counter::TuplesShipped => "tuples_shipped",
            Counter::RowsScanned => "rows_scanned",
            Counter::NavCommands => "nav_commands",
            Counter::MediatorOps => "mediator_ops",
            Counter::NodesBuilt => "nodes_built",
            Counter::HashBuilds => "hash_builds",
            Counter::JoinProbes => "join_probes",
            Counter::NlFallbacks => "nl_fallbacks",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::BlocksShipped => "blocks_shipped",
            Counter::RetriesAttempted => "retries_attempted",
            Counter::FaultsInjected => "faults_injected",
            Counter::BackendErrors => "backend_errors",
            Counter::RetryBackoffMs => "retry_backoff_ms",
            Counter::PrefetchHitBlocks => "prefetch_hit_blocks",
            Counter::PrefetchStallNs => "prefetch_stall_ns",
            Counter::PrefetchAborted => "prefetch_aborted",
            Counter::BlockBytes => "block_bytes",
            Counter::CellsDecoded => "cells_decoded",
            Counter::InternHits => "intern_hits",
            Counter::SessionsOpened => "sessions_opened",
            Counter::SessionsClosed => "sessions_closed",
            Counter::SessionsRejected => "sessions_rejected",
            Counter::WireCommands => "wire_commands",
            Counter::WireBytesIn => "wire_bytes_in",
            Counter::WireBytesOut => "wire_bytes_out",
            Counter::PlanCacheShardContention => "plan_cache_shard_contention",
            Counter::PrefetchQueueDepth => "prefetch_queue_depth",
            Counter::PoolTasksRun => "pool_tasks_run",
            Counter::ShardsTargeted => "shards_targeted",
            Counter::ShardQueriesRouted => "shard_queries_routed",
            Counter::ScatterMerges => "scatter_merges",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared mutable counter set. Clone to share (reference semantics).
/// `Send + Sync`: the prefetcher thread bumps retry/fault counters
/// directly.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    inner: Arc<StatsInner>,
}

#[derive(Debug)]
struct StatsInner {
    counts: [AtomicU64; N],
    // Per-block row counts, tracked outside the Snapshot/Delta arrays:
    // they are aggregates (min/max/total), not monotone counters.
    block_min: AtomicU64,
    block_max: AtomicU64,
    block_rows: AtomicU64,
}

impl Default for StatsInner {
    fn default() -> StatsInner {
        StatsInner {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            block_min: AtomicU64::new(0),
            block_max: AtomicU64::new(0),
            block_rows: AtomicU64::new(0),
        }
    }
}

/// Aggregate per-block row counts (see [`Stats::record_block`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRows {
    /// Smallest block shipped so far.
    pub min: u64,
    /// Largest block shipped so far.
    pub max: u64,
    /// Total rows shipped in blocks (`total / blocks` = average).
    pub total: u64,
}

impl BlockRows {
    /// Mean rows per block given the `BlocksShipped` count.
    pub fn avg(&self, blocks: u64) -> f64 {
        if blocks == 0 {
            0.0
        } else {
            self.total as f64 / blocks as f64
        }
    }
}

impl Stats {
    /// Fresh zeroed counters.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Increment `c` by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        self.inner.counts[c.idx()].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment `c` by one.
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Read one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.inner.counts[c.idx()].load(Ordering::Relaxed)
    }

    /// Record one shipped block of `rows` tuples: bumps
    /// [`Counter::BlocksShipped`] and folds `rows` into the min/max/avg
    /// aggregates readable via [`Stats::block_rows`]. Callers still
    /// account the tuples themselves (e.g. `TuplesShipped`), since not
    /// every counter that ships rows does so in blocks.
    pub fn record_block(&self, rows: u64) {
        self.inc(Counter::BlocksShipped);
        // 0 is the "unset" sentinel for the minimum; blocks are ≥ 1.
        let _ = self
            .inner
            .block_min
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |min| {
                (min == 0 || rows < min).then_some(rows)
            });
        let _ = self
            .inner
            .block_max
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |max| {
                (rows > max).then_some(rows)
            });
        self.inner.block_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Min/max/total rows per shipped block, or `None` before any block
    /// was recorded.
    pub fn block_rows(&self) -> Option<BlockRows> {
        if self.get(Counter::BlocksShipped) == 0 {
            return None;
        }
        Some(BlockRows {
            min: self.inner.block_min.load(Ordering::Relaxed),
            max: self.inner.block_max.load(Ordering::Relaxed),
            total: self.inner.block_rows.load(Ordering::Relaxed),
        })
    }

    /// Reset every counter to zero (between benchmark trials).
    pub fn reset(&self) {
        for cell in &self.inner.counts {
            cell.store(0, Ordering::Relaxed);
        }
        self.inner.block_min.store(0, Ordering::Relaxed);
        self.inner.block_max.store(0, Ordering::Relaxed);
        self.inner.block_rows.store(0, Ordering::Relaxed);
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counts: std::array::from_fn(|i| self.inner.counts[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable point-in-time copy of [`Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; N],
}

// Manual: `Default` is not derivable for arrays longer than 32.
impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot { counts: [0; N] }
    }
}

impl Snapshot {
    /// Read one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c.idx()]
    }

    /// The work done between `earlier` and `self`
    /// (alias for [`Delta::between`] with the arguments swapped).
    pub fn since(&self, earlier: &Snapshot) -> Delta {
        Delta::between(earlier, self)
    }
}

impl Index<Counter> for Snapshot {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.counts[c.idx()]
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sql={} shipped={} scanned={} nav={} medops={} nodes={} \
             hash={} probes={} nlfb={} pc={}+{} blocks={} retries={} \
             faults={} backend_errs={} backoff_ms={} pf_hit={} \
             pf_stall_ns={} pf_aborted={} blk_bytes={} cells={} \
             intern_hits={} sess={}-{}/rej{} wire_cmds={} wire_in={} \
             wire_out={}",
            self.get(Counter::SqlQueries),
            self.get(Counter::TuplesShipped),
            self.get(Counter::RowsScanned),
            self.get(Counter::NavCommands),
            self.get(Counter::MediatorOps),
            self.get(Counter::NodesBuilt),
            self.get(Counter::HashBuilds),
            self.get(Counter::JoinProbes),
            self.get(Counter::NlFallbacks),
            self.get(Counter::PlanCacheHits),
            self.get(Counter::PlanCacheMisses),
            self.get(Counter::BlocksShipped),
            self.get(Counter::RetriesAttempted),
            self.get(Counter::FaultsInjected),
            self.get(Counter::BackendErrors),
            self.get(Counter::RetryBackoffMs),
            self.get(Counter::PrefetchHitBlocks),
            self.get(Counter::PrefetchStallNs),
            self.get(Counter::PrefetchAborted),
            self.get(Counter::BlockBytes),
            self.get(Counter::CellsDecoded),
            self.get(Counter::InternHits),
            self.get(Counter::SessionsOpened),
            self.get(Counter::SessionsClosed),
            self.get(Counter::SessionsRejected),
            self.get(Counter::WireCommands),
            self.get(Counter::WireBytesIn),
            self.get(Counter::WireBytesOut),
        )
    }
}

/// Per-counter differences between two [`Snapshot`]s (saturating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delta {
    counts: [u64; N],
}

// Manual: `Default` is not derivable for arrays longer than 32.
impl Default for Delta {
    fn default() -> Delta {
        Delta { counts: [0; N] }
    }
}

impl Delta {
    /// Counter increments from `before` to `after`.
    pub fn between(before: &Snapshot, after: &Snapshot) -> Delta {
        Delta {
            counts: std::array::from_fn(|i| after.counts[i].saturating_sub(before.counts[i])),
        }
    }

    /// Read one counter delta.
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c.idx()]
    }

    /// True when no counter moved.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

impl Index<Counter> for Delta {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.counts[c.idx()]
    }
}

impl fmt::Display for Delta {
    /// An aligned two-column table, one row per counter that moved.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return writeln!(f, "  (no work counted)");
        }
        for c in Counter::ALL {
            let v = self.get(c);
            if v != 0 {
                writeln!(f, "  {:<19} {v}", c.label())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shared_by_clone() {
        let a = Stats::new();
        let b = a.clone();
        a.add(Counter::TuplesShipped, 3);
        b.add(Counter::TuplesShipped, 2);
        assert_eq!(a.get(Counter::TuplesShipped), 5);
    }

    #[test]
    fn counters_shared_across_threads() {
        let a = Stats::new();
        let b = a.clone();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                b.inc(Counter::RetriesAttempted);
            }
        });
        for _ in 0..100 {
            a.inc(Counter::RetriesAttempted);
        }
        t.join().unwrap();
        assert_eq!(a.get(Counter::RetriesAttempted), 200);
    }

    #[test]
    fn snapshot_delta() {
        let s = Stats::new();
        s.inc(Counter::SqlQueries);
        let before = s.snapshot();
        s.add(Counter::SqlQueries, 2);
        s.add(Counter::NavCommands, 7);
        let d = Delta::between(&before, &s.snapshot());
        assert_eq!(d[Counter::SqlQueries], 2);
        assert_eq!(d[Counter::NavCommands], 7);
        assert_eq!(d[Counter::TuplesShipped], 0);
        assert_eq!(s.snapshot().since(&before), d);
    }

    #[test]
    fn reset_zeroes() {
        let s = Stats::new();
        s.add(Counter::RowsScanned, 9);
        s.reset();
        assert_eq!(s.snapshot(), Snapshot::default());
    }

    #[test]
    fn delta_renders_nonzero_rows() {
        let s = Stats::new();
        let before = s.snapshot();
        s.add(Counter::TuplesShipped, 4);
        let d = Delta::between(&before, &s.snapshot());
        let text = d.to_string();
        assert!(text.contains("tuples_shipped"), "{text}");
        assert!(!text.contains("sql_queries"), "{text}");
        assert!(Delta::default().is_zero());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Counter::PlanCacheMisses.to_string(), "plan_cache_misses");
        assert_eq!(Counter::BlocksShipped.to_string(), "blocks_shipped");
        assert_eq!(Counter::RetriesAttempted.to_string(), "retries_attempted");
        assert_eq!(Counter::FaultsInjected.to_string(), "faults_injected");
        assert_eq!(Counter::BackendErrors.to_string(), "backend_errors");
        assert_eq!(Counter::RetryBackoffMs.to_string(), "retry_backoff_ms");
        assert_eq!(
            Counter::PrefetchHitBlocks.to_string(),
            "prefetch_hit_blocks"
        );
        assert_eq!(Counter::PrefetchStallNs.to_string(), "prefetch_stall_ns");
        assert_eq!(Counter::PrefetchAborted.to_string(), "prefetch_aborted");
        assert_eq!(Counter::BlockBytes.to_string(), "block_bytes");
        assert_eq!(Counter::CellsDecoded.to_string(), "cells_decoded");
        assert_eq!(Counter::InternHits.to_string(), "intern_hits");
        assert_eq!(Counter::SessionsOpened.to_string(), "sessions_opened");
        assert_eq!(Counter::SessionsClosed.to_string(), "sessions_closed");
        assert_eq!(Counter::SessionsRejected.to_string(), "sessions_rejected");
        assert_eq!(Counter::WireCommands.to_string(), "wire_commands");
        assert_eq!(Counter::WireBytesIn.to_string(), "wire_bytes_in");
        assert_eq!(Counter::WireBytesOut.to_string(), "wire_bytes_out");
        assert_eq!(Counter::ShardsTargeted.to_string(), "shards_targeted");
        assert_eq!(
            Counter::ShardQueriesRouted.to_string(),
            "shard_queries_routed"
        );
        assert_eq!(Counter::ScatterMerges.to_string(), "scatter_merges");
        assert_eq!(Counter::ALL.len(), 34);
    }

    #[test]
    fn block_rows_track_min_max_avg() {
        let s = Stats::new();
        assert!(s.block_rows().is_none());
        s.record_block(1);
        s.record_block(4);
        s.record_block(7);
        assert_eq!(s.get(Counter::BlocksShipped), 3);
        let b = s.block_rows().unwrap();
        assert_eq!((b.min, b.max, b.total), (1, 7, 12));
        assert!((b.avg(3) - 4.0).abs() < 1e-9);
        s.reset();
        assert!(s.block_rows().is_none());
    }
}
