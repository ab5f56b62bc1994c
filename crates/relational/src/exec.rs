//! Pipelined execution.
//!
//! Every plan node is a `RowIter` that appends typed column blocks
//! ([`ColumnBlock`]) on demand, and [`Cursor`] is the source's client
//! handle, which "allows the partial evaluation of the result"
//! (Section 1). One shape crosses every seam — operator to operator,
//! plan to cursor, cursor to the mediator's `rQ` decoder — so no tuple
//! is boxed between a table's columnar mirror and the decoder. The
//! shared [`Stats`] counts rows scanned internally and tuples shipped
//! through the cursor, so benchmarks can observe how much of a query
//! the mediator actually pulled.
//!
//! A pull of `n` appends `k <= n` rows and returns `k`; `0` means
//! exhausted. Operators that produce more rows than asked (a probe row
//! with many matches) carry the surplus to the next pull, so a pull
//! never ships a tuple nobody asked for — nor one past a fault horizon.
//!
//! Every pull is fallible: a remote backend (or the chaos wrapper,
//! [`crate::FaultPolicy`]) can fail any block, so pulls return `Result`
//! and a failed pull delivers *no* rows — re-issuing the same pull
//! after a transient fault returns exactly what the failed one would
//! have ([`Cursor::next_cblock_retrying`]).

use crate::fault::ChaosState;
use crate::plan::{Access, PhysPlan, ROperand, RPred};
use crate::prefetch::{self, FetchedBlock, PrefetchHandle, PrefetchMsg};
use crate::table::{Row, Table};
use mix_common::ring::TryRecv;
use mix_common::{
    BlockRamp, CmpOp, ColumnBlock, Counter, MixError, PrefetchPolicy, Result, RetryPolicy, Stats,
};
use mix_obs::TracerHandle;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// A pipelined operator over column blocks. Fallible: only the chaos
/// wrapper fails today, but the `Result` contract is what lets real
/// remote backends slot in behind the same cursor. `Send` because
/// blocks are plain [`Value`] data: the pipelined prefetcher can move a
/// compiled plan to its thread without touching anything above the
/// [`Cursor`] seam.
pub(crate) trait RowIter: Send {
    /// Append up to `n` rows to `out` and return how many were appended
    /// — never more than `n`; `0` means exhausted. On `Err`, nothing
    /// was appended.
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize>;

    /// `(lower, upper)` bounds on the rows still to come, like
    /// [`Iterator::size_hint`].
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// Block size for internal full drains (nested-loop inner sides, sorts,
/// eager collection). One block of this size costs one virtual dispatch.
const DRAIN_BLOCK: usize = mix_common::MAX_AUTO_BLOCK;

/// Drain `src` to exhaustion into one block of `arity` columns.
fn drain_all(src: &mut dyn RowIter, arity: usize) -> Result<ColumnBlock> {
    let mut block = ColumnBlock::new(arity);
    block.reserve(src.size_hint().0);
    while src.next_cblock(&mut block, DRAIN_BLOCK)? > 0 {}
    Ok(block)
}

/// Run one chaos-gated pull against the compiled plan: the fault gate
/// fires *before* any row is produced (so a failed pull is
/// side-effect-free and retryable), and the modelled backend RTT is
/// *returned*, not paid — the synchronous path sleeps it inline, the
/// prefetcher defers delivery to the block's arrival time. Shared by
/// [`Cursor`] and the prefetcher so both paths run the exact same admit
/// sequence.
pub(crate) fn gated_cpull(
    iter: &mut dyn RowIter,
    chaos: &mut Option<ChaosState>,
    out: &mut ColumnBlock,
    n: usize,
) -> Result<(usize, u64)> {
    match chaos {
        None => Ok((iter.next_cblock(out, n)?, 0)),
        Some(state) => {
            let (allowed, latency_ms) = state.admit(n)?;
            let k = iter.next_cblock(out, allowed)?;
            state.delivered(k as u64);
            Ok((k, latency_ms))
        }
    }
}

fn sleep_ms(ms: u64) {
    if ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Where a cursor's rows come from.
enum Backing {
    /// Synchronous pulls straight from the compiled plan, gated by the
    /// chaos backend. The starting state of every cursor.
    Sync {
        iter: Box<dyn RowIter>,
        chaos: Option<ChaosState>,
    },
    /// A background prefetcher owns the plan; blocks arrive over its
    /// bounded channel.
    Live(PrefetchHandle),
    /// The prefetcher surfaced a terminal error; every further pull
    /// re-reports it (matching the latched-error semantics consumers
    /// already implement for the synchronous path).
    Latched(MixError),
    /// Exhausted: the prefetcher drained the plan and was joined.
    Done,
    /// K-way ordered merge over per-shard child cursors (the
    /// scatter-gather path of a sharded backend). The children account
    /// their own shipped tuples/blocks into the shared aggregate
    /// [`Stats`]; the merge itself only tracks `delivered`.
    Merge(MergeState),
}

/// State of a k-way ordered merge over shard cursors.
///
/// Each child streams blocks already sorted by the comparator key
/// positions (`keys`); the merge repeatedly emits the smallest head
/// row. Invariants:
///
/// * A child is pulled only when its block is used up, so `done[i]`
///   implies nothing is buffered for it — exhaustion never strands rows.
/// * Rows are emitted only while every non-exhausted child has a
///   buffered row; when one runs dry mid-block the pull returns a
///   *partial* count (`> 0`), and only full exhaustion returns `0`.
/// * Refill errors surface before anything is emitted, and a failed
///   child pull is side-effect-free — so the whole merge pull is
///   retryable, and a retry only re-pulls the child that failed.
pub(crate) struct MergeState {
    children: Vec<Cursor>,
    /// Each child's current block, and the index of its head row.
    bufs: Vec<ColumnBlock>,
    heads: Vec<usize>,
    done: Vec<bool>,
    /// Comparator positions into the (possibly key-widened) child row.
    keys: Vec<usize>,
    /// The delivered columns, `0..arity`: the shard statements may be
    /// widened with trailing key columns to make the merge order total,
    /// and the consumer never sees those.
    keep: Vec<usize>,
    /// DISTINCT merge: break comparator ties on the full row (equal
    /// rows from different shards become adjacent) and drop adjacent
    /// duplicates.
    dedup: bool,
    /// Last row emitted (pre-strip), for adjacent dedup.
    last: Option<Row>,
}

impl MergeState {
    /// Rows of child `i`'s block not yet emitted.
    fn buffered(&self, i: usize) -> usize {
        self.bufs[i].len() - self.heads[i]
    }

    /// Compare the head rows of children `a` and `b`; the child index
    /// is the final tie-break, making the merge deterministic.
    fn cmp_heads(&self, a: usize, b: usize) -> Ordering {
        let (x, xr) = (&self.bufs[a], self.heads[a]);
        let (y, yr) = (&self.bufs[b], self.heads[b]);
        let full = if self.dedup { 0..x.arity() } else { 0..0 };
        self.keys
            .iter()
            .copied()
            .chain(full)
            .map(|c| x.value_at(xr, c).total_cmp(&y.value_at(yr, c)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.cmp(&b))
    }

    /// Append up to `n` merged rows to `out`. See the struct docs for
    /// the refill/emit protocol.
    fn pull(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        let kids = 0..self.children.len();
        let mut k = 0;
        loop {
            // Phase 1: refill every used-up, non-exhausted child.
            // Errors propagate before any row of this round is emitted.
            for i in kids.clone() {
                if self.done[i] || self.buffered(i) > 0 {
                    continue;
                }
                self.bufs[i].clear();
                self.heads[i] = 0;
                if self.children[i].next_cblock(&mut self.bufs[i], n)? == 0 {
                    self.done[i] = true;
                }
            }
            if kids.clone().all(|i| self.buffered(i) == 0) {
                return Ok(k); // fully exhausted (k may be 0)
            }
            // Phase 2: emit minima while every live child is buffered.
            while k < n && kids.clone().all(|i| self.done[i] || self.buffered(i) > 0) {
                let Some(b) = kids
                    .clone()
                    .filter(|&i| self.buffered(i) > 0)
                    .min_by(|&a, &b| self.cmp_heads(a, b))
                else {
                    return Ok(k); // all buffers empty and all done
                };
                let r = self.heads[b];
                self.heads[b] += 1;
                if self.dedup {
                    let row = self.bufs[b].row(r);
                    if self.last.as_ref() == Some(&row) {
                        continue; // cross-shard duplicate under DISTINCT
                    }
                    self.last = Some(row);
                }
                self.bufs[b].append_projected(&self.keep, r, r + 1, out);
                k += 1;
            }
            if k > 0 {
                return Ok(k);
            }
            // A live child ran dry before anything was emitted (or
            // dedup consumed the whole round); refill and continue.
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered: usize = (0..self.children.len()).map(|i| self.buffered(i)).sum();
        let (mut lo, mut hi) = (buffered, Some(buffered));
        for (i, c) in self.children.iter().enumerate() {
            if !self.done[i] {
                let (l, h) = c.size_hint();
                lo += l;
                hi = hi.zip(h).map(|(a, b)| a + b);
            }
        }
        if self.dedup {
            (0, hi)
        } else {
            (lo, hi)
        }
    }
}

/// Prefetch configuration armed on a cursor but not yet started (the
/// thread spawns only after the first demanded pull — see
/// [`Cursor::enable_prefetch`]).
struct ArmedPrefetch {
    depth: usize,
    ramp: BlockRamp,
    retry: RetryPolicy,
}

/// The cursor a source hands back for a query. Pull blocks with
/// [`Cursor::next_cblock`]; each delivered row bumps the source's
/// `tuples_shipped` counter (a row never pulled is never counted — the
/// measurable benefit of navigation-driven evaluation).
pub struct Cursor {
    backing: Backing,
    armed: Option<ArmedPrefetch>,
    stats: Stats,
    tracer: TracerHandle,
    arity: usize,
    delivered: u64,
    retries: u64,
}

impl Cursor {
    pub(crate) fn new(
        plan: &PhysPlan,
        stats: Stats,
        tracer: TracerHandle,
        chaos: Option<ChaosState>,
    ) -> Cursor {
        let arity = plan.arity();
        let iter = compile(plan, &stats);
        Cursor {
            backing: Backing::Sync { iter, chaos },
            armed: None,
            stats,
            tracer,
            arity,
            delivered: 0,
            retries: 0,
        }
    }

    /// A scatter-gather cursor: k-way ordered merge over per-shard
    /// child cursors. `keys` are comparator positions into the child
    /// rows (which may carry `strip` appended trailing key columns the
    /// consumer never sees); `dedup` drops adjacent duplicates for
    /// DISTINCT statements. `arity` is the *delivered* arity (after
    /// stripping). The children account their own `TuplesShipped`/
    /// `BlocksShipped` into the shared stats; the merge cursor adds no
    /// accounting of its own, so sharded and unsharded runs meter the
    /// source↔mediator boundary the same way.
    pub(crate) fn merged(
        children: Vec<Cursor>,
        keys: Vec<usize>,
        strip: usize,
        dedup: bool,
        arity: usize,
        stats: Stats,
        tracer: TracerHandle,
    ) -> Cursor {
        let n = children.len();
        debug_assert!(children.iter().all(|c| c.arity == arity + strip));
        Cursor {
            backing: Backing::Merge(MergeState {
                bufs: children.iter().map(|c| ColumnBlock::new(c.arity)).collect(),
                heads: vec![0; n],
                done: vec![false; n],
                children,
                keys,
                keep: (0..arity).collect(),
                dedup,
                last: None,
            }),
            armed: None,
            stats,
            tracer,
            arity,
            delivered: 0,
            retries: 0,
        }
    }

    /// Arm pipelined prefetch on this cursor: once the first block has
    /// been demanded (served synchronously, so the first `d()` still
    /// ships exactly one row), a background thread keeps up to
    /// `policy.depth()` blocks in flight over a bounded channel,
    /// following `ramp` — the consumer's own block schedule — so the
    /// admit sequence, and with it the chaos backend's fault schedule
    /// and all `BlocksShipped` accounting, is bit-for-bit the one the
    /// synchronous path would produce. Transient faults are retried
    /// in-thread under `retry`; errors that escape arrive over the
    /// channel and latch. `PrefetchPolicy::Off` is a no-op.
    ///
    /// `ramp` must be a fresh clone of the ramp the consumer will pull
    /// with, taken before its first `next_size()` call.
    ///
    /// [`PrefetchPolicy::Auto`] additionally gates on the statement's
    /// modelled backend RTT: with nothing to overlap (a zero-latency
    /// local backend), speculation is pure thread-and-channel overhead,
    /// so `Auto` stays synchronous. `Depth(n)` is unconditional.
    pub fn enable_prefetch(&mut self, policy: PrefetchPolicy, ramp: BlockRamp, retry: RetryPolicy) {
        if let Backing::Merge(m) = &mut self.backing {
            // Scatter-gather: each shard child prefetches independently,
            // and starts *now* — the merge needs a head row from every
            // live shard before it can emit anything, so there is no
            // laziness to protect per child, and priming fetches the
            // first blocks of all shards in parallel instead of paying
            // their RTTs serially through the first refill. `Auto`
            // still gates per child on its own backend latency.
            for c in &mut m.children {
                c.enable_prefetch(policy, ramp.clone(), retry);
                c.prime_prefetch();
            }
            return;
        }
        if matches!(policy, PrefetchPolicy::Auto) && self.backend_latency_ms() == 0 {
            return;
        }
        if let Some(depth) = policy.depth() {
            self.armed = Some(ArmedPrefetch { depth, ramp, retry });
        }
    }

    /// The per-pull RTT the chaos gate models for this statement (0
    /// when unconfigured or the cursor already left its sync state).
    fn backend_latency_ms(&self) -> u64 {
        match &self.backing {
            Backing::Sync { chaos, .. } => chaos.as_ref().map_or(0, |c| c.latency_ms()),
            _ => 0,
        }
    }

    /// Start an armed prefetcher *now*, without waiting for the first
    /// demanded pull. For consumers that are about to drain this cursor
    /// anyway (a hash-join build side): laziness is not at stake, and
    /// starting early overlaps the build-side fetch with whatever the
    /// caller does before draining. No-op if prefetch is not armed or
    /// the cursor already started.
    pub fn prime_prefetch(&mut self) {
        if let Backing::Merge(m) = &mut self.backing {
            for c in &mut m.children {
                c.prime_prefetch();
            }
            return;
        }
        if let Some(armed) = self.armed.take() {
            self.start_prefetch(armed);
        }
    }

    fn start_prefetch(&mut self, armed: ArmedPrefetch) {
        if matches!(self.backing, Backing::Sync { .. }) {
            let Backing::Sync { iter, chaos } = std::mem::replace(&mut self.backing, Backing::Done)
            else {
                unreachable!()
            };
            let handle = prefetch::spawn(
                iter,
                chaos,
                armed.ramp,
                armed.retry,
                self.stats.clone(),
                armed.depth,
                self.arity,
            );
            self.backing = Backing::Live(handle);
        }
    }

    /// Number of columns each row carries.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Rows delivered through this cursor so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Retries spent by this cursor so far (across all
    /// [`Cursor::next_cblock_retrying`] calls) — `EXPLAIN ANALYZE`
    /// attributes these to the `rQ` node holding the cursor.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Fetch up to `n` rows appended to the column vectors of `out`,
    /// bumping `tuples_shipped` once per block (and recording the block
    /// size — see [`mix_obs::Stats::record_block`]);
    /// [`Counter::BlockBytes`] and [`Counter::InternHits`] size what
    /// crossed the seam. Returns the number of rows appended; `0` means
    /// the cursor is exhausted. On `Err`, nothing was appended and
    /// nothing was counted — a failed pull is side-effect-free, so a
    /// retried block is accounted exactly once.
    ///
    /// On a prefetching cursor the blocks arrive pre-sized by the ramp
    /// the prefetcher replays; `n` is then advisory (a consumer that
    /// follows the ramp it registered sees identical sizes either way).
    pub fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        if n == 0 {
            return Ok(0);
        }
        let (iter, chaos) = match &mut self.backing {
            Backing::Sync { iter, chaos } => (iter, chaos),
            Backing::Live(_) => return self.recv_cblock(out),
            Backing::Merge(m) => {
                let k = m.pull(out, n)?;
                debug_assert!(k <= n, "merge pull of {n} delivered {k}");
                self.delivered += k as u64;
                return Ok(k);
            }
            Backing::Latched(e) => return Err(e.clone()),
            Backing::Done => return Ok(0),
        };
        // `out` may carry earlier rows; meter only this pull's delta.
        let (pre_bytes, pre_shared) = if out.is_empty() {
            (0, 0)
        } else {
            (out.byte_size(), out.shared_str_cells())
        };
        let (k, latency_ms) = gated_cpull(&mut **iter, chaos, out, n)?;
        debug_assert!(k <= n, "pull of {n} delivered {k}");
        sleep_ms(latency_ms);
        if k == 0 {
            self.armed = None; // exhausted: nothing to speculate on
            return Ok(0);
        }
        self.account_block(
            k,
            out.byte_size().saturating_sub(pre_bytes),
            out.shared_str_cells().saturating_sub(pre_shared),
        );
        // The first demanded pull just completed synchronously; if
        // prefetch is armed, speculation may begin now. The armed ramp
        // mirrors the consumer's, so advance it past the size this pull
        // consumed before handing it to the thread.
        if let Some(mut armed) = self.armed.take() {
            armed.ramp.next_size();
            self.start_prefetch(armed);
        }
        Ok(k)
    }

    /// Per-block delivery accounting, shared by the synchronous and
    /// prefetched paths: `delivered`, `TuplesShipped`, `BlocksShipped`
    /// (+ block-size histogram), the block footprint counters, and one
    /// `row` trace event per row (so traced output is independent of
    /// block size).
    fn account_block(&mut self, k: usize, block_bytes: u64, shared_strs: u64) {
        self.delivered += k as u64;
        self.stats.add(Counter::TuplesShipped, k as u64);
        self.stats.record_block(k as u64);
        if block_bytes > 0 {
            self.stats.add(Counter::BlockBytes, block_bytes);
        }
        if shared_strs > 0 {
            self.stats.add(Counter::InternHits, shared_strs);
        }
        if self.tracer.enabled() {
            let base = self.delivered - k as u64;
            for i in 1..=k as u64 {
                self.tracer.event("row", &[("n", (base + i).to_string())]);
            }
        }
    }

    /// Receive one block from the live prefetcher, accounting hits and
    /// stalls, replaying the thread's fault/retry trace, and deferring
    /// delivery to the block's modelled arrival time. `Ok(None)` is
    /// clean end-of-stream (the cursor is now `Done`).
    fn recv_fetched(&mut self) -> Result<Option<FetchedBlock>> {
        let (msg, hit) = {
            let Backing::Live(handle) = &mut self.backing else {
                unreachable!()
            };
            match handle.try_recv() {
                TryRecv::Item(m) => (Some(m), true),
                TryRecv::Closed => (None, true),
                TryRecv::Empty => {
                    let t0 = Instant::now();
                    let m = handle.recv();
                    self.stats
                        .add(Counter::PrefetchStallNs, t0.elapsed().as_nanos() as u64);
                    (m, false)
                }
            }
        };
        match msg {
            None => {
                // The producer drained the plan and exited; dropping
                // the handle joins it.
                self.backing = Backing::Done;
                Ok(None)
            }
            Some(PrefetchMsg::Block(block)) => {
                if hit {
                    self.stats.inc(Counter::PrefetchHitBlocks);
                }
                // A pipelined connection still delivers each response
                // one RTT after its request was issued; blocks may not
                // be consumed before they "arrive".
                let now = Instant::now();
                if block.arrival > now {
                    let wait = block.arrival - now;
                    std::thread::sleep(wait);
                    self.stats
                        .add(Counter::PrefetchStallNs, wait.as_nanos() as u64);
                }
                self.replay_retries(&block.retry_backoff_ms);
                Ok(Some(block))
            }
            Some(PrefetchMsg::Failed {
                error,
                retry_backoff_ms,
            }) => {
                self.replay_retries(&retry_backoff_ms);
                if self.tracer.enabled() {
                    let kind = if error.is_transient() {
                        "transient"
                    } else {
                        "permanent"
                    };
                    self.tracer.event("fault", &[("kind", kind.to_string())]);
                }
                self.backing = Backing::Latched(error.clone());
                Err(error)
            }
        }
    }

    /// Receive one block from the live prefetcher: an empty `out`
    /// adopts the shipped block wholesale (a move, no copy); otherwise
    /// the block is appended column-at-a-time.
    fn recv_cblock(&mut self, out: &mut ColumnBlock) -> Result<usize> {
        let Some(block) = self.recv_fetched()? else {
            return Ok(0);
        };
        let k = block.cols.len();
        self.account_block(k, block.cols.byte_size(), block.cols.shared_str_cells());
        if out.is_empty() {
            *out = block.cols;
        } else {
            block.cols.append_range(0, k, out);
        }
        Ok(k)
    }

    /// Replay the prefetcher's per-block retry history into this
    /// cursor's trace and EXPLAIN counter. Each in-thread retry was
    /// preceded by an observed transient fault, so traced sessions see
    /// the same `fault`/`retry` event pairs the synchronous path emits;
    /// the `Stats` counters were already bumped by the thread.
    fn replay_retries(&mut self, backoff_ms: &[u64]) {
        for (i, backoff) in backoff_ms.iter().enumerate() {
            self.retries += 1;
            if self.tracer.enabled() {
                self.tracer
                    .event("fault", &[("kind", "transient".to_string())]);
                self.tracer.event(
                    "retry",
                    &[
                        ("attempt", (i as u64 + 1).to_string()),
                        ("backoff_ms", backoff.to_string()),
                    ],
                );
            }
        }
    }

    /// [`Cursor::next_cblock`] with transient faults retried under
    /// `retry`: bounded attempts, exponential backoff, optional
    /// wall-clock deadline. Because a failed pull delivers nothing, the
    /// re-issued pull returns exactly the rows the failed one would
    /// have — retries are invisible to the consumer and to the
    /// block-size ramp. Counts each retry ([`Counter::RetriesAttempted`],
    /// [`Counter::RetryBackoffMs`]) and every error that escapes
    /// ([`Counter::BackendErrors`]); the escaped error's `retries` field
    /// records the spent budget. Traced sessions see a `fault` event per
    /// observed failure and a `retry` event per re-issue.
    pub fn next_cblock_retrying(
        &mut self,
        out: &mut ColumnBlock,
        n: usize,
        retry: &RetryPolicy,
    ) -> Result<usize> {
        if !matches!(self.backing, Backing::Sync { .. } | Backing::Merge(_)) {
            // Prefetched blocks arrive pre-retried (the thread runs
            // this same loop); an error surfacing here already spent
            // its budget and is terminal. Merge pulls *do* retry: a
            // failed refill is side-effect-free, and the re-issued pull
            // only re-pulls the shard that failed.
            return self.next_cblock(out, n);
        }
        let mut attempt = 0u32;
        let mut spent_backoff = 0u64;
        loop {
            let e = match self.next_cblock(out, n) {
                Ok(k) => return Ok(k),
                Err(e) => e,
            };
            if self.tracer.enabled() {
                let kind = if e.is_transient() {
                    "transient"
                } else {
                    "permanent"
                };
                self.tracer.event("fault", &[("kind", kind.to_string())]);
            }
            if e.is_transient() && retry.allows(attempt + 1, spent_backoff) {
                attempt += 1;
                let backoff = retry.backoff_ms(attempt);
                spent_backoff += backoff;
                self.retries += 1;
                self.stats.inc(Counter::RetriesAttempted);
                self.stats.add(Counter::RetryBackoffMs, backoff);
                if self.tracer.enabled() {
                    self.tracer.event(
                        "retry",
                        &[
                            ("attempt", attempt.to_string()),
                            ("backoff_ms", backoff.to_string()),
                        ],
                    );
                }
                sleep_ms(backoff);
            } else {
                self.stats.inc(Counter::BackendErrors);
                return Err(match e {
                    MixError::Backend(mut be) => {
                        be.retries = attempt;
                        MixError::Backend(be)
                    }
                    other => other,
                });
            }
        }
    }

    /// `(lower, upper)` bounds on the rows still to come.
    pub fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.backing {
            Backing::Sync { iter, chaos } => {
                let (lo, hi) = iter.size_hint();
                // The permanent-fault horizon caps what will ever ship.
                match chaos.as_ref().and_then(|st| st.remaining_allowance()) {
                    Some(cap) => (lo.min(cap), Some(hi.map_or(cap, |h| h.min(cap)))),
                    None => (lo, hi),
                }
            }
            Backing::Live(_) => (0, None),
            Backing::Latched(_) | Backing::Done => (0, Some(0)),
            Backing::Merge(m) => m.size_hint(),
        }
    }

    /// Drain the remainder into `out` as rows — the *eager* access
    /// pattern, a row view over [`Cursor::next_cblock_retrying`];
    /// returns the number of rows appended.
    pub fn drain_retrying(&mut self, out: &mut Vec<Row>, retry: &RetryPolicy) -> Result<usize> {
        out.reserve(self.size_hint().0);
        let mut block = ColumnBlock::new(self.arity);
        let mut total = 0;
        loop {
            block.clear();
            let k = self.next_cblock_retrying(&mut block, DRAIN_BLOCK, retry)?;
            if k == 0 {
                return Ok(total);
            }
            block.append_rows_to(out);
            total += k;
        }
    }

    /// Drain the remainder into a vector of rows.
    pub fn collect_all(mut self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.drain_retrying(&mut out, &RetryPolicy::none())?;
        Ok(out)
    }
}

fn compile(plan: &PhysPlan, stats: &Stats) -> Box<dyn RowIter> {
    match plan {
        PhysPlan::Scan(scan) => Box::new(ScanIter {
            table: Arc::clone(&scan.table),
            access: scan.access.clone(),
            idx: 0,
            preds: scan.preds.clone(),
            stats: stats.clone(),
            filter: Filter::default(),
            picks: Vec::new(),
            cand: ColumnBlock::new(scan.table.schema().arity()),
        }),
        PhysPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
            post,
        } => {
            // The right scan's predicates read only the probed table:
            // renumber them over the few columns they name, which is
            // all a probe gathers to check them.
            let mut inner_cols = Vec::new();
            let mut at = |c: usize| match inner_cols.iter().position(|&x| x == c) {
                Some(i) => i,
                None => {
                    inner_cols.push(c);
                    inner_cols.len() - 1
                }
            };
            let inner: Vec<RPred> = right
                .preds
                .iter()
                .map(|p| RPred {
                    lhs: at(p.lhs),
                    op: p.op,
                    rhs: match &p.rhs {
                        ROperand::Col(c) => ROperand::Col(at(*c)),
                        ROperand::Const(v) => ROperand::Const(v.clone()),
                    },
                })
                .collect();
            Box::new(HashJoinIter {
                left: compile(left, stats),
                table: Arc::clone(&right.table),
                left_key: *left_key,
                right_key: *right_key,
                cand: ColumnBlock::new(inner_cols.len()),
                inner,
                inner_cols,
                post: post.clone(),
                stats: stats.clone(),
                lbuf: ColumnBlock::new(left.arity()),
                lidx: Vec::new(),
                ridx: Vec::new(),
                pos: 0,
                joined: ColumnBlock::new(plan.arity()),
                filter: Filter::default(),
            })
        }
        PhysPlan::NlJoin { left, right, post } => Box::new(NlJoinIter {
            left: compile(left, stats),
            right_src: Some(compile(right, stats)),
            right: ColumnBlock::new(right.arity()),
            lbuf: ColumnBlock::new(left.arity()),
            lrow: 0,
            rpos: 0,
            post: post.clone(),
            lsel: Vec::new(),
            rsel: Vec::new(),
            pairs: ColumnBlock::new(plan.arity()),
            filter: Filter::default(),
        }),
        PhysPlan::Sort { input, keys } => Box::new(SortIter {
            rows: ColumnBlock::new(input.arity()),
            input: Some(compile(input, stats)),
            keys: keys.clone(),
            perm: Vec::new(),
            idx: 0,
        }),
        PhysPlan::Project {
            input,
            cols,
            distinct,
        } => Box::new(ProjectIter {
            cbuf: ColumnBlock::new(input.arity()),
            pbuf: ColumnBlock::new(cols.len()),
            input: compile(input, stats),
            cols: cols.clone(),
            seen: distinct.then(HashSet::new),
            sel: Vec::new(),
        }),
    }
}

/// Rows a vectorized scan evaluates per predicate kernel invocation.
/// Small enough that a selective early-exit wastes little work past
/// the n-th match, large enough to amortize the per-chunk dispatch.
const SCAN_CHUNK: usize = 256;

/// Reusable scratch for [`Filter::select`].
#[derive(Default)]
struct Filter {
    mask: Vec<bool>,
    tmp: Vec<bool>,
    /// The selected row indices of the last [`Filter::select`].
    sel: Vec<usize>,
}

impl Filter {
    /// Select the rows `start..end` of `cols` that satisfy every
    /// predicate of `preds` — one vectorized kernel per predicate,
    /// AND-folded — stopping at the `limit`-th match. Leaves the chosen
    /// row indices in `self.sel` and returns the end of the consumed
    /// range: one past the `limit`-th match, or `end`.
    fn select(
        &mut self,
        cols: &ColumnBlock,
        preds: &[RPred],
        start: usize,
        end: usize,
        limit: usize,
    ) -> usize {
        debug_assert!(limit > 0);
        self.sel.clear();
        if preds.is_empty() {
            let stop = end.min(start.saturating_add(limit));
            self.sel.extend(start..stop);
            return stop;
        }
        for (i, p) in preds.iter().enumerate() {
            let out = if i == 0 {
                &mut self.mask
            } else {
                &mut self.tmp
            };
            match &p.rhs {
                ROperand::Const(v) => cols.cmp_const_mask(p.lhs, p.op, v, start, end, out),
                ROperand::Col(c) => cols.cmp_cols_mask(p.lhs, p.op, *c, start, end, out),
            }
            if i > 0 {
                for (m, t) in self.mask.iter_mut().zip(&self.tmp) {
                    *m &= t;
                }
            }
        }
        for (off, &m) in self.mask.iter().enumerate() {
            if m {
                self.sel.push(start + off);
                if self.sel.len() == limit {
                    return start + off + 1;
                }
            }
        }
        end
    }
}

struct ScanIter {
    table: Arc<Table>,
    access: Access,
    /// The next row to examine: a row id under `Full`, a position in
    /// the lookup's candidate list under `Lookup`.
    idx: usize,
    preds: Vec<RPred>,
    stats: Stats,
    filter: Filter,
    /// Lookup scratch: one chunk of candidate row ids, and their rows.
    picks: Vec<usize>,
    cand: ColumnBlock,
}

impl RowIter for ScanIter {
    /// Bulk column-slice copies from the table's mirror when
    /// unfiltered; otherwise chunked vectorized predicate masks with a
    /// gather of the selected rows — over the whole table, or over a
    /// lookup's candidates, gathered from the column index a chunk at a
    /// time. `RowsScanned` counts exactly the rows *consumed* — up to
    /// and including the n-th match — even though a kernel may have
    /// evaluated a few cells past it within the final chunk.
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        let start = self.idx;
        let k = match &self.access {
            Access::Lookup { col, key } => {
                let ids = self.table.key_index(*col).lookup(key);
                let cols = self.table.block();
                let mut k = 0;
                while k < n && self.idx < ids.len() {
                    let chunk = if self.preds.is_empty() {
                        n - k
                    } else {
                        SCAN_CHUNK
                    };
                    let chunk = &ids[self.idx..ids.len().min(self.idx + chunk)];
                    self.picks.clear();
                    self.picks.extend(chunk.iter().map(|&r| r as usize));
                    if self.preds.is_empty() {
                        cols.gather_rows(&self.picks, out);
                        k += chunk.len();
                        self.idx += chunk.len();
                        continue;
                    }
                    self.cand.clear();
                    cols.gather_rows(&self.picks, &mut self.cand);
                    self.idx += self
                        .filter
                        .select(&self.cand, &self.preds, 0, chunk.len(), n - k);
                    self.cand.gather_rows(&self.filter.sel, out);
                    k += self.filter.sel.len();
                }
                k
            }
            Access::Full if self.preds.is_empty() => {
                let cols = self.table.block();
                self.idx = cols.len().min(start + n);
                cols.append_range(start, self.idx, out);
                self.idx - start
            }
            Access::Full => {
                let cols = self.table.block();
                let total = cols.len();
                let mut k = 0;
                while k < n && self.idx < total {
                    let chunk_end = total.min(self.idx + SCAN_CHUNK);
                    self.idx = self
                        .filter
                        .select(cols, &self.preds, self.idx, chunk_end, n - k);
                    cols.gather_rows(&self.filter.sel, out);
                    k += self.filter.sel.len();
                }
                k
            }
        };
        if self.idx > start {
            self.stats
                .add(Counter::RowsScanned, (self.idx - start) as u64);
        }
        Ok(k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.table.len() - self.idx;
        if self.preds.is_empty() {
            (rem, Some(rem))
        } else {
            (0, Some(rem))
        }
    }
}

/// Index join: streams the left input and, per left row, probes the
/// right table's column index (built once per table, on first use, and
/// shared by every later statement). The pipeline is lazy in its left
/// input and never reads the right table beyond the probed keys'
/// candidates, which come in ascending row id — the right table's scan
/// order — so output order is left-major exactly as a hash join over a
/// drained right side would give it. A probe key answers the join
/// equality exactly unless it is an integer past 2^53
/// ([`mix_common::Value::eq_key_is_exact`]); those candidates are
/// compared one by one. The right scan's predicates, then `post`,
/// filter the candidates with the scan kernels; surviving pairs are a
/// pure column gather ([`ColumnBlock::append_join`]).
struct HashJoinIter {
    left: Box<dyn RowIter>,
    table: Arc<Table>,
    left_key: usize,
    right_key: usize,
    /// The right scan's predicates over `inner_cols`, the table
    /// columns they read, gathered into `cand` per probe.
    inner: Vec<RPred>,
    inner_cols: Vec<usize>,
    cand: ColumnBlock,
    /// Cross-table predicates, in joined-row offsets.
    post: Vec<RPred>,
    stats: Stats,
    /// The current probe block and its surviving matches: match `i`
    /// joins `lbuf` row `lidx[i]` with table row `ridx[i]`. Matches
    /// from `pos` on are the surplus a pull leaves for the next one.
    lbuf: ColumnBlock,
    lidx: Vec<usize>,
    ridx: Vec<usize>,
    pos: usize,
    /// `post` scratch: the candidate pairs, joined, and their filter.
    joined: ColumnBlock,
    filter: Filter,
}

impl HashJoinIter {
    /// Pull up to `n` left rows and stage their matches; `false` once
    /// the left input is exhausted.
    fn probe(&mut self, n: usize) -> Result<bool> {
        self.lbuf.clear();
        self.lidx.clear();
        self.ridx.clear();
        self.pos = 0;
        let got = self.left.next_cblock(&mut self.lbuf, n)?;
        let index = self.table.key_index(self.right_key);
        let mut examined = 0;
        for i in 0..got {
            let key = self.lbuf.value_at(i, self.left_key);
            let ids = index.lookup(&key);
            examined += ids.len();
            let before = self.ridx.len();
            let ids = ids.iter().map(|&r| r as usize);
            if key.eq_key_is_exact() {
                self.ridx.extend(ids);
            } else {
                let cols = self.table.block();
                let right_key = self.right_key;
                self.ridx.extend(
                    ids.filter(|&r| key.satisfies(CmpOp::Eq, &cols.value_at(r, right_key))),
                );
            }
            self.lidx
                .extend(std::iter::repeat_n(i, self.ridx.len() - before));
        }
        if examined > 0 {
            self.stats.add(Counter::RowsScanned, examined as u64);
        }
        if !self.inner.is_empty() && !self.lidx.is_empty() {
            self.cand.clear();
            self.table
                .block()
                .gather_projected(&self.inner_cols, &self.ridx, &mut self.cand);
            let len = self.cand.len();
            self.filter.select(&self.cand, &self.inner, 0, len, len);
            self.keep_selected();
        }
        if !self.post.is_empty() && !self.lidx.is_empty() {
            self.joined.clear();
            self.lbuf
                .append_join(&self.lidx, self.table.block(), &self.ridx, &mut self.joined);
            let len = self.joined.len();
            self.filter.select(&self.joined, &self.post, 0, len, len);
            self.keep_selected();
        }
        Ok(got > 0)
    }

    /// Keep only the staged matches the last filter selected.
    fn keep_selected(&mut self) {
        for (j, &m) in self.filter.sel.iter().enumerate() {
            self.lidx[j] = self.lidx[m];
            self.ridx[j] = self.ridx[m];
        }
        self.lidx.truncate(self.filter.sel.len());
        self.ridx.truncate(self.filter.sel.len());
    }
}

impl RowIter for HashJoinIter {
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            if self.pos == self.lidx.len() {
                if !self.probe(n - k)? {
                    break;
                }
                continue;
            }
            let end = self.lidx.len().min(self.pos + (n - k));
            let (l, r) = (&self.lidx[self.pos..end], &self.ridx[self.pos..end]);
            self.lbuf.append_join(l, self.table.block(), r, out);
            k += end - self.pos;
            self.pos = end;
        }
        Ok(k)
    }
}

/// Nested-loop join: drains the right input on first pull, then pairs
/// each left row with every right row in order, one chunk of pairs at
/// a time, filtered by `post` with the vectorized scan kernels.
struct NlJoinIter {
    left: Box<dyn RowIter>,
    /// The right input, until the first pull drains it into `right`.
    right_src: Option<Box<dyn RowIter>>,
    right: ColumnBlock,
    /// Staged left rows; row `lrow` is being paired with the right rows
    /// from `rpos` on.
    lbuf: ColumnBlock,
    lrow: usize,
    rpos: usize,
    post: Vec<RPred>,
    /// Scratch: one chunk of candidate pairs and its filter.
    lsel: Vec<usize>,
    rsel: Vec<usize>,
    pairs: ColumnBlock,
    filter: Filter,
}

impl RowIter for NlJoinIter {
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        if let Some(mut src) = self.right_src.take() {
            self.right = drain_all(&mut *src, self.right.arity())?;
        }
        let inner = self.right.len();
        let mut k = 0;
        while k < n {
            if self.lrow == self.lbuf.len() {
                self.lbuf.clear();
                self.lrow = 0;
                if inner == 0 || self.left.next_cblock(&mut self.lbuf, n - k)? == 0 {
                    break;
                }
            }
            let end = inner.min(self.rpos + SCAN_CHUNK);
            self.lsel.clear();
            self.lsel.resize(end - self.rpos, self.lrow);
            self.rsel.clear();
            self.rsel.extend(self.rpos..end);
            self.pairs.clear();
            self.lbuf
                .append_join(&self.lsel, &self.right, &self.rsel, &mut self.pairs);
            let used = self
                .filter
                .select(&self.pairs, &self.post, 0, self.lsel.len(), n - k);
            self.pairs.gather_rows(&self.filter.sel, out);
            k += self.filter.sel.len();
            self.rpos += used;
            if self.rpos == inner {
                self.lrow += 1;
                self.rpos = 0;
            }
        }
        Ok(k)
    }
}

/// Blocking sort (the one non-pipelined node; `ORDER BY` requires it):
/// the first pull drains the input into one block and stable-sorts a
/// row *permutation* — no row tuple is ever built — and every pull
/// gathers the next rows in permutation order.
struct SortIter {
    input: Option<Box<dyn RowIter>>,
    keys: Vec<usize>,
    rows: ColumnBlock,
    perm: Vec<usize>,
    idx: usize,
}

impl RowIter for SortIter {
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        if let Some(mut input) = self.input.take() {
            self.rows = drain_all(&mut *input, self.rows.arity())?;
            let (rows, keys) = (&self.rows, &self.keys);
            self.perm = (0..rows.len()).collect();
            self.perm.sort_by(|&a, &b| {
                keys.iter()
                    .map(|&k| rows.value_at(a, k).total_cmp(&rows.value_at(b, k)))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
        }
        let end = self.perm.len().min(self.idx + n);
        self.rows.gather_rows(&self.perm[self.idx..end], out);
        let k = end - self.idx;
        self.idx = end;
        Ok(k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.input.is_some() {
            (0, None)
        } else {
            let rem = self.perm.len() - self.idx;
            (rem, Some(rem))
        }
    }
}

/// Column projection — one bulk column copy per output column —
/// optionally with duplicate elimination: DISTINCT keeps each row's
/// first occurrence and re-pulls only the `n - k` rows still owed, so
/// the input is consumed no further than the `n`-th distinct row.
struct ProjectIter {
    input: Box<dyn RowIter>,
    cols: Vec<usize>,
    seen: Option<HashSet<Row>>,
    /// Staging blocks at the input's and at the output's arity.
    cbuf: ColumnBlock,
    pbuf: ColumnBlock,
    sel: Vec<usize>,
}

impl RowIter for ProjectIter {
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        let Some(seen) = &mut self.seen else {
            self.cbuf.clear();
            let got = self.input.next_cblock(&mut self.cbuf, n)?;
            self.cbuf.append_projected(&self.cols, 0, got, out);
            return Ok(got);
        };
        let mut k = 0;
        while k < n {
            self.cbuf.clear();
            let got = self.input.next_cblock(&mut self.cbuf, n - k)?;
            if got == 0 {
                break;
            }
            self.pbuf.clear();
            self.cbuf
                .append_projected(&self.cols, 0, got, &mut self.pbuf);
            self.sel.clear();
            let pbuf = &self.pbuf;
            self.sel
                .extend((0..got).filter(|&r| seen.insert(pbuf.row(r))));
            self.pbuf.gather_rows(&self.sel, out);
            k += self.sel.len();
        }
        Ok(k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.input.size_hint();
        if self.seen.is_some() {
            (0, hi)
        } else {
            (lo, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::sample_db;
    use crate::FaultPolicy;
    use mix_common::Value;

    fn run(sql: &str) -> Vec<Row> {
        let db = sample_db();
        db.execute_sql(sql).unwrap().collect_all().unwrap()
    }

    /// Pull `sql` to exhaustion in blocks of `n`; returns the rows plus
    /// the `RowsScanned`/`TuplesShipped`/`BlocksShipped` it cost.
    fn pull_all(sql: &str, n: usize) -> (Vec<Row>, [u64; 3]) {
        let db = sample_db();
        let stats = db.stats().clone();
        let mut cur = db.execute_sql(sql).unwrap();
        let mut block = ColumnBlock::new(cur.arity());
        let mut rows = Vec::new();
        loop {
            block.clear();
            let k = cur.next_cblock(&mut block, n).unwrap();
            assert!(k <= n, "{sql}: a pull of {n} returned {k}");
            if k == 0 {
                break;
            }
            block.append_rows_to(&mut rows);
        }
        let counts = [
            Counter::RowsScanned,
            Counter::TuplesShipped,
            Counter::BlocksShipped,
        ]
        .map(|c| stats.get(c));
        (rows, counts)
    }

    fn row(cells: &[&str]) -> Row {
        cells
            .iter()
            .map(|c| match c.parse() {
                Ok(i) => Value::Int(i),
                Err(_) => Value::str(*c),
            })
            .collect()
    }

    #[test]
    fn scan_with_filter() {
        let rows = run("SELECT * FROM orders WHERE value > 2000");
        assert_eq!(rows.len(), 2); // 2400 and 200000
        assert!(rows.iter().all(|r| r[2].as_int().unwrap() > 2000));
    }

    #[test]
    fn hash_join_matches_fig2_data() {
        let rows = run("SELECT c.id, o.orid, o.value FROM customer c, orders o \
             WHERE c.id = o.cid ORDER BY o.orid");
        // Fig. 2: orders 28904 (XYZ123, 2400) and 87456 (XYZ123, 200000);
        // order 99111 belongs to DEF345.
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            vec![Value::str("XYZ123"), Value::Int(28904), Value::Int(2400)]
        );
    }

    #[test]
    fn distinct_deduplicates() {
        let rows = run("SELECT DISTINCT c.id FROM customer c, orders o WHERE c.id = o.cid");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn order_by_sorts() {
        let rows = run("SELECT o.value FROM orders o ORDER BY o.value");
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        assert_eq!(vals, sorted);
    }

    #[test]
    fn cartesian_product() {
        let rows = run("SELECT c.id, o.orid FROM customer c, orders o");
        assert_eq!(rows.len(), 2 * 3);
    }

    #[test]
    fn lazy_cursor_ships_only_what_is_pulled() {
        let db = sample_db();
        let stats = db.stats().clone();
        stats.reset();
        let mut cur = db.execute_sql("SELECT * FROM orders").unwrap();
        let mut block = ColumnBlock::new(cur.arity());
        assert_eq!(cur.next_cblock(&mut block, 1).unwrap(), 1);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        // The scan may have looked at more rows internally, but only one
        // tuple crossed the source↔mediator boundary.
        drop(cur);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
    }

    #[test]
    fn next_cblock_ships_once_per_block() {
        let db = sample_db();
        let stats = db.stats().clone();
        stats.reset();
        let mut cur = db.execute_sql("SELECT * FROM orders").unwrap();
        assert_eq!(cur.size_hint(), (3, Some(3)));
        let mut block = ColumnBlock::new(cur.arity());
        assert_eq!(cur.next_cblock(&mut block, 2).unwrap(), 2);
        assert_eq!(stats.get(Counter::TuplesShipped), 2);
        assert_eq!(stats.get(Counter::BlocksShipped), 1);
        assert!(stats.get(Counter::BlockBytes) > 0);
        // Exhaustion: partial block, then zero.
        assert_eq!(cur.next_cblock(&mut block, 2).unwrap(), 1);
        assert_eq!(cur.next_cblock(&mut block, 2).unwrap(), 0);
        assert_eq!(block.len(), 3);
        assert_eq!(stats.get(Counter::TuplesShipped), 3);
        assert_eq!(stats.get(Counter::BlocksShipped), 2);
        assert_eq!(cur.delivered(), 3);
    }

    /// Every operator body pinned: the rows a drain in blocks of `n`
    /// returns, and exactly what it scanned, shipped and how many
    /// blocks it took.
    #[test]
    fn block_pulls_pin_rows_and_counts() {
        let orders = [
            row(&["28904", "XYZ123", "2400"]),
            row(&["87456", "XYZ123", "200000"]),
            row(&["99111", "DEF345", "500"]),
        ];
        let cases: [(&str, usize, Vec<Row>, [u64; 3]); 10] = [
            ("SELECT * FROM orders", 2, orders.to_vec(), [3, 3, 2]),
            // The filtered scan consumes up to its 2nd match, then the
            // last row on the pull that finds nothing more.
            (
                "SELECT * FROM orders WHERE value > 2000",
                2,
                orders[..2].to_vec(),
                [3, 2, 1],
            ),
            // Sort drains the join: 2 driving rows scanned, 3 candidates
            // probed.
            (
                "SELECT c.id, o.orid, o.value FROM customer c, orders o \
                 WHERE c.id = o.cid ORDER BY o.orid",
                2,
                vec![
                    row(&["XYZ123", "28904", "2400"]),
                    row(&["XYZ123", "87456", "200000"]),
                    row(&["DEF345", "99111", "500"]),
                ],
                [5, 3, 2],
            ),
            // One row per pull: XYZ123's second match is carried over.
            (
                "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid",
                1,
                vec![
                    row(&["XYZ123", "28904"]),
                    row(&["XYZ123", "87456"]),
                    row(&["DEF345", "99111"]),
                ],
                [5, 3, 3],
            ),
            // DISTINCT over the join: the duplicate XYZ123 costs a
            // re-pull of one row, which the carried match serves.
            (
                "SELECT DISTINCT c.id FROM customer c, orders o WHERE c.id = o.cid",
                2,
                vec![row(&["XYZ123"]), row(&["DEF345"])],
                [5, 2, 1],
            ),
            // A cross-table post predicate filters the probe matches:
            // DEF345's address sorts after its id.
            (
                "SELECT o.orid FROM customer c, orders o \
                 WHERE c.id = o.cid AND c.addr < o.cid",
                2,
                vec![row(&["28904"]), row(&["87456"])],
                [5, 2, 1],
            ),
            // No equi-key: a nested-loop join over 2 × 3 pairs.
            (
                "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id < o.cid",
                1,
                vec![row(&["DEF345", "28904"]), row(&["DEF345", "87456"])],
                [5, 2, 2],
            ),
            (
                "SELECT DISTINCT o.cid FROM orders o WHERE o.value > 400",
                2,
                vec![row(&["XYZ123"]), row(&["DEF345"])],
                [3, 2, 1],
            ),
            // A lookup examines only its key's rows, one per 1-row pull.
            (
                "SELECT o.orid FROM orders o WHERE o.cid = 'XYZ123'",
                1,
                vec![row(&["28904"]), row(&["87456"])],
                [2, 2, 2],
            ),
            // A lookup drives the join, whose probe examines one order.
            (
                "SELECT c.id, o.orid FROM customer c, orders o \
                 WHERE c.id = o.cid AND c.id = 'DEF345'",
                2,
                vec![row(&["DEF345", "99111"])],
                [2, 1, 1],
            ),
        ];
        for (sql, n, rows, counts) in cases {
            assert_eq!(pull_all(sql, n), (rows, counts), "{sql} in blocks of {n}");
        }
    }

    #[test]
    fn distinct_one_row_pull_stops_at_first_match() {
        // Only the second order matches: a 1-row pull consumes rows up
        // to it and no further.
        let db = sample_db();
        let stats = db.stats().clone();
        let sql = "SELECT DISTINCT o.cid FROM orders o WHERE o.value > 100000";
        let mut cur = db.execute_sql(sql).unwrap();
        let mut block = ColumnBlock::new(cur.arity());
        assert_eq!(cur.next_cblock(&mut block, 1).unwrap(), 1);
        assert_eq!(block.row(0), row(&["XYZ123"]));
        assert_eq!(stats.get(Counter::RowsScanned), 2);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        assert_eq!(cur.next_cblock(&mut block, 1).unwrap(), 0);
        assert_eq!(stats.get(Counter::RowsScanned), 3);
    }

    #[test]
    fn hash_join_pull_never_exceeds_its_block() {
        // XYZ123 probes two orders; a 1-row pull must return one row,
        // ship one tuple and carry the other match to the next pull.
        let sql = "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid";
        let db = sample_db();
        let stats = db.stats().clone();
        let mut cur = db.execute_sql(sql).unwrap();
        let mut block = ColumnBlock::new(cur.arity());
        assert_eq!(cur.next_cblock(&mut block, 1).unwrap(), 1);
        assert_eq!(block.len(), 1);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        // A permanent fault after one row: the first pull delivers
        // exactly that row, and nothing past the horizon ever ships.
        let db = sample_db();
        let stats = db.stats().clone();
        db.set_fault_policy(Some(FaultPolicy::fail_after(7, 1)));
        let mut cur = db.execute_sql(sql).unwrap();
        let mut block = ColumnBlock::new(cur.arity());
        assert_eq!(cur.next_cblock(&mut block, 1).unwrap(), 1);
        assert!(cur.next_cblock(&mut block, 1).is_err());
        assert_eq!(block.len(), 1);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
    }

    #[test]
    fn join_then_filter_post_pred() {
        use crate::schema::{Column, ColumnType, Schema};
        let mut db = crate::db::Database::new("s");
        db.create_table(
            "c",
            Schema::new(
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("budget", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "o",
            Schema::new(
                vec![
                    Column::new("oid", ColumnType::Int),
                    Column::new("cid", ColumnType::Int),
                    Column::new("value", ColumnType::Int),
                ],
                &["oid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("c", vec![Value::Int(1), Value::Int(1000)])
            .unwrap();
        db.insert("c", vec![Value::Int(2), Value::Int(99999)])
            .unwrap();
        for (oid, cid, v) in [(10, 1, 2400), (11, 1, 500), (12, 2, 500)] {
            db.insert("o", vec![Value::Int(oid), Value::Int(cid), Value::Int(v)])
                .unwrap();
        }
        // The col-vs-col non-equi predicate cannot be a hash key or a
        // scan filter; it must run as a post-join filter.
        let rows = db
            .execute_sql(
                "SELECT x.id, y.value FROM c x, o y WHERE x.id = y.cid AND y.value > x.budget",
            )
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(2400)]]);
    }

    #[test]
    fn cross_type_numeric_equi_join_matches() {
        use crate::schema::{Column, ColumnType, Schema};
        let mut db = crate::db::Database::new("s");
        for (t, c, ty) in [("a", "x", ColumnType::Float), ("b", "y", ColumnType::Int)] {
            let cols = vec![Column::new("id", ColumnType::Int), Column::new(c, ty)];
            db.create_table(t, Schema::new(cols, &["id"]).unwrap())
                .unwrap();
        }
        for (id, x, y) in [(1, 5.0, 5), (2, -0.0, 0)] {
            db.insert("a", vec![Value::Int(id), Value::Float(x)])
                .unwrap();
            db.insert("b", vec![Value::Int(id), Value::Int(y)]).unwrap();
        }
        // 5.0 = 5 and -0.0 = 0 under the comparison: both pairs join.
        let rows = db
            .execute_sql("SELECT a.id, b.id FROM a, b WHERE a.x = b.y")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(rows, vec![row(&["1", "1"]), row(&["2", "2"])]);
    }

    #[test]
    fn nulls_never_join() {
        use crate::schema::{Column, ColumnType, Schema};
        let mut db = crate::db::Database::new("s");
        db.create_table(
            "l",
            Schema::new(vec![Column::new("k", ColumnType::Text)], &["k"]).unwrap(),
        )
        .unwrap();
        db.create_table(
            "r",
            Schema::new(vec![Column::new("k", ColumnType::Text)], &["k"]).unwrap(),
        )
        .unwrap();
        db.insert("l", vec![Value::Null]).unwrap();
        db.insert("l", vec![Value::str("a")]).unwrap();
        db.insert("r", vec![Value::Null]).unwrap();
        db.insert("r", vec![Value::str("a")]).unwrap();
        let rows = db
            .execute_sql("SELECT * FROM l x, r y WHERE x.k = y.k")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(rows.len(), 1);
    }
}
