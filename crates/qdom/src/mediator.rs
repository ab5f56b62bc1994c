//! The MIX mediator: sources, views, and session factory.

use crate::plancache::{SharedPlanCache, DEFAULT_PLAN_CACHE_CAP};
use mix_algebra::{translate_with_root, Plan};
use mix_common::{BlockPolicy, MixError, Name, PrefetchPolicy, Result, RetryPolicy};
use mix_engine::{AccessMode, GByMode};
use mix_obs::TracerHandle;
use mix_wrapper::Catalog;
use mix_xquery::parse_query;
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluation policy knobs (the benchmark axes).
///
/// Construct with [`MediatorOptions::builder`]; the struct is
/// `#[non_exhaustive]`, so new knobs are not breaking changes:
///
/// ```ignore
/// let opts = MediatorOptions::builder()
///     .hash_joins(false)
///     .tracer(TracerHandle::new(my_tracer))
///     .build();
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MediatorOptions {
    /// Navigation-driven lazy evaluation (the paper's mode) or the
    /// conventional full-materialization baseline.
    pub access: AccessMode,
    /// Run the rewriting optimizer + SQL pushdown (Section 6), or
    /// execute naive plans as-is (the comparison strawman).
    pub optimize: bool,
    /// Which `groupBy` implementation the lazy engine uses.
    pub gby: GByMode,
    /// Use the hash join/semi-join kernels where possible (`false`
    /// forces nested loops — the ablation baseline).
    pub hash_joins: bool,
    /// Where spans and events go. Sessions thread this handle through
    /// the engine and the relational sources. Defaults to a
    /// [`mix_obs::LogTracer`] gated on the `MIX_TRACE` environment
    /// variable — disabled (and zero-cost) unless the variable is set,
    /// in which case spans stream to stderr.
    pub tracer: TracerHandle,
    /// Block-at-a-time execution: how many tuples cursors and
    /// vectorized operators may fetch per pull.
    /// [`BlockPolicy::Off`] is the paper's one-tuple-per-pull model;
    /// [`BlockPolicy::Auto`] (the default) ramps 1, 2, 4, … up to
    /// [`mix_common::MAX_AUTO_BLOCK`], so navigate-and-stop sessions
    /// still ship a single tuple while drains converge to full blocks.
    pub block: BlockPolicy,
    /// How transient backend faults are retried (bounded exponential
    /// backoff, optional per-command deadline). The default retries 4
    /// times with no sleep; [`RetryPolicy::none`] surfaces every fault
    /// immediately.
    pub retry: RetryPolicy,
    /// Pipelined prefetch at the backend cursor boundary.
    /// [`PrefetchPolicy::Off`] (the default) is the paper's strictly
    /// demand-driven protocol; `Depth(n)`/`Auto` let a per-cursor
    /// background thread keep up to n blocks in flight *after* the
    /// first block has been demanded, overlapping backend round trips
    /// with mediator work (`Auto` additionally stays synchronous on
    /// zero-RTT backends, where there is nothing to overlap). Laziness,
    /// shipped-tuple accounting and the fault/retry schedule are
    /// unchanged (the prefetcher replays the consumer's block ramp).
    pub prefetch: PrefetchPolicy,
    /// No effect — kept for mixbench source compatibility. Sources
    /// always ship typed column blocks; nothing reads this field.
    pub columnar: bool,
    /// How many decontextualized plan templates a session's *private*
    /// cache keeps. With a shared cache installed this knob is unused —
    /// the shared cache's own per-shard capacity governs instead.
    pub plan_cache_cap: usize,
    /// A process-wide plan-template cache shared across sessions (and
    /// across mediators built with the same handle). `None` (the
    /// default) keeps each session's cache private.
    pub shared_plan_cache: Option<Arc<SharedPlanCache>>,
}

impl Default for MediatorOptions {
    fn default() -> Self {
        MediatorOptions {
            access: AccessMode::Lazy,
            optimize: true,
            gby: GByMode::Auto,
            hash_joins: true,
            tracer: TracerHandle::new(std::sync::Arc::new(mix_obs::LogTracer::from_env())),
            block: BlockPolicy::default(),
            retry: RetryPolicy::default(),
            prefetch: PrefetchPolicy::default(),
            columnar: true,
            plan_cache_cap: DEFAULT_PLAN_CACHE_CAP,
            shared_plan_cache: None,
        }
    }
}

impl MediatorOptions {
    /// Start building options from the defaults.
    pub fn builder() -> MediatorOptionsBuilder {
        MediatorOptionsBuilder {
            opts: MediatorOptions::default(),
        }
    }
}

/// Builder for [`MediatorOptions`] (see [`MediatorOptions::builder`]).
#[derive(Debug, Clone)]
pub struct MediatorOptionsBuilder {
    opts: MediatorOptions,
}

impl MediatorOptionsBuilder {
    /// Lazy (navigation-driven) or eager (full materialization).
    pub fn access(mut self, access: AccessMode) -> Self {
        self.opts.access = access;
        self
    }

    /// Enable or disable the rewriting optimizer + SQL pushdown.
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.opts.optimize = optimize;
        self
    }

    /// Pick the lazy engine's `groupBy` implementation.
    pub fn gby(mut self, gby: GByMode) -> Self {
        self.opts.gby = gby;
        self
    }

    /// Enable or disable the hash join/semi-join kernels.
    pub fn hash_joins(mut self, hash_joins: bool) -> Self {
        self.opts.hash_joins = hash_joins;
        self
    }

    /// Send spans and events to `tracer`.
    pub fn tracer(mut self, tracer: TracerHandle) -> Self {
        self.opts.tracer = tracer;
        self
    }

    /// Pick the block-at-a-time execution policy.
    pub fn block(mut self, block: BlockPolicy) -> Self {
        self.opts.block = block;
        self
    }

    /// Pick the backend retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.opts.retry = retry;
        self
    }

    /// Pick the pipelined-prefetch policy for backend cursors.
    pub fn prefetch(mut self, prefetch: PrefetchPolicy) -> Self {
        self.opts.prefetch = prefetch;
        self
    }

    /// Size of each session's private plan-template cache (clamped to
    /// at least 1 entry at session open).
    pub fn plan_cache_cap(mut self, cap: usize) -> Self {
        self.opts.plan_cache_cap = cap;
        self
    }

    /// Share `cache` across every session of this mediator: sessions
    /// consult (and fill) it instead of their private caches, so
    /// repeated query classes hit plans other sessions compiled.
    pub fn shared_plan_cache(mut self, cache: Arc<SharedPlanCache>) -> Self {
        self.opts.shared_plan_cache = Some(cache);
        self
    }

    /// Finish building.
    pub fn build(self) -> MediatorOptions {
        self.opts
    }
}

/// The mediator server: a catalog of wrapped sources plus named
/// virtual views.
pub struct Mediator {
    catalog: Catalog,
    views: HashMap<Name, Plan>,
    options: MediatorOptions,
}

impl Mediator {
    /// A mediator over `catalog` with default (lazy, optimizing)
    /// options.
    pub fn new(catalog: Catalog) -> Mediator {
        Mediator::with_options(catalog, MediatorOptions::default())
    }

    /// A mediator with explicit evaluation options.
    pub fn with_options(catalog: Catalog, options: MediatorOptions) -> Mediator {
        Mediator {
            catalog,
            views: HashMap::new(),
            options,
        }
    }

    /// The source catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The evaluation options.
    pub fn options(&self) -> MediatorOptions {
        self.options.clone()
    }

    /// Define a named virtual view. Client queries may then use
    /// `document(<name>)` to range over it; the mediator composes
    /// rather than materializing (Section 6).
    pub fn define_view(&mut self, name: impl Into<Name>, query_text: &str) -> Result<()> {
        let name = name.into();
        if self.catalog.source(name.as_str()).is_ok() {
            return Err(MixError::invalid(format!(
                "view name {name} collides with a registered source"
            )));
        }
        let q = parse_query(query_text)?;
        let plan = translate_with_root(&q, name.as_str())?;
        mix_algebra::validate(&plan)?;
        self.views.insert(name, plan);
        Ok(())
    }

    /// The logical plan of a view.
    pub fn view(&self, name: &str) -> Option<&Plan> {
        self.views.get(name)
    }

    /// Defined view names.
    pub fn view_names(&self) -> Vec<Name> {
        let mut v: Vec<Name> = self.views.keys().cloned().collect();
        v.sort();
        v
    }

    /// Render the plan stages for `query_text` *without executing it*:
    /// the naive logical plan (views composed in), the optimized
    /// pre-SQL-split plan, and the post-split physical plan with its
    /// `rQ` pushdowns. For per-operator execution counts, run the query
    /// in a session and use [`crate::session::QdomSession::explain`].
    pub fn explain(&self, query_text: &str) -> Result<String> {
        let q = parse_query(query_text)?;
        let mut plan = translate_with_root(&q, "rootv")?;
        for vname in self.view_names() {
            if crate::splice::references_source(&plan.root, vname.as_str()) {
                let view = self.views.get(&vname).expect("listed view exists");
                plan = crate::splice::compose(&plan, vname.as_str(), view);
            }
        }
        let (optimized, physical) = if self.options.optimize {
            let out = mix_rewrite::optimize(&plan, &self.catalog);
            (out.logical, out.plan)
        } else {
            (plan.clone(), plan.clone())
        };
        mix_algebra::validate(&physical)?;
        Ok(format!(
            "== logical plan ==\n{}== optimized plan ==\n{}== physical plan ==\n{}",
            plan.render(),
            optimized.render(),
            physical.render(),
        ))
    }

    /// Open a QDOM client session borrowing this mediator.
    pub fn session(&self) -> crate::session::QdomSession<'_> {
        crate::session::QdomSession::new(self)
    }

    /// Open a QDOM client session that *owns* a handle to this
    /// mediator: no borrow ties it down, so it can outlive the stack
    /// frame and migrate across server worker threads
    /// (`QdomSession<'static>` is what the pooled server queues).
    pub fn session_arc(self: &Arc<Mediator>) -> crate::session::QdomSession<'static> {
        crate::session::QdomSession::new_owned(Arc::clone(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_wrapper::fig2_catalog;

    #[test]
    fn views_are_validated_and_named() {
        let (cat, _) = fig2_catalog();
        let mut m = Mediator::new(cat);
        m.define_view("custview", "FOR $C IN source(&root1)/customer RETURN $C")
            .unwrap();
        assert!(m.view("custview").is_some());
        assert_eq!(m.view_names().len(), 1);
        // Bad query text is rejected.
        assert!(m.define_view("bad", "FOR $C IN RETURN $C").is_err());
        // Colliding with a source is rejected.
        assert!(m
            .define_view("root1", "FOR $C IN source(&root1)/customer RETURN $C")
            .is_err());
    }
}
