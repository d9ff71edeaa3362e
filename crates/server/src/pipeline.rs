//! The staged compilation pipeline over the content-addressed store.
//!
//! Every stage is cached independently under `(source, stage, options)`,
//! so a `check` request warms the cache for a later `est` request on the
//! same program. Stages whose artifact does not depend on the request
//! options — `parse`, `check`, and `desugar` ignore the kernel name —
//! are keyed by **source alone** ([`Stage::options_sensitive`]), so two
//! requests differing only in kernel name share their front-end
//! artifacts outright.
//!
//! Stage dependencies (`est` needs `lower` needs `check` needs `parse`)
//! are resolved recursively through the store, so each prerequisite is
//! itself cached and single-flighted.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dahlia_core::diag::Diagnostic;
use dahlia_core::{CheckReport, Program};
use dahlia_obs::{Span, Tier};
use hls_sim::digest::Fnv;
use hls_sim::{Estimate, Kernel};

use crate::store::{CacheValue, Key, Store, StoreConfig, StoreStats};

/// Span collector threaded through a traced request's stage recursion.
/// One per request; the mutex only serializes the request's own thread
/// (prerequisites resolve on the calling thread).
type SpanSink = Mutex<Vec<Span>>;

/// Number of pipeline stages (array-sized counters index by
/// [`Stage::index`]).
pub const STAGE_COUNT: usize = 6;

/// One stage of the compilation pipeline, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Source → AST.
    Parse,
    /// AST → affine-type report.
    Check,
    /// AST → desugared AST (unrolled loops, inlined views).
    Desugar,
    /// AST → kernel IR for the HLS substrate.
    Lower,
    /// AST → Vivado-HLS-style C++.
    Cpp,
    /// Kernel IR → area/latency estimate.
    Estimate,
}

impl Stage {
    /// All stages, in dependency order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Parse,
        Stage::Check,
        Stage::Desugar,
        Stage::Lower,
        Stage::Cpp,
        Stage::Estimate,
    ];

    /// Dense index for per-stage counters.
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Check => 1,
            Stage::Desugar => 2,
            Stage::Lower => 3,
            Stage::Cpp => 4,
            Stage::Estimate => 5,
        }
    }

    /// Stable protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Check => "check",
            Stage::Desugar => "desugar",
            Stage::Lower => "lower",
            Stage::Cpp => "cpp",
            Stage::Estimate => "est",
        }
    }

    /// Parse a protocol name.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Does this stage's artifact depend on the request [`Options`]?
    /// Front-end stages ignore the kernel name, so their cache entries
    /// are keyed by source alone and shared across differently-named
    /// requests.
    pub fn options_sensitive(self) -> bool {
        matches!(self, Stage::Lower | Stage::Cpp | Stage::Estimate)
    }
}

/// Per-request options that affect artifact content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Options {
    /// Kernel name used by `lower`, `cpp`, and `est`.
    pub kernel_name: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            kernel_name: "kernel".to_string(),
        }
    }
}

impl Options {
    /// Options with the given kernel name.
    pub fn named(kernel_name: impl Into<String>) -> Options {
        Options {
            kernel_name: kernel_name.into(),
        }
    }

    /// Stable digest for cache keys.
    pub fn digest(&self) -> u128 {
        let mut h = Fnv::new();
        h.tag(b'o').str(&self.kernel_name);
        h.finish()
    }
}

/// Stable digest of a source text.
pub fn source_digest(source: &str) -> u128 {
    let mut h = Fnv::new();
    h.tag(b's').str(source);
    h.finish()
}

/// The front end's verdict on `source` for a request of `stage`: the
/// parse, then the type check unless `stage` is [`Stage::Parse`]. The
/// pipeline's parse and check stages compute through the same two
/// steps, so a caller that runs this ahead of a request reaches the
/// verdict the pipeline would.
pub fn front_end(source: &str, stage: Stage) -> Result<(), Diagnostic> {
    let ast = parse(source)?;
    if stage != Stage::Parse {
        check(&ast)?;
    }
    Ok(())
}

fn parse(source: &str) -> Result<Program, Diagnostic> {
    dahlia_core::parse(source).map_err(|e| e.diagnostic())
}

fn check(ast: &Program) -> Result<CheckReport, Diagnostic> {
    dahlia_core::typecheck(ast).map_err(|e| e.diagnostic())
}

/// A cached stage result. Artifacts wrap their payloads in [`Arc`] so a
/// cache hit is a pointer clone, never a deep copy.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Parsed AST.
    Ast(Arc<Program>),
    /// Type-check statistics.
    Check(Arc<CheckReport>),
    /// Desugared AST.
    Desugared(Arc<Program>),
    /// Lowered kernel IR.
    Ir(Arc<Kernel>),
    /// Emitted C++.
    Cpp(Arc<String>),
    /// Area/latency estimate.
    Estimate(Arc<Estimate>),
}

// Artifacts cross worker threads and live in the shared store.
const _: () = {
    const fn assert_shareable<T: Send + Sync + Clone>() {}
    assert_shareable::<Artifact>();
};

/// The staged pipeline: a store plus compute rules.
#[derive(Default)]
pub struct Pipeline {
    store: Store,
    /// Artificial per-computation delay — widens the single-flight window
    /// so tests can pin the dedup behaviour deterministically.
    delay: Option<Duration>,
}

impl Pipeline {
    /// A fresh pipeline with an empty store.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// A pipeline whose every *computed* (not cached) stage sleeps for
    /// `delay` first. Test instrumentation.
    pub fn with_compute_delay(delay: Duration) -> Pipeline {
        Pipeline {
            store: Store::new(),
            delay: Some(delay),
        }
    }

    /// A pipeline over a store with the given memory bounds and
    /// persistent tier, plus an optional per-compute test delay.
    pub fn with_store_config(cfg: StoreConfig, delay: Option<Duration>) -> Pipeline {
        Pipeline {
            store: Store::with_config(cfg),
            delay,
        }
    }

    /// Store counters.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Per-stage compute-cost histogram snapshots (µs), indexed by
    /// [`Stage::index`].
    pub fn compute_hists(&self) -> [dahlia_obs::HistSnapshot; STAGE_COUNT] {
        self.store.compute_hists()
    }

    /// Block until the persistent tier (if any) has written everything.
    pub fn flush(&self) {
        self.store.flush()
    }

    /// Number of cached artifacts.
    pub fn cached_artifacts(&self) -> usize {
        self.store.len()
    }

    /// Drop all cached artifacts (counters survive).
    pub fn clear_cache(&self) {
        self.store.clear()
    }

    /// Produce `stage`'s artifact for `source`, computing (and caching)
    /// any missing prerequisites. The `bool` is true when this call ran
    /// no compute of its own (pure cache hit / single-flight join) —
    /// note prerequisites may still have computed on this call.
    pub fn artifact(&self, source: &str, stage: Stage, opts: &Options) -> (CacheValue, bool) {
        self.artifact_inner(source, stage, opts, None)
    }

    /// [`Pipeline::artifact`] with a per-stage span breakdown: one span
    /// per stage lookup this request touched, in completion order, each
    /// annotated with the cache tier that answered (`memory`, `disk`,
    /// `join`, `computed`). Span times are disjoint — a stage's span
    /// charges only its own work, never its prerequisites' — so the
    /// spans sum to at most the request's wall latency.
    pub fn artifact_traced(
        &self,
        source: &str,
        stage: Stage,
        opts: &Options,
    ) -> (CacheValue, bool, Vec<Span>) {
        let sink = SpanSink::default();
        let (value, cached) = self.artifact_inner(source, stage, opts, Some(&sink));
        (value, cached, sink.into_inner().unwrap())
    }

    /// `stage`'s artifact for the source with `digest` if the memory
    /// tier holds it, with its one `stage:<name>` span (detail
    /// `memory`); `None` otherwise. Never computes, joins a flight, or
    /// reads the disk.
    pub(crate) fn probe_traced(
        &self,
        digest: u128,
        stage: Stage,
        opts: &Options,
    ) -> Option<(CacheValue, Span)> {
        let t0 = Instant::now();
        let value = self.store.probe(&Self::key(digest, stage, opts))?;
        let us = (t0.elapsed().as_nanos() / 1_000) as u64;
        let span = Span::with_detail(format!("stage:{}", stage.name()), us, Tier::Memory.name());
        Some((value, span))
    }

    fn key(digest: u128, stage: Stage, opts: &Options) -> Key {
        Key {
            source: digest,
            stage,
            // Front-end stages ignore the options; keying them by source
            // alone shares their artifacts across differently-named
            // requests (and across their disk entries).
            options: if stage.options_sensitive() {
                opts.digest()
            } else {
                0
            },
        }
    }

    fn artifact_inner(
        &self,
        source: &str,
        stage: Stage,
        opts: &Options,
        sink: Option<&SpanSink>,
    ) -> (CacheValue, bool) {
        let key = Self::key(source_digest(source), stage, opts);
        // Spans must not double-charge time: this stage's lookup wall
        // time includes any prerequisites computed inside the closure,
        // which record their own spans. Charging this stage only the
        // *remainder* keeps spans disjoint, so their sum telescopes to
        // the root lookup's wall time (≤ the request's wall latency).
        let charged_before: u64 =
            sink.map_or(0, |s| s.lock().unwrap().iter().map(|span| span.us).sum());
        let t0 = Instant::now();
        let (value, tier) = self.store.get_or_compute_tiered(key, || {
            if let Some(d) = self.delay {
                std::thread::sleep(d);
            }
            self.compute(source, stage, opts, sink)
        });
        if let Some(sink) = sink {
            let total_us = (t0.elapsed().as_nanos() / 1_000) as u64;
            let name = format!("stage:{}", stage.name());
            let mut spans = sink.lock().unwrap();
            let charged_during: u64 =
                spans.iter().map(|span| span.us).sum::<u64>() - charged_before;
            // A stage can be looked up more than once per request (e.g.
            // `check`'s compute re-fetches the already-recorded parse
            // artifact). Only the first lookup gets a span; re-lookup
            // overhead folds into the stage that caused it.
            if !spans.iter().any(|span| span.name == name) {
                spans.push(Span::with_detail(
                    name,
                    total_us.saturating_sub(charged_during),
                    tier.name(),
                ));
            }
        }
        (value, tier.cached())
    }

    fn ast(
        &self,
        source: &str,
        opts: &Options,
        sink: Option<&SpanSink>,
    ) -> Result<Arc<Program>, Diagnostic> {
        match self.artifact_inner(source, Stage::Parse, opts, sink).0? {
            Artifact::Ast(p) => Ok(p),
            other => unreachable!("parse stage produced {other:?}"),
        }
    }

    fn checked_ast(
        &self,
        source: &str,
        opts: &Options,
        sink: Option<&SpanSink>,
    ) -> Result<Arc<Program>, Diagnostic> {
        let ast = self.ast(source, opts, sink)?;
        self.artifact_inner(source, Stage::Check, opts, sink).0?;
        Ok(ast)
    }

    fn ir(
        &self,
        source: &str,
        opts: &Options,
        sink: Option<&SpanSink>,
    ) -> Result<Arc<Kernel>, Diagnostic> {
        match self.artifact_inner(source, Stage::Lower, opts, sink).0? {
            Artifact::Ir(k) => Ok(k),
            other => unreachable!("lower stage produced {other:?}"),
        }
    }

    fn compute(
        &self,
        source: &str,
        stage: Stage,
        opts: &Options,
        sink: Option<&SpanSink>,
    ) -> CacheValue {
        match stage {
            Stage::Parse => Ok(Artifact::Ast(Arc::new(parse(source)?))),
            Stage::Check => {
                let ast = self.ast(source, opts, sink)?;
                Ok(Artifact::Check(Arc::new(check(&ast)?)))
            }
            Stage::Desugar => {
                let ast = self.checked_ast(source, opts, sink)?;
                Ok(Artifact::Desugared(Arc::new(
                    dahlia_core::desugar::desugar(&ast),
                )))
            }
            Stage::Lower => {
                let ast = self.checked_ast(source, opts, sink)?;
                Ok(Artifact::Ir(Arc::new(dahlia_backend::lower(
                    &ast,
                    &opts.kernel_name,
                ))))
            }
            Stage::Cpp => {
                let ast = self.checked_ast(source, opts, sink)?;
                Ok(Artifact::Cpp(Arc::new(dahlia_backend::emit_cpp(
                    &ast,
                    &opts.kernel_name,
                ))))
            }
            Stage::Estimate => {
                let ir = self.ir(source, opts, sink)?;
                Ok(Artifact::Estimate(Arc::new(hls_sim::estimate(&ir))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "let A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";
    const ILL_TYPED: &str = "let A: float[8];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";

    #[test]
    fn estimate_pulls_the_whole_chain() {
        let p = Pipeline::new();
        let opts = Options::named("k");
        let (v, cached) = p.artifact(GOOD, Stage::Estimate, &opts);
        assert!(!cached);
        let est = match v.unwrap() {
            Artifact::Estimate(e) => e,
            other => panic!("{other:?}"),
        };
        assert!(est.correct);
        // parse, check, lower, est each computed exactly once; cpp and
        // desugar were never needed.
        let ex = p.stats().executions;
        assert_eq!(ex[Stage::Parse.index()], 1);
        assert_eq!(ex[Stage::Check.index()], 1);
        assert_eq!(ex[Stage::Lower.index()], 1);
        assert_eq!(ex[Stage::Estimate.index()], 1);
        assert_eq!(ex[Stage::Cpp.index()], 0);
        assert_eq!(ex[Stage::Desugar.index()], 0);
    }

    #[test]
    fn warm_requests_share_prerequisites() {
        let p = Pipeline::new();
        let opts = Options::named("k");
        let _ = p.artifact(GOOD, Stage::Estimate, &opts);
        let (_, cached) = p.artifact(GOOD, Stage::Estimate, &opts);
        assert!(cached);
        // A different terminal stage still reuses parse + check.
        let (v, _) = p.artifact(GOOD, Stage::Cpp, &opts);
        assert!(matches!(v.unwrap(), Artifact::Cpp(_)));
        let ex = p.stats().executions;
        assert_eq!(ex[Stage::Parse.index()], 1, "parse ran once total");
        assert_eq!(ex[Stage::Check.index()], 1, "check ran once total");
    }

    #[test]
    fn type_errors_propagate_and_cache() {
        let p = Pipeline::new();
        let opts = Options::default();
        let (v, _) = p.artifact(ILL_TYPED, Stage::Estimate, &opts);
        let d = v.unwrap_err();
        assert_eq!(d.code, "type/insufficient-banks");
        // Re-requesting any downstream stage re-uses the cached failure:
        // check never runs twice.
        let _ = p.artifact(ILL_TYPED, Stage::Cpp, &opts);
        let s = p.stats();
        assert_eq!(s.executions[Stage::Check.index()], 1);
        // Stages that only passed the check error on are counted apart:
        // no execution, no compute time.
        for stage in [Stage::Lower, Stage::Estimate, Stage::Cpp] {
            assert_eq!(s.executions[stage.index()], 0, "{stage:?}");
            assert_eq!(s.compute_nanos[stage.index()], 0, "{stage:?}");
            assert_eq!(s.propagated[stage.index()], 1, "{stage:?}");
        }
        assert_eq!(p.compute_hists()[Stage::Estimate.index()].count, 0);
        assert_eq!(s.propagated[Stage::Parse.index()], 0);
        assert_eq!(s.propagated[Stage::Check.index()], 0);
        assert_eq!(s.total_executions(), 2, "parse + check");

        // A parse error reaching check is check's propagation.
        let (v, _) = p.artifact("let = oops", Stage::Check, &opts);
        assert_eq!(v.unwrap_err().phase, dahlia_core::diag::Phase::Parse);
        let s = p.stats();
        assert_eq!(s.executions[Stage::Check.index()], 1);
        assert_eq!(s.propagated[Stage::Check.index()], 1);
        assert_eq!(s.executions[Stage::Parse.index()], 2);
    }

    #[test]
    fn front_end_gives_the_pipelines_verdict() {
        let p = Pipeline::new();
        for source in [GOOD, ILL_TYPED, "let = oops"] {
            for stage in [Stage::Parse, Stage::Check, Stage::Estimate] {
                let (piped, _) = p.artifact(source, stage, &Options::default());
                assert_eq!(
                    front_end(source, stage).err().map(|d| d.code),
                    piped.err().map(|d| d.code),
                    "{source} at {stage:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_names_share_front_end_artifacts() {
        // Requests that differ only in kernel name must share parse,
        // check, and desugar entries (the finer-key ROADMAP item): only
        // the back-end stages fork per name.
        let p = Pipeline::new();
        let _ = p.artifact(GOOD, Stage::Estimate, &Options::named("alpha"));
        let _ = p.artifact(GOOD, Stage::Estimate, &Options::named("beta"));
        let _ = p.artifact(GOOD, Stage::Desugar, &Options::named("alpha"));
        let _ = p.artifact(GOOD, Stage::Desugar, &Options::named("gamma"));
        let ex = p.stats().executions;
        assert_eq!(ex[Stage::Parse.index()], 1, "parse shared across names");
        assert_eq!(ex[Stage::Check.index()], 1, "check shared across names");
        assert_eq!(ex[Stage::Desugar.index()], 1, "desugar shared across names");
        assert_eq!(ex[Stage::Lower.index()], 2, "lower forks per name");
        assert_eq!(ex[Stage::Estimate.index()], 2, "estimate forks per name");
    }

    #[test]
    fn options_separate_cache_lines() {
        let p = Pipeline::new();
        let (a, _) = p.artifact(GOOD, Stage::Cpp, &Options::named("alpha"));
        let (b, _) = p.artifact(GOOD, Stage::Cpp, &Options::named("beta"));
        let (a, b) = (a.unwrap(), b.unwrap());
        let (Artifact::Cpp(a), Artifact::Cpp(b)) = (a, b) else {
            panic!()
        };
        assert!(a.contains("void alpha("));
        assert!(b.contains("void beta("));
    }

    #[test]
    fn traced_estimate_spans_every_stage_and_sums_under_wall() {
        let p = Pipeline::new();
        let opts = Options::named("k");
        let t0 = std::time::Instant::now();
        let (v, cached, spans) = p.artifact_traced(GOOD, Stage::Estimate, &opts);
        let wall_us = t0.elapsed().as_micros() as u64;
        assert!(v.is_ok());
        assert!(!cached);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["stage:parse", "stage:check", "stage:lower", "stage:est"],
            "cold est touches the dependency chain in completion order"
        );
        assert!(
            spans
                .iter()
                .all(|s| s.detail.as_deref() == Some("computed")),
            "{spans:?}"
        );
        let sum: u64 = spans.iter().map(|s| s.us).sum();
        assert!(sum <= wall_us, "spans sum {sum} > wall {wall_us}");

        // Warm repeat: one memory-tier span for the terminal stage only.
        let (_, cached, spans) = p.artifact_traced(GOOD, Stage::Estimate, &opts);
        assert!(cached);
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].name, "stage:est");
        assert_eq!(spans[0].detail.as_deref(), Some("memory"));
    }

    #[test]
    fn traced_failure_still_produces_spans() {
        let p = Pipeline::new();
        let (v, _, spans) = p.artifact_traced(ILL_TYPED, Stage::Estimate, &Options::default());
        assert!(v.is_err());
        assert!(
            spans.iter().any(|s| s.name == "stage:check"),
            "the failing stage appears in the breakdown: {spans:?}"
        );
    }

    #[test]
    fn stage_names_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }
}
