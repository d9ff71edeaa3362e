//! The cluster `sweep` executor: distributed design-space exploration.
//!
//! A `{"op":"sweep"}` control line names a templated kernel and a
//! parameter space ([`SweepSpec`]); this module compiles the template
//! once, then renders one point at a time into a reused buffer just
//! before the front end (parse, then check) runs on it, scatters the
//! points it accepts across the shard set through the gateway's ordinary
//! routing (rendezvous placement, admission cache, fail-over,
//! replication — an accepted point is just a request), and folds the
//! results through a streaming [`ParetoFront`]. A rejected point — most
//! of a real design space — is folded on the spot with the verdict a
//! shard would give, without a hop. The scatter parks no thread per
//! point: the sweep's own thread keeps a window of points in flight,
//! each started with the router's asynchronous submit, and folds every
//! reply itself as it lands. The front end parses each template shape
//! once (see [`Shapes`]): every other point of the shape has its
//! integer slots patched into the shape's AST, and only the type
//! checker runs on it, the checker a shard runs. Three properties carry
//! the subsystem:
//!
//! * **Durability.** Every completed point is appended to a crash-safe
//!   journal (the [`Tsdb`] record format, retention disabled) keyed by
//!   the *rendered source digest*. A gateway killed mid-sweep resumes
//!   with `"resume":true`: journaled points are folded straight into
//!   the front and never re-dispatched — zero recomputed points.
//! * **Determinism.** A Pareto front of a *set* is insertion-order
//!   independent and key-deduplicated (see `dahlia_dse::pareto`), so
//!   the final front is byte-identical whether the sweep ran once,
//!   was resumed, or completed its shards in any order.
//! * **Streaming.** Clients get incremental `"done":false` front
//!   updates every `update_every` completions over the same pipelined
//!   session, then one final `"done":true` summary.
//!
//! Opt-in pruning (`"prune":true`) samples the first point of each
//! innermost-axis region, fronts the samples, and skips every region
//! whose sample's own objectives the front strictly dominates (a
//! rejected sample never prunes its region) — trading exhaustiveness
//! for time. The pruned front is exact only where cost does not
//! decrease along the innermost axis. The summary reports what was
//! skipped and the evaluation time the cost model (mean observed
//! per-point wall time) estimates was saved; the kill/resume path
//! keeps pruning off.

use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dahlia_dse::{point_digest, ParetoFront, Plan, ShapeAst, Slots, SweepSpec};
use dahlia_obs::{Counter, Gauge, Registry, Tsdb, TsdbOptions};
use dahlia_server::evict::{EvictConfig, Lru};
use dahlia_server::json::{obj, Json};
use dahlia_server::{front_end, Diagnostic, Request, Stage};

use crate::{GwInner, HOP_WINDOW};

/// Lifetime sweep counters, registered as the `gateway.sweeps` stats
/// section (and thus `/metrics` and `dahliac top`).
#[derive(Default)]
pub(crate) struct SweepCounters {
    /// Sweep ops accepted (including ones that later failed).
    started: Counter,
    /// Sweeps that emitted their final summary.
    completed: Counter,
    /// Sweeps that ran with `"resume":true`.
    resumed: Counter,
    /// Points across all sweeps (after striding).
    points_total: Counter,
    /// Points evaluated: rejected at the gateway or routed to a shard.
    points_done: Counter,
    /// Points answered from the journal on resume — never dispatched.
    points_skipped: Counter,
    /// Points skipped by dominance pruning.
    points_pruned: Counter,
    /// Routed points answered warm (admission cache or shard cache).
    cache_hits: Counter,
    /// Evaluated points whose compile was rejected (no objectives).
    point_failures: Counter,
    /// Most recent sweep's completion rate.
    last_points_per_s: Gauge,
}

impl SweepCounters {
    pub(crate) fn register(&self, reg: &mut Registry) {
        for (name, c) in [
            ("gateway.sweeps.started", &self.started),
            ("gateway.sweeps.completed", &self.completed),
            ("gateway.sweeps.resumed", &self.resumed),
            ("gateway.sweeps.points_total", &self.points_total),
            ("gateway.sweeps.points_done", &self.points_done),
            ("gateway.sweeps.points_skipped", &self.points_skipped),
            ("gateway.sweeps.points_pruned", &self.points_pruned),
            ("gateway.sweeps.cache_hits", &self.cache_hits),
            ("gateway.sweeps.point_failures", &self.point_failures),
        ] {
            reg.counter(name, c);
        }
        let pps = self.last_points_per_s.clone();
        reg.collect(move |s| s.gauge("gateway.sweeps.last_points_per_s", pps.get()));
    }
}

/// A point's journal identity: the digest of its rendered source, and
/// its front key.
struct Ident {
    digest: u128,
    key: String,
}

impl Ident {
    fn of(plan: &Plan<'_>, values: &[u64], source: &str) -> Ident {
        Ident {
            digest: point_digest(source),
            key: plan.key(values),
        }
    }
}

/// A journaled completion, replayed on resume.
struct Replayed {
    digest: u128,
    key: String,
    /// `None` for a point whose compile was rejected.
    objectives: Option<Vec<f64>>,
}

/// One sweep's fold state: the running front, the journal handle, and
/// the per-sweep counters the incremental updates report. Only the
/// sweep's own thread touches it, so it needs no lock.
struct SweepState<'a> {
    inner: &'a Arc<GwInner>,
    op_id: String,
    name: String,
    stage: Stage,
    update_every: u64,
    total: u64,
    skipped: u64,
    journal: Option<Tsdb>,
    front: ParetoFront,
    done: u64,
    cache_hits: u64,
    failures: u64,
    pruned: u64,
    shapes: Shapes,
}

/// The most shapes a sweep keeps the AST of. A template's shapes
/// number its directive outcomes times its slot widths, a handful for
/// the paper's spaces.
const SHAPES_CAP: usize = 64;

/// The most bytes a sweep keeps across its shapes, as
/// [`ShapeAst::bytes`] measures them.
const SHAPES_BYTES: usize = 16 << 20;

/// The sweep thread's front end. Each shape (see [`Slots::shape`]) is
/// parsed once, by its first point; every later point of the shape has
/// its slot values patched into that AST, which is then checked as
/// [`front_end`] checks. A shape that [`ShapeAst::build`] refuses, and
/// a point it cannot patch, run [`front_end`] on the source.
struct Shapes {
    /// `None` marks a shape that is parsed point by point.
    cache: Lru<Vec<u8>, Option<ShapeAst>>,
}

impl Shapes {
    fn new() -> Shapes {
        Shapes {
            cache: Lru::new(
                EvictConfig::unbounded()
                    .entries(SHAPES_CAP)
                    .bytes(SHAPES_BYTES),
            ),
        }
    }

    /// [`front_end`]'s verdict on `source`, rendered with `slots`.
    fn front_end(&mut self, source: &str, slots: &Slots, stage: Stage) -> Result<(), Diagnostic> {
        if let Some(shape) = self.cache.get_mut(&slots.shape) {
            return verdict(shape.as_mut(), source, slots, stage);
        }
        let mut shape = ShapeAst::build(source, &slots.ints);
        let verdict = verdict(shape.as_mut(), source, slots, stage);
        let weight = shape.as_ref().map_or(0, ShapeAst::bytes);
        self.cache.insert(slots.shape.clone(), shape, weight);
        verdict
    }
}

/// The front end's verdict on a point: its shape's AST patched with
/// `slots`, or `source` when there is none or it cannot be patched.
fn verdict(
    shape: Option<&mut ShapeAst>,
    source: &str,
    slots: &Slots,
    stage: Stage,
) -> Result<(), Diagnostic> {
    match shape.and_then(|s| s.patch(&slots.ints)) {
        Some(ast) => dahlia_server::verdict(ast, stage),
        None => front_end(source, stage),
    }
}

/// Execute one sweep op end to end, emitting zero or more
/// `"done":false` progress lines and exactly one final line.
pub(crate) fn run_sweep(inner: &Arc<GwInner>, op: dahlia_server::SweepOp, emit: &EmitFn) {
    let t0 = Instant::now();
    inner.sweeps.started.inc();
    if op.resume {
        inner.sweeps.resumed.inc();
    }
    let spec = &op.spec;
    // `parse_sweep` already refused an unknown stage name; a host that
    // builds the op itself can still hand us junk, so fail shaped
    // rather than panicking.
    let checked = spec.plan().and_then(|plan| {
        let stage = Stage::from_name(&spec.stage).ok_or_else(|| "unknown stage".to_string())?;
        Ok((plan, stage))
    });
    let (plan, stage) = match checked {
        Ok(pair) => pair,
        Err(msg) => {
            emit(error_line(&op.id, "sweep/invalid-spec", &msg), true);
            return;
        }
    };

    // Durable progress: each sweep gets its own journal directory
    // keyed by the spec digest, so resuming a *different* sweep can
    // never replay this one's points.
    let (journal, replayed) = match open_journal(inner, spec, op.resume) {
        Ok(pair) => pair,
        Err(e) => {
            emit(
                error_line(&op.id, "sweep/journal-failed", &e.to_string()),
                true,
            );
            return;
        }
    };

    // Drop journaled points from the work list, the zero-recompute half
    // of the resume contract. Only a resume renders the plan up front,
    // to digest it, so its first progress line already has the final
    // `points_skipped`.
    let mut todo: Vec<u64> = (0..plan.count()).collect();
    if !replayed.is_empty() {
        let done_digests: HashSet<u128> = replayed.iter().map(|r| r.digest).collect();
        let mut values = vec![0; plan.axes()];
        let mut source = String::new();
        todo.retain(|&n| {
            plan.decode(n, &mut values);
            plan.render(&values, &mut source);
            !done_digests.contains(&point_digest(&source))
        });
    }
    let skipped = plan.count() - todo.len() as u64;
    // Fold journaled completions into the front.
    let mut front = ParetoFront::new();
    let mut journal_failures = 0u64;
    for r in replayed {
        match r.objectives {
            Some(o) => {
                front.insert(r.key, o);
            }
            None => journal_failures += 1,
        }
    }

    let mut state = SweepState {
        inner,
        op_id: op.id.clone(),
        name: spec.name.clone(),
        stage,
        update_every: op.update_every,
        total: plan.count(),
        skipped,
        journal,
        front,
        done: 0,
        cache_hits: 0,
        failures: journal_failures,
        pruned: 0,
        shapes: Shapes::new(),
    };

    if op.prune {
        // A region is a configuration minus its innermost axis.
        let mut values = vec![0; plan.axes()];
        let mut region = |n: u64| {
            plan.decode(n, &mut values);
            values[..values.len() - 1].to_vec()
        };
        // Pass 1: evaluate one sample per innermost-axis region.
        let mut seen = HashSet::new();
        let (samples, rest): (Vec<u64>, Vec<u64>) =
            todo.into_iter().partition(|&n| seen.insert(region(n)));
        let sampled = evaluate(&mut state, &plan, &samples, emit);
        // Pass 2: a region whose sample the front strictly dominates
        // cannot contribute a front point when cost does not decrease
        // along the innermost axis — skip it wholesale.
        let dominated: HashSet<Vec<u64>> = sampled
            .iter()
            .filter(|(_, o)| state.front.dominates_point(o))
            .map(|&(n, _)| region(n))
            .collect();
        let live: Vec<u64> = rest
            .iter()
            .copied()
            .filter(|&n| !dominated.contains(&region(n)))
            .collect();
        state.pruned = (rest.len() - live.len()) as u64;
        evaluate(&mut state, &plan, &live, emit);
    } else {
        evaluate(&mut state, &plan, &todo, emit);
    }

    // Global accounting, then the final summary.
    let (done, pruned, cache_hits, failures) =
        (state.done, state.pruned, state.cache_hits, state.failures);
    let elapsed = t0.elapsed();
    let elapsed_ms = elapsed.as_millis() as u64;
    let (pps, mean_point_ms) = rates(done, elapsed);
    let g = &inner.sweeps;
    g.completed.inc();
    g.points_total.add(state.total);
    g.points_done.add(done);
    g.points_skipped.add(skipped);
    g.points_pruned.add(pruned);
    g.cache_hits.add(cache_hits);
    g.point_failures.add(failures);
    g.last_points_per_s.set(pps);

    let front_json: Vec<Json> = state
        .front
        .entries()
        .into_iter()
        .map(|e| {
            obj([
                ("key", Json::Str(e.key)),
                (
                    "objectives",
                    Json::Arr(e.objectives.into_iter().map(Json::Num).collect()),
                ),
            ])
        })
        .collect();
    let line = obj([
        ("id", Json::Str(op.id.clone())),
        ("ok", Json::Bool(true)),
        ("done", Json::Bool(true)),
        (
            "sweep",
            obj([
                ("name", Json::Str(op.spec.name.clone())),
                ("stage", Json::Str(op.spec.stage)),
                ("points_total", Json::Num(state.total as f64)),
                ("points_done", Json::Num(done as f64)),
                ("points_skipped", Json::Num(skipped as f64)),
                ("points_pruned", Json::Num(pruned as f64)),
                ("cache_hits", Json::Num(cache_hits as f64)),
                ("point_failures", Json::Num(failures as f64)),
                ("elapsed_ms", Json::Num(elapsed_ms as f64)),
                ("points_per_s", Json::Num(pps)),
                // The cost model's estimate of evaluation time pruning
                // saved: pruned points × mean observed per-point wall
                // time this sweep.
                ("est_saved_ms", Json::Num(pruned as f64 * mean_point_ms)),
                ("front_size", Json::Num(front_json.len() as f64)),
                ("front", Json::Arr(front_json)),
            ]),
        ),
    ]);
    emit(line, true);
}

/// A sweep's completion rate in points per second and its mean wall
/// time per point in milliseconds, from the sweep's whole `elapsed`
/// time, not its whole milliseconds: a sweep under 1 ms still has a
/// rate. Both are 0 when nothing was timed or nothing was done.
fn rates(done: u64, elapsed: Duration) -> (f64, f64) {
    let secs = elapsed.as_secs_f64();
    if secs == 0.0 || done == 0 {
        return (0.0, 0.0);
    }
    (done as f64 / secs, secs * 1_000.0 / done as f64)
}

/// The emit callback type [`run_sweep`] streams lines through.
pub(crate) type EmitFn = dyn Fn(Json, bool) + Send + Sync;

/// Evaluate the planned points `pts` and fold every outcome into
/// `state` on this thread, returning each answered point's objectives
/// with its planned position. Each point is rendered into one reused
/// buffer just before its front end runs. A point the front end
/// rejects is recorded on the spot and never becomes a request; it is
/// digested and keyed only when the sweep keeps a journal. Only
/// accepted points are copied into requests and hopped to a shard. At
/// most [`HOP_WINDOW`] × shard count of those are in flight — what
/// the shards' wire windows hold together — and each reply callback
/// only hands its answer back to this thread.
fn evaluate(
    state: &mut SweepState<'_>,
    plan: &Plan<'_>,
    pts: &[u64],
    emit: &EmitFn,
) -> Vec<(u64, Vec<f64>)> {
    let window = HOP_WINDOW * state.inner.shards().len().max(1);
    let (tx, rx) = mpsc::channel();
    let mut answered = Vec::new();
    let mut in_flight = 0;
    let mut fold_one = |state: &mut SweepState<'_>| {
        let (n, ident, resp) = rx.recv().expect("the sweep holds a sender");
        if let Some(o) = state.record(&ident, Outcome::of_reply(&resp), emit) {
            answered.push((n, o));
        }
    };
    let mut values = vec![0; plan.axes()];
    let mut source = String::new();
    let mut slots = Slots::default();
    for &n in pts {
        plan.decode(n, &mut values);
        plan.render_slots(&values, &mut source, &mut slots);
        // A panicking front end is no verdict: the point routes, and
        // its shard answers `internal`.
        let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| {
            state.shapes.front_end(&source, &slots, state.stage)
        }));
        if let Ok(Err(_)) = verdict {
            state.reject(|| Ident::of(plan, &values, &source), emit);
            continue;
        }
        if in_flight == window {
            fold_one(state);
            in_flight -= 1;
        }
        let ident = Ident::of(plan, &values, &source);
        let req = Request::new(
            format!("{}:{:032x}", state.op_id, ident.digest),
            state.stage,
            source.as_str(),
            state.name.as_str(),
        );
        let tx = tx.clone();
        state.inner.submit(
            req,
            Box::new(move |resp| {
                let _ = tx.send((n, ident, resp));
            }),
        );
        in_flight += 1;
    }
    for _ in 0..in_flight {
        fold_one(state);
    }
    answered
}

/// What became of one point.
struct Outcome {
    /// The five objectives; `None` for a rejected or unanswered point.
    objectives: Option<Vec<f64>>,
    /// Answered warm, by the admission cache or a shard's cache.
    cached: bool,
    /// The point has a verdict, so it is journaled. A point no shard
    /// answered has none, and neither has one whose front end panicked
    /// (`internal`): a resume evaluates it again.
    verdict: bool,
}

impl Outcome {
    /// Read a routed point's reply.
    fn of_reply(resp: &Json) -> Outcome {
        let ok = resp.get("ok").and_then(Json::as_bool) == Some(true);
        let phase = resp.get("error").and_then(|e| e.get("phase"));
        Outcome {
            objectives: if ok { objectives_of(resp) } else { None },
            cached: resp.get("cached").and_then(Json::as_bool) == Some(true),
            verdict: !matches!(phase.and_then(Json::as_str), Some("admission" | "internal")),
        }
    }
}

impl SweepState<'_> {
    /// Record one routed point's outcome: journal it, offer it to the
    /// front, count it, and stream a progress line when one is due.
    fn record(&mut self, ident: &Ident, outcome: Outcome, emit: &EmitFn) -> Option<Vec<f64>> {
        if outcome.cached {
            self.cache_hits += 1;
        }
        let objectives = outcome.objectives;
        if outcome.verdict {
            self.journal_point(ident, objectives.as_deref());
        }
        match &objectives {
            Some(o) => {
                self.front.insert(ident.key.clone(), o.clone());
            }
            None => self.failures += 1,
        }
        self.advance(emit);
        objectives
    }

    /// Record a point the front end rejected at the gateway. Its
    /// identity is only worked out when there is a journal to name it
    /// in.
    fn reject(&mut self, ident: impl FnOnce() -> Ident, emit: &EmitFn) {
        if self.journal.is_some() {
            self.journal_point(&ident(), None);
        }
        self.failures += 1;
        self.advance(emit);
    }

    /// Append one point's record to the journal, if the sweep keeps one.
    fn journal_point(&self, ident: &Ident, objectives: Option<&[f64]>) {
        if let Some(tsdb) = &self.journal {
            let record = journal_record(ident.digest, &ident.key, objectives);
            tsdb.append(self.inner.telemetry.clock.now_ms(), record.as_bytes());
        }
    }

    /// Count one evaluated point, streaming a progress line when due.
    fn advance(&mut self, emit: &EmitFn) {
        self.done += 1;
        if self.update_every > 0 && self.done.is_multiple_of(self.update_every) {
            emit(self.progress_line(), false);
        }
    }

    /// One `"done":false` incremental update.
    fn progress_line(&self) -> Json {
        obj([
            ("id", Json::Str(self.op_id.clone())),
            ("ok", Json::Bool(true)),
            ("done", Json::Bool(false)),
            (
                "sweep",
                obj([
                    ("name", Json::Str(self.name.clone())),
                    ("points_total", Json::Num(self.total as f64)),
                    ("points_done", Json::Num(self.done as f64)),
                    ("points_skipped", Json::Num(self.skipped as f64)),
                    ("points_pruned", Json::Num(self.pruned as f64)),
                    ("cache_hits", Json::Num(self.cache_hits as f64)),
                    ("front_size", Json::Num(self.front.len() as f64)),
                ]),
            ),
        ])
    }
}

/// The five minimization objectives of an est-stage response, in the
/// paper's order: cycles, LUTs, FFs, BRAMs, DSPs. `None` when the
/// payload has no estimate (non-est stage, or a shape mismatch).
fn objectives_of(resp: &Json) -> Option<Vec<f64>> {
    let est = resp.get("estimate")?;
    Some(vec![
        est.get("cycles")?.as_f64()?,
        est.get("luts")?.as_f64()?,
        est.get("ffs")?.as_f64()?,
        est.get("brams")?.as_f64()?,
        est.get("dsps")?.as_f64()?,
    ])
}

/// The final error line of a sweep that could not run.
fn error_line(id: &str, code: &str, message: &str) -> Json {
    obj([
        ("id", Json::Str(id.into())),
        ("ok", Json::Bool(false)),
        ("done", Json::Bool(true)),
        (
            "error",
            obj([
                ("phase", Json::Str("sweep".into())),
                ("code", Json::Str(code.into())),
                ("message", Json::Str(message.into())),
            ]),
        ),
    ])
}

/// One journal record: the point's identity, front key, and outcome.
/// `objectives` is absent for rejected points — they are still
/// journaled so resume never re-dispatches them.
fn journal_record(digest: u128, key: &str, objectives: Option<&[f64]>) -> String {
    let mut fields = vec![
        ("point".to_string(), Json::Str(format!("{digest:032x}"))),
        ("key".to_string(), Json::Str(key.to_string())),
        ("ok".to_string(), Json::Bool(objectives.is_some())),
    ];
    if let Some(o) = objectives {
        fields.push((
            "objectives".to_string(),
            Json::Arr(o.iter().copied().map(Json::Num).collect()),
        ));
    }
    Json::Obj(fields).emit()
}

/// Open (or, on a fresh run, reset) the sweep's journal and replay any
/// completed points. Without a telemetry dir the sweep runs fine but
/// is not durable — there is nowhere to journal to.
#[allow(clippy::type_complexity)]
fn open_journal(
    inner: &Arc<GwInner>,
    spec: &SweepSpec,
    resume: bool,
) -> std::io::Result<(Option<Tsdb>, Vec<Replayed>)> {
    let Some(root) = &inner.telemetry.dir else {
        return Ok((None, Vec::new()));
    };
    let dir = root.join(format!("sweep-{:032x}", spec.digest()));
    if !resume {
        // A fresh (non-resume) sweep starts a fresh journal; stale
        // records would otherwise mark its points already done.
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Retention must never drop resume data: a sweep journal is not a
    // ring, it is a log the final summary retires.
    let tsdb = Tsdb::open_with(
        &dir,
        TsdbOptions {
            segment_bytes: 1 << 20,
            retain_bytes: u64::MAX,
        },
    )?;
    let mut replayed = Vec::new();
    if resume {
        for (_t, payload) in tsdb.scan_since(0) {
            let Ok(text) = String::from_utf8(payload) else {
                continue;
            };
            let Ok(v) = Json::parse(&text) else { continue };
            let Some(digest) = v
                .get("point")
                .and_then(Json::as_str)
                .and_then(|h| u128::from_str_radix(h, 16).ok())
            else {
                continue;
            };
            let Some(key) = v.get("key").and_then(Json::as_str) else {
                continue;
            };
            let ok = v.get("ok").and_then(Json::as_bool) == Some(true);
            let objectives = if ok {
                match v.get("objectives") {
                    Some(Json::Arr(items)) => {
                        let o: Option<Vec<f64>> = items.iter().map(Json::as_f64).collect();
                        o
                    }
                    _ => None,
                }
            } else {
                None
            };
            replayed.push(Replayed {
                digest,
                key: key.to_string(),
                objectives,
            });
        }
    }
    Ok((Some(tsdb), replayed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::spawn_shard;
    use crate::GatewayConfig;
    use dahlia_server::TelemetryConfig;
    use std::sync::mpsc;

    /// A small two-parameter space over a bank/unroll template; every
    /// config is legal Dahlia and estimates distinct costs.
    fn small_op(id: &str, resume: bool, update_every: u64) -> dahlia_server::SweepOp {
        dahlia_server::SweepOp {
            id: id.to_string(),
            spec: SweepSpec {
                name: "sweep-test".to_string(),
                template: "let A: float[8 bank ${b}];\n\
                           for (let i = 0..8) unroll ${u} { A[i] := 1.0; }"
                    .to_string(),
                params: vec![
                    ("b".to_string(), vec![1, 2, 4]),
                    ("u".to_string(), vec![1, 2, 4]),
                ],
                stage: "est".to_string(),
                stride: 1,
            },
            resume,
            prune: false,
            update_every,
        }
    }

    /// A fresh directory for one test's journals.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "dahlia-sweep-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    /// Drive a sweep synchronously, collecting every emitted line.
    fn run(gw: &crate::Gateway, op: dahlia_server::SweepOp) -> Vec<(String, bool)> {
        let (tx, rx) = mpsc::channel();
        run_sweep(&gw.inner, op, &move |line: Json, done: bool| {
            let _ = tx.send((line.emit(), done));
        });
        rx.try_iter().collect()
    }

    #[test]
    fn local_sweep_streams_updates_and_fronts_the_space() {
        let shard = spawn_shard();
        let gw = GatewayConfig::new([shard.addr.clone()]).build();
        let lines = run(&gw, small_op("s1", false, 2));
        let (last, fin) = lines.last().unwrap();
        assert!(fin, "last line is final");
        // Incremental updates: 9 points, one update every 2.
        assert!(lines.len() > 1, "streamed incremental updates");
        for (l, done) in &lines[..lines.len() - 1] {
            assert!(!done);
            let v = Json::parse(l).unwrap();
            assert_eq!(v.get("done").and_then(Json::as_bool), Some(false));
        }
        let v = Json::parse(last).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("done").and_then(Json::as_bool), Some(true));
        let s = v.get("sweep").unwrap();
        assert_eq!(s.get("points_total").and_then(Json::as_u64), Some(9));
        assert_eq!(s.get("points_done").and_then(Json::as_u64), Some(9));
        assert_eq!(s.get("points_skipped").and_then(Json::as_u64), Some(0));
        let front = s.get("front_size").and_then(Json::as_u64).unwrap();
        assert!(front >= 1, "at least one non-dominated point");
        // Stats picked the sweep up.
        let stats = gw.stats_json();
        let sweeps = stats.get("gateway").unwrap().get("sweeps").unwrap();
        assert_eq!(sweeps.get("completed").and_then(Json::as_u64), Some(1));
        assert_eq!(sweeps.get("points_done").and_then(Json::as_u64), Some(9));
    }

    #[test]
    fn resume_replays_the_journal_and_recomputes_nothing() {
        let dir = scratch_dir("test");
        let shard = spawn_shard();
        // Run 1: full sweep, journaling along the way.
        let front_a = {
            let gw = GatewayConfig::new([shard.addr.clone()])
                .telemetry(TelemetryConfig::new().dir(&dir))
                .build();
            let lines = run(&gw, small_op("s1", false, 0));
            let v = Json::parse(&lines.last().unwrap().0).unwrap();
            v.get("sweep").unwrap().get("front").unwrap().emit()
        };
        // Run 2: a fresh gateway (the "restarted" process) resumes
        // from the same journal: every point skips, the front comes
        // back byte-identical, and nothing touches the router.
        {
            let gw = GatewayConfig::new([shard.addr.clone()])
                .telemetry(TelemetryConfig::new().dir(&dir))
                .build();
            let before = gw.requests();
            let lines = run(&gw, small_op("s2", true, 0));
            let v = Json::parse(&lines.last().unwrap().0).unwrap();
            let s = v.get("sweep").unwrap();
            assert_eq!(s.get("points_skipped").and_then(Json::as_u64), Some(9));
            assert_eq!(s.get("points_done").and_then(Json::as_u64), Some(0));
            assert_eq!(s.get("front").unwrap().emit(), front_a);
            assert_eq!(gw.requests(), before, "zero points re-dispatched");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn points_no_shard_answered_are_not_journaled() {
        let dir = scratch_dir("unavailable");
        // Run 1: the gateway's own check rejects four of the nine
        // configs; an empty cluster answers the five it accepts
        // unavailable.
        {
            let gw = GatewayConfig::new(Vec::<String>::new())
                .telemetry(TelemetryConfig::new().dir(&dir))
                .build();
            let lines = run(&gw, small_op("u1", false, 0));
            let v = Json::parse(&lines.last().unwrap().0).unwrap();
            let s = v.get("sweep").unwrap();
            assert_eq!(s.get("point_failures").and_then(Json::as_u64), Some(9));
            assert_eq!(gw.requests(), 5, "only accepted points were routed");
        }
        // Run 2 resumes over a live shard: only the rejections have a
        // verdict in the journal, so the five unanswered points are
        // evaluated now.
        {
            let shard = spawn_shard();
            let gw = GatewayConfig::new([shard.addr.clone()])
                .telemetry(TelemetryConfig::new().dir(&dir))
                .build();
            let lines = run(&gw, small_op("u2", true, 0));
            let v = Json::parse(&lines.last().unwrap().0).unwrap();
            let s = v.get("sweep").unwrap();
            assert_eq!(s.get("points_skipped").and_then(Json::as_u64), Some(4));
            assert_eq!(s.get("points_done").and_then(Json::as_u64), Some(5));
            assert!(s.get("front_size").and_then(Json::as_u64).unwrap() >= 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard whose every compile panics: it answers each request
    /// `internal/panic`, as a shard answers a caught panic. Control ops
    /// go to a real server, so the shard passes its health checks.
    struct PanickingShard(dahlia_server::Server);

    impl dahlia_server::SessionHost for PanickingShard {
        fn dispatch(&self, req: Request, respond: dahlia_server::Respond) {
            let error = obj([
                ("phase", Json::Str("internal".into())),
                ("code", Json::Str("internal/panic".into())),
                ("message", Json::Str("compiler panicked".into())),
                ("line", Json::Num(0.0)),
                ("col", Json::Num(0.0)),
            ]);
            respond(obj([
                ("id", Json::Str(req.id)),
                ("stage", Json::Str(req.stage.name().into())),
                ("ok", Json::Bool(false)),
                ("cached", Json::Bool(false)),
                ("latency_us", Json::Num(0.0)),
                ("error", error),
            ]));
        }

        fn control(&self, op: dahlia_server::ControlOp, reply: dahlia_server::Reply) {
            self.0.control(op, reply);
        }
    }

    #[test]
    fn a_panic_is_no_verdict_so_a_resume_evaluates_the_point_again() {
        let dir = scratch_dir("panic");
        // Run 1: the gateway rejects four of the nine configs itself;
        // the five it accepts route to a shard that panics on each.
        {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let host = Arc::new(PanickingShard(dahlia_server::Server::with_threads(1)));
            let handle = std::thread::spawn(move || dahlia_server::serve_sessions(host, listener));
            let gw = GatewayConfig::new([addr.clone()])
                .telemetry(TelemetryConfig::new().dir(&dir))
                .build();
            let lines = run(&gw, small_op("i1", false, 0));
            let v = Json::parse(&lines.last().unwrap().0).unwrap();
            let s = v.get("sweep").unwrap();
            assert_eq!(s.get("point_failures").and_then(Json::as_u64), Some(9));
            assert_eq!(gw.requests(), 5, "only accepted points were routed");
            drop(gw);
            dahlia_server::Client::connect(addr.as_str())
                .unwrap()
                .shutdown_server()
                .unwrap();
            handle.join().unwrap().unwrap();
        }
        // Run 2 resumes over a real server: only the four rejections
        // have a verdict in the journal, so every routed point is
        // evaluated again and reaches the front.
        {
            let shard = spawn_shard();
            let gw = GatewayConfig::new([shard.addr.clone()])
                .telemetry(TelemetryConfig::new().dir(&dir))
                .build();
            let lines = run(&gw, small_op("i2", true, 0));
            let v = Json::parse(&lines.last().unwrap().0).unwrap();
            let s = v.get("sweep").unwrap();
            assert_eq!(s.get("points_skipped").and_then(Json::as_u64), Some(4));
            assert_eq!(s.get("points_done").and_then(Json::as_u64), Some(5));
            assert_eq!(gw.requests(), 5, "every routed point routed again");
            assert!(s.get("front_size").and_then(Json::as_u64).unwrap() >= 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_spec_fails_with_a_shaped_error() {
        let gw = GatewayConfig::new(Vec::<String>::new()).build();
        let mut op = small_op("bad", false, 0);
        op.spec.template = "let A: float[${missing}];".to_string();
        let lines = run(&gw, op);
        assert_eq!(lines.len(), 1);
        let (line, fin) = &lines[0];
        assert!(fin);
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("sweep/invalid-spec")
        );
    }

    #[test]
    fn a_sweep_too_big_to_plan_is_refused_and_the_gateway_keeps_serving() {
        // 10^9 points of a ~12 KB template: planning it would need
        // ~12 TB, so validation refuses it before a single point exists.
        let shard = spawn_shard();
        let gw = GatewayConfig::new([shard.addr.clone()]).build();
        let axis = |n: &str| (n.to_string(), (1..=1000).collect::<Vec<u64>>());
        let mut op = small_op("huge", false, 0);
        op.spec.template = format!("${{a}}${{b}}${{c}}{}", " ".repeat(12_000));
        op.spec.params = vec![axis("a"), axis("b"), axis("c")];
        let lines = run(&gw, op);
        assert_eq!(lines.len(), 1);
        let v = Json::parse(&lines[0].0).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some("sweep/invalid-spec")
        );
        let msg = err.get("message").and_then(Json::as_str).unwrap();
        assert!(msg.contains("1000000000 points"), "{msg}");

        // The gateway answers a normal request afterwards.
        let resp = gw.submit(&Request::new(
            "after",
            Stage::Check,
            "let A: float[8 bank 2];",
            "k",
        ));
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
    }

    /// The front that both the declaration-order sweep and the strided
    /// pruned sweep below reach.
    const FRONT: &str = r#"[{"key":"b=2,u=2","objectives":[8,189,161,0,0]},{"key":"b=1,u=1","objectives":[12,181,132,0,0]}]"#;

    /// Every record in `spec`'s journal under `dir`, sorted: replies
    /// land in any order, so the journal's own order is not pinned.
    fn journal_records(dir: &std::path::Path, spec: &SweepSpec) -> Vec<String> {
        let tsdb = Tsdb::open_with(
            dir.join(format!("sweep-{:032x}", spec.digest())),
            TsdbOptions {
                segment_bytes: 1 << 20,
                retain_bytes: u64::MAX,
            },
        )
        .unwrap();
        let mut records: Vec<String> = tsdb
            .scan_since(0)
            .into_iter()
            .map(|(_, p)| String::from_utf8(p).unwrap())
            .collect();
        records.sort();
        records
    }

    #[test]
    fn keys_follow_parameter_names_not_declaration_order() {
        // `u` is declared before `b`, and varies slowest; keys and
        // journal records still spell `b` first, as a `Config` does.
        let dir = scratch_dir("order");
        let shard = spawn_shard();
        let gw = GatewayConfig::new([shard.addr.clone()])
            .telemetry(TelemetryConfig::new().dir(&dir))
            .build();
        let mut op = small_op("o1", false, 0);
        op.spec.params = vec![("u".to_string(), vec![1, 2]), ("b".to_string(), vec![1, 2])];
        let spec = op.spec.clone();
        let lines = run(&gw, op);
        let v = Json::parse(&lines.last().unwrap().0).unwrap();
        let s = v.get("sweep").unwrap();
        assert_eq!(s.get("front").unwrap().emit(), FRONT);
        assert_eq!(
            journal_records(&dir, &spec),
            [
                r#"{"point":"6f41c6f3263880305cc170ac0db9a08b","key":"b=1,u=2","ok":false}"#,
                r#"{"point":"8977bacc92c080306f8efd75737857ab","key":"b=2,u=1","ok":true,"objectives":[12,197,142,0,0]}"#,
                r#"{"point":"cf9a4e1d8e5680301ba5138ffcded6f8","key":"b=2,u=2","ok":true,"objectives":[8,189,161,0,0]}"#,
                r#"{"point":"edea1c6f548e80304895d3282b6b94d8","key":"b=1,u=1","ok":true,"objectives":[12,181,132,0,0]}"#,
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_groups_strided_points_by_their_region() {
        // Stride 2 keeps (b,u) = (4,1) (4,4) (2,2) (1,1) (1,4). Their
        // regions are b=4, b=2 and b=1: grouping the planned positions
        // by threes instead would prune (2,2) with b=4's dominated
        // sample (4,1).
        let shard = spawn_shard();
        let gw = GatewayConfig::new([shard.addr.clone()]).build();
        let mut op = small_op("ps", false, 0);
        op.prune = true;
        op.spec.stride = 2;
        op.spec.params[0].1 = vec![4, 2, 1];
        let lines = run(&gw, op);
        let v = Json::parse(&lines.last().unwrap().0).unwrap();
        let s = v.get("sweep").unwrap();
        let count = |k: &str| s.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(count("points_pruned"), 1, "{}", s.emit());
        assert_eq!(count("points_done"), 4, "{}", s.emit());
        assert_eq!(s.get("front").unwrap().emit(), FRONT);
    }

    #[test]
    fn a_resumed_sweep_reports_its_skips_on_the_first_progress_line() {
        let dir = scratch_dir("skips");
        // Run 1, on an empty cluster, journals only the four rejections.
        {
            let gw = GatewayConfig::new(Vec::<String>::new())
                .telemetry(TelemetryConfig::new().dir(&dir))
                .build();
            run(&gw, small_op("r1", false, 0));
        }
        let shard = spawn_shard();
        let gw = GatewayConfig::new([shard.addr.clone()])
            .telemetry(TelemetryConfig::new().dir(&dir))
            .build();
        let lines = run(&gw, small_op("r2", true, 1));
        let first = Json::parse(&lines[0].0).unwrap();
        let s = first.get("sweep").unwrap();
        let count = |k: &str| s.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(first.get("done").and_then(Json::as_bool), Some(false));
        assert_eq!(count("points_total"), 9);
        assert_eq!(count("points_skipped"), 4);
        assert_eq!(count("points_done"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sweep_under_a_millisecond_still_has_a_rate() {
        let (pps, mean_ms) = rates(9, Duration::from_micros(500));
        assert!((pps - 18_000.0).abs() < 1e-6, "{pps}");
        assert!((mean_ms - 0.5 / 9.0).abs() < 1e-12, "{mean_ms}");
        assert_eq!(rates(0, Duration::from_micros(500)), (0.0, 0.0));
        assert_eq!(rates(9, Duration::ZERO), (0.0, 0.0));
    }

    /// Run every planned point of `spec` through one [`Shapes`], as
    /// `evaluate` does, checking each verdict against [`front_end`] on
    /// the rendered source: the same code and the same diagnostic.
    /// Returns the accepted points, how many shapes were built (one
    /// lex and one first-point parse each), and how many points fell
    /// back to [`front_end`].
    fn replay(spec: &SweepSpec) -> (u64, u64, u64) {
        let plan = spec.plan().unwrap();
        let stage = Stage::from_name(&spec.stage).unwrap();
        let mut shapes = Shapes::new();
        let mut values = vec![0; plan.axes()];
        let mut source = String::new();
        let mut slots = Slots::default();
        let (mut accepted, mut fell_back) = (0, 0);
        for n in 0..plan.count() {
            plan.decode(n, &mut values);
            plan.render_slots(&values, &mut source, &mut slots);
            let verdict = shapes.front_end(&source, &slots, stage);
            assert_eq!(verdict, front_end(&source, stage), "{source}");
            accepted += u64::from(verdict.is_ok());
            let shape = shapes.cache.get_mut(&slots.shape).unwrap();
            fell_back += u64::from(shape.as_mut().and_then(|s| s.patch(&slots.ints)).is_none());
        }
        let cache = shapes.cache.stats();
        let built = cache.resident_entries + cache.evictions;
        (accepted, built, fell_back)
    }

    fn fig7() -> SweepSpec {
        SweepSpec {
            name: "gemm-blocked".to_string(),
            template: dahlia_kernels::gemm::gemm_blocked_template(128, 8),
            params: dahlia_kernels::gemm::GEMM_BLOCKED_AXES
                .iter()
                .map(|(n, vs)| (n.to_string(), vs.to_vec()))
                .collect(),
            stage: "est".to_string(),
            stride: 1,
        }
    }

    #[test]
    fn the_fig7_sweep_lexes_once_per_shape() {
        // Two shrink directives, each shrinking or not, and every slot
        // one digit wide: four shapes for 32,000 points, so four lexes
        // and four first-point parses. Every other point is patched
        // into its shape's AST; none falls back to the source.
        assert_eq!(replay(&fig7()), (504, 4, 0));
    }

    /// A one-parameter sweep of `template` over `values` at `stage`.
    fn one_axis(template: &str, values: &[u64], stage: &str) -> SweepSpec {
        SweepSpec {
            name: "k".to_string(),
            template: template.to_string(),
            params: vec![("b".to_string(), values.to_vec())],
            stage: stage.to_string(),
            stride: 1,
        }
    }

    #[test]
    fn slots_that_are_not_one_integer_token_fall_back_to_the_source() {
        let falls_back = |template: &str, values: &[u64]| {
            let spec = one_axis(template, values, "check");
            let (_, built, fell_back) = replay(&spec);
            assert_eq!(built, 1, "{template}: one shape");
            assert_eq!(fell_back, values.len() as u64, "{template}");
            let plan = spec.plan().unwrap();
            let (mut source, mut slots) = (String::new(), Slots::default());
            plan.render_slots(&[values[0]], &mut source, &mut slots);
            assert!(
                ShapeAst::build(&source, &slots.ints).is_none(),
                "{template} is parsed point by point"
            );
        };
        falls_back("let x${b} = 1;\nlet y = x${b} + ${b};", &[1, 2, 3]);
        falls_back(
            "let A: float[8 bank 2];\n// bank ${b}\nlet x = A[${b}];",
            &[0, 1, 9],
        );
        falls_back("let x = ${b}.5;", &[1, 2, 3]);
        falls_back("let x = ${b}e2;", &[1, 2, 3]);
        falls_back("let x = ${b}0;", &[0, 1, 2]);
        falls_back("let x = ${b};", &[9_223_372_036_854_775_808]);
    }

    #[test]
    fn a_slot_past_i64_falls_back_for_that_point_only() {
        // One shape: i64::MAX lexes and patches, one past it is the
        // lexer's `bad int literal`.
        let spec = one_axis(
            "let x = ${b};",
            &[
                9_223_372_036_854_775_807,
                9_223_372_036_854_775_808,
                1_000_000_000_000_000_000,
            ],
            "check",
        );
        assert_eq!(replay(&spec), (2, 1, 1));
        let err = front_end("let x = 9223372036854775808;", Stage::Check).unwrap_err();
        assert!(err.message.contains("bad int literal"), "{err:?}");
    }

    #[test]
    fn a_value_its_field_refuses_falls_back_for_that_point_only() {
        // Each template's first point builds the shape; its second
        // point, of the same widths, holds a value the parser refuses
        // in that field, and falls back to the source for the parser's
        // own diagnostic. `replay` checks each verdict against
        // `front_end`'s, message and span included.
        for (template, values, message) in [
            (
                "let A: float[8 bank 4];\nfor (let i = 0..8) unroll ${b} { A[i] := 1.0; }",
                &[4, 0, 2][..],
                "unroll factor must be positive",
            ),
            (
                "let A: float[8 bank 4];\nview v = shrink A[by ${b}];\nlet x = v[0];",
                &[2, 0, 4],
                "positive integer factors",
            ),
            (
                "let A: float[8];\nview v = split A[by ${b}];\nlet x = v[0][0];",
                &[2, 0, 4],
                "positive integer factors",
            ),
            ("let x: bit<${b}> = 1;", &[8, 0, 4], "bit width"),
            (
                "let x: ubit<${b}> = 1;",
                &[4_294_967_295, 4_294_967_296, 1_000_000_000],
                "bit width",
            ),
            (
                "let A: float{${b}}[8];\nlet x = A[0];",
                &[4_294_967_295, 4_294_967_296, 1_000_000_000],
                "port count",
            ),
        ] {
            let spec = one_axis(template, values, "check");
            let (_, built, fell_back) = replay(&spec);
            assert_eq!((built, fell_back), (1, 1), "{template}");
            let plan = spec.plan().unwrap();
            let mut source = String::new();
            plan.render(&values[1..2], &mut source);
            let err = front_end(&source, Stage::Check).unwrap_err();
            assert_eq!(err.code, "parse/invalid", "{source}");
            assert!(err.message.contains(message), "{source}: {err:?}");
        }
        // A scalar's port annotation feeds no leaf: `{1}` is dropped and
        // any other count is refused, so the shape parses point by point.
        let spec = one_axis("let x: bit<8>{${b}} = 1;", &[1, 2, 3], "check");
        assert_eq!(replay(&spec), (1, 1, 3));
    }

    #[test]
    fn a_parse_stage_sweep_gives_the_parsers_verdicts() {
        // Ill-typed points parse; a parse error is the parser's own.
        let typed = "let A: float[8 bank ${b}];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";
        assert_eq!(
            replay(&one_axis(typed, &[1, 2, 3, 4, 8], "parse")),
            (5, 1, 0)
        );
        assert_eq!(
            replay(&one_axis(typed, &[1, 2, 3, 4, 8], "check")),
            (1, 1, 0)
        );
        let broken = "let x = ${b} +;";
        assert_eq!(replay(&one_axis(broken, &[1, 2, 3], "parse")), (0, 1, 3));
    }

    #[test]
    fn pruning_skips_dominated_regions_deterministically() {
        // `b` is the region axis, `u` the innermost one. The samples are
        // the `u=1` corners: `b=2,u=1` and `b=4,u=1` cost the cycles of
        // `b=1,u=1` with more resources, so the front dominates both and
        // their regions' four remaining points prune.
        let shard = spawn_shard();
        let summary = |id: &str| {
            let gw = GatewayConfig::new([shard.addr.clone()]).build();
            let mut op = small_op(id, false, 0);
            op.prune = true;
            let lines = run(&gw, op);
            let v = Json::parse(&lines.last().unwrap().0).unwrap();
            v.get("sweep").unwrap().clone()
        };
        let a = summary("p1");
        let count = |k: &str| a.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(count("points_pruned"), 4, "{}", a.emit());
        assert_eq!(count("points_done"), 5, "{}", a.emit());
        // Cost falls along `u` here, so the pruned front is not the
        // exact one: it keeps only the surviving region's `u=1` corner.
        let Some(Json::Arr(front)) = a.get("front") else {
            panic!("{}", a.emit())
        };
        let keys: Vec<_> = front.iter().filter_map(|e| e.get("key")).collect();
        assert_eq!(keys, [&Json::Str("b=1,u=1".into())], "{}", a.emit());
        let b = summary("p2");
        assert_eq!(a.get("front"), b.get("front"), "same front on every run");
    }
}
