//! The cluster `sweep` executor: distributed design-space exploration.
//!
//! A `{"op":"sweep"}` control line names a templated kernel and a
//! parameter space ([`SweepSpec`]); this module renders every point,
//! runs the front end (parse, then check) on it, scatters the points
//! it accepts across the shard set through the gateway's ordinary
//! routing (rendezvous placement, admission cache, fail-over,
//! replication — an accepted point is just a request), and folds the
//! results through a streaming [`ParetoFront`]. A rejected point — most
//! of a real design space — is folded on the spot with the verdict a
//! shard would give, without a hop. The scatter parks no thread per
//! point: the sweep's own thread keeps a window of points in flight,
//! each started with the router's asynchronous submit, and folds every
//! reply itself as it lands. Three properties carry the subsystem:
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
use std::sync::{mpsc, Arc};
use std::time::Instant;

use dahlia_dse::{point_digest, render, ParetoFront, SweepSpec};
use dahlia_obs::{Counter, Gauge, Registry, Tsdb, TsdbOptions};
use dahlia_server::json::{obj, Json};
use dahlia_server::{front_end, Request, Stage};

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

/// One design point of the sweep, fully rendered.
struct Point {
    /// FNV digest of the rendered source — the journal identity.
    digest: u128,
    /// Canonical `name=value,...` config string — the front key.
    key: String,
    /// Rendered Dahlia source.
    source: String,
    /// Config string minus the innermost axis — the pruning region.
    region: String,
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
    let checked = spec
        .validate()
        .and_then(|()| Stage::from_name(&spec.stage).ok_or_else(|| "unknown stage".to_string()));
    let stage = match checked {
        Ok(stage) => stage,
        Err(msg) => {
            emit(error_line(&op.id, "sweep/invalid-spec", &msg), true);
            return;
        }
    };

    // Render the whole space up front: any failure is a spec bug that
    // affects every point identically, so it fails the sweep, not one
    // point.
    let innermost = spec
        .params
        .last()
        .map(|(n, _)| n.clone())
        .unwrap_or_default();
    let mut points = Vec::new();
    for cfg in spec.points() {
        let source = match render(&spec.template, &cfg) {
            Ok(s) => s,
            Err(msg) => {
                emit(error_line(&op.id, "sweep/render-failed", &msg), true);
                return;
            }
        };
        let key = cfg
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        let region = cfg
            .iter()
            .filter(|(k, _)| **k != innermost)
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        points.push(Point {
            digest: point_digest(&source),
            key,
            source,
            region,
        });
    }

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

    // Fold journaled completions into the front and drop them from the
    // work list: the zero-recompute half of the resume contract.
    let mut front = ParetoFront::new();
    let mut done_digests = HashSet::new();
    for r in &replayed {
        done_digests.insert(r.digest);
    }
    let mut todo = Vec::new();
    let mut skipped = 0u64;
    for p in points {
        if done_digests.contains(&p.digest) {
            skipped += 1;
        } else {
            todo.push(p);
        }
    }
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
        total: (todo.len() as u64) + skipped,
        skipped,
        journal,
        front,
        done: 0,
        cache_hits: 0,
        failures: journal_failures,
        pruned: 0,
    };

    if op.prune {
        // Pass 1: evaluate one sample per innermost-axis region.
        let mut samples = Vec::new();
        let mut rest = Vec::new();
        let mut seen = HashSet::new();
        for p in todo {
            if seen.insert(p.region.clone()) {
                samples.push(p);
            } else {
                rest.push(p);
            }
        }
        let sampled = evaluate(&mut state, &samples, emit);
        // Pass 2: a region whose sample the front strictly dominates
        // cannot contribute a front point when cost does not decrease
        // along the innermost axis — skip it wholesale.
        let dominated: HashSet<&str> = samples
            .iter()
            .zip(&sampled)
            .filter(|(_, o)| o.as_ref().is_some_and(|o| state.front.dominates_point(o)))
            .map(|(s, _)| s.region.as_str())
            .collect();
        let (pruned, live): (Vec<Point>, Vec<Point>) = rest
            .into_iter()
            .partition(|p| dominated.contains(p.region.as_str()));
        state.pruned = pruned.len() as u64;
        evaluate(&mut state, &live, emit);
    } else {
        evaluate(&mut state, &todo, emit);
    }

    // Global accounting, then the final summary.
    let (done, pruned, cache_hits, failures) =
        (state.done, state.pruned, state.cache_hits, state.failures);
    let elapsed_ms = t0.elapsed().as_millis() as u64;
    let pps = if elapsed_ms > 0 {
        done as f64 / (elapsed_ms as f64 / 1_000.0)
    } else {
        done as f64
    };
    let g = &inner.sweeps;
    g.completed.inc();
    g.points_total.add(state.total);
    g.points_done.add(done);
    g.points_skipped.add(skipped);
    g.points_pruned.add(pruned);
    g.cache_hits.add(cache_hits);
    g.point_failures.add(failures);
    g.last_points_per_s.set(pps);

    let mean_point_ms = if done > 0 {
        elapsed_ms as f64 / done as f64
    } else {
        0.0
    };
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

/// The emit callback type [`run_sweep`] streams lines through.
pub(crate) type EmitFn = dyn Fn(Json, bool) + Send + Sync;

/// Evaluate `pts` and fold every outcome into `state` on this thread,
/// returning each point's objectives (`None` for a rejected or
/// unanswered point) in `pts` order. Each point first meets the front
/// end here: a point it rejects is recorded on the spot and never
/// becomes a request, so only accepted points hop to a shard. At most
/// [`HOP_WINDOW`] × shard count of those are in flight — what the
/// shards' wire windows hold together — and each reply callback only
/// hands its answer back to this thread.
fn evaluate(state: &mut SweepState<'_>, pts: &[Point], emit: &EmitFn) -> Vec<Option<Vec<f64>>> {
    let window = HOP_WINDOW * state.inner.shards().len().max(1);
    let (tx, rx) = mpsc::channel();
    let mut objectives = vec![None; pts.len()];
    let mut in_flight = 0;
    let fold_one = |state: &mut SweepState<'_>, objectives: &mut [Option<Vec<f64>>]| {
        let (i, resp) = rx.recv().expect("the sweep holds a sender");
        objectives[i] = state.record(&pts[i], Outcome::of_reply(&resp), emit);
    };
    for (i, p) in pts.iter().enumerate() {
        // A panicking front end is no verdict: the point routes, and
        // its shard answers `internal`.
        let verdict = std::panic::catch_unwind(|| front_end(&p.source, state.stage));
        if let Ok(Err(_)) = verdict {
            state.record(p, Outcome::REJECTED, emit);
            continue;
        }
        if in_flight == window {
            fold_one(state, &mut objectives);
            in_flight -= 1;
        }
        let req = Request::new(
            format!("{}:{:032x}", state.op_id, p.digest),
            state.stage,
            p.source.as_str(),
            state.name.as_str(),
        );
        let tx = tx.clone();
        state.inner.submit(
            req,
            Box::new(move |resp| {
                let _ = tx.send((i, resp));
            }),
        );
        in_flight += 1;
    }
    for _ in 0..in_flight {
        fold_one(state, &mut objectives);
    }
    objectives
}

/// What became of one point.
struct Outcome {
    /// The five objectives; `None` for a rejected or unanswered point.
    objectives: Option<Vec<f64>>,
    /// Answered warm, by the admission cache or a shard's cache.
    cached: bool,
    /// The point has a verdict, so it is journaled. A point no shard
    /// answered has none: a resume evaluates it again.
    verdict: bool,
}

impl Outcome {
    /// A point the front end rejected at the gateway.
    const REJECTED: Outcome = Outcome {
        objectives: None,
        cached: false,
        verdict: true,
    };

    /// Read a routed point's reply.
    fn of_reply(resp: &Json) -> Outcome {
        let ok = resp.get("ok").and_then(Json::as_bool) == Some(true);
        let phase = resp.get("error").and_then(|e| e.get("phase"));
        Outcome {
            objectives: if ok { objectives_of(resp) } else { None },
            cached: resp.get("cached").and_then(Json::as_bool) == Some(true),
            verdict: phase.and_then(Json::as_str) != Some("admission"),
        }
    }
}

impl SweepState<'_> {
    /// Record one point's outcome: journal it, offer it to the front,
    /// count it, and stream a progress line when one is due.
    fn record(&mut self, p: &Point, outcome: Outcome, emit: &EmitFn) -> Option<Vec<f64>> {
        if outcome.cached {
            self.cache_hits += 1;
        }
        let objectives = outcome.objectives;
        if let Some(tsdb) = self.journal.as_ref().filter(|_| outcome.verdict) {
            let record = journal_record(p.digest, &p.key, objectives.as_deref());
            tsdb.append(self.inner.telemetry.clock.now_ms(), record.as_bytes());
        }
        match &objectives {
            Some(o) => {
                self.front.insert(p.key.clone(), o.clone());
            }
            None => self.failures += 1,
        }
        self.done += 1;
        if self.update_every > 0 && self.done.is_multiple_of(self.update_every) {
            emit(self.progress_line(), false);
        }
        objectives
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
        let dir = std::env::temp_dir().join(format!(
            "dahlia-sweep-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
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
        let dir = std::env::temp_dir().join(format!(
            "dahlia-sweep-unavailable-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
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
