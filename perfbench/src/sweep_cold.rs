//! `sweep-cold`: one `{"op":"sweep"}` over the full 32,000-point Fig. 7
//! gemm-blocked space at stage `est`, on a freshly started cluster each
//! time, so every cache is cold. 98.4% of points stop at the affine
//! checker, so parse/check and the gateway's scatter, render and Pareto
//! fold block the result.

use std::io;
use std::time::{Duration, Instant};

use dahlia_dse::Config;
use dahlia_server::json::{obj, Json};
use dahlia_server::{Client, Request, Stage};

use crate::cluster::{is_ok, Cluster, Counters};
use crate::designs::{fig7_params, fig7_rule, fig7_space, fig7_template, point_key, salted};
use crate::layers::{pareto_cost, path_rows, plan_cost, stage_costs};
use crate::load::{median, windowed};
use crate::{Ctx, Report};

/// Progress lines arrive once per this many completed points; the gap
/// between two of them is the latency a streaming client sees. 32 makes
/// one sweep exactly one 1,000-sample window.
const UPDATE_EVERY: u64 = 32;
/// The traced run samples every this-many-th point for its path rows.
const PATH_SAMPLE_STRIDE: usize = 16;

/// The pinned outcome of the full sweep on this tree.
const EXPECTED: &str = include_str!("../expected/sweep-cold.json");

struct Expected {
    points: u64,
    accepted: u64,
    front: String,
}

fn expected() -> Expected {
    let v = Json::parse(EXPECTED).expect("expected/sweep-cold.json parses");
    let n = |k: &str| v.get(k).and_then(Json::as_u64).expect("expected count");
    Expected {
        points: n("points_total"),
        accepted: n("accepted"),
        front: v.get("front").expect("expected front").emit(),
    }
}

fn sweep_line() -> String {
    let params = Json::Obj(
        fig7_params()
            .into_iter()
            .map(|(k, vs)| {
                (
                    k,
                    Json::Arr(vs.into_iter().map(|v| Json::Num(v as f64)).collect()),
                )
            })
            .collect(),
    );
    obj([
        ("op", Json::Str("sweep".into())),
        ("id", Json::Str("perfbench-sweep".into())),
        ("name", Json::Str("gemm-blocked".into())),
        ("template", Json::Str(fig7_template())),
        ("params", params),
        ("stage", Json::Str("est".into())),
        ("stride", Json::Num(1.0)),
        ("resume", Json::Bool(false)),
        ("prune", Json::Bool(false)),
        ("update_every", Json::Num(UPDATE_EVERY as f64)),
    ])
    .emit()
}

struct Sweep {
    wall_s: f64,
    gaps_us: Vec<f64>,
    summary: Json,
}

/// Send one sweep op over a fresh v1 connection and read its stream.
fn run_sweep(addr: &str) -> io::Result<Sweep> {
    let mut client = Client::connect_wire(addr, 1)?;
    if client.wire_version() != 1 {
        return Err(io::Error::other("gateway did not negotiate the v1 wire"));
    }
    let line = sweep_line();
    let t0 = Instant::now();
    client.send_line(&line)?;
    let mut last = t0;
    let mut gaps_us = Vec::new();
    loop {
        let reply = client
            .recv_line()?
            .ok_or_else(|| io::Error::other("gateway closed the sweep stream"))?;
        let v = Json::parse(&reply).map_err(io::Error::other)?;
        let now = Instant::now();
        if v.get("done").and_then(Json::as_bool) == Some(true) {
            return Ok(Sweep {
                wall_s: (now - t0).as_secs_f64(),
                gaps_us,
                summary: v,
            });
        }
        gaps_us.push((now - last).as_secs_f64() * 1e6);
        last = now;
    }
}

fn parse_key(key: &str) -> Option<Config> {
    key.split(',')
        .map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Check a sweep summary against the pinned file and the oracle:
/// counts, the exact front, and the divisibility rule on every front
/// point. Returns the mismatches.
fn check_summary(v: &Json, want: &Expected) -> Vec<String> {
    let mut bad = Vec::new();
    if !is_ok(v) {
        return vec![format!("sweep failed: {}", v.emit())];
    }
    let s = v.get("sweep").cloned().unwrap_or(Json::Null);
    let n = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let rejected = want.points - want.accepted;
    if n("points_total") != want.points || n("points_done") != want.points {
        bad.push(format!(
            "points {} / {}",
            n("points_done"),
            n("points_total")
        ));
    }
    if n("point_failures") != rejected {
        bad.push(format!(
            "{} rejected, expected {rejected}",
            n("point_failures")
        ));
    }
    let front = s.get("front").cloned().unwrap_or(Json::Null);
    if front.emit() != want.front {
        bad.push("front differs from expected/sweep-cold.json".into());
    }
    if let Json::Arr(entries) = &front {
        for e in entries {
            let key = e.get("key").and_then(Json::as_str).unwrap_or("");
            if !parse_key(key).is_some_and(|cfg| fig7_rule(&cfg)) {
                bad.push(format!("front point {key} breaks the divisibility rule"));
            }
        }
    }
    bad
}

pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let want = expected();
    let mut r = Report::default();
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut gaps = Vec::new();
    let t0 = Instant::now();
    let budget = Duration::from_secs(ctx.seconds);
    let mut counts = Counters::default();
    let mut cluster_kept = None;
    // At least one sweep; in a trace run exactly one, whose warm cluster
    // the layer phases then reuse.
    while setup.is_empty() || (!ctx.trace && t0.elapsed() < budget) {
        let cluster = Cluster::launch(&ctx.dahliac)?;
        let before = Counters::from_stats(&cluster.stats()?);
        let sweep = run_sweep(&cluster.addr)?;
        counts = Counters::from_stats(&cluster.stats()?).since(before);
        setup.push(cluster.setup_s);
        rss.push(cluster.peak_rss_mb());
        r.attempted += want.points;
        let bad = check_summary(&sweep.summary, &want);
        if bad.is_empty() {
            rates.push(want.points as f64 / sweep.wall_s);
        } else {
            r.failed += want.points;
            for b in bad {
                eprintln!("perfbench: sweep-cold: {b}");
            }
        }
        gaps.extend(sweep.gaps_us);
        cluster_kept = Some(cluster);
    }
    let cluster = cluster_kept.expect("at least one sweep ran");
    r.extra("sweeps", setup.len() as f64, "count");
    r.extra("gap_samples", gaps.len() as f64, "count");
    if ctx.trace {
        trace_layers(ctx, &cluster, &mut r, median(&gaps))?;
        counts.report(&mut r);
    } else {
        r.metric("setup_s", median(&setup), "s");
        r.metric("throughput_per_s", median(&rates), "1/s");
        r.extra("p99_us", windowed(&gaps, 0.99), "us");
        r.metric("p50_us", windowed(&gaps, 0.5), "us");
        r.metric("p90_us", windowed(&gaps, 0.9), "us");
        r.metric("peak_rss_mb", median(&rss), "MB");
    }
    Ok(r)
}

fn trace_layers(ctx: &Ctx, cluster: &Cluster, r: &mut Report, gap_p50: f64) -> io::Result<()> {
    // The same sweep again: every point now answers warm, so this is the
    // scatter/fold/stream cost with compute removed.
    let warm = run_sweep(&cluster.addr)?;
    r.metric("gateway.warm_rerun_s", warm.wall_s, "s");
    let want = expected();
    r.attempted += want.points;
    let bad = check_summary(&warm.summary, &want);
    if !bad.is_empty() {
        r.failed += want.points;
        eprintln!("perfbench: sweep-cold: warm re-run: {}", bad.join("; "));
    }

    // Planning, then stage costs over the whole space, with the oracle
    // checked against every checker verdict.
    let sources = plan_cost(r);
    let configs = fig7_space().iter().collect::<Vec<Config>>();
    let costs = stage_costs(&sources);
    costs.report(r);
    let disagree = configs
        .iter()
        .zip(&costs.accepted)
        .filter(|(c, &ok)| fig7_rule(c) != ok)
        .count();
    r.attempted += configs.len() as u64;
    r.failed += disagree as u64;
    if disagree > 0 {
        eprintln!("perfbench: sweep-cold: checker and rule disagree on {disagree} points");
    }

    // The Pareto fold over the accepted points, estimated in-process; its
    // front must match the pinned one too.
    let accepted: Vec<(String, Vec<f64>)> = configs
        .iter()
        .zip(&sources)
        .zip(&costs.accepted)
        .filter(|(_, &ok)| ok)
        .map(|((cfg, src), _)| {
            let ast = dahlia_core::parse(src).expect("accepted source parses");
            let e = hls_sim::estimate(&dahlia_backend::lower(&ast, "gemm-blocked"));
            let o = [e.cycles, e.luts, e.ffs, e.brams, e.dsps];
            (point_key(cfg), o.iter().map(|&x| x as f64).collect())
        })
        .collect();
    let front = pareto_cost(r, &accepted);
    let front_json = Json::Arr(
        front
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
            .collect(),
    );
    r.attempted += 1;
    if front_json.emit() != want.front {
        r.failed += 1;
        eprintln!("perfbench: sweep-cold: in-process front differs from the pinned one");
    }

    // Path rows on a sample of the sweep's own point requests.
    let sample: Vec<&String> = sources.iter().step_by(PATH_SAMPLE_STRIDE).collect();
    let make = |depth: u64, _lane: usize, i: u64| {
        let src = sample[i as usize];
        vec![Request::new(
            format!("p{i}"),
            Stage::Estimate,
            salted(src, depth),
            "gemm-blocked",
        )]
    };
    let expect_ok: Vec<bool> = (0..sources.len())
        .step_by(PATH_SAMPLE_STRIDE)
        .map(|i| costs.accepted[i])
        .collect();
    let verify = |_depth: u64, _lane: usize, i: u64, _j: usize, resp: &Json| {
        is_ok(resp) == expect_ok[i as usize]
    };
    let rows = path_rows(cluster, sample.len() as u64, &make, &verify, None)?;
    r.attempted += rows.attempted;
    r.failed += rows.failed;
    rows.report(r);
    r.extra("progress_gap_p50_us", gap_p50, "us");
    crate::write_spans(ctx, &rows)?;
    Ok(())
}
