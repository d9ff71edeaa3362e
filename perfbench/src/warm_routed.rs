//! `warm-routed`: `est` requests drawn uniformly (seeded) from 8,192
//! distinct keys, all computed during set-up. The keys are accepted
//! pooled designs made distinct by a seeded header comment, so compute is
//! zero while the working set is 4× the gateway's default 2,048-entry
//! admission cache: most requests cross the whole warm path (front-door
//! reactor, admission lookup, shard hop, shard reactor, pool queue, memory
//! tier).
//!
//! The bounded figures come from a closed loop that keeps both load
//! threads busy. The open-loop rates (`light`, `heavy`, the `max_rps`
//! ladder) are printed beside them: on a small shared host their latency
//! is set by how fast an idle vCPU is woken, which no change to this
//! program can steady.

use std::io;
use std::time::Duration;

use dahlia_server::json::Json;
use dahlia_server::{Request, Stage};

use crate::cluster::{connect, Cluster, Counters};
use crate::designs::{self, mix, payload, salted, KERNEL};
use crate::layers::{objectives, pareto_cost, path_rows, plan_cost, stage_costs};
use crate::load::{closed_loop, median, open_loop, windowed, Phase, Socket, Target};
use crate::{Ctx, Report};

const KEYS: u64 = 8192;
/// Rounds per timed run, each on a freshly launched and pre-warmed
/// cluster; every figure is the median over the rounds.
const ROUNDS: u64 = 3;
/// The two pinned open-loop rates, requests per second.
const LIGHT_RPS: f64 = 1000.0;
const HEAVY_RPS: f64 = 4000.0;
/// The fixed `max_rps` ladder (about 20% a rung), and the tail every
/// rung must meet. A rung that misses is tried once more before the
/// ladder stops, so one host stall cannot end it.
const LADDER: [f64; 11] = [
    2000.0, 2400.0, 2900.0, 3500.0, 4200.0, 5000.0, 6000.0, 7200.0, 8600.0, 10300.0, 12400.0,
];
const LIMIT_P99_US: f64 = 2000.0;
/// A rung whose generator ends more than this share of its requests
/// behind has a growing backlog.
const BACKLOG_SHARE: f64 = 0.01;

/// Seeded streams, so each phase draws its own key sequence.
const STREAM_KEY_DESIGN: u64 = 1;
const STREAM_KEY_SALT: u64 = 2;
const STREAM_HEAVY: u64 = 4;
const STREAM_LADDER: u64 = 10;
const STREAM_ROUND: u64 = 50;
const STREAM_PATH: u64 = 1000;

/// Requests per depth in the traced run's path rows.
const PATH_REQUESTS: u64 = 12_000;
const UNBOUNDED: Duration = Duration::from_secs(3600);

struct Keys {
    /// The pooled designs' sources.
    pool: Vec<String>,
    /// Pooled design behind each key.
    design: Vec<usize>,
    source: Vec<String>,
    /// Expected `est` payload per pooled design.
    expect: Vec<String>,
}

impl Keys {
    fn new(seed: u64) -> Keys {
        let pool = designs::pool();
        let expect = designs::expected(&pool)
            .into_iter()
            .map(|e| e[2].clone())
            .collect();
        let (design, source) = (0..KEYS)
            .map(|k| {
                let d = (mix(seed, STREAM_KEY_DESIGN, k) % pool.len() as u64) as usize;
                (d, salted(&pool[d].source, mix(seed, STREAM_KEY_SALT, k)))
            })
            .unzip();
        Keys {
            pool: pool.into_iter().map(|d| d.source).collect(),
            design,
            source,
            expect,
        }
    }

    fn request(&self, id: u64, key: usize) -> Request {
        Request::new(
            format!("r{id}"),
            Stage::Estimate,
            self.source[key].as_str(),
            KERNEL,
        )
    }

    fn verify(&self, key: usize, resp: &Json) -> bool {
        payload(resp).as_deref() == Some(self.expect[self.design[key]].as_str())
    }

    /// Request every key once, closed loop on two lanes.
    fn prewarm(&self, target: &dyn Target) -> Phase {
        closed_loop(
            target,
            2,
            UNBOUNDED,
            KEYS,
            &|_, k| vec![self.request(k, k as usize)],
            &|_, k, _, r| self.verify(k as usize, r),
            0..0,
        )
    }

    /// Closed loop on both lanes, each sending as soon as its reply is
    /// back: the most the two load threads can push through the path.
    /// Runs for `dur` or `items` requests, whichever ends first.
    fn saturate(
        &self,
        target: &dyn Target,
        seed: u64,
        stream: u64,
        dur: Duration,
        items: u64,
    ) -> Phase {
        let draw = |i: u64| (mix(seed, stream, i) % KEYS) as usize;
        closed_loop(
            target,
            2,
            dur,
            items,
            &|_, i| vec![self.request(i, draw(i))],
            &|_, i, _, r| self.verify(draw(i), r),
            0..0,
        )
    }

    /// One open-loop phase at `rate`, drawing keys from `stream`.
    fn open(&self, socket: &Socket, seed: u64, stream: u64, rate: f64, dur: Duration) -> Phase {
        let draw = |i: u64| (mix(seed, stream, i) % KEYS) as usize;
        open_loop(
            socket,
            2,
            rate,
            dur,
            &|_, i| vec![self.request(i, draw(i))],
            &|_, i, _, r| self.verify(draw(i), r),
            0..0,
        )
    }
}

pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let keys = Keys::new(ctx.seed);
    if ctx.trace {
        return traced(ctx, &keys);
    }
    let mut r = Report::default();
    let secs = ctx.seconds as f64;
    let (mut setup, mut rates, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    let (mut light50, mut light90, mut light99) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for round in 0..ROUNDS {
        drop(kept.take()); // stop the previous cluster before starting the next
        let cluster = Cluster::launch(&ctx.dahliac)?;
        let socket = Socket(vec![connect(&cluster.addr)?, connect(&cluster.addr)?]);
        let warm = keys.prewarm(&socket);
        let stream = STREAM_ROUND * (round + 1);
        let sat = keys.saturate(&socket, ctx.seed, stream, phase_len(secs, 0.15), u64::MAX);
        let light = keys.open(
            &socket,
            ctx.seed,
            stream + 1,
            LIGHT_RPS,
            phase_len(secs, 0.1),
        );
        for p in [&warm, &sat, &light] {
            r.attempted += p.attempted;
            r.failed += p.failed;
        }
        setup.push(cluster.setup_s + warm.elapsed_s);
        rates.push(sat.attempted as f64 / sat.elapsed_s);
        p50.push(windowed(&sat.lat_us, 0.5));
        p90.push(windowed(&sat.lat_us, 0.9));
        light50.push(windowed(&light.lat_us, 0.5));
        light90.push(windowed(&light.lat_us, 0.9));
        light99.push(windowed(&light.lat_us, 0.99));
        rss.push(cluster.peak_rss_mb());
        kept = Some((cluster, socket));
    }
    let (_cluster, socket) = kept.expect("at least one round");

    // The heavy rate and the ladder, once, on the last round's cluster.
    let heavy = keys.open(
        &socket,
        ctx.seed,
        STREAM_HEAVY,
        HEAVY_RPS,
        phase_len(secs, 0.1),
    );
    r.attempted += heavy.attempted;
    r.failed += heavy.failed;
    r.extra("p50_us.heavy", windowed(&heavy.lat_us, 0.5), "us");
    r.extra("p99_us.heavy", windowed(&heavy.lat_us, 0.99), "us");
    let mut max_rps = LADDER[0];
    let rung = phase_len(secs, 0.15 / LADDER.len() as f64);
    let mut stream = STREAM_LADDER;
    'ladder: for rate in LADDER {
        for _attempt in 0..2 {
            stream += 1;
            let p = keys.open(&socket, ctx.seed, stream, rate, rung);
            r.attempted += p.attempted;
            r.failed += p.failed;
            let p99 = windowed(&p.lat_us, 0.99);
            let keeps_up = (p.backlog as f64) <= BACKLOG_SHARE * p.attempted as f64;
            if p.failed == 0 && p99 <= LIMIT_P99_US && keeps_up {
                max_rps = rate;
                continue 'ladder;
            }
        }
        break;
    }
    // The lowest rung is the floor, reported even when it fails.
    r.extra("max_rps", max_rps, "1/s");

    r.extra("p50_us.light", median(&light50), "us");
    r.extra("p90_us.light", median(&light90), "us");
    r.extra("p99_us.light", median(&light99), "us");
    r.metric("setup_s", median(&setup), "s");
    r.metric("throughput_per_s", median(&rates), "1/s");
    r.metric("p50_us", median(&p50), "us");
    r.metric("p90_us", median(&p90), "us");
    r.metric("peak_rss_mb", median(&rss), "MB");
    Ok(r)
}

/// The traced run: one cluster, a fixed-size saturation phase for the
/// counts, every key again warm, then the layer phases.
fn traced(ctx: &Ctx, keys: &Keys) -> io::Result<Report> {
    let mut r = Report::default();
    let cluster = Cluster::launch(&ctx.dahliac)?;
    let socket = Socket(vec![connect(&cluster.addr)?, connect(&cluster.addr)?]);
    let warm = keys.prewarm(&socket);
    let before = Counters::from_stats(&cluster.stats()?);
    let sat = keys.saturate(&socket, ctx.seed, STREAM_ROUND, UNBOUNDED, KEYS);
    let counts = Counters::from_stats(&cluster.stats()?).since(before);
    let rerun = keys.prewarm(&socket);
    for p in [&warm, &sat, &rerun] {
        r.attempted += p.attempted;
        r.failed += p.failed;
    }
    r.metric("gateway.warm_rerun_s", rerun.elapsed_s, "s");
    drop(socket);
    trace_layers(ctx, &cluster, keys, &mut r)?;
    counts.report(&mut r);
    Ok(r)
}

fn phase_len(secs: f64, share: f64) -> Duration {
    Duration::from_secs_f64((secs * share).max(0.2))
}

fn trace_layers(ctx: &Ctx, cluster: &Cluster, keys: &Keys, r: &mut Report) -> io::Result<()> {
    plan_cost(r);
    stage_costs(&keys.pool).report(r);
    let points: Vec<(String, Vec<f64>)> = (0..KEYS as usize)
        .filter_map(|k| {
            let est = Json::parse(&keys.expect[keys.design[k]]).ok()?;
            Some((format!("k{k}"), objectives(est.get("estimate")?)?))
        })
        .collect();
    pareto_cost(r, &points);

    // Path rows over the same warm keys, driven like the saturation
    // phase. Each depth draws its own sequence, so no depth finds the
    // admission cache primed by the one before it.
    let draw = |depth: u64, i: u64| (mix(ctx.seed, STREAM_PATH + depth, i) % KEYS) as usize;
    let make = |depth: u64, _lane: usize, i: u64| vec![keys.request(i, draw(depth, i))];
    let verify = |depth: u64, _lane: usize, i: u64, _j: usize, resp: &Json| {
        keys.verify(draw(depth, i), resp)
    };
    let prewarm = |t: &dyn Target| {
        keys.prewarm(t);
    };
    let rows = path_rows(cluster, PATH_REQUESTS, &make, &verify, Some(&prewarm))?;
    r.attempted += rows.attempted;
    r.failed += rows.failed;
    rows.report(r);
    crate::write_spans(ctx, &rows)
}
