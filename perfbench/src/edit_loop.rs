//! `edit-loop`: a closed loop of two designers, each waiting for its
//! reply. Every design is a fresh accepted program, never repeated in a
//! run: a pooled design (Fig. 7, Fig. 8, MachSuite) salted by a seeded
//! header comment. Each is requested as `check`, then `desugar`, `est`
//! and `cpp`: the first computes parse and check cold, the later ones hit
//! the shard's source-keyed entries and compute desugar, lower, est and
//! cpp. The admission cache never hits.

use std::io;
use std::time::Duration;

use dahlia_server::json::Json;
use dahlia_server::Request;

use crate::cluster::{connect, Cluster, Counters};
use crate::designs::{self, mix, payload, salted, Design, CHAIN, KERNEL};
use crate::layers::{objectives, pareto_cost, path_rows, plan_cost, stage_costs};
use crate::load::{closed_loop, median, windowed, Phase, Socket, Target};
use crate::{Ctx, Report};

/// Rounds per timed run, each on a freshly launched cluster; every
/// figure is the median over the rounds, so one cluster's unlucky thread
/// placement cannot set the run's number.
const ROUNDS: u64 = 4;
const UNBOUNDED: Duration = Duration::from_secs(3600);
/// Launches that only time set-up, beside the rounds' own.
const EXTRA_SETUPS: usize = 5;
const DESIGNERS: usize = 2;
/// `peak_rss_mb` is read after this many designs.
const RSS_AFTER_DESIGNS: u64 = 4096;
/// Designs per depth in the traced run's path rows.
const PATH_DESIGNS: u64 = 400;

const STREAM_DESIGN: u64 = 1;
const STREAM_SALT: u64 = 2;

struct Designs {
    pool: Vec<Design>,
    expect: Vec<[String; 4]>,
    seed: u64,
}

impl Designs {
    fn pick(&self, k: u64) -> usize {
        (mix(self.seed, STREAM_DESIGN, k) % self.pool.len() as u64) as usize
    }

    /// The chain of requests for design `k`, salted within `namespace`
    /// so designs never repeat across a run's phases.
    fn chain(&self, namespace: u64, k: u64) -> Vec<Request> {
        let salt = mix(self.seed, STREAM_SALT + namespace, k);
        let src = salted(&self.pool[self.pick(k)].source, salt);
        CHAIN
            .iter()
            .map(|&stage| {
                Request::new(
                    format!("d{k}.{}", stage.name()),
                    stage,
                    src.as_str(),
                    KERNEL,
                )
            })
            .collect()
    }

    fn verify(&self, k: u64, j: usize, resp: &Json) -> bool {
        payload(resp).as_deref() == Some(self.expect[self.pick(k)][j].as_str())
    }

    /// Designs `first..first + items` (or until `dur` passes), in the
    /// run's own salt namespace.
    fn run(&self, target: &dyn Target, first: u64, items: u64, dur: Duration) -> Phase {
        closed_loop(
            target,
            DESIGNERS,
            dur,
            items,
            &|_, k| self.chain(0, first + k),
            &|_, k, j, r| self.verify(first + k, j, r),
            0..0,
        )
    }
}

pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let pool = designs::pool();
    let expect = designs::expected(&pool);
    let d = Designs {
        pool,
        expect,
        seed: ctx.seed,
    };
    if ctx.trace {
        return traced(ctx, &d);
    }
    let mut r = Report::default();
    let (mut setup, mut rates, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p90, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let share = Duration::from_secs_f64(ctx.seconds as f64 / ROUNDS as f64);
    for round in 0..ROUNDS {
        let cluster = Cluster::launch(&ctx.dahliac)?;
        let socket = Socket(vec![connect(&cluster.addr)?, connect(&cluster.addr)?]);
        // The footprint is read after a fixed number of designs, so a
        // faster service that fits more designs into a round does not
        // look fatter; the round then goes on to fill its share.
        let first = round << 40;
        let mut phase = d.run(&socket, first, RSS_AFTER_DESIGNS, UNBOUNDED);
        rss.push(cluster.peak_rss_mb());
        let rest = share.saturating_sub(Duration::from_secs_f64(phase.elapsed_s));
        phase.append(d.run(&socket, first + RSS_AFTER_DESIGNS, u64::MAX, rest));
        r.attempted += phase.attempted;
        r.failed += phase.failed;
        setup.push(cluster.setup_s);
        rates.push(phase.items as f64 / phase.elapsed_s);
        p50.push(windowed(&phase.lat_us, 0.5));
        p90.push(windowed(&phase.lat_us, 0.9));
        p99.push(windowed(&phase.lat_us, 0.99));
        r.extra(
            &format!("round{round}.designs"),
            phase.items as f64,
            "count",
        );
    }
    // Rounds are few; a handful of bare launches steadies the median.
    for _ in 0..EXTRA_SETUPS {
        setup.push(Cluster::launch(&ctx.dahliac)?.setup_s);
    }
    r.metric("setup_s", median(&setup), "s");
    r.metric("throughput_per_s", median(&rates), "1/s");
    r.extra("p99_us", median(&p99), "us");
    r.metric("p50_us", median(&p50), "us");
    r.metric("p90_us", median(&p90), "us");
    r.metric("peak_rss_mb", median(&rss), "MB");
    Ok(r)
}

/// The traced run: one cluster, the first designs of a round for the
/// counts, the same designs again warm, then the layer phases.
fn traced(ctx: &Ctx, d: &Designs) -> io::Result<Report> {
    let mut r = Report::default();
    let cluster = Cluster::launch(&ctx.dahliac)?;
    let socket = Socket(vec![connect(&cluster.addr)?, connect(&cluster.addr)?]);
    let before = Counters::from_stats(&cluster.stats()?);
    let cold = d.run(&socket, 0, RSS_AFTER_DESIGNS, UNBOUNDED);
    let counts = Counters::from_stats(&cluster.stats()?).since(before);
    let warm = d.run(&socket, 0, RSS_AFTER_DESIGNS, UNBOUNDED);
    for p in [&cold, &warm] {
        r.attempted += p.attempted;
        r.failed += p.failed;
    }
    r.metric("gateway.warm_rerun_s", warm.elapsed_s, "s");
    drop(socket);
    trace_layers(ctx, &cluster, d, &mut r)?;
    counts.report(&mut r);
    Ok(r)
}

fn trace_layers(ctx: &Ctx, cluster: &Cluster, d: &Designs, r: &mut Report) -> io::Result<()> {
    plan_cost(r);
    let sources: Vec<String> = d.pool.iter().map(|x| x.source.clone()).collect();
    stage_costs(&sources).report(r);
    let points: Vec<(String, Vec<f64>)> = d
        .expect
        .iter()
        .zip(&d.pool)
        .filter_map(|(e, x)| {
            let est = Json::parse(&e[2]).ok()?;
            Some((x.label.clone(), objectives(est.get("estimate")?)?))
        })
        .collect();
    pareto_cost(r, &points);

    // Path rows: the same designs at every depth, each depth in its own
    // salt namespace so every depth computes cold.
    let make = |depth: u64, _lane: usize, k: u64| d.chain(depth + 1, k);
    let verify = |_depth: u64, _lane: usize, k: u64, j: usize, resp: &Json| d.verify(k, j, resp);
    let rows = path_rows(cluster, PATH_DESIGNS, &make, &verify, None)?;
    r.attempted += rows.attempted;
    r.failed += rows.failed;
    rows.report(r);
    crate::write_spans(ctx, &rows)
}
