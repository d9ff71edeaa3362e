//! The traced run's per-layer numbers, timed from the benchmark's own
//! files around calls into each layer's public entry point.
//!
//! Two kinds of row:
//!
//! * **Stage cost** — mean µs per call of `dahlia_core::parse`,
//!   `typecheck`, `desugar::desugar`, `dahlia_backend::lower`,
//!   `emit_cpp` and `hls_sim::estimate` on the workload's designs.
//! * **Path rows** — the workload's requests driven, closed loop on two
//!   load threads, at four depths: the live front-door socket, an
//!   in-process `Gateway::submit` against the live shards, an in-process
//!   `Server::submit`, and a bare `Pipeline::artifact` (store tier plus
//!   stage compute). The difference between adjacent depths' medians is
//!   the layer between them, so the rows sum to the socket median.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use dahlia_dse::{render, ParetoFront, SweepSpec};
use dahlia_gateway::GatewayConfig;
use dahlia_server::json::Json;
use dahlia_server::{Pipeline, Request, Server};

use crate::cluster::{connect, Cluster};
use crate::designs::{fig7_params, fig7_template, KERNEL};
use crate::load::{closed_loop, median, pct, Socket, Span, Target, Traced, VerifyFn};
use crate::Report;

/// Mean µs per call of each stage entry point, and each source's
/// checker verdict.
pub struct StageCosts {
    /// parse, check, desugar, lower, cpp, est.
    pub mean_us: [f64; 6],
    pub accepted: Vec<bool>,
}

/// Time every stage entry point over `sources`: parse and check on all
/// of them, the back half on the ones the checker accepts.
pub fn stage_costs(sources: &[String]) -> StageCosts {
    let mut total = [Duration::ZERO; 6];
    let mut calls = [0u32; 6];
    let mut accepted = Vec::with_capacity(sources.len());
    let mut time = |i: usize, t0: Instant| {
        total[i] += t0.elapsed();
        calls[i] += 1;
    };
    for src in sources {
        let t0 = Instant::now();
        let parsed = dahlia_core::parse(src);
        time(0, t0);
        let Ok(ast) = parsed else {
            accepted.push(false);
            continue;
        };
        let t0 = Instant::now();
        let ok = dahlia_core::typecheck(&ast).is_ok();
        time(1, t0);
        accepted.push(ok);
        if !ok {
            continue;
        }
        let t0 = Instant::now();
        black_box(dahlia_core::desugar::desugar(&ast));
        time(2, t0);
        let t0 = Instant::now();
        let ir = dahlia_backend::lower(&ast, KERNEL);
        time(3, t0);
        let t0 = Instant::now();
        black_box(dahlia_backend::emit_cpp(&ast, KERNEL));
        time(4, t0);
        let t0 = Instant::now();
        black_box(hls_sim::estimate(&ir));
        time(5, t0);
    }
    StageCosts {
        mean_us: std::array::from_fn(|i| total[i].as_secs_f64() * 1e6 / f64::from(calls[i].max(1))),
        accepted,
    }
}

impl StageCosts {
    pub fn report(&self, r: &mut Report) {
        let names = [
            "core.parse_us",
            "core.check_us",
            "core.desugar_us",
            "backend.lower_us",
            "backend.cpp_us",
            "hls_sim.estimate_us",
        ];
        for (name, v) in names.iter().zip(self.mean_us) {
            r.metric(name, v, "us");
        }
    }
}

/// The DSE planner's cost: enumerate the Fig. 7 space and render every
/// point (`SweepSpec::points` plus `render`), reported per point. Returns
/// the rendered sources.
pub fn plan_cost(r: &mut Report) -> Vec<String> {
    let spec = SweepSpec {
        name: "gemm-blocked".into(),
        template: fig7_template(),
        params: fig7_params(),
        stage: "est".into(),
        stride: 1,
    };
    let t0 = Instant::now();
    let sources: Vec<String> = spec
        .points()
        .iter()
        .map(|c| render(&spec.template, c).expect("the Fig. 7 template renders"))
        .collect();
    let per_point = t0.elapsed().as_secs_f64() * 1e6 / sources.len() as f64;
    r.metric("dse.plan_us", per_point, "us");
    sources
}

/// The Pareto fold's cost: `ParetoFront::insert` per point, over
/// `points` in order. Returns the front.
pub fn pareto_cost(r: &mut Report, points: &[(String, Vec<f64>)]) -> ParetoFront {
    let mut front = ParetoFront::new();
    let t0 = Instant::now();
    for (key, o) in points {
        front.insert(key.as_str(), o.clone());
    }
    let per_insert = t0.elapsed().as_secs_f64() * 1e6 / points.len().max(1) as f64;
    r.metric("dse.pareto_us", per_insert, "us");
    r.extra("front_size", front.len() as f64, "count");
    front
}

/// The five objectives of an `est` payload, in the sweep's order.
pub fn objectives(est: &Json) -> Option<Vec<f64>> {
    ["cycles", "luts", "ffs", "brams", "dsps"]
        .iter()
        .map(|k| est.get(k).and_then(Json::as_f64))
        .collect()
}

/// Builds the requests for (depth, lane, index). Cold workloads salt by
/// depth so every depth computes from scratch; warm ones ignore it.
pub type DepthMakeFn<'a> = dyn Fn(u64, usize, u64) -> Vec<Request> + Sync + 'a;
/// Checks a socket depth's reply: (depth, lane, index, position, reply).
pub type DepthVerifyFn<'a> = dyn Fn(u64, usize, u64, usize, &Json) -> bool + Sync + 'a;
/// Warms an in-process target with the workload's keys before timing.
pub type PrewarmFn<'a> = dyn Fn(&dyn Target) + 'a;

const LANES: usize = 2;
const DEPTHS: [&str; 4] = [
    "socket",
    "gateway.submit",
    "server.submit",
    "pipeline.artifact",
];

/// Medians of the path phases: the socket's untraced and traced lanes,
/// then the three in-process depths, plus the recorded spans.
pub struct PathRows {
    /// untraced socket lane, gateway, server, pipeline, traced socket lane.
    pub p50: [f64; 5],
    /// The socket phase's generator lateness (p99, µs) and backlog.
    pub late_p99_us: f64,
    pub backlog: u64,
    pub spans: Vec<(&'static str, Span)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Drive `items` of the workload's work items at every depth, closed
/// loop on two lanes, and take the medians. Socket phases check their
/// replies with `verify`; in-process depths are timed only.
pub fn path_rows(
    cluster: &Cluster,
    items: u64,
    make: &DepthMakeFn<'_>,
    verify: &DepthVerifyFn<'_>,
    prewarm: Option<&PrewarmFn<'_>>,
) -> io::Result<PathRows> {
    let socket = Socket(vec![connect(&cluster.addr)?, connect(&cluster.addr)?]);
    let gateway = GatewayConfig::new(cluster.shard_addrs.clone()).build();
    let server = Server::with_threads(1);
    let pipeline = Pipeline::new();
    let targets: [&dyn Target; 4] = [&socket, &gateway, &server, &pipeline];
    if let Some(warm) = prewarm {
        for t in &targets[1..4] {
            warm(*t);
        }
    }
    let accept_all: &VerifyFn<'_> = &|_, _, _, _| true;
    let mut rows = PathRows {
        p50: [0.0; 5],
        late_p99_us: 0.0,
        backlog: 0,
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    // In-process depths first, then the socket. On the socket only the
    // second load thread records spans: the first, running beside it
    // under the same conditions, is the untraced reference.
    for depth in [1, 2, 3, 0] {
        let d = depth as u64;
        let check_at = |lane: usize, i: u64, j: usize, resp: &Json| verify(d, lane, i, j, resp);
        let (check, traced): (&VerifyFn<'_>, Traced) = if depth == 0 {
            (&check_at, 1..LANES)
        } else {
            (accept_all, 0..LANES)
        };
        let make_at = |lane: usize, i: u64| make(d, lane, i);
        let phase = closed_loop(
            targets[depth],
            LANES,
            Duration::from_secs(3600),
            items,
            &make_at,
            check,
            traced,
        );
        if depth == 0 {
            rows.p50[0] = median(phase.lane_lat(0));
            rows.p50[4] = median(phase.lane_lat(1));
            rows.late_p99_us = pct(&phase.late_us, 0.99);
            rows.backlog = phase.backlog;
            rows.attempted += phase.attempted;
            rows.failed += phase.failed;
        } else {
            rows.p50[depth] = median(&phase.lat_us);
        }
        rows.spans
            .extend(phase.spans.into_iter().map(|s| (DEPTHS[depth], s)));
    }
    Ok(rows)
}

impl PathRows {
    /// Report the path rows. They telescope to the traced lane's median;
    /// what is left of the untraced lane's median is the unattributed
    /// remainder.
    pub fn report(&self, r: &mut Report) {
        let [untraced, gw, srv, pipe, traced] = self.p50;
        r.metric("transport.frontdoor_us", traced - gw, "us");
        r.metric("gateway.hop_us", gw - srv, "us");
        r.metric("server.overhead_us", srv - pipe, "us");
        r.metric("store.pipeline_us", pipe, "us");
        r.metric("path.unattributed_us", untraced - traced, "us");
        r.metric("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
        r.metric("loadgen.late_p99_us", self.late_p99_us, "us");
        r.metric("loadgen.backlog", self.backlog as f64, "count");
        r.extra("path.untraced_p50_us", untraced, "us");
        r.extra("path.rows_sum_us", traced, "us");
    }

    /// Tab-separated span dump: depth, lane, index, start and end (ns
    /// from the start of the depth's phase).
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("depth\tlane\tindex\tstart_ns\tend_ns\n");
        for (depth, s) in &self.spans {
            out.push_str(&format!(
                "{depth}\t{}\t{}\t{}\t{}\n",
                s.lane, s.index, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
