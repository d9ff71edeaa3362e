//! Load generators over any [`Target`]: an open loop paced at a fixed rate
//! (independent users) and a closed loop of designers that each wait for
//! their reply. The live socket and every in-process layer entry point
//! the traced run times are all targets, so every layer is driven by the
//! same loop.

use std::time::{Duration, Instant};

use dahlia_server::json::Json;
use dahlia_server::{Pipeline, PipelinedClient, Request, Server};

/// Something that answers compile requests. `lane` is the calling load
/// thread, so a target can give each thread its own connection.
pub trait Target: Sync {
    fn call(&self, lane: usize, req: &Request) -> Result<Json, String>;
}

/// The live front door: one v1 connection per load thread.
pub struct Socket(pub Vec<PipelinedClient>);

impl Target for Socket {
    fn call(&self, lane: usize, req: &Request) -> Result<Json, String> {
        self.0[lane % self.0.len()]
            .call(req)
            .map_err(|e| e.to_string())
    }
}

impl Target for dahlia_gateway::Gateway {
    fn call(&self, _lane: usize, req: &Request) -> Result<Json, String> {
        Ok(self.submit(req))
    }
}

impl Target for Server {
    fn call(&self, _lane: usize, req: &Request) -> Result<Json, String> {
        Ok(self.submit(req.clone()).to_json())
    }
}

/// The store tier plus stage compute, without the pool or the protocol.
impl Target for Pipeline {
    fn call(&self, _lane: usize, req: &Request) -> Result<Json, String> {
        let (value, _) = self.artifact(&req.source, req.stage, &req.options);
        value.map(|_| Json::Null).map_err(|d| d.code.to_string())
    }
}

/// One timed request, for the traced run's span dump: lane, request
/// index (open loop: the slot; closed loop: item × 8 + position in the
/// item), and start/end in nanoseconds from the start of the phase.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub lane: usize,
    pub index: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one driven phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-request latency in µs (open loop: from when it was due).
    pub lat_us: Vec<f64>,
    /// Open loop: how late each request was sent. Closed loop: the
    /// generator's own gap between a reply and its next send.
    pub late_us: Vec<f64>,
    /// Open loop: requests due inside the phase but sent after it ended.
    pub backlog: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Closed loop: work items (chains) completed.
    pub items: u64,
    pub elapsed_s: f64,
    pub spans: Vec<Span>,
    /// Where each lane's samples end in `lat_us`, in lane order.
    lane_ends: Vec<usize>,
}

impl Phase {
    /// Append a phase that ran right after this one.
    pub fn append(&mut self, next: Phase) {
        self.elapsed_s += next.elapsed_s;
        self.absorb(next);
    }

    /// The latency samples of one load thread.
    pub fn lane_lat(&self, lane: usize) -> &[f64] {
        let start = if lane == 0 {
            0
        } else {
            self.lane_ends[lane - 1]
        };
        &self.lat_us[start..self.lane_ends[lane]]
    }

    fn absorb(&mut self, other: Phase) {
        self.lat_us.extend(other.lat_us);
        self.lane_ends.push(self.lat_us.len());
        self.late_us.extend(other.late_us);
        self.backlog += other.backlog;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.items += other.items;
        self.spans.extend(other.spans);
    }
}

/// Builds request `index` (open loop) or the requests of work item
/// `index` on `lane` (closed loop).
pub type MakeFn<'a> = dyn Fn(usize, u64) -> Vec<Request> + Sync + 'a;
/// Checks one reply: (lane, index, position within the item, reply).
pub type VerifyFn<'a> = dyn Fn(usize, u64, usize, &Json) -> bool + Sync + 'a;

/// The load threads whose requests are recorded as spans.
pub type Traced = std::ops::Range<usize>;

/// Sleep until `due`, finishing the last stretch with a short spin so a
/// request is not sent late by the timer's wake-up slack.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(40);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Open loop: request `i` is due at `i / rate` seconds; `lanes` threads
/// take every `lanes`-th slot. Latency counts from the due time, so a
/// stall also charges the requests it delayed.
pub fn open_loop(
    target: &dyn Target,
    lanes: usize,
    rate: f64,
    dur: Duration,
    make: &MakeFn<'_>,
    verify: &VerifyFn<'_>,
    traced: Traced,
) -> Phase {
    let t0 = Instant::now();
    let slots = (dur.as_secs_f64() * rate) as u64;
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let trace = traced.contains(&lane);
                s.spawn(move || {
                    crate::cluster::fine_timer_slack();
                    let mut p = Phase::default();
                    let mut i = lane as u64;
                    while i < slots {
                        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        let req = make(lane, i).pop().expect("one request per slot");
                        let sent = Instant::now();
                        let reply = target.call(lane, &req);
                        let done = Instant::now();
                        p.attempted += 1;
                        if !reply.is_ok_and(|r| verify(lane, i, 0, &r)) {
                            p.failed += 1;
                        }
                        p.lat_us.push((done - due).as_secs_f64() * 1e6);
                        p.late_us.push((sent - due).as_secs_f64() * 1e6);
                        if sent - t0 > dur {
                            p.backlog += 1;
                        }
                        if trace {
                            p.spans.push(Span {
                                lane,
                                index: i,
                                start_ns: ns(sent - t0),
                                end_ns: ns(done - t0),
                            });
                        }
                        i += lanes as u64;
                    }
                    p
                })
            })
            .collect();
        for h in handles {
            phase.absorb(h.join().expect("load thread"));
        }
    });
    phase.elapsed_s = t0.elapsed().as_secs_f64();
    phase
}

/// Closed loop: each lane works through items `lane, lane + lanes, ...`
/// sending an item's requests one after another, until `dur` has passed
/// or `max_items` items are done.
pub fn closed_loop(
    target: &dyn Target,
    lanes: usize,
    dur: Duration,
    max_items: u64,
    make: &MakeFn<'_>,
    verify: &VerifyFn<'_>,
    traced: Traced,
) -> Phase {
    let t0 = Instant::now();
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let trace = traced.contains(&lane);
                s.spawn(move || {
                    let mut p = Phase::default();
                    let mut k = lane as u64;
                    let mut last_reply = Instant::now();
                    while k < max_items && t0.elapsed() < dur {
                        for (j, req) in make(lane, k).iter().enumerate() {
                            let sent = Instant::now();
                            let reply = target.call(lane, req);
                            let done = Instant::now();
                            p.attempted += 1;
                            if !reply.is_ok_and(|r| verify(lane, k, j, &r)) {
                                p.failed += 1;
                            }
                            p.lat_us.push((done - sent).as_secs_f64() * 1e6);
                            p.late_us.push((sent - last_reply).as_secs_f64() * 1e6);
                            last_reply = done;
                            if trace {
                                p.spans.push(Span {
                                    lane,
                                    index: k * 8 + j as u64,
                                    start_ns: ns(sent - t0),
                                    end_ns: ns(done - t0),
                                });
                            }
                        }
                        p.items += 1;
                        k += lanes as u64;
                    }
                    p
                })
            })
            .collect();
        for h in handles {
            phase.absorb(h.join().expect("load thread"));
        }
    });
    phase.elapsed_s = t0.elapsed().as_secs_f64();
    phase
}

/// Nearest-rank percentile `p` (0..=1) of `xs`; 0 when empty.
pub fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 0.5)
}

/// Samples per window of [`windowed`]: enough that a window's p99 has
/// ten samples beyond it.
pub const WINDOW: usize = 1000;

/// The `p`-quantile of each run of [`WINDOW`] consecutive samples, and
/// the median of those. A stall of the shared host (a descheduled vCPU)
/// moves the windows it lands in, not the figure; a shift that every
/// window shows does. Falls back to the plain quantile when there is less
/// than one window.
pub fn windowed(xs: &[f64], p: f64) -> f64 {
    let windows: Vec<f64> = xs.chunks_exact(WINDOW).map(|w| pct(w, p)).collect();
    if windows.is_empty() {
        pct(xs, p)
    } else {
        median(&windows)
    }
}
