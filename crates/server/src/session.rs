//! The protocol session: one sans-IO state machine behind every
//! transport.
//!
//! A [`Session`] does no I/O. Its driver feeds it input bytes and takes
//! back two things: [`Dispatch`]es to hand to a [`SessionHost`], and
//! encoded output bytes to write. Everything about the protocol lives
//! here, once:
//!
//! * line splitting (v0 JSON lines) and frame splitting (v1 binary
//!   frames), and the `hello` switch between them;
//! * the line counter behind protocol-error `line` numbers and default
//!   `req-N` ids: every input line counts, blank ones included, and on
//!   v1 every frame counts;
//! * the admission window of dispatched-but-unanswered ops, and what
//!   happens past it: a socket session **sheds** requests it already
//!   parsed (`admission/overloaded`), a stdio session simply stops
//!   parsing until a slot frees;
//! * the control-reply envelopes (`{"stats":{...}}`, ...), protocol
//!   errors, and the `shutdown` ack and drain.
//!
//! Two drivers feed it: the poll(2) reactor in [`crate::net`] (one
//! machine per socket, `serve --listen` and `gateway --listen`) and the
//! stdio driver here ([`crate::Server::serve`] with a window of 1, and
//! [`crate::Server::serve_pipelined`] with the pool's window).

use std::io::{self, BufRead, Write};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use crate::json::{obj, Json};
use crate::net::{TransportStats, RETRY_AFTER_MS};
use crate::protocol::Request;
use crate::wire;
use crate::ServeSummary;

/// A cluster-administration control op: `{"op":"drain",...}` and
/// `{"op":"undrain",...}` lines. Admin ops steer a **gateway**'s
/// topology; a plain server answers them with a
/// `protocol/unsupported-op` error.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminOp {
    /// Mark a shard draining: new keys route past it, in-flight work
    /// completes, and its warm keys migrate to the surviving replica
    /// set in the background.
    Drain {
        /// The shard's address, exactly as configured.
        shard: String,
    },
    /// Re-activate a draining shard — or, when the address is not in
    /// the topology, **join** it as a new shard (live re-sharding).
    Undrain {
        /// The shard's address.
        shard: String,
        /// Rendezvous weight: applied to a joining shard (default 1)
        /// or re-weighting an existing one.
        weight: Option<f64>,
    },
}

impl AdminOp {
    /// The wire name of this op (`drain` / `undrain`).
    pub fn name(&self) -> &'static str {
        match self {
            AdminOp::Drain { .. } => "drain",
            AdminOp::Undrain { .. } => "undrain",
        }
    }

    /// The shard address the op targets.
    pub fn shard(&self) -> &str {
        match self {
            AdminOp::Drain { shard } | AdminOp::Undrain { shard, .. } => shard,
        }
    }
}

/// A `{"op":"sweep",...}` control line: a whole design-space exploration
/// submitted as one op. The gateway scatters the rendered points across
/// its shards and streams incremental front updates back; a plain server
/// answers with a `protocol/unsupported-op` error.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOp {
    /// Client-chosen correlation id, echoed on every streamed line.
    pub id: String,
    /// The template, parameter space, stage (default `est`) and stride
    /// (default 1) to explore.
    pub spec: dahlia_dse::SweepSpec,
    /// Resume from the journal checkpointed under the gateway's
    /// telemetry dir instead of starting fresh.
    pub resume: bool,
    /// Skip evaluating points whose cost-model projection is already
    /// dominated by the running front (deterministic, opt-in).
    pub prune: bool,
    /// Stream an incremental front update every this many completed
    /// points (0 = summary only).
    pub update_every: u64,
}

/// A control op a [`SessionHost`] answers. `hello` and `shutdown` are
/// not here: the session machine answers those itself.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOp {
    /// `{"op":"stats"}`: the service statistics object.
    Stats,
    /// `{"op":"trace"}`: the trace journal.
    Trace,
    /// `{"op":"slowlog"}`: slow-request captures newer than `since`.
    Slowlog {
        /// Sequence-number cursor.
        since: u64,
    },
    /// `{"op":"history"}`: downsampled bins of one stats series, read
    /// back from the on-disk telemetry ring.
    History {
        /// Dotted stats path.
        series: String,
        /// Wall-clock cursor, milliseconds.
        since: u64,
        /// Bin width, milliseconds (0 = one bin per sample).
        step: u64,
    },
    /// `{"op":"alerts"}`: rule states plus journal entries newer than
    /// `since`.
    Alerts {
        /// Sequence-number cursor.
        since: u64,
    },
    /// The liveness object `GET /healthz` serves. Never sent on the
    /// wire.
    Health,
    /// `drain` / `undrain`.
    Admin(AdminOp),
    /// `sweep`: answered with a stream of lines.
    Sweep(SweepOp),
}

impl ControlOp {
    /// The key the session wraps the host's reply under
    /// (`{"stats":{...}}`); `None` where the reply is the whole line.
    fn envelope(&self) -> Option<&'static str> {
        match self {
            ControlOp::Stats => Some("stats"),
            ControlOp::Trace => Some("trace"),
            ControlOp::Slowlog { .. } => Some("slowlog"),
            ControlOp::History { .. } => Some("history"),
            ControlOp::Alerts { .. } => Some("alerts"),
            ControlOp::Health | ControlOp::Admin(_) | ControlOp::Sweep(_) => None,
        }
    }
}

/// Delivers one compile response.
pub type Respond = Box<dyn FnOnce(Json) + Send>;

/// Delivers the replies to one control op. Most ops answer once; a
/// sweep streams progress lines first. The `bool` marks the final
/// reply, after which no more follow.
pub type Reply = Box<dyn Fn(Json, bool) + Send + Sync>;

/// A service that answers protocol sessions: the local [`Server`]
/// compiles requests itself; a gateway routes them to shards. Either
/// may answer on the calling thread or later from another thread — the
/// session does not care which.
///
/// [`Server`]: crate::Server
pub trait SessionHost: Send + Sync {
    /// Answer one compile request through `respond`, exactly once.
    ///
    /// On a socket this runs on the reactor thread, so it **must not
    /// block**: no compile, no disk read, no single-flight wait, no
    /// blocking socket I/O. It may answer inline only from memory (a
    /// server's memory tier, a gateway's admission cache); anything
    /// else goes to a worker pool or to a non-blocking send whose
    /// callback calls `respond`.
    fn dispatch(&self, req: Request, respond: Respond);

    /// Answer one control op through `reply` (the session adds the
    /// envelope). Ops that involve I/O — a gateway polling its shards
    /// for stats, dialing a joining shard — must run off the calling
    /// thread.
    fn control(&self, op: ControlOp, reply: Reply);

    /// The transport counters a socket reactor serving this host
    /// maintains. Hosts return the ones registered in their metrics, so
    /// the `transport` stats section reports their own front door; the
    /// default is a fresh set nobody reports.
    fn transport(&self) -> Arc<TransportStats> {
        Arc::new(TransportStats::new())
    }
}

/// Ask `host` one control op and block for its final reply: the
/// synchronous path for `/metrics`, `/healthz`, and in-process callers.
/// A host that drops the op without answering yields `null`.
pub fn query<H: SessionHost + ?Sized>(host: &H, op: ControlOp) -> Json {
    let (tx, rx) = mpsc::channel();
    host.control(
        op,
        Box::new(move |v, last| {
            if last {
                let _ = tx.send(v);
            }
        }),
    );
    rx.recv().unwrap_or(Json::Null)
}

/// One decoded protocol line or frame.
enum Control {
    Hello { max_version: u32 },
    Shutdown,
    Op(ControlOp),
    Req(Request),
}

/// Parse an optional non-negative integer cursor/step field.
fn parse_u64_field(v: &Json, field: &str, op: &str) -> Result<u64, String> {
    match v.get(field) {
        None | Some(Json::Null) => Ok(0),
        Some(s) => s.as_u64().ok_or_else(|| {
            format!(
                "bad `{field}` in {op} op (want a non-negative integer): {}",
                s.emit()
            )
        }),
    }
}

fn parse_admin_shard(v: &Json, op: &str) -> Result<String, String> {
    match v.get("shard") {
        Some(Json::Str(s)) if !s.is_empty() => Ok(s.clone()),
        Some(other) => Err(format!("bad `shard` in {op} op: {}", other.emit())),
        None => Err(format!("{op} op needs a `shard` address")),
    }
}

fn parse_control(line: &str, lineno: u64) -> Result<Control, String> {
    let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = match v.get("op").and_then(Json::as_str) {
        None => return Request::from_json(&v, lineno).map(Control::Req),
        Some("hello") => {
            return Ok(Control::Hello {
                max_version: parse_u64_field(&v, "max_version", "hello")?.min(wire::WIRE_VERSION)
                    as u32,
            })
        }
        Some("shutdown") => return Ok(Control::Shutdown),
        Some("stats") => ControlOp::Stats,
        Some("trace") => ControlOp::Trace,
        Some("slowlog") => ControlOp::Slowlog {
            since: parse_u64_field(&v, "since", "slowlog")?,
        },
        Some("history") => {
            let series = match v.get("series") {
                Some(Json::Str(s)) if !s.is_empty() => s.clone(),
                Some(other) => {
                    return Err(format!(
                        "bad `series` in history op (want a dotted stats path): {}",
                        other.emit()
                    ))
                }
                None => return Err("history op needs a `series` path".into()),
            };
            ControlOp::History {
                series,
                since: parse_u64_field(&v, "since", "history")?,
                step: parse_u64_field(&v, "step", "history")?,
            }
        }
        Some("alerts") => ControlOp::Alerts {
            since: parse_u64_field(&v, "since", "alerts")?,
        },
        Some("sweep") => ControlOp::Sweep(parse_sweep(&v)?),
        Some("drain") => ControlOp::Admin(AdminOp::Drain {
            shard: parse_admin_shard(&v, "drain")?,
        }),
        Some("undrain") => {
            let weight = match v.get("weight") {
                None => None,
                Some(Json::Num(w)) if w.is_finite() && *w > 0.0 => Some(*w),
                Some(other) => {
                    return Err(format!(
                        "bad `weight` in undrain op (want a positive number): {}",
                        other.emit()
                    ))
                }
            };
            ControlOp::Admin(AdminOp::Undrain {
                shard: parse_admin_shard(&v, "undrain")?,
                weight,
            })
        }
        Some(other) => return Err(format!("unknown op `{other}`")),
    };
    Ok(Control::Op(op))
}

/// Parse the body of a `{"op":"sweep",...}` line.
fn parse_sweep(v: &Json) -> Result<SweepOp, String> {
    let id = match v.get("id") {
        None | Some(Json::Null) => "sweep".to_string(),
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(other) => return Err(format!("bad `id` in sweep op: {}", other.emit())),
    };
    let name = match v.get("name") {
        None | Some(Json::Null) => "sweep".to_string(),
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(other) => return Err(format!("bad `name` in sweep op: {}", other.emit())),
    };
    let template = match v.get("template") {
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(other) => return Err(format!("bad `template` in sweep op: {}", other.emit())),
        None => return Err("sweep op needs a `template` source".to_string()),
    };
    let params = match v.get("params") {
        Some(Json::Obj(fields)) if !fields.is_empty() => {
            let mut params = Vec::with_capacity(fields.len());
            for (name, values) in fields {
                let Json::Arr(items) = values else {
                    return Err(format!(
                        "bad values for sweep parameter `{name}` (want an array): {}",
                        values.emit()
                    ));
                };
                let values = items
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Option<Vec<u64>>>()
                    .ok_or_else(|| {
                        format!("sweep parameter `{name}` values must be non-negative integers")
                    })?;
                params.push((name.clone(), values));
            }
            params
        }
        Some(other) => {
            return Err(format!(
                "bad `params` in sweep op (want an object of value arrays): {}",
                other.emit()
            ))
        }
        None => return Err("sweep op needs a `params` object".to_string()),
    };
    let stage = match v.get("stage") {
        None | Some(Json::Null) => "est".to_string(),
        Some(Json::Str(s)) if crate::pipeline::Stage::from_name(s).is_some() => s.clone(),
        Some(other) => {
            return Err(format!(
                "bad `stage` in sweep op (parse|check|desugar|lower|cpp|est): {}",
                other.emit()
            ))
        }
    };
    let stride = match parse_u64_field(v, "stride", "sweep")? {
        0 => 1,
        n => n,
    };
    let flag = |field: &str| -> Result<bool, String> {
        match v.get(field) {
            None | Some(Json::Null) => Ok(false),
            Some(Json::Bool(b)) => Ok(*b),
            Some(other) => Err(format!("bad `{field}` in sweep op: {}", other.emit())),
        }
    };
    Ok(SweepOp {
        id,
        spec: dahlia_dse::SweepSpec {
            name,
            template,
            params,
            stage,
            stride,
        },
        resume: flag("resume")?,
        prune: flag("prune")?,
        update_every: parse_u64_field(v, "update_every", "sweep")?,
    })
}

/// Decode one v1 frame into the line it stands for.
fn decode_frame(tag: u8, body: &[u8], lineno: u64) -> Result<Control, String> {
    match tag {
        wire::FRAME_REQUEST => wire::from_bytes(body)
            .ok_or_else(|| "undecodable binary request body".to_string())
            .and_then(|v| Request::from_json(&v, lineno))
            .map(Control::Req),
        wire::FRAME_CONTROL => std::str::from_utf8(body)
            .map_err(|_| "control frame body is not UTF-8".to_string())
            .and_then(|text| parse_control(text, lineno)),
        other => Err(format!("unexpected frame tag {other}")),
    }
}

/// A plain server's answer to a `sweep`: only a gateway can scatter one.
pub(crate) fn sweep_unsupported(op: &SweepOp) -> Json {
    obj([
        ("id", Json::Str(op.id.clone())),
        ("ok", Json::Bool(false)),
        ("done", Json::Bool(true)),
        (
            "error",
            unsupported(
                "`sweep` scatters a design-space exploration across a gateway's \
                 shards; this endpoint is not a gateway"
                    .into(),
            ),
        ),
    ])
}

/// A plain server's answer to an admin op: it has no cluster topology
/// to administer.
pub(crate) fn admin_unsupported(op: &AdminOp) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("op", Json::Str(op.name().into())),
        ("shard", Json::Str(op.shard().into())),
        (
            "error",
            unsupported(format!(
                "`{}` administers a gateway's shard topology; this endpoint is not a gateway",
                op.name()
            )),
        ),
    ])
}

fn unsupported(message: String) -> Json {
    obj([
        ("phase", Json::Str("protocol".into())),
        ("code", Json::Str("protocol/unsupported-op".into())),
        ("message", Json::Str(message)),
    ])
}

/// A protocol error for the 0-based input unit `lineno` (reported
/// 1-based, as `docs/PROTOCOL.md` §8 defines `line`).
fn protocol_error(msg: String, lineno: u64) -> Json {
    obj([
        ("id", Json::Null),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj([
                ("phase", Json::Str("protocol".into())),
                ("code", Json::Str("protocol/bad-request".into())),
                ("message", Json::Str(msg)),
                ("line", Json::Num((lineno + 1) as f64)),
            ]),
        ),
    ])
}

/// An `admission`-phase error: the request was well formed but is not
/// being served right now. Same shape as every other error response,
/// plus the `retry_after_ms` hint — a session sheds a burst past its
/// window with `admission/overloaded`, and a gateway with no reachable
/// shard answers `admission/unavailable`.
pub fn admission_error(id: &str, code: &str, message: &str, retry_after_ms: u64) -> Json {
    obj([
        ("id", Json::Str(id.to_string())),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj([
                ("phase", Json::Str("admission".into())),
                ("code", Json::Str(code.into())),
                ("message", Json::Str(message.into())),
                ("retry_after_ms", Json::Num(retry_after_ms as f64)),
            ]),
        ),
    ])
}

/// What a session is allowed to do with its wire and its window.
#[derive(Clone)]
pub struct SessionConfig {
    /// Highest wire version `hello` may negotiate (0 keeps the session
    /// on JSON lines).
    pub max_wire: u32,
    /// Admission window: dispatched-but-unanswered ops (at least 1).
    pub window: usize,
    /// What happens to requests parsed while the window is full:
    /// `true` sheds them with `admission/overloaded` (a socket cannot
    /// unread bytes it already took off the kernel buffer); `false`
    /// stops parsing until a slot frees (a stdio driver simply stops
    /// reading).
    pub shed: bool,
    /// Transport counters to maintain (session mix, frames, sheds);
    /// `None` on stdio.
    pub transport: Option<Arc<TransportStats>>,
}

/// Where a driver collects the encoded replies to its dispatches:
/// `(bytes, frees_slot)`. Called from whatever thread the host answers
/// on.
pub type Sink = Arc<dyn Fn(Vec<u8>, bool) + Send + Sync>;

/// Encodes the replies to one dispatch for the wire the session was on
/// when it dispatched.
#[derive(Clone)]
struct Encoder {
    wire: u32,
    kind: Kind,
    transport: Option<Arc<TransportStats>>,
}

#[derive(Clone, Copy)]
enum Kind {
    /// A compile response (a response frame on v1).
    Response,
    /// A control reply (JSON text in a control-reply frame on v1),
    /// wrapped under the key when there is one.
    Control(Option<&'static str>),
}

impl Encoder {
    fn encode(&self, v: Json) -> Vec<u8> {
        let v = match self.kind {
            Kind::Control(Some(key)) => obj([(key, v)]),
            _ => v,
        };
        if self.wire == 0 {
            let mut bytes = v.emit().into_bytes();
            bytes.push(b'\n');
            return bytes;
        }
        if let Some(t) = &self.transport {
            t.frames_out.inc();
        }
        match self.kind {
            Kind::Response => wire::json_frame(wire::FRAME_RESPONSE, &v),
            Kind::Control(_) => wire::frame(wire::FRAME_CONTROL_REPLY, v.emit().as_bytes()),
        }
    }
}

/// One op a session hands its host.
pub struct Dispatch {
    work: Work,
    encoder: Encoder,
}

enum Work {
    Request(Request),
    Control(ControlOp),
}

impl Dispatch {
    /// Hand this op to `host`. Each reply is encoded for the session's
    /// wire and reaches `sink`, which must feed it back through
    /// [`Session::complete`].
    pub fn run<H: SessionHost + ?Sized>(self, host: &H, sink: &Sink) {
        let Dispatch { work, encoder } = self;
        let sink = Arc::clone(sink);
        match work {
            Work::Request(req) => {
                host.dispatch(req, Box::new(move |v| sink(encoder.encode(v), true)))
            }
            Work::Control(op) => {
                host.control(op, Box::new(move |v, last| sink(encoder.encode(v), last)))
            }
        }
    }
}

/// The sans-IO protocol session. See the module docs.
pub struct Session {
    cfg: SessionConfig,
    /// Negotiated wire version (0 = JSON lines, ≥1 = binary frames).
    wire: u32,
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already consumed.
    rpos: usize,
    /// Bytes past `rpos` already searched for a newline (v0), so a long
    /// line arriving in small chunks is scanned once.
    scanned: usize,
    out: Vec<u8>,
    /// Dispatched-but-unanswered ops.
    in_flight: usize,
    /// Input units (lines, blank ones included, or frames) seen so far.
    lineno: u64,
    /// The input ended: a final unterminated line still parses.
    eof: bool,
    /// Nothing more will be parsed.
    closed: bool,
    shutdown: bool,
    /// The op the last parsed unit produced, not yet pulled.
    ready: Option<Dispatch>,
    summary: ServeSummary,
}

impl Session {
    /// A fresh session on the v0 wire.
    pub fn new(cfg: SessionConfig) -> Session {
        if let Some(t) = &cfg.transport {
            t.sessions_v0.inc();
        }
        Session {
            cfg: SessionConfig {
                window: cfg.window.max(1),
                ..cfg
            },
            wire: 0,
            rbuf: Vec::new(),
            rpos: 0,
            scanned: 0,
            out: Vec::new(),
            in_flight: 0,
            lineno: 0,
            eof: false,
            closed: false,
            shutdown: false,
            ready: None,
            summary: ServeSummary::default(),
        }
    }

    /// Take input bytes. They parse as the driver pulls
    /// [`Session::next_dispatch`].
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.closed {
            self.rbuf.extend_from_slice(bytes);
        }
    }

    /// The input ended. A final line without a newline still parses; a
    /// truncated frame is dropped.
    pub fn finish_input(&mut self) {
        self.eof = true;
    }

    /// Stop parsing and discard buffered input: a server-wide shutdown
    /// drains every session this way. Dispatched ops still complete.
    pub fn close_input(&mut self) {
        self.closed = true;
        self.rbuf = Vec::new();
        self.rpos = 0;
        self.scanned = 0;
    }

    /// A reply to one of this session's dispatches arrived (from its
    /// [`Sink`]). A reply that frees a window slot may let buffered
    /// input parse on the next [`Session::next_dispatch`].
    pub fn complete(&mut self, bytes: Vec<u8>, frees_slot: bool) {
        if frees_slot {
            self.in_flight = self.in_flight.saturating_sub(1);
        }
        self.push_out(bytes);
    }

    /// Parse buffered input up to the next op for the host, in input
    /// order — so a driver hands each op off as soon as it is parsed.
    /// `None` once nothing more can parse: the input ran out, the
    /// window is full (when not shedding), or the input closed. Drivers
    /// call this until `None` after every `feed`, `finish_input`, and
    /// `complete`; lines answered by the session itself (protocol
    /// errors, `hello`, `shutdown`) land in the output as they parse.
    pub fn next_dispatch(&mut self) -> Option<Dispatch> {
        loop {
            if let Some(d) = self.ready.take() {
                return Some(d);
            }
            let parsed = !self.closed
                && (self.cfg.shed || self.in_flight < self.cfg.window)
                && self.next_unit();
            if !parsed {
                if self.rpos > 0 {
                    self.rbuf.drain(..self.rpos);
                    self.rpos = 0;
                }
                return None;
            }
        }
    }

    /// Encoded output bytes ready to write, in order.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Is there output to write?
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Should the driver read more input? False while the window is
    /// full (backpressure) and once the input is finished.
    pub fn wants_input(&self) -> bool {
        !self.closed && !self.eof && self.in_flight < self.cfg.window
    }

    /// Will nothing more be parsed?
    pub fn input_closed(&self) -> bool {
        self.closed
    }

    /// Input finished, every dispatched op answered, all output taken.
    pub fn is_done(&self) -> bool {
        self.closed && self.in_flight == 0 && self.out.is_empty()
    }

    /// Has a `{"op":"shutdown"}` been acknowledged on this session?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Lines handled and protocol errors so far.
    pub fn summary(&self) -> ServeSummary {
        self.summary
    }

    fn push_out(&mut self, bytes: Vec<u8>) {
        if self.out.is_empty() {
            self.out = bytes;
        } else {
            self.out.extend_from_slice(&bytes);
        }
    }

    /// Parse one line or frame; false when none is complete.
    fn next_unit(&mut self) -> bool {
        let lineno = self.lineno;
        let pending = &self.rbuf[self.rpos..];
        // `None` for a blank line: it counts, but asks for nothing.
        let (parsed, consumed) = if self.wire == 0 {
            let newline = pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| self.scanned + i);
            if newline.unwrap_or(pending.len()) > wire::MAX_FRAME {
                // Terminated or not, the line is past the cap a v1
                // frame has; buffering on would let one client grow
                // this session without bound.
                let cap = wire::MAX_FRAME;
                return self.fail_input(format!("line exceeds the {cap}-byte cap"), lineno);
            }
            let (len, consumed) = match newline {
                Some(i) => (i, i + 1),
                None if self.eof && !pending.is_empty() => (pending.len(), pending.len()),
                None => {
                    self.scanned = pending.len();
                    self.closed = self.eof;
                    return false;
                }
            };
            let line = pending[..len]
                .strip_suffix(b"\r")
                .unwrap_or(&pending[..len]);
            // Invalid UTF-8 falls through to a bad-JSON protocol error.
            let text = String::from_utf8_lossy(line);
            let parsed = (!text.trim().is_empty()).then(|| parse_control(&text, lineno));
            (parsed, consumed)
        } else {
            match wire::split_frame(pending) {
                Ok(Some((tag, body, consumed))) => {
                    if let Some(t) = &self.cfg.transport {
                        t.frames_in.inc();
                    }
                    (Some(decode_frame(tag, body, lineno)), consumed)
                }
                Ok(None) => {
                    self.closed = self.eof;
                    return false;
                }
                Err(msg) => {
                    // A corrupt length word leaves no way to resync.
                    return self.fail_input(format!("unrecoverable framing error: {msg}"), lineno);
                }
            }
        };
        self.rpos += consumed;
        self.scanned = 0;
        self.lineno += 1;
        if let Some(parsed) = parsed {
            self.summary.lines += 1;
            match parsed {
                Ok(ctl) => self.apply(ctl),
                Err(msg) => {
                    self.summary.protocol_errors += 1;
                    self.write(Kind::Control(None), protocol_error(msg, lineno));
                }
            }
        }
        true
    }

    /// Answer input there is no way to parse past with one protocol
    /// error, then stop reading. Dispatched ops still complete.
    fn fail_input(&mut self, msg: String, lineno: u64) -> bool {
        self.summary.protocol_errors += 1;
        self.write(Kind::Control(None), protocol_error(msg, lineno));
        self.close_input();
        false
    }

    fn apply(&mut self, ctl: Control) {
        match ctl {
            Control::Hello { max_version } => {
                let version = max_version.min(self.cfg.max_wire);
                // The reply goes out on the wire the session is on now;
                // the switch applies from the next byte.
                let reply = obj([("hello", obj([("version", Json::Num(version as f64))]))]);
                self.write(Kind::Control(None), reply);
                if version >= 1 && self.wire == 0 {
                    self.wire = version;
                    if let Some(t) = &self.cfg.transport {
                        t.sessions_v0.sub(1);
                        t.sessions_v1.inc();
                    }
                }
            }
            Control::Shutdown => {
                let ack = obj([
                    ("ok", Json::Bool(true)),
                    ("op", Json::Str("shutdown".into())),
                ]);
                self.write(Kind::Control(None), ack);
                self.shutdown = true;
                self.close_input();
            }
            Control::Op(op) => self.dispatch(Work::Control(op)),
            Control::Req(req) if self.cfg.shed && self.in_flight >= self.cfg.window => {
                // A burst outran the read pause: shed with a retry hint
                // rather than queue without bound.
                if let Some(t) = &self.cfg.transport {
                    t.requests_shed.inc();
                }
                let shed = admission_error(
                    &req.id,
                    "admission/overloaded",
                    "connection admission window is full; retry after the hinted delay",
                    RETRY_AFTER_MS,
                );
                self.write(Kind::Response, shed);
            }
            Control::Req(req) => self.dispatch(Work::Request(req)),
        }
    }

    fn encoder(&self, kind: Kind) -> Encoder {
        Encoder {
            wire: self.wire,
            kind,
            transport: self.cfg.transport.clone(),
        }
    }

    fn write(&mut self, kind: Kind, v: Json) {
        let bytes = self.encoder(kind).encode(v);
        self.push_out(bytes);
    }

    fn dispatch(&mut self, work: Work) {
        let kind = match &work {
            Work::Request(_) => Kind::Response,
            Work::Control(op) => Kind::Control(op.envelope()),
        };
        self.in_flight += 1;
        let encoder = self.encoder(kind);
        self.ready = Some(Dispatch { work, encoder });
    }
}

/// A [`Session`] shared by the stdio driver's reader, the host's reply
/// threads, and (pipelined) the writer thread.
struct Stdio {
    session: Mutex<Session>,
    /// Signalled whenever the session changed: input fed, a reply
    /// landed, or the writer gave up.
    changed: Condvar,
}

impl Stdio {
    fn new(window: usize) -> Arc<Stdio> {
        Arc::new(Stdio {
            session: Mutex::new(Session::new(SessionConfig {
                max_wire: 0,
                window,
                shed: false,
                transport: None,
            })),
            changed: Condvar::new(),
        })
    }

    fn sink(self: &Arc<Self>) -> Sink {
        let stdio = Arc::clone(self);
        Arc::new(move |bytes, frees_slot| {
            stdio.session.lock().unwrap().complete(bytes, frees_slot);
            stdio.changed.notify_all();
        })
    }

    /// The reader: feed input while the session wants it, run what it
    /// parses, and — when `inline` is given — write its output on this
    /// thread too, until the session is done. Without `inline`, return
    /// once the input is closed and let the writer thread finish.
    fn read<H, R>(
        self: &Arc<Self>,
        host: &H,
        mut input: R,
        mut inline: Option<&mut dyn Write>,
    ) -> io::Result<()>
    where
        H: SessionHost + ?Sized,
        R: BufRead,
    {
        let sink = self.sink();
        let mut s = self.session.lock().unwrap();
        loop {
            let ready: Vec<Dispatch> = std::iter::from_fn(|| s.next_dispatch()).collect();
            if !ready.is_empty() {
                drop(s);
                for d in ready {
                    d.run(host, &sink);
                }
                s = self.session.lock().unwrap();
                continue;
            }
            if let Some(w) = inline.as_mut().filter(|_| s.has_output()) {
                let bytes = s.take_output();
                drop(s);
                write_flush(w, &bytes)?;
                s = self.session.lock().unwrap();
                continue;
            }
            if s.is_done() || (inline.is_none() && s.input_closed()) {
                return Ok(());
            }
            if s.wants_input() {
                drop(s);
                let chunk = input.fill_buf()?;
                let n = chunk.len();
                s = self.session.lock().unwrap();
                if n == 0 {
                    s.finish_input();
                } else {
                    s.feed(chunk);
                    input.consume(n);
                }
                self.changed.notify_all();
                continue;
            }
            s = self.changed.wait(s).unwrap();
        }
    }

    /// The pipelined writer: write output as it lands, so replies reach
    /// the client while the reader blocks for more input.
    fn write<W: Write>(&self, mut output: W) -> io::Result<()> {
        let mut s = self.session.lock().unwrap();
        loop {
            if s.has_output() {
                let bytes = s.take_output();
                drop(s);
                if let Err(e) = write_flush(&mut output, &bytes) {
                    // The client is gone: stop reading too.
                    self.session.lock().unwrap().close_input();
                    self.changed.notify_all();
                    return Err(e);
                }
                s = self.session.lock().unwrap();
            } else if s.is_done() {
                return Ok(());
            } else {
                s = self.changed.wait(s).unwrap();
            }
        }
    }

    fn summary(&self) -> ServeSummary {
        self.session.lock().unwrap().summary()
    }
}

fn write_flush(w: &mut (impl Write + ?Sized), bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
}

/// A vanished client (broken pipe) ends a stdio session without
/// failing it; other I/O errors surface.
fn tolerate_hangup(r: io::Result<()>) -> io::Result<()> {
    match r {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// Serve one stdio session with a window of one: each line is answered
/// before the next is parsed, all on the calling thread.
pub(crate) fn serve_strict<H, R, W>(host: &H, input: R, mut output: W) -> io::Result<ServeSummary>
where
    H: SessionHost + ?Sized,
    R: BufRead,
    W: Write,
{
    let stdio = Stdio::new(1);
    tolerate_hangup(stdio.read(host, input, Some(&mut output)))?;
    Ok(stdio.summary())
}

/// Serve one stdio session with `window` ops in flight. The calling
/// thread reads; a second thread writes each reply as it lands.
pub(crate) fn serve_windowed<H, R, W>(
    host: &H,
    input: R,
    output: W,
    window: usize,
) -> io::Result<ServeSummary>
where
    H: SessionHost + ?Sized,
    R: BufRead,
    W: Write + Send,
{
    let stdio = Stdio::new(window);
    std::thread::scope(|s| {
        let writer = s.spawn(|| stdio.write(output));
        let read = stdio.read(host, input, None);
        if read.is_err() {
            // Stop the writer waiting on replies nobody will read for.
            stdio.session.lock().unwrap().close_input();
            stdio.changed.notify_all();
        }
        let written = writer.join().expect("stdio writer thread");
        read.and(tolerate_hangup(written))
    })?;
    Ok(stdio.summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unterminated_v0_line_past_the_frame_cap_closes_input() {
        let mut s = Session::new(SessionConfig {
            max_wire: 1,
            window: 4,
            shed: true,
            transport: None,
        });
        // Fed in chunks, as a driver reads; no newline ever arrives.
        let chunk = vec![b'x'; 1 << 20];
        let mut left = wire::MAX_FRAME + 1;
        while left > 0 {
            let n = left.min(chunk.len());
            s.feed(&chunk[..n]);
            left -= n;
            assert!(s.next_dispatch().is_none());
        }
        let out = String::from_utf8(s.take_output()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        let err = Json::parse(lines[0]).unwrap();
        let err = err.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some("protocol/bad-request")
        );
        let message = err.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains(&wire::MAX_FRAME.to_string()), "{message}");
        assert_eq!(s.summary().protocol_errors, 1);
        assert!(s.input_closed());
        assert_eq!(s.rbuf.capacity(), 0, "read buffer released");
        // Later bytes are ignored, and the session is done.
        s.feed(b"{\"op\":\"stats\"}\n");
        assert!(s.next_dispatch().is_none());
        assert!(!s.has_output());
        assert!(s.is_done());
    }
}
