//! Protocol clients for the socket transport.
//!
//! Two tiers:
//!
//! * [`Client`] — the minimal line-oriented client used by `dahliac
//!   batch --connect` and scripts: the caller owns correlation and
//!   reads responses in whatever order the server emits them.
//! * [`PipelinedClient`] — a **multiplexing** client for long-lived
//!   pool connections (the gateway keeps one per shard): many callers
//!   share one TCP session, each request is tagged with a private wire
//!   id, and a background reader thread routes every response frame to
//!   its caller. It speaks only the v1 binary wire: a server that will
//!   not negotiate v1 is refused at connect.
//!
//! ## `send` and callbacks
//!
//! [`PipelinedClient::send`] is the primitive: it writes the request
//! and returns at once, and its callback runs **exactly once** — on
//! the reader thread with the response, or with an error when the
//! client is poisoned (on the calling thread if it already was). No
//! thread is parked per in-flight request, so a gateway reactor can
//! send and move on, and finish the request from the callback.
//! [`PipelinedClient::call`] is `send` plus a one-shot wait: one reader
//! wake and one caller wake per call.
//!
//! Writes never block. The socket is non-blocking; a frame the kernel
//! will not take whole is queued behind a backlog that the reader
//! thread flushes when the socket turns writable, so a shard that stops
//! reading cannot stall the thread that sends to it. A backlog past one
//! maximal frame poisons the client.
//!
//! [`PipelinedClient::with_window`] caps the calls outstanding on the
//! wire. A send past the cap is held in the client, in send order, and
//! goes out from the reader thread when a reply frees a slot. A server
//! frees a slot before its reply is written, so a window no larger than
//! the server's `--max-inflight` (less one for a control op) is never
//! shed. A held call's io timeout starts when it goes out.
//!
//! Control ops (`stats`, `shutdown`), whose responses carry no id, are
//! serialized: at most one control round-trip is outstanding per
//! connection, so the id-less response on the wire always belongs to
//! the one caller waiting for it (hosts may answer control lines from
//! different threads — a gateway pools `stats` but acks `shutdown`
//! inline — so cross-op ordering cannot be assumed).
//!
//! ## Failure model
//!
//! Any I/O error (or server EOF) **poisons** the pipelined client — the
//! flag flips, every waiter's callback runs with an error, and all
//! future sends fail fast. A poisoned client is never reused; the owner
//! drops it and reconnects. That is precisely the signal a gateway
//! needs to re-route in-flight requests to another shard.
//!
//! [`PipelinedClient::with_io_timeout`] bounds each round trip: the
//! reader thread checks the oldest outstanding request every quarter of
//! the timeout and poisons the client (error kind `TimedOut`) once one
//! has waited longer — an unresponsive-but-connected peer is declared
//! dead instead of holding its requests forever.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead as _, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::{obj, Json};
use crate::net::{poll, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::protocol::Request;
use crate::wire;

/// A minimal protocol client for the socket transport, used by
/// `dahliac batch --connect` and the integration tests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Negotiated wire version. Plain [`Client::connect`] never
    /// negotiates — scripts that pin exact protocol bytes stay on v0 —
    /// and [`Client::connect_wire`] opts a session in.
    wire: u32,
}

impl Client {
    /// Connect to a serving `dahliac serve --listen` endpoint. The
    /// session speaks v0 JSON lines, byte-for-byte what every client
    /// before the `hello` exchange spoke.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_wire(addr, 0)
    }

    /// Connect, offering at most wire version `wire_max` in the `hello`
    /// exchange (`0` skips it). On a v1 session [`Client::send_line`]
    /// and [`Client::recv_line`] keep their text-line API — lines are
    /// translated to and from binary frames at this boundary, so batch
    /// drivers run unchanged over either wire.
    pub fn connect_wire(addr: impl ToSocketAddrs, wire_max: u32) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let wire_max = wire_max.min(wire::WIRE_VERSION as u32);
        let wire = if wire_max == 0 {
            0
        } else {
            stream.set_read_timeout(Some(PipelinedClient::NEGOTIATE_TIMEOUT))?;
            let v = PipelinedClient::negotiate(&mut stream, wire_max)?;
            stream.set_read_timeout(None)?;
            v
        };
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            wire,
        })
    }

    /// The wire version this session negotiated (0 = JSON lines).
    pub fn wire_version(&self) -> u32 {
        self.wire
    }

    /// Connect, retrying while the server is still binding (used by
    /// scripts that start the server in the background).
    pub fn connect_retry(addr: impl ToSocketAddrs + Copy, attempts: u32) -> io::Result<Client> {
        Client::connect_retry_wire(addr, attempts, 0)
    }

    /// [`Client::connect_retry`] with a `hello` ceiling, for callers
    /// that want the binary wire and startup-race tolerance at once.
    pub fn connect_retry_wire(
        addr: impl ToSocketAddrs + Copy,
        attempts: u32,
        wire_max: u32,
    ) -> io::Result<Client> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Client::connect_wire(addr, wire_max) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        Err(last.unwrap())
    }

    /// Send one protocol line (the newline is added here). On a v1
    /// session the line is reframed: an object with an `op` field rides
    /// as a control frame (control ops stay textual on every version),
    /// anything else parseable is binary-encoded as a request frame,
    /// and unparseable text goes out as a control frame so the server's
    /// protocol-error answer matches the v0 behaviour.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        if self.wire == 0 {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            return self.writer.flush();
        }
        let framed = match Json::parse(line) {
            Ok(v) if v.get("op").is_none() => wire::frame(wire::FRAME_REQUEST, &wire::to_bytes(&v)),
            _ => wire::frame(wire::FRAME_CONTROL, line.as_bytes()),
        };
        self.writer.write_all(&framed)?;
        self.writer.flush()
    }

    /// Read one response line; `None` on server-side EOF. On a v1
    /// session this reads one frame and renders it back to the JSON
    /// text the caller would have seen on v0.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        if self.wire == 0 {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Ok(None);
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
        let mut word = [0u8; 4];
        match self.reader.read_exact(&mut word) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes(word) as usize;
        if len == 0 || len > wire::MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame length {len}"),
            ));
        }
        let mut frame = vec![0u8; len];
        self.reader.read_exact(&mut frame)?;
        let (tag, body) = (frame[0], &frame[1..]);
        let text = match tag {
            wire::FRAME_RESPONSE => wire::from_bytes(body)
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "undecodable response frame")
                })?
                .emit(),
            wire::FRAME_CONTROL_REPLY => String::from_utf8(body.to_vec()).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 control reply frame")
            })?,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame tag {other}"),
                ))
            }
        };
        Ok(Some(text))
    }

    /// Ask the server to shut down gracefully (acknowledged with one
    /// response line).
    pub fn shutdown_server(&mut self) -> io::Result<Option<String>> {
        self.send_line(r#"{"op":"shutdown"}"#)?;
        self.recv_line()
    }
}

/// Wire-id prefix for multiplexed calls. Responses whose id carries it
/// route back to their callback; everything else is a control-op
/// response and matches FIFO.
const WIRE_PREFIX: &str = "px";

/// Most bytes a client queues behind a peer that has stopped reading
/// before it declares the peer dead: room for one maximal frame.
const MAX_BACKLOG: usize = wire::MAX_FRAME + 5;

/// Receives the outcome of one [`PipelinedClient::send`], exactly once:
/// the response with the caller's id restored, or the error that ended
/// the connection.
type Done = Box<dyn FnOnce(io::Result<Json>) + Send>;

/// One outstanding round trip.
struct Waiter {
    /// The caller's id, restored on the response. Control replies carry
    /// no id, so control waiters have none.
    id: Option<String>,
    /// When the request went out, for the io timeout.
    sent: Instant,
    done: Done,
}

/// Waiters for in-flight traffic on one connection.
struct Waiters {
    /// Compile calls, keyed by wire id.
    calls: HashMap<u64, Waiter>,
    /// Control ops, matched first-in-first-out.
    control: VecDeque<Waiter>,
    /// Calls held back by the window, in send order, with their frames.
    held: VecDeque<(u64, Vec<u8>, Waiter)>,
}

impl Waiters {
    /// Move the oldest held call onto the wire if the window has room,
    /// and return its frame to write.
    fn release(&mut self, window: usize) -> Option<Vec<u8>> {
        if self.calls.len() >= window {
            return None;
        }
        let (n, frame, mut waiter) = self.held.pop_front()?;
        waiter.sent = Instant::now();
        self.calls.insert(n, waiter);
        Some(frame)
    }
}

/// The sending half of the socket. Writes never block: what the kernel
/// will not take yet waits in `backlog`, in order, and the reader
/// thread flushes it when the socket turns writable.
struct Outbox {
    stream: TcpStream,
    backlog: Vec<u8>,
}

struct Shared {
    dead: AtomicBool,
    waiters: Mutex<Waiters>,
    outbox: Mutex<Outbox>,
    /// Does the outbox hold a backlog? Read without the outbox lock, so
    /// the reader never waits on a sender's write syscall.
    backlogged: AtomicBool,
    /// The io timeout in nanoseconds; 0 waits forever.
    io_timeout_ns: AtomicU64,
    /// Most calls outstanding on the wire; 0 is unbounded.
    window: AtomicUsize,
    /// Write end of the reader thread's wake pipe: a new backlog or a
    /// new timeout changes what the reader polls for.
    wake: UnixStream,
}

impl Shared {
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn io_timeout(&self) -> Option<Duration> {
        match self.io_timeout_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    fn wake(&self) {
        // A full pipe means a wake is already pending.
        let _ = (&self.wake).write(&[1]);
    }

    /// Add a waiter, unless the connection is already dead: then the
    /// waiter gets its error here, on the calling thread. The flag is
    /// checked under the waiter lock, and `poison` raises it before
    /// taking that lock, so a waiter is either released by `poison` or
    /// refused here — never stranded. Returns whether `frame` should be
    /// written now: not when refused, nor when the window holds it.
    fn register(&self, wire_id: Option<u64>, frame: &[u8], waiter: Waiter) -> bool {
        let mut w = self.waiters.lock().unwrap();
        if self.is_dead() {
            drop(w);
            (waiter.done)(Err(failure(io::ErrorKind::ConnectionAborted)));
            return false;
        }
        match wire_id {
            Some(n) => {
                let window = self.window.load(Ordering::Relaxed);
                if window > 0 && (w.calls.len() >= window || !w.held.is_empty()) {
                    w.held.push_back((n, frame.to_vec(), waiter));
                    return false;
                }
                w.calls.insert(n, waiter);
            }
            None => w.control.push_back(waiter),
        }
        true
    }

    /// Queue one whole frame: straight into the socket while nothing is
    /// backlogged, behind the backlog otherwise. Never blocks.
    fn write(&self, frame: &[u8]) -> io::Result<()> {
        let mut out = self.outbox.lock().unwrap();
        if !out.backlog.is_empty() {
            if out.backlog.len() + frame.len() > MAX_BACKLOG {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "server stopped reading",
                ));
            }
            out.backlog.extend_from_slice(frame);
            return Ok(());
        }
        let sent = write_some(&out.stream, frame)?;
        if sent < frame.len() {
            out.backlog.extend_from_slice(&frame[sent..]);
            self.backlogged.store(true, Ordering::SeqCst);
            drop(out);
            // The reader now polls for writability too.
            self.wake();
        }
        Ok(())
    }

    /// Write as much of the backlog as the socket takes.
    fn flush(&self) -> io::Result<()> {
        let mut out = self.outbox.lock().unwrap();
        let Outbox { stream, backlog } = &mut *out;
        let sent = write_some(stream, backlog)?;
        backlog.drain(..sent);
        self.backlogged.store(!backlog.is_empty(), Ordering::SeqCst);
        Ok(())
    }

    /// Has any waiter been outstanding longer than `timeout`?
    fn overdue(&self, timeout: Duration) -> bool {
        let w = self.waiters.lock().unwrap();
        w.calls
            .values()
            .chain(w.control.iter())
            .any(|waiter| waiter.sent.elapsed() > timeout)
    }

    /// Flip the poison flag, close the socket, and release every waiter
    /// with an error of `kind`. Callbacks run here, after every lock is
    /// released, so one may re-route to another client at once.
    fn poison(&self, kind: io::ErrorKind) {
        self.dead.store(true, Ordering::SeqCst);
        let (calls, control, held) = {
            let mut w = self.waiters.lock().unwrap();
            (
                std::mem::take(&mut w.calls),
                std::mem::take(&mut w.control),
                std::mem::take(&mut w.held),
            )
        };
        let _ = self.outbox.lock().unwrap().stream.shutdown(Shutdown::Both);
        self.wake();
        let held = held.into_iter().map(|(_, _, waiter)| waiter);
        for waiter in calls.into_values().chain(control).chain(held) {
            (waiter.done)(Err(failure(kind)));
        }
    }
}

/// Write what the non-blocking `stream` takes of `bytes` right now.
fn write_some(mut stream: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    let mut sent = 0;
    while sent < bytes.len() {
        match stream.write(&bytes[sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(sent)
}

/// The error a waiter is released with when its connection dies.
fn failure(kind: io::ErrorKind) -> io::Error {
    match kind {
        io::ErrorKind::TimedOut => io::Error::new(kind, "server stopped answering"),
        _ => io::Error::new(kind, "connection to server lost"),
    }
}

/// A multiplexing client: many threads share one pipelined session.
///
/// [`PipelinedClient::send`] rewrites the request id to a private wire
/// id, writes the frame without blocking, and returns; the background
/// reader hands the matching response — with the caller's original id
/// restored — to the send's callback. Concurrent sends interleave
/// freely over one socket, in whatever order the server completes
/// them. [`PipelinedClient::call`] is `send` plus a wait.
pub struct PipelinedClient {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    /// Negotiated wire version (always ≥ 1).
    wire: u32,
    /// Held across a whole control round-trip: with at most one control
    /// op outstanding, FIFO matching cannot misattribute responses even
    /// if the host answers control lines from different threads (a
    /// gateway answers `stats` from a worker but `shutdown` inline).
    control_gate: Mutex<()>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl PipelinedClient {
    /// Connect to a pipelined protocol endpoint over the v1 binary
    /// wire. Fails if the server will not negotiate it.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        PipelinedClient::from_stream(TcpStream::connect(addr)?, Self::NEGOTIATE_TIMEOUT)
    }

    /// Connect with a bound on how long the TCP handshake may take —
    /// what a health checker wants when probing a possibly-partitioned
    /// shard (a plain `connect` to a black-holed address can hang for
    /// minutes on the SYN timeout).
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> io::Result<PipelinedClient> {
        let mut last = None;
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, timeout) {
                // The caller's timeout bounds negotiation too: a shard
                // that accepts but never answers hello is as dead as
                // one that never completes the handshake.
                Ok(s) => return PipelinedClient::from_stream(s, timeout),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Bound on the `hello` round trip for sessions opened without an
    /// explicit connect timeout. A server that accepts but never
    /// answers hello must fail the connect, not park it forever.
    const NEGOTIATE_TIMEOUT: Duration = Duration::from_secs(10);

    /// The `hello` exchange, run synchronously before the reader thread
    /// exists: send the offer, read exactly one reply line (byte by
    /// byte — nothing may be buffered past the newline, because the
    /// very next server byte can already be a frame), and return the
    /// negotiated version. Any unparseable or error-shaped reply means
    /// the server predates `hello`: stay on v0.
    fn negotiate(stream: &mut TcpStream, wire_max: u32) -> io::Result<u32> {
        let offer = obj([
            ("op", Json::Str("hello".into())),
            ("max_version", Json::Num(wire_max as f64)),
        ]);
        stream.write_all(offer.emit().as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            if stream.read(&mut byte)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed during hello negotiation",
                ));
            }
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
            if line.len() > wire::MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unbounded hello reply",
                ));
            }
        }
        let version = String::from_utf8(line)
            .ok()
            .and_then(|text| Json::parse(text.trim()).ok())
            .and_then(|v| {
                v.get("hello")
                    .and_then(|h| h.get("version"))
                    .and_then(Json::as_u64)
            })
            .unwrap_or(0);
        Ok((version as u32).min(wire_max))
    }

    fn from_stream(
        mut stream: TcpStream,
        negotiate_timeout: Duration,
    ) -> io::Result<PipelinedClient> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(negotiate_timeout.max(Duration::from_millis(1))))?;
        let wire_v = PipelinedClient::negotiate(&mut stream, wire::WIRE_VERSION as u32)?;
        if wire_v == 0 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "server negotiated wire v0; pipelined sessions need the v1 binary wire \
                 (is it pinned with `--wire v0`?)",
            ));
        }
        stream.set_read_timeout(None)?;
        stream.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            dead: AtomicBool::new(false),
            waiters: Mutex::new(Waiters {
                calls: HashMap::new(),
                control: VecDeque::new(),
                held: VecDeque::new(),
            }),
            outbox: Mutex::new(Outbox {
                stream: stream.try_clone()?,
                backlog: Vec::new(),
            }),
            backlogged: AtomicBool::new(false),
            io_timeout_ns: AtomicU64::new(0),
            window: AtomicUsize::new(0),
            wake: wake_tx,
        });
        let t_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("dahlia-pipelined-client".into())
            .spawn(move || reader_loop(stream, &wake_rx, &t_shared))?;
        Ok(PipelinedClient {
            shared,
            next_id: AtomicU64::new(0),
            wire: wire_v,
            control_gate: Mutex::new(()),
            reader: Some(reader),
        })
    }

    /// The wire version this session negotiated (always ≥ 1).
    pub fn wire_version(&self) -> u32 {
        self.wire
    }

    /// Bound every round trip's wait for its response: a connection
    /// whose peer stops answering (process stopped, network partitioned
    /// — the TCP session itself stays "up") is poisoned once a request
    /// has waited `timeout`, instead of parking its callers forever.
    /// The reader thread enforces it, checking every quarter of
    /// `timeout`. The bound must exceed the slowest legitimate compile;
    /// it exists to unstick callers, not to police latency.
    pub fn with_io_timeout(self, timeout: Duration) -> PipelinedClient {
        let ns = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX).max(1);
        self.shared.io_timeout_ns.store(ns, Ordering::Relaxed);
        self.shared.wake();
        self
    }

    /// Keep at most `window` calls outstanding on the wire (at least
    /// one); later sends wait in the client until replies free a slot.
    /// Keep it below the server's `--max-inflight`, which sheds any
    /// request past it. Unbounded by default.
    pub fn with_window(self, window: usize) -> PipelinedClient {
        self.shared.window.store(window.max(1), Ordering::Relaxed);
        self
    }

    /// Has this connection failed? A dead client never recovers; drop
    /// it and connect a fresh one.
    pub fn is_dead(&self) -> bool {
        self.shared.is_dead()
    }

    fn dead_err() -> io::Error {
        failure(io::ErrorKind::ConnectionAborted)
    }

    /// Send `req` and return at once; `done` runs exactly once with the
    /// response (the caller's original id restored) on the reader
    /// thread, or with the error that poisoned the client — on the
    /// calling thread if the client is already dead. A failed request
    /// is the caller's cue to retry elsewhere. The write never blocks:
    /// bytes the socket will not take yet are queued behind it.
    pub fn send(&self, req: &Request, done: impl FnOnce(io::Result<Json>) + Send + 'static) {
        let waiter = Waiter {
            id: Some(req.id.clone()),
            sent: Instant::now(),
            done: Box::new(done),
        };
        if self.is_dead() {
            (waiter.done)(Err(Self::dead_err()));
            return;
        }
        let n = self.next_id.fetch_add(1, Ordering::Relaxed);
        let wire = Request {
            id: format!("{WIRE_PREFIX}{n}"),
            stage: req.stage,
            source: req.source.clone(),
            options: req.options.clone(),
            // The trace id rides the rewritten wire request so the
            // shard's span breakdown comes back under the caller's id.
            trace: req.trace.clone(),
        };
        let frame = wire::json_frame(wire::FRAME_REQUEST, &wire.to_json());
        self.submit(Some(n), &frame, waiter);
    }

    /// Send `req` and block for its response: [`PipelinedClient::send`]
    /// plus a wait. Fails (and poisons the client) on any I/O error —
    /// including the connection dying while the request was in flight.
    pub fn call(&self, req: &Request) -> io::Result<Json> {
        wait(|done| self.send(req, done))
    }

    /// Register `waiter` under `wire_id` (`None`: the control FIFO) and
    /// write `frame` unless the window holds it; a failed write poisons
    /// the client.
    fn submit(&self, wire_id: Option<u64>, frame: &[u8], waiter: Waiter) {
        if self.shared.register(wire_id, frame, waiter) && self.shared.write(frame).is_err() {
            self.shared.poison(io::ErrorKind::ConnectionAborted);
        }
    }

    /// Send a control line and block for its (id-less) response.
    /// Control rounds are serialized by `control_gate`: one outstanding
    /// id-less response at a time leaves FIFO matching nothing to
    /// confuse.
    fn control(&self, line: &str) -> io::Result<Json> {
        let _gate = self.control_gate.lock().unwrap();
        // Control ops stay JSON text, wrapped in a control frame.
        let frame = wire::frame(wire::FRAME_CONTROL, line.as_bytes());
        wait(|done| {
            let waiter = Waiter {
                id: None,
                sent: Instant::now(),
                done,
            };
            self.submit(None, &frame, waiter);
        })
    }

    /// Fetch the server's stats object (the payload under `"stats"`).
    pub fn stats(&self) -> io::Result<Json> {
        let v = self.control(r#"{"op":"stats"}"#)?;
        v.get("stats").cloned().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "response had no stats payload")
        })
    }

    /// Ask the server to shut down gracefully; returns the ack line.
    pub fn shutdown_server(&self) -> io::Result<Json> {
        self.control(r#"{"op":"shutdown"}"#)
    }
}

impl Drop for PipelinedClient {
    fn drop(&mut self) {
        self.shared.poison(io::ErrorKind::ConnectionAborted);
        if let Some(handle) = self.reader.take() {
            // The last handle may go inside a callback, on the reader
            // thread itself, which then exits on its own.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

/// Start a callback-taking round trip and block for its one result.
fn wait(start: impl FnOnce(Done)) -> io::Result<Json> {
    let (tx, rx) = mpsc::sync_channel(1);
    start(Box::new(move |r| {
        let _ = tx.send(r);
    }));
    rx.recv()
        .unwrap_or_else(|_| Err(PipelinedClient::dead_err()))
}

/// Route one decoded response to its waiter: wire-id-tagged responses
/// go to the call's callback, id-less ones match the control FIFO. A
/// call's reply frees a window slot, so the oldest held call goes out
/// before the callback runs.
fn route_response(shared: &Shared, mut v: Json) {
    let wire_id = v
        .get("id")
        .and_then(Json::as_str)
        .and_then(|s| s.strip_prefix(WIRE_PREFIX))
        .and_then(|s| s.parse::<u64>().ok());
    let (waiter, next) = {
        let mut w = shared.waiters.lock().unwrap();
        match wire_id {
            Some(n) => {
                let waiter = w.calls.remove(&n);
                let window = shared.window.load(Ordering::Relaxed);
                let next = if window > 0 { w.release(window) } else { None };
                (waiter, next)
            }
            None => (w.control.pop_front(), None),
        }
    };
    if let Some(frame) = next {
        if shared.write(&frame).is_err() {
            shared.poison(io::ErrorKind::ConnectionAborted);
        }
    }
    if let Some(Waiter { id, done, .. }) = waiter {
        if let Some(id) = id {
            set_id(&mut v, id);
        }
        done(Ok(v));
    }
}

/// The connection's one background thread. It polls the socket (and
/// its wake pipe): it reads length-prefixed frames and routes each
/// reply to its waiter, flushes the write backlog when the socket turns
/// writable, and enforces the io timeout. Response frames carry
/// binary-encoded objects; control replies stay JSON text inside their
/// frame. EOF, an I/O error, an unrecoverable framing error (there is
/// no way to resync a byte stream with a corrupt length word) or an
/// overdue response poisons the session.
fn reader_loop(mut stream: TcpStream, wake: &UnixStream, shared: &Shared) {
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    let mut checked = Instant::now();
    let mut kind = io::ErrorKind::ConnectionAborted;
    'session: while !shared.is_dead() {
        let timeout = shared.io_timeout();
        // A quarter of the timeout between overdue checks.
        let tick = timeout.map(|t| (t / 4).max(Duration::from_millis(1)));
        let mut fds = [
            PollFd {
                fd: stream.as_raw_fd(),
                events: if shared.backlogged.load(Ordering::SeqCst) {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                },
                revents: 0,
            },
            PollFd {
                fd: wake.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
        ];
        let wait_ms = tick.map_or(-1, |t| t.as_millis().min(i32::MAX as u128) as i32);
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, wait_ms) } < 0 {
            if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            break;
        }
        if fds[1].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&*wake).read(&mut sink), Ok(n) if n > 0) {}
        }
        if fds[0].revents & POLLOUT != 0 && shared.flush().is_err() {
            break;
        }
        if fds[0].revents & (POLLIN | POLLHUP | POLLERR) != 0 {
            match stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => break,
            }
            let mut pos = 0;
            loop {
                match wire::split_frame(&buf[pos..]) {
                    Ok(None) => break,
                    Ok(Some((tag, body, consumed))) => {
                        let v = match tag {
                            wire::FRAME_RESPONSE => wire::from_bytes(body),
                            wire::FRAME_CONTROL_REPLY => std::str::from_utf8(body)
                                .ok()
                                .and_then(|text| Json::parse(text.trim()).ok()),
                            _ => None,
                        };
                        if let Some(v) = v {
                            route_response(shared, v);
                        }
                        pos += consumed;
                    }
                    Err(_) => break 'session,
                }
            }
            buf.drain(..pos);
        }
        if let (Some(t), Some(tick)) = (timeout, tick) {
            if checked.elapsed() >= tick {
                checked = Instant::now();
                if shared.overdue(t) {
                    kind = io::ErrorKind::TimedOut;
                    break;
                }
            }
        }
    }
    shared.poison(kind);
}

/// Overwrite the response's `id` field in place (the wire id goes back
/// to whatever the caller sent).
fn set_id(v: &mut Json, id: String) {
    if let Json::Obj(fields) = v {
        if let Some((_, val)) = fields.iter_mut().find(|(k, _)| k == "id") {
            *val = Json::Str(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionHost as _;
    use crate::{serve_listener, NetSummary, Server, Stage};
    use std::net::{SocketAddr, TcpListener};

    const GOOD: &str = "let A: float[8 bank 8]; for (let i = 0..8) unroll 8 { A[i] := 2.0; }";

    fn spawn_server(threads: usize) -> (SocketAddr, std::thread::JoinHandle<NetSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::with_threads(threads));
        let handle =
            std::thread::spawn(move || serve_listener(server, listener).expect("serve_listener"));
        (addr, handle)
    }

    #[test]
    fn concurrent_calls_multiplex_over_one_connection() {
        let (addr, handle) = spawn_server(4);
        let client = Arc::new(PipelinedClient::connect(addr).expect("connect"));
        let mut joins = Vec::new();
        for i in 0..16 {
            let client = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                let req = Request::new(
                    format!("caller-{i}"),
                    Stage::Estimate,
                    format!("let A: float[16 bank {b}]; for (let i = 0..16) unroll {b} {{ A[i] := 1.0; }}",
                            b = 1 << (i % 4)),
                    "k",
                );
                client.call(&req).expect("call")
            }));
        }
        for (i, j) in joins.into_iter().enumerate() {
            let v = j.join().expect("caller thread");
            assert_eq!(
                v.get("id").and_then(Json::as_str),
                Some(format!("caller-{i}").as_str()),
                "original id restored"
            );
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        }
        let stats = client.stats().expect("stats");
        assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(16));
        client.shutdown_server().expect("shutdown ack");
        drop(client);
        let summary = handle.join().expect("listener");
        assert_eq!(summary.connections, 1, "all calls shared one connection");
    }

    #[test]
    fn server_death_poisons_and_releases_waiters() {
        let (addr, handle) = spawn_server(2);
        let client = Arc::new(PipelinedClient::connect(addr).expect("connect"));
        // Shut the server down from a second connection; the pipelined
        // session sees EOF and every subsequent call must fail fast
        // instead of hanging.
        let mut driver = Client::connect(addr).expect("driver");
        driver.shutdown_server().expect("ack");
        drop(driver);
        handle.join().expect("listener wound down");
        // The reader may take a moment to observe EOF.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !client.is_dead() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(client.is_dead(), "EOF poisons the client");
        let err = client
            .call(&Request::new("x", Stage::Check, GOOD, "k"))
            .expect_err("dead client fails fast");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert!(client.stats().is_err());
    }

    #[test]
    fn unresponsive_server_times_out_and_poisons() {
        // A "server" that negotiates v1 and then never answers: the TCP
        // session stays up, so only the io timeout can unstick callers.
        // (Negotiation has its own timeout, tested below.)
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (mut s, _) = listener.accept()?;
            let mut hello = String::new();
            BufReader::new(s.try_clone()?).read_line(&mut hello)?;
            s.write_all(b"{\"hello\":{\"version\":1}}\n")?;
            io::Result::Ok(s)
        });
        let client = PipelinedClient::connect(addr)
            .expect("connect")
            .with_io_timeout(Duration::from_millis(200));
        let stream = hold.join().unwrap().expect("accepted");
        let t0 = std::time::Instant::now();
        let err = client
            .call(&Request::new("x", Stage::Check, GOOD, "k"))
            .expect_err("no answer must time out");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(client.is_dead(), "timeout poisons the client");
        assert!(client.stats().is_err(), "dead client fails fast");
        drop(stream);
    }

    /// A "server" that negotiates v1 and then never answers; the join
    /// handle yields its end of the session.
    fn mute_server() -> (SocketAddr, std::thread::JoinHandle<io::Result<TcpStream>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (mut s, _) = listener.accept()?;
            let mut hello = String::new();
            BufReader::new(s.try_clone()?).read_line(&mut hello)?;
            s.write_all(b"{\"hello\":{\"version\":1}}\n")?;
            io::Result::Ok(s)
        });
        (addr, hold)
    }

    /// Send `n` requests whose callbacks count their runs and report
    /// each outcome's error kind (`None` on a reply) with the thread
    /// it ran on.
    #[allow(clippy::type_complexity)]
    fn send_counted(
        client: &PipelinedClient,
        n: usize,
    ) -> (
        Vec<Arc<AtomicU64>>,
        mpsc::Receiver<(usize, Option<io::ErrorKind>, std::thread::ThreadId)>,
    ) {
        let (tx, rx) = mpsc::channel();
        let counts: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for (i, count) in counts.iter().enumerate() {
            let (tx, count) = (tx.clone(), Arc::clone(count));
            let req = Request::new(format!("s{i}"), Stage::Check, GOOD, "k");
            client.send(&req, move |r| {
                count.fetch_add(1, Ordering::SeqCst);
                if let Ok(v) = &r {
                    assert_eq!(
                        v.get("id").and_then(Json::as_str),
                        Some(format!("s{i}").as_str())
                    );
                }
                let _ = tx.send((i, r.err().map(|e| e.kind()), std::thread::current().id()));
            });
        }
        (counts, rx)
    }

    /// Collect `n` outcomes, then check that no callback ran twice.
    fn exactly_once(
        counts: &[Arc<AtomicU64>],
        rx: &mpsc::Receiver<(usize, Option<io::ErrorKind>, std::thread::ThreadId)>,
    ) -> Vec<Option<io::ErrorKind>> {
        let mut kinds = vec![None; counts.len()];
        for _ in 0..counts.len() {
            let (i, kind, _) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a callback");
            kinds[i] = kind;
        }
        std::thread::sleep(Duration::from_millis(50));
        for c in counts {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "each callback runs exactly once"
            );
        }
        kinds
    }

    #[test]
    fn send_callbacks_fire_exactly_once() {
        // On replies.
        let (addr, handle) = spawn_server(2);
        let client = PipelinedClient::connect(addr).expect("connect");
        let (counts, rx) = send_counted(&client, 16);
        assert!(exactly_once(&counts, &rx).iter().all(Option::is_none));
        client.shutdown_server().expect("ack");
        drop(client);
        handle.join().unwrap();

        // On server death: the peer closes with every request in flight.
        let (addr, hold) = mute_server();
        let client = PipelinedClient::connect(addr).expect("connect");
        let stream = hold.join().unwrap().expect("accepted");
        let (counts, rx) = send_counted(&client, 8);
        drop(stream);
        let kinds = exactly_once(&counts, &rx);
        assert!(
            kinds
                .iter()
                .all(|k| *k == Some(io::ErrorKind::ConnectionAborted)),
            "{kinds:?}"
        );
        // A send on the dead client fails on the calling thread.
        assert!(client.is_dead());
        let (counts, rx) = send_counted(&client, 1);
        let (_, kind, thread) = rx.try_recv().expect("answered before send returned");
        assert_eq!(kind, Some(io::ErrorKind::ConnectionAborted));
        assert_eq!(thread, std::thread::current().id());
        assert_eq!(counts[0].load(Ordering::SeqCst), 1);

        // On the io timeout: the peer holds the session but never answers.
        let (addr, hold) = mute_server();
        let client = PipelinedClient::connect(addr)
            .expect("connect")
            .with_io_timeout(Duration::from_millis(200));
        let stream = hold.join().unwrap().expect("accepted");
        let (counts, rx) = send_counted(&client, 8);
        let kinds = exactly_once(&counts, &rx);
        assert!(
            kinds.iter().all(|k| *k == Some(io::ErrorKind::TimedOut)),
            "{kinds:?}"
        );
        drop(stream);
    }

    #[test]
    fn a_window_holds_sends_so_the_server_never_sheds() {
        // A server whose sessions shed past four in flight, and a slow
        // single worker, so a burst of cold sends piles up behind it.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::with_compute_delay(1, Duration::from_millis(5)));
        let cfg = crate::net::NetConfig::new().max_inflight(4);
        let transport = server.transport();
        let handle = std::thread::spawn(move || {
            crate::net::serve_sessions_with(server, listener, cfg).expect("serve")
        });
        let client = PipelinedClient::connect(addr)
            .expect("connect")
            .with_window(3);
        let (tx, rx) = mpsc::channel();
        let n = 32;
        for i in 0..n {
            let tx = tx.clone();
            let source = format!("let A: float[{}]; A[0] := 1.0;", i + 1);
            client.send(
                &Request::new(format!("w{i}"), Stage::Check, source, "k"),
                move |r| {
                    let _ = tx.send(r);
                },
            );
        }
        for _ in 0..n {
            let v = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a callback")
                .expect("a reply");
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "{}",
                v.emit()
            );
        }
        // The window leaves the fourth slot for a control op.
        assert!(client.stats().is_ok());
        client.shutdown_server().expect("ack");
        drop(client);
        handle.join().unwrap();
        assert_eq!(transport.requests_shed.get(), 0, "no send was shed");

        // Held sends fail exactly once with the error that ends the
        // connection, though they never reached the wire.
        let (addr, hold) = mute_server();
        let client = PipelinedClient::connect(addr)
            .expect("connect")
            .with_window(2)
            .with_io_timeout(Duration::from_millis(200));
        let stream = hold.join().unwrap().expect("accepted");
        let (counts, rx) = send_counted(&client, 6);
        let kinds = exactly_once(&counts, &rx);
        assert!(
            kinds.iter().all(|k| *k == Some(io::ErrorKind::TimedOut)),
            "{kinds:?}"
        );
        drop(stream);
    }

    #[test]
    fn negotiated_v1_session_multiplexes_and_answers_control_ops() {
        let (addr, handle) = spawn_server(4);
        let client = Arc::new(PipelinedClient::connect(addr).expect("connect"));
        assert_eq!(client.wire_version(), 1, "server speaks v1");
        let mut joins = Vec::new();
        for i in 0..8 {
            let client = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                let req = Request::new(format!("v1-{i}"), Stage::Estimate, GOOD, "k");
                client.call(&req).expect("call")
            }));
        }
        for (i, j) in joins.into_iter().enumerate() {
            let v = j.join().expect("caller thread");
            assert_eq!(
                v.get("id").and_then(Json::as_str),
                Some(format!("v1-{i}").as_str())
            );
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        }
        // Control ops ride control frames; the stats object gains the
        // reactor's transport section, which shows this very session
        // negotiated v1 and exchanged frames.
        let stats = client.stats().expect("stats");
        let transport = stats.get("transport").expect("transport section");
        assert_eq!(transport.get("sessions_v1").and_then(Json::as_u64), Some(1));
        assert!(transport.get("frames_in").and_then(Json::as_u64).unwrap() >= 8);
        client.shutdown_server().expect("shutdown ack");
        drop(client);
        handle.join().expect("listener");
    }

    #[test]
    fn negotiation_timeout_fails_connect_against_a_mute_server() {
        // Accepts, never answers: the hello exchange must give up
        // rather than park the connect forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let t0 = std::time::Instant::now();
        let err = PipelinedClient::from_stream(
            TcpStream::connect(addr).unwrap(),
            Duration::from_millis(200),
        );
        assert!(err.is_err(), "mute server must fail negotiation");
        assert!(t0.elapsed() < Duration::from_secs(5));
        drop(hold.join());
    }

    #[test]
    fn a_server_pinned_to_v0_is_refused_at_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::with_threads(1));
        let cfg = crate::NetConfig::new().max_wire(0);
        let handle = std::thread::spawn(move || {
            crate::serve_sessions_with(server, listener, cfg).expect("serve")
        });
        let err = PipelinedClient::connect(addr)
            .err()
            .expect("v0 server refused");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("wire v0"), "{err}");
        Client::connect(addr).unwrap().shutdown_server().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn connect_timeout_to_refused_port_errors_quickly() {
        // Bind-then-drop guarantees a port nothing is listening on.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t0 = std::time::Instant::now();
        let err = PipelinedClient::connect_timeout(addr, Duration::from_millis(500));
        assert!(err.is_err());
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
    }
}
