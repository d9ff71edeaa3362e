//! Protocol clients for the socket transport.
//!
//! Two tiers:
//!
//! * [`Client`] — the minimal line-oriented client used by `dahliac
//!   batch --connect` and scripts: the caller owns correlation and
//!   reads responses in whatever order the server emits them.
//! * [`PipelinedClient`] — a **multiplexing** client for long-lived
//!   pool connections (the gateway keeps one per shard): many callers
//!   share one TCP session, each `call` is tagged with a private wire
//!   id, and a background reader thread routes every response frame to
//!   the caller that is blocked on it. It speaks only the v1 binary
//!   wire: a server that will not negotiate v1 is refused at connect.
//!   Control ops (`stats`, `shutdown`), whose responses carry no id,
//!   are serialized: at most one control round-trip is outstanding per
//!   connection, so the
//!   id-less response on the wire always belongs to the one caller
//!   waiting for it (hosts may answer control lines from different
//!   threads — a gateway pools `stats` but acks `shutdown` inline — so
//!   cross-op ordering cannot be assumed).
//!
//! Failure model: any I/O error (or server EOF) **poisons** the
//! pipelined client — the flag flips, every waiter is released with an
//! error, and all future calls fail fast. A poisoned client is never
//! reused; the owner drops it and reconnects. That is precisely the
//! signal a gateway needs to re-route in-flight requests to another
//! shard.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead as _, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use crate::json::{obj, Json};
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
/// route back to the blocked caller; everything else is a control-op
/// response and matches FIFO.
const WIRE_PREFIX: &str = "px";

/// Waiters for in-flight traffic on one connection.
struct Waiters {
    /// Compile calls, keyed by wire id.
    calls: HashMap<u64, mpsc::Sender<Json>>,
    /// Control ops, matched first-in-first-out.
    control: VecDeque<mpsc::Sender<Json>>,
}

struct Shared {
    dead: AtomicBool,
    waiters: Mutex<Waiters>,
}

impl Shared {
    /// Flip the poison flag and release every waiter (dropping their
    /// senders makes each blocked `recv` fail).
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let mut w = self.waiters.lock().unwrap();
        w.calls.clear();
        w.control.clear();
    }
}

/// A multiplexing client: many threads share one pipelined session.
///
/// Each [`PipelinedClient::call`] rewrites the request id to a private
/// wire id, blocks until the background reader delivers the matching
/// response, and hands back the response JSON with the caller's
/// original id restored — so concurrent calls interleave freely over
/// one socket, in whatever order the server completes them.
pub struct PipelinedClient {
    shared: Arc<Shared>,
    writer: Mutex<TcpStream>,
    next_id: AtomicU64,
    /// Negotiated wire version (always ≥ 1).
    wire: u32,
    /// Bound on each call's wait for its response; `None` waits forever.
    io_timeout: Option<Duration>,
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
        let shared = Arc::new(Shared {
            dead: AtomicBool::new(false),
            waiters: Mutex::new(Waiters {
                calls: HashMap::new(),
                control: VecDeque::new(),
            }),
        });
        let reader_stream = stream.try_clone()?;
        let t_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("dahlia-pipelined-client".into())
            .spawn(move || reader_loop(reader_stream, &t_shared))?;
        Ok(PipelinedClient {
            shared,
            writer: Mutex::new(stream),
            next_id: AtomicU64::new(0),
            wire: wire_v,
            io_timeout: None,
            control_gate: Mutex::new(()),
            reader: Some(reader),
        })
    }

    /// The wire version this session negotiated (always ≥ 1).
    pub fn wire_version(&self) -> u32 {
        self.wire
    }

    /// Bound every call's wait for its response: a connection whose
    /// peer stops answering (process stopped, network partitioned —
    /// the TCP session itself stays "up") is poisoned after `timeout`
    /// instead of parking its callers forever. The bound must exceed
    /// the slowest legitimate compile; it exists to unstick threads,
    /// not to police latency.
    pub fn with_io_timeout(mut self, timeout: Duration) -> PipelinedClient {
        self.io_timeout = Some(timeout);
        self
    }

    /// Has this connection failed? A dead client never recovers; drop
    /// it and connect a fresh one.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }

    /// Wait on a response channel, honoring the io timeout. A timeout
    /// poisons the whole client: an abandoned in-flight response would
    /// otherwise desynchronize the session, and an unresponsive peer
    /// is indistinguishable from a dead one anyway.
    fn recv_response(&self, rx: &mpsc::Receiver<Json>) -> io::Result<Json> {
        match self.io_timeout {
            None => rx.recv().map_err(|_| Self::dead_err()),
            Some(t) => match rx.recv_timeout(t) {
                Ok(v) => Ok(v),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(Self::dead_err()),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.poison();
                    Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server stopped answering",
                    ))
                }
            },
        }
    }

    fn dead_err() -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "connection to server lost",
        )
    }

    fn write_frame(&self, bytes: &[u8]) -> io::Result<()> {
        let mut w = self.writer.lock().unwrap();
        w.write_all(bytes)?;
        w.flush()
    }

    /// Send `req` and block for its response, returned with the
    /// caller's original id restored. Fails (and poisons the client) on
    /// any I/O error — including the connection dying while the request
    /// was in flight, which is the caller's cue to retry elsewhere.
    pub fn call(&self, req: &Request) -> io::Result<Json> {
        if self.is_dead() {
            return Err(Self::dead_err());
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
        let (tx, rx) = mpsc::channel();
        self.register(|w| {
            w.calls.insert(n, tx);
        })?;
        if let Err(e) = self.write_frame(&wire::json_frame(wire::FRAME_REQUEST, &wire.to_json())) {
            self.shared.waiters.lock().unwrap().calls.remove(&n);
            self.poison();
            return Err(e);
        }
        let mut v = self.recv_response(&rx)?;
        set_id(&mut v, &req.id);
        Ok(v)
    }

    /// Send a control line and block for its (id-less) response.
    /// Control rounds are serialized by `control_gate`: one outstanding
    /// id-less response at a time leaves FIFO matching nothing to
    /// confuse.
    fn control(&self, line: &str) -> io::Result<Json> {
        let _gate = self.control_gate.lock().unwrap();
        if self.is_dead() {
            return Err(Self::dead_err());
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut w = self.writer.lock().unwrap();
            self.register(|waiters| waiters.control.push_back(tx))?;
            // Control ops stay JSON text, wrapped in a control frame.
            let sent = w
                .write_all(&wire::frame(wire::FRAME_CONTROL, line.as_bytes()))
                .and_then(|()| w.flush());
            if let Err(e) = sent {
                drop(w);
                self.poison();
                return Err(e);
            }
        }
        self.recv_response(&rx)
    }

    /// Add a waiter, unless the connection is already dead. The flag is
    /// checked under the waiter lock: a reader that died first raised it
    /// before clearing the waiters, and one that dies later drops this
    /// waiter's sender, so the wait fails instead of hanging. A reply
    /// that lands just before the connection dies is still delivered.
    fn register(&self, add: impl FnOnce(&mut Waiters)) -> io::Result<()> {
        let mut waiters = self.shared.waiters.lock().unwrap();
        if self.is_dead() {
            return Err(Self::dead_err());
        }
        add(&mut waiters);
        Ok(())
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

    /// Poison and unblock everything: waiters error out, the reader
    /// thread sees EOF and exits.
    fn poison(&self) {
        self.shared.poison();
        let _ = self.writer.lock().unwrap().shutdown(Shutdown::Both);
    }
}

impl Drop for PipelinedClient {
    fn drop(&mut self) {
        self.poison();
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// Route one decoded response to its waiter: wire-id-tagged responses
/// go to the blocked caller, id-less ones match the control FIFO.
fn route_response(shared: &Shared, v: Json) {
    let wire_id = v
        .get("id")
        .and_then(Json::as_str)
        .and_then(|s| s.strip_prefix(WIRE_PREFIX))
        .and_then(|s| s.parse::<u64>().ok());
    let waiter = {
        let mut w = shared.waiters.lock().unwrap();
        match wire_id {
            Some(n) => w.calls.remove(&n),
            None => w.control.pop_front(),
        }
    };
    if let Some(tx) = waiter {
        let _ = tx.send(v);
    }
}

/// Read length-prefixed frames and route each reply to its waiter.
/// Response frames carry binary-encoded objects; control replies stay
/// JSON text inside their frame. An unrecoverable framing error
/// poisons the session (there is no way to resync a byte stream with a
/// corrupt length word).
fn reader_loop(mut stream: TcpStream, shared: &Shared) {
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    'session: loop {
        loop {
            match wire::split_frame(&buf) {
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
                    buf.drain(..consumed);
                }
                Err(_) => break 'session,
            }
        }
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
        }
    }
    shared.poison();
}

/// Overwrite the response's `id` field in place (the wire id goes back
/// to whatever the caller sent).
fn set_id(v: &mut Json, id: &str) {
    if let Json::Obj(fields) = v {
        for (k, val) in fields.iter_mut() {
            if k == "id" {
                *val = Json::Str(id.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
