//! The socket transport: `dahliac serve --listen <addr>` and
//! `dahliac gateway --listen <addr>`.
//!
//! A std-only **readiness-based reactor**: one thread multiplexes the
//! listener and every live connection over `poll(2)`. Each connection
//! is one sans-IO [`Session`]; the reactor only moves bytes. It feeds
//! what it reads into the session, hands the session's dispatches to a
//! shared [`SessionHost`] (the local [`Server`] for `serve`, the
//! cluster router for `gateway`), and writes what the session emits.
//! Framing, the `hello` switch, the admission window and shedding,
//! control replies, and protocol errors are all the session's — the
//! same machine the stdio transport drives.
//!
//! ## Threading model
//!
//! The reactor thread owns every socket. It never blocks on a peer:
//! sockets are non-blocking, and `poll` wakes it for readable input,
//! writable backpressured output, new connections, and completed
//! dispatches (via a wake pipe). Ten thousand idle sessions therefore
//! cost ten thousand file descriptors and one thread.
//!
//! Requests run to completion where they can. The host's
//! [`SessionHost::dispatch`] runs on the reactor thread and must not
//! block: a server answers memory-tier hits right there and queues only
//! misses for its worker pool; a gateway answers admission-cache hits
//! there and finishes a shard hop from the hop's reply callback. Every
//! reply is encoded where it was produced and posted to the reactor's
//! completion mailbox. A post from another thread writes the wake
//! pipe; the reactor's own posts skip it, because the reactor drains
//! the mailbox until it is empty before every `poll`. A warm hit thus
//! costs no thread handoff at all.
//!
//! ## Wire versions
//!
//! Every session starts in the v0 JSON-lines protocol and may switch
//! to v1 binary frames with `{"op":"hello","max_version":N}`, up to
//! [`NetConfig::max_wire`] — see `docs/PROTOCOL.md` §5.
//!
//! ## Admission control
//!
//! Each connection admits [`NetConfig::max_inflight`] dispatched-but-
//! unanswered requests. At the cap the reactor stops reading the socket
//! (backpressure: the kernel buffer, then the client, fills up), and
//! requests *already read* past the cap are shed with a structured
//! `admission/overloaded` error carrying `retry_after_ms`.
//!
//! ## Shutdown
//!
//! Any client may send `{"op":"shutdown"}`: the reactor acks, stops
//! accepting, stops reading every session (discarding unparsed input),
//! and **drains** — every dispatched request completes and flushes
//! before its socket closes, so pipelined clients lose no responses.
//! Idle sessions are closed immediately (the client sees EOF).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use dahlia_obs::{Counter, Registry};

use crate::session::{Session, SessionConfig, SessionHost, Sink};
use crate::wire;
use crate::Server;

/// Default per-connection admission window (dispatched-but-unanswered
/// requests) — see [`NetConfig::max_inflight`].
pub const DEFAULT_MAX_INFLIGHT: usize = 256;

/// The `retry_after_ms` hint carried by shed-load error responses.
pub const RETRY_AFTER_MS: u64 = 50;

/// Summary of one [`serve_sessions`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Protocol lines (or v1 frames) handled across all connections,
    /// blank lines excluded.
    pub lines: u64,
    /// Lines/frames that were not valid requests.
    pub protocol_errors: u64,
}

/// Transport-level counters: registry handles the host owns and every
/// reactor serving that host increments. All monotonic except the
/// session-mix pair, which tracks *accepted* sessions by the wire
/// version they ended up on (a `hello` upgrade moves one count from v0
/// to v1). They appear in the host's stats — and so in `/metrics`,
/// history, and alert series — as the `transport` section, once a
/// reactor serves the host.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Sessions currently accounted to the v0 JSON-lines protocol.
    pub sessions_v0: Counter,
    /// Sessions that negotiated v1 binary framing.
    pub sessions_v1: Counter,
    /// v1 frames read off the wire.
    pub frames_in: Counter,
    /// v1 frames written to the wire.
    pub frames_out: Counter,
    /// Bytes read across every session (both wire versions).
    pub wire_bytes_in: Counter,
    /// Bytes written across every session (both wire versions).
    pub wire_bytes_out: Counter,
    /// Requests answered with `admission/overloaded` instead of being
    /// dispatched.
    pub requests_shed: Counter,
    served: AtomicBool,
}

impl TransportStats {
    /// Fresh zeroed counters.
    pub fn new() -> TransportStats {
        TransportStats::default()
    }

    /// Register the `transport` section; it reports nothing until a
    /// reactor serves the host.
    pub fn register(self: &Arc<Self>, reg: &mut Registry) {
        let t = Arc::clone(self);
        reg.collect(move |s| {
            if t.served.load(Ordering::Relaxed) {
                for (name, c) in [
                    ("transport.sessions_v0", &t.sessions_v0),
                    ("transport.sessions_v1", &t.sessions_v1),
                    ("transport.frames_in", &t.frames_in),
                    ("transport.frames_out", &t.frames_out),
                    ("transport.wire_bytes_in", &t.wire_bytes_in),
                    ("transport.wire_bytes_out", &t.wire_bytes_out),
                    ("transport.requests_shed", &t.requests_shed),
                ] {
                    s.counter(name, c.get());
                }
            }
        });
    }
}

/// Reactor configuration for [`serve_sessions_with`].
#[derive(Clone)]
pub struct NetConfig {
    /// Per-connection admission window: dispatched-but-unanswered
    /// requests beyond this are shed with `admission/overloaded`, and
    /// the socket is not read while the window is full.
    pub max_inflight: usize,
    /// Highest wire version `hello` may negotiate (0 pins every session
    /// to JSON lines; clamped to [`wire::WIRE_VERSION`]).
    pub max_wire: u32,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_inflight: DEFAULT_MAX_INFLIGHT,
            max_wire: wire::WIRE_VERSION as u32,
        }
    }
}

impl NetConfig {
    /// [`Default::default`], spelled for call chains.
    pub fn new() -> NetConfig {
        NetConfig::default()
    }

    /// Set the per-connection admission window (clamped to ≥ 1).
    pub fn max_inflight(mut self, n: usize) -> NetConfig {
        self.max_inflight = n.max(1);
        self
    }

    /// Set the highest negotiable wire version.
    pub fn max_wire(mut self, v: u32) -> NetConfig {
        self.max_wire = v.min(wire::WIRE_VERSION as u32);
        self
    }
}

/// [`serve_sessions`] with the local compile service as the host — the
/// classic `dahliac serve --listen` shape.
pub fn serve_listener(server: Arc<Server>, listener: TcpListener) -> io::Result<NetSummary> {
    serve_sessions(server, listener)
}

/// [`serve_sessions_with`] under the default [`NetConfig`].
pub fn serve_sessions<H>(host: Arc<H>, listener: TcpListener) -> io::Result<NetSummary>
where
    H: SessionHost + 'static,
{
    serve_sessions_with(host, listener, NetConfig::default())
}

/// Run the reactor: serve every connection until a client requests
/// shutdown, then drain in-flight work and return.
pub fn serve_sessions_with<H>(
    host: Arc<H>,
    listener: TcpListener,
    cfg: NetConfig,
) -> io::Result<NetSummary>
where
    H: SessionHost + 'static,
{
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let transport = host.transport();
    transport.served.store(true, Ordering::Relaxed);
    let mut reactor = Reactor {
        host,
        cfg,
        transport,
        mailbox: Arc::new(Mailbox {
            done: Mutex::new(Vec::new()),
            wake: wake_tx,
            reactor: std::thread::current().id(),
        }),
        wake_rx,
        conns: HashMap::new(),
        next_id: 0,
        draining: false,
        summary: NetSummary::default(),
    };
    reactor.run(&listener)
}

// ------------------------------------------------------ poll(2) via FFI
//
// std links libc on every unix target, so declaring `poll` ourselves
// adds no dependency. `nfds_t` is `c_ulong` (u64 on the 64-bit targets
// we serve on).

#[repr(C)]
pub(crate) struct PollFd {
    pub(crate) fd: i32,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
pub(crate) const POLLERR: i16 = 0x008;
pub(crate) const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    pub(crate) fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Poll timeout: an upper bound on reaction latency if a mailbox wake
/// is ever coalesced away; normal operation wakes via the pipe.
const POLL_TIMEOUT_MS: i32 = 200;

/// Completed dispatches: encoded reply bytes destined for one
/// connection's session, and whether the reply frees an admission-
/// window slot. Posted from worker and hop-reader threads, or from the
/// reactor itself when a host answers inline.
struct Mailbox {
    done: Mutex<Vec<(u64, Vec<u8>, bool)>>,
    wake: UnixStream,
    /// The reactor thread. It drains the mailbox before every `poll`,
    /// so its own posts need no wake.
    reactor: ThreadId,
}

impl Mailbox {
    fn post(&self, conn: u64, bytes: Vec<u8>, frees_slot: bool) {
        self.done.lock().unwrap().push((conn, bytes, frees_slot));
        if std::thread::current().id() != self.reactor {
            // A full pipe means a wake is already pending; losing this
            // write is fine.
            let _ = (&self.wake).write(&[1]);
        }
    }
}

struct Conn {
    stream: TcpStream,
    session: Session,
    /// Where this connection's replies go: the mailbox, tagged with
    /// its id.
    sink: Sink,
    /// Output taken from the session, and how much of it is written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Unrecoverable; reap without flushing.
    dead: bool,
}

impl Conn {
    fn has_output(&self) -> bool {
        self.wpos < self.wbuf.len() || self.session.has_output()
    }
}

struct Reactor<H: SessionHost + 'static> {
    host: Arc<H>,
    cfg: NetConfig,
    /// The host's transport counters.
    transport: Arc<TransportStats>,
    mailbox: Arc<Mailbox>,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    draining: bool,
    summary: NetSummary,
}

impl<H: SessionHost + 'static> Reactor<H> {
    fn run(&mut self, listener: &TcpListener) -> io::Result<NetSummary> {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        loop {
            self.reap();
            if self.draining && self.conns.is_empty() {
                return Ok(self.summary);
            }
            fds.clear();
            ids.clear();
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            fds.push(PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for (&id, c) in &self.conns {
                let mut events = 0i16;
                if c.session.wants_input() {
                    events |= POLLIN;
                }
                if c.has_output() {
                    events |= POLLOUT;
                }
                // Zero interest still reports ERR/HUP, so a paused or
                // draining session notices its peer vanishing.
                fds.push(PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                ids.push(id);
            }
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, POLL_TIMEOUT_MS) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            if fds[1].revents & POLLIN != 0 {
                let mut sink = [0u8; 256];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
            }
            self.apply_completions();
            if fds[0].revents & POLLIN != 0 {
                self.accept_all(listener);
            }
            for (i, &id) in ids.iter().enumerate() {
                let revents = fds[2 + i].revents;
                if revents == 0 {
                    continue;
                }
                if revents & (POLLERR | POLLNVAL) != 0 {
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.dead = true;
                    }
                    continue;
                }
                if revents & POLLIN != 0 {
                    self.read_conn(id);
                }
                if revents & POLLHUP != 0 {
                    // Peer fully closed. Anything still buffered or in
                    // flight gets a best-effort flush attempt; writes
                    // to a closed peer fail fast and mark the conn dead.
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.session.finish_input();
                    }
                    self.service(id);
                }
            }
            // Late completions (posted while we were reading) plus an
            // opportunistic flush: most responses go out the same
            // iteration they complete, without waiting a poll round.
            self.apply_completions();
            let pending: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.has_output() && !c.dead)
                .map(|(&id, _)| id)
                .collect();
            for id in pending {
                self.write_conn(id);
            }
        }
    }

    /// Drop finished connections: dead ones outright, and finished
    /// sessions once everything they owe is written.
    fn reap(&mut self) {
        let summary = &mut self.summary;
        self.conns.retain(|_, c| {
            let finished = c.session.is_done() && c.wpos == c.wbuf.len();
            let keep = !(c.dead || finished);
            if !keep {
                let s = c.session.summary();
                summary.lines += s.lines;
                summary.protocol_errors += s.protocol_errors;
            }
            keep
        });
    }

    /// Feed posted replies to their sessions until the mailbox is
    /// empty: servicing a session can dispatch ops that the host
    /// answers inline, and those replies, posted by this very thread
    /// without a wake, must go out before the next `poll`.
    fn apply_completions(&mut self) {
        loop {
            let done: Vec<(u64, Vec<u8>, bool)> =
                std::mem::take(&mut *self.mailbox.done.lock().unwrap());
            if done.is_empty() {
                return;
            }
            for (id, bytes, frees_slot) in done {
                // The connection may have died while its request was in
                // flight; the reply is simply dropped.
                if let Some(c) = self.conns.get_mut(&id) {
                    c.session.complete(bytes, frees_slot);
                    self.service(id);
                }
            }
        }
    }

    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.draining {
                        // Refuse new work: the stream drops, the client
                        // sees EOF.
                        continue;
                    }
                    // Setup failure (fd pressure) sheds this connection,
                    // never the service.
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.summary.connections += 1;
                    let mailbox = Arc::clone(&self.mailbox);
                    let session = Session::new(SessionConfig {
                        max_wire: self.cfg.max_wire,
                        window: self.cfg.max_inflight,
                        shed: true,
                        transport: Some(Arc::clone(&self.transport)),
                    });
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            session,
                            sink: Arc::new(move |bytes, frees_slot| {
                                mailbox.post(id, bytes, frees_slot)
                            }),
                            wbuf: Vec::new(),
                            wpos: 0,
                            dead: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_conn(&mut self, id: u64) {
        let mut scratch = [0u8; 64 * 1024];
        loop {
            let Some(c) = self.conns.get_mut(&id) else {
                return;
            };
            if c.dead || !c.session.wants_input() {
                return;
            }
            match c.stream.read(&mut scratch) {
                Ok(0) => {
                    c.session.finish_input();
                    self.service(id);
                    return;
                }
                Ok(n) => {
                    self.transport.wire_bytes_in.add(n as u64);
                    c.session.feed(&scratch[..n]);
                    self.service(id);
                    // At the admission cap the session stops wanting
                    // input: further bytes stay in the kernel buffer.
                    if n < scratch.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    return;
                }
            }
        }
    }

    /// Hand `id`'s newly parsed ops to the host, and start the
    /// server-wide drain if the session acknowledged a shutdown.
    fn service(&mut self, id: u64) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        while let Some(d) = c.session.next_dispatch() {
            d.run(&*self.host, &c.sink);
        }
        if c.session.shutdown_requested() && !self.draining {
            self.draining = true;
            for c in self.conns.values_mut() {
                c.session.close_input();
            }
        }
    }

    fn write_conn(&mut self, id: u64) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        loop {
            if c.wpos == c.wbuf.len() {
                if !c.session.has_output() {
                    return;
                }
                c.wbuf = c.session.take_output();
                c.wpos = 0;
            }
            match c.stream.write(&c.wbuf[c.wpos..]) {
                Ok(0) => {
                    c.dead = true;
                    return;
                }
                Ok(n) => {
                    c.wpos += n;
                    self.transport.wire_bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::json::Json;
    use crate::Server;

    const GOOD: &str = "let A: float[8 bank 8]; for (let i = 0..8) unroll 8 { A[i] := 2.0; }";

    fn spawn_server() -> (std::net::SocketAddr, std::thread::JoinHandle<NetSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::with_threads(2));
        let handle =
            std::thread::spawn(move || serve_listener(server, listener).expect("serve_listener"));
        (addr, handle)
    }

    #[test]
    fn tcp_roundtrip_and_graceful_shutdown() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect_retry(addr, 20).expect("connect");
        client
            .send_line(&format!(
                r#"{{"id":"t1","stage":"est","name":"k","source":"{GOOD}"}}"#
            ))
            .unwrap();
        let resp = client.recv_line().unwrap().expect("response line");
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("t1"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

        // A second connection shares the first connection's cache.
        let mut second = Client::connect(addr).expect("second connection");
        second
            .send_line(&format!(
                r#"{{"id":"t2","stage":"est","name":"k","source":"{GOOD}"}}"#
            ))
            .unwrap();
        let resp2 = second.recv_line().unwrap().expect("response");
        let v2 = Json::parse(&resp2).unwrap();
        assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(true));
        drop(second);

        let ack = client.shutdown_server().unwrap().expect("shutdown ack");
        assert!(ack.contains("shutdown"), "{ack}");
        drop(client);
        let summary = handle.join().expect("listener thread");
        assert_eq!(summary.connections, 2);
        assert_eq!(summary.lines, 3);
        assert_eq!(summary.protocol_errors, 0);
    }

    #[test]
    fn idle_connections_do_not_block_graceful_shutdown() {
        // Regression: an idle client parked in `read` must not hold the
        // listener open after another client requests shutdown, and
        // late connection attempts must be refused, not served.
        let (addr, handle) = spawn_server();
        let mut idle = Client::connect_retry(addr, 20).expect("idle client");
        let mut driver = Client::connect(addr).expect("driver client");
        driver.shutdown_server().unwrap().expect("ack");
        drop(driver);
        // The listener unblocks the idle session and returns; the idle
        // client sees a clean EOF.
        let summary = handle.join().expect("listener returned");
        assert_eq!(summary.connections, 2);
        assert_eq!(idle.recv_line().unwrap(), None, "idle client got EOF");
        // A post-shutdown connect may still reach the dying listener's
        // backlog, but it is never served: reads yield EOF at best.
        if let Ok(mut late) = Client::connect(addr) {
            let _ = late.send_line(r#"{"op":"stats"}"#);
            assert!(matches!(late.recv_line(), Ok(None) | Err(_)));
        }
    }

    #[test]
    fn shutdown_drains_in_flight_pipelined_requests() {
        // Regression: a shutdown arriving behind a pipelined burst must
        // not close sockets until every already-dispatched response has
        // been written back. Clients are owed an answer for everything
        // the server accepted.
        let (addr, handle) = spawn_server();
        let mut client = Client::connect_retry(addr, 20).expect("connect");
        let n = 16;
        for i in 0..n {
            // Distinct sources defeat the cache, so the pool genuinely
            // works all of them while the shutdown line is parsed.
            client
                .send_line(&format!(
                    r#"{{"id":"d{i}","stage":"est","name":"k{i}","source":"let A: float[8 bank 8]; for (let i = 0..8) unroll 8 {{ A[i] := {i}.5; }}"}}"#,
                ))
                .unwrap();
        }
        client.send_line(r#"{"op":"shutdown"}"#).unwrap();
        let mut responses = 0;
        let mut acked = false;
        while let Some(line) = client.recv_line().unwrap() {
            let v = Json::parse(&line).unwrap();
            if v.get("op").and_then(Json::as_str) == Some("shutdown") {
                acked = true;
            } else {
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
                responses += 1;
            }
        }
        assert!(acked, "shutdown was acknowledged");
        assert_eq!(responses, n, "every dispatched request was answered");
        let summary = handle.join().unwrap();
        assert_eq!(summary.lines, n as u64 + 1);
    }

    #[test]
    fn bursts_past_the_admission_window_are_shed_with_a_retry_hint() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::with_threads(2));
        let cfg = NetConfig::new().max_inflight(1);
        let transport = server.transport();
        let handle =
            std::thread::spawn(move || serve_sessions_with(server, listener, cfg).expect("serve"));

        // One write syscall delivers the whole burst ahead of any
        // completion, so the reactor parses past the window and must
        // shed the excess rather than queue without bound.
        let n = 64;
        let mut burst = String::new();
        for i in 0..n {
            burst.push_str(&format!(
                r#"{{"id":"b{i}","stage":"est","name":"k{i}","source":"let A: float[8 bank 8]; A[0] := 1.0;"}}"#
            ));
            burst.push('\n');
        }
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(burst.as_bytes()).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut answered = 0;
        let mut shed = 0;
        for _ in 0..n {
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
            let v = Json::parse(&line).unwrap();
            if v.get("ok").and_then(Json::as_bool) == Some(true) {
                answered += 1;
            } else {
                let err = v.get("error").expect("shed error object");
                assert_eq!(
                    err.get("code").and_then(Json::as_str),
                    Some("admission/overloaded"),
                    "{line}"
                );
                assert!(
                    err.get("retry_after_ms")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                        > 0.0,
                    "retry hint present: {line}"
                );
                shed += 1;
            }
        }
        assert_eq!(answered + shed, n, "every request got exactly one answer");
        assert!(shed >= 1, "the burst outran a window of one");
        assert_eq!(transport.requests_shed.get(), shed as u64);

        let mut driver = Client::connect(addr).expect("driver");
        driver.shutdown_server().unwrap().expect("ack");
        drop(driver);
        drop(reader);
        handle.join().unwrap();
    }

    /// Set in the child process of the idle-session test.
    #[cfg(target_os = "linux")]
    const IDLE_CHILD_ENV: &str = "DAHLIA_REACTOR_IDLE_CHILD";

    /// The child half of the idle-session test: a lone reactor in its
    /// own process, so its thread count is the reactor's alone. A no-op
    /// when run as an ordinary test.
    #[cfg(target_os = "linux")]
    #[test]
    fn idle_sessions_child() {
        if std::env::var_os(IDLE_CHILD_ENV).is_none() {
            return;
        }
        let (addr, handle) = spawn_server();
        println!("reactor-child-addr {addr}");
        handle.join().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn thousands_of_idle_sessions_hold_the_reactor_to_one_thread() {
        use std::io::BufRead as _;

        fn thread_count(pid: u32) -> usize {
            let status =
                std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
            status
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("Threads: line")
        }

        /// Never leave the child serving if an assertion fails.
        struct Reap(std::process::Child);
        impl Drop for Reap {
            fn drop(&mut self) {
                let _ = self.0.kill();
                let _ = self.0.wait();
            }
        }

        // The reactor runs in a child process: this test binary runs
        // other tests in parallel, so its own thread count says nothing.
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "net::tests::idle_sessions_child",
                "--nocapture",
                "--test-threads",
                "1",
            ])
            .env(IDLE_CHILD_ENV, "1")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn reactor child");
        let mut child = Reap(child);
        let pid = child.0.id();
        let mut lines = std::io::BufReader::new(child.0.stdout.take().unwrap()).lines();
        let addr: std::net::SocketAddr = lines
            .by_ref()
            .find_map(|l| {
                // libtest may print the test name on the same line.
                let l = l.ok()?;
                let (_, rest) = l.split_once("reactor-child-addr ")?;
                rest.split_whitespace().next()?.parse().ok()
            })
            .expect("child announced its address");

        // Warm one session so lazy per-process state is paid up front.
        let mut first = Client::connect_retry(addr, 20).expect("first session");
        first.send_line(r#"{"op":"stats"}"#).unwrap();
        first.recv_line().unwrap().expect("stats reply");

        // Each idle session costs one fd here and one in the child;
        // leave generous headroom under the soft rlimit.
        let mut limit = [0u64; 2];
        let rc = unsafe { getrlimit(RLIMIT_NOFILE, limit.as_mut_ptr()) };
        assert_eq!(rc, 0, "getrlimit");
        let budget = (limit[0].saturating_sub(128) / 2) as usize;
        let target = budget.min(2000);
        assert!(target >= 256, "fd rlimit too low to say anything useful");

        let before = thread_count(pid);
        let mut idle = Vec::with_capacity(target);
        for _ in 0..target {
            let s = std::net::TcpStream::connect(addr).expect("idle connect");
            idle.push(s);
        }
        // Prove the reactor has registered them: a live request round
        // trips while every idle session stays parked.
        first
            .send_line(&format!(
                r#"{{"id":"live","stage":"est","name":"k","source":"{GOOD}"}}"#
            ))
            .unwrap();
        let resp = first.recv_line().unwrap().expect("live response");
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        let after = thread_count(pid);
        assert_eq!(
            after, before,
            "{target} idle sessions spawned no threads ({before} before, {after} after)"
        );

        drop(idle);
        first.shutdown_server().unwrap().expect("ack");
        drop(first);
        for _ in lines {}
        child.0.wait().expect("reactor child exits");
    }

    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(target_os = "linux")]
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut u64) -> i32;
    }

    #[test]
    fn bad_lines_get_protocol_errors_not_disconnects() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect_retry(addr, 20).expect("connect");
        client.send_line("this is not json").unwrap();
        let err = client.recv_line().unwrap().expect("error line");
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        // The session survives the bad line.
        client
            .send_line(&format!(
                r#"{{"id":"ok","stage":"check","source":"{GOOD}"}}"#
            ))
            .unwrap();
        let resp = client.recv_line().unwrap().expect("good response");
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        client.shutdown_server().unwrap();
        drop(client);
        let summary = handle.join().unwrap();
        assert_eq!(summary.protocol_errors, 1);
    }
}
