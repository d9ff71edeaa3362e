//! The sans-IO session machine, tested without a transport.
//!
//! * **Chunking is invisible.** Feeding the same session bytes in any
//!   split — down to one byte at a time — yields the same host calls
//!   and the same output bytes, on the v0 JSON-lines wire and on the v1
//!   binary wire.
//! * **A window of one is strict order.** Control ops and requests are
//!   answered one at a time, in input order, whatever the chunking.
//! * **One line counter.** Blank lines count toward protocol-error
//!   `line` numbers on every transport: strict stdio, pipelined stdio,
//!   and TCP.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use dahlia_server::json::{obj, Json};
use dahlia_server::wire;
use dahlia_server::{
    serve_listener, ControlOp, Reply, Request, Respond, Server, Session, SessionConfig,
    SessionHost, Sink,
};

const GOOD: &str = "let A: float[8 bank 4]; for (let i = 0..8) unroll 4 { A[i] := 1.0; }";

fn request_line(id: Option<&str>) -> String {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", Json::Str(id.into())));
    }
    fields.push(("stage", Json::Str("check".into())));
    fields.push(("source", Json::Str(GOOD.into())));
    obj(fields).emit()
}

/// A host that answers on the calling thread and logs every call.
#[derive(Default)]
struct EchoHost {
    calls: Mutex<Vec<String>>,
}

impl SessionHost for EchoHost {
    fn dispatch(&self, req: Request, respond: Respond) {
        self.calls.lock().unwrap().push(format!("{req:?}"));
        respond(obj([("id", Json::Str(req.id)), ("ok", Json::Bool(true))]));
    }

    fn control(&self, op: ControlOp, reply: Reply) {
        self.calls.lock().unwrap().push(format!("{op:?}"));
        let name = format!("{op:?}");
        let name = name.split([' ', '(', '{']).next().unwrap().to_string();
        if matches!(op, ControlOp::Sweep(_)) {
            reply(
                obj([
                    ("host", Json::Str(name.clone())),
                    ("done", Json::Bool(false)),
                ]),
                false,
            );
        }
        reply(obj([("host", Json::Str(name))]), true);
    }
}

/// Encoded replies a [`Sink`] received: `(bytes, frees_slot)`.
type Replies = Arc<Mutex<Vec<(Vec<u8>, bool)>>>;

/// A sink that collects its replies for the test to complete later.
fn collecting_sink() -> (Sink, Replies) {
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink_got = Arc::clone(&got);
    let sink: Sink = Arc::new(move |bytes, last| sink_got.lock().unwrap().push((bytes, last)));
    (sink, got)
}

/// A v0 session exercising every kind of line: requests with and
/// without ids, a blank line, control ops (a streaming sweep among
/// them), a malformed line, `hello`, a CRLF line, and a final line
/// with no newline. Paired with the tag each answer line carries.
fn v0_script() -> (Vec<u8>, Vec<String>) {
    let sweep = r#"{"op":"sweep","id":"s","template":"let A: float[${b}];","params":{"b":[1]}}"#;
    let lines = [
        request_line(Some("r0")),
        String::new(),
        r#"{"op":"stats"}"#.to_string(),
        "not json".to_string(),
        r#"{"op":"trace"}"#.to_string(),
        request_line(None),
        r#"{"op":"hello","max_version":1}"#.to_string(),
        r#"{"op":"drain","shard":"a:1"}"#.to_string(),
        sweep.to_string(),
        format!("{}\r", request_line(Some("r9"))),
        r#"{"op":"alerts","since":1}"#.to_string(),
    ];
    let mut bytes = lines.join("\n").into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(request_line(Some("r11")).as_bytes());
    let tags = [
        "req:r0",
        "stats",
        "err:4",
        "trace",
        "req:req-5",
        "hello",
        "Admin",
        "Sweep",
        "Sweep",
        "req:r9",
        "alerts",
        "req:r11",
    ];
    (bytes, tags.iter().map(|t| t.to_string()).collect())
}

/// A v1 session: the `hello` switch, then request and control frames,
/// an undecodable request body, a malformed control op, an unknown
/// tag, and enough requests to overflow a small window.
fn v1_script() -> Vec<u8> {
    let mut bytes = b"{\"op\":\"hello\",\"max_version\":1}\n".to_vec();
    let request = |id: &str| {
        let v = Json::parse(&request_line(Some(id))).unwrap();
        wire::json_frame(wire::FRAME_REQUEST, &v)
    };
    bytes.extend(request("f1"));
    bytes.extend(wire::frame(wire::FRAME_CONTROL, br#"{"op":"stats"}"#));
    bytes.extend(wire::frame(wire::FRAME_REQUEST, &[0xff, 0x00]));
    bytes.extend(wire::frame(wire::FRAME_CONTROL, b"not json"));
    bytes.extend(wire::frame(9, b"?"));
    for i in 6..12 {
        bytes.extend(request(&format!("f{i}")));
    }
    bytes.extend(wire::frame(wire::FRAME_CONTROL, br#"{"op":"shutdown"}"#));
    bytes.extend(request("after-shutdown"));
    bytes
}

/// Feed `input` in chunks of the given sizes (cycled), answering every
/// dispatch only once all input is in — so the window fills, and sheds,
/// identically however the bytes were split. Returns the host's calls
/// and the session's output.
fn run_chunked(cfg: &SessionConfig, input: &[u8], sizes: &[usize]) -> (Vec<String>, Vec<u8>) {
    let host = EchoHost::default();
    let (sink, replies) = collecting_sink();
    let mut session = Session::new(cfg.clone());
    let mut rest = input;
    for &n in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(n.min(rest.len()));
        session.feed(chunk);
        rest = tail;
        while let Some(d) = session.next_dispatch() {
            d.run(&host, &sink);
        }
    }
    session.finish_input();
    while let Some(d) = session.next_dispatch() {
        d.run(&host, &sink);
    }
    for (bytes, last) in replies.lock().unwrap().drain(..) {
        session.complete(bytes, last);
    }
    assert!(session.next_dispatch().is_none());
    let output = session.take_output();
    assert!(session.is_done());
    (host.calls.into_inner().unwrap(), output)
}

fn socket_config(window: usize) -> SessionConfig {
    SessionConfig {
        max_wire: 1,
        window,
        shed: true,
        transport: None,
    }
}

/// The tag of one v0 answer line (see [`v0_script`]).
fn tag(line: &str) -> String {
    let v = Json::parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
    if let Some(err) = v.get("error") {
        return format!("err:{}", err.get("line").and_then(Json::as_u64).unwrap());
    }
    if let Some(id) = v.get("id").and_then(Json::as_str) {
        return format!("req:{id}");
    }
    if let Some(host) = v.get("host").and_then(Json::as_str) {
        return host.to_string();
    }
    let Json::Obj(fields) = &v else {
        panic!("`{line}`")
    };
    fields[0].0.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Any split of a v0 session's bytes yields the same host calls and
    /// output bytes as feeding it whole.
    #[test]
    fn v0_chunking_is_invisible(sizes in prop::collection::vec(1usize..=24, 1..=8)) {
        let (input, _) = v0_script();
        let cfg = socket_config(4);
        let whole = run_chunked(&cfg, &input, &[input.len()]);
        prop_assert_eq!(&run_chunked(&cfg, &input, &sizes), &whole);
        prop_assert_eq!(&run_chunked(&cfg, &input, &[1]), &whole);
    }

    /// The same on the v1 wire: the `hello` switch, frames split across
    /// feeds, framing errors, and shedding past the window.
    #[test]
    fn v1_chunking_is_invisible(sizes in prop::collection::vec(1usize..=24, 1..=8)) {
        let input = v1_script();
        let cfg = socket_config(4);
        let whole = run_chunked(&cfg, &input, &[input.len()]);
        prop_assert_eq!(&run_chunked(&cfg, &input, &sizes), &whole);
        prop_assert_eq!(&run_chunked(&cfg, &input, &[1]), &whole);
    }

    /// A window-1 session answers every line in input order, with never
    /// more than one op outstanding, however the input is split.
    #[test]
    fn window_one_answers_strictly_in_input_order(
        sizes in prop::collection::vec(1usize..=24, 1..=8)
    ) {
        let (input, tags) = v0_script();
        let host = EchoHost::default();
        let (sink, replies) = collecting_sink();
        let mut session = Session::new(SessionConfig {
            max_wire: 0,
            window: 1,
            shed: false,
            transport: None,
        });
        let mut rest = &input[..];
        let mut output = Vec::new();
        for &n in sizes.iter().cycle() {
            // Feed only while the session asks for input, the way the
            // stdio driver applies backpressure.
            if session.wants_input() {
                if rest.is_empty() {
                    session.finish_input();
                } else {
                    let (chunk, tail) = rest.split_at(n.min(rest.len()));
                    session.feed(chunk);
                    rest = tail;
                }
            }
            let ready: Vec<_> = std::iter::from_fn(|| session.next_dispatch()).collect();
            prop_assert!(ready.len() <= 1, "{} ops outstanding", ready.len());
            for d in ready {
                d.run(&host, &sink);
            }
            // Delayed replies: answered only after the session has had
            // the chance to (wrongly) parse ahead.
            let answered: Vec<_> = replies.lock().unwrap().drain(..).collect();
            for (bytes, last) in answered {
                session.complete(bytes, last);
            }
            output.extend(session.take_output());
            if session.is_done() {
                break;
            }
        }
        let text = String::from_utf8(output).unwrap();
        let got: Vec<String> = text.lines().map(tag).collect();
        prop_assert_eq!(got, tags);
    }
}

/// `"\n\nnot json\n"`: the malformed line is the third input line on
/// every transport, blank lines included.
#[test]
fn blank_lines_count_toward_error_line_numbers_on_every_transport() {
    const INPUT: &str = "\n\nnot json\n";
    let line_of = |answer: &str| {
        Json::parse(answer.trim())
            .unwrap()
            .get("error")
            .and_then(|e| e.get("line"))
            .and_then(Json::as_u64)
    };

    let server = Server::with_threads(1);
    let mut out = Vec::new();
    server.serve(INPUT.as_bytes(), &mut out).unwrap();
    assert_eq!(
        line_of(&String::from_utf8(out).unwrap()),
        Some(3),
        "strict stdio"
    );

    let mut out = Vec::new();
    server.serve_pipelined(INPUT.as_bytes(), &mut out).unwrap();
    assert_eq!(
        line_of(&String::from_utf8(out).unwrap()),
        Some(3),
        "pipelined stdio"
    );

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_listener(Arc::new(server), listener));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(INPUT.as_bytes()).unwrap();
    let mut answer = String::new();
    BufReader::new(&stream).read_line(&mut answer).unwrap();
    assert_eq!(line_of(&answer), Some(3), "TCP v0");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    drop(stream);
    handle.join().unwrap().unwrap();
}
