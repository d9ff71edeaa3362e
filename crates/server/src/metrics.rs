//! `--metrics <addr>`: a minimal, std-only HTTP endpoint exposing the
//! stats JSON, a Prometheus rendering of it, and a liveness probe.
//!
//! Routes:
//!
//! * `GET /metrics` — the same stats object the protocol's
//!   `{"op":"stats"}` control line returns, as JSON by default. With
//!   `?format=prometheus` or an `Accept:` header naming `text/plain`,
//!   the same metrics snapshot renders as Prometheus text exposition
//!   instead (histograms become real `_bucket`/`_sum`/`_count`
//!   families) — one endpoint, two consumers, no new port.
//! * `GET /healthz` — `200 OK` with a small liveness object (the
//!   host's answer to [`ControlOp::Health`] plus process uptime).
//! * Anything else is a `404`; a request line with no parsable
//!   `METHOD /path` is a `400`.
//!
//! One background thread accepts; each request is answered on a
//! short-lived connection thread and the socket closes after the
//! response (`Connection: close`), so the endpoint never holds state.
//!
//! The endpoint is deliberately read-only and unauthenticated — it
//! carries counters, never source text — and it runs for the life of
//! the process: scrapers keep working while the protocol listener is
//! draining a graceful shutdown.
//!
//! [`ControlOp::Health`]: crate::ControlOp::Health

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dahlia_obs::Snapshot;

use crate::json::Json;
use crate::obs_json;

/// The metrics source: the host's snapshot, read once per scrape.
pub type SnapshotFn = Arc<dyn Fn() -> Snapshot + Send + Sync>;

/// The liveness source: called once per `/healthz` probe.
pub type HealthFn = Arc<dyn Fn() -> Json + Send + Sync>;

/// Serve the HTTP endpoint on `listener` from a detached background
/// thread, for the life of the process. `stats` answers `/metrics`;
/// `health` answers `/healthz` (uptime is stamped on here).
pub fn spawn(listener: TcpListener, stats: SnapshotFn, health: HealthFn) -> std::io::Result<()> {
    let start = Instant::now();
    std::thread::Builder::new()
        .name("dahlia-metrics".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let stats = Arc::clone(&stats);
                let health = Arc::clone(&health);
                // A slow or stuck scraper must not block the accept
                // loop; spawn failure (thread exhaustion) sheds the
                // request, never the endpoint.
                let _ = std::thread::Builder::new()
                    .name("dahlia-metrics-conn".into())
                    .spawn(move || {
                        let _ = handle(stream, &stats, &health, start);
                    });
            }
        })?;
    Ok(())
}

fn handle(
    stream: TcpStream,
    stats: &SnapshotFn,
    health: &HealthFn,
    start: Instant,
) -> std::io::Result<()> {
    // A silent peer (port scanner, wedged scraper) must not park this
    // thread forever — the endpoint is unauthenticated and the process
    // lives long; leaked connection threads would accumulate without
    // bound. Symmetric on both directions: a peer that stops *reading*
    // mid-response parks the thread in `write` just as surely as one
    // that never sends a request parks it in `read`.
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request = String::new();
    reader.read_line(&mut request)?;
    // Drain the header block so well-behaved clients see a clean
    // close, keeping the Accept header for content negotiation.
    let mut accept = String::new();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
        if let Some(v) = header
            .split_once(':')
            .filter(|(k, _)| k.eq_ignore_ascii_case("accept"))
        {
            accept = v.1.trim().to_ascii_lowercase();
        }
    }
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = path
        .strip_suffix('/')
        .filter(|p| !p.is_empty())
        .unwrap_or(path);
    let mut out = stream;
    if method.is_empty() || target.is_empty() {
        return respond(&mut out, "400 Bad Request", "text/plain", "bad request\n");
    }
    match (method, path) {
        ("GET", "/metrics") => {
            let wants_prometheus = query.split('&').any(|kv| kv == "format=prometheus")
                || accept.contains("text/plain");
            if wants_prometheus {
                let body = dahlia_obs::prom::render(&stats());
                respond(
                    &mut out,
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &body,
                )
            } else {
                let body = format!("{}\n", obs_json::snapshot_to_json(&stats()).emit());
                respond(&mut out, "200 OK", "application/json", &body)
            }
        }
        ("GET", "/healthz") => {
            let mut h = health();
            if let Json::Obj(fields) = &mut h {
                fields.push((
                    "uptime_s".to_string(),
                    Json::Num(start.elapsed().as_secs() as f64),
                ));
            }
            let body = format!("{}\n", h.emit());
            respond(&mut out, "200 OK", "application/json", &body)
        }
        _ => respond(&mut out, "404 Not Found", "text/plain", "not found\n"),
    }
}

fn respond(out: &mut TcpStream, status: &str, ctype: &str, body: &str) -> std::io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;
    use std::io::Read as _;

    fn request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect metrics");
        write!(stream, "{raw}").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn body(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).expect("body")
    }

    fn endpoint() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hist = dahlia_obs::Histogram::new();
        for v in [3u64, 90, 2000] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let stats: SnapshotFn = Arc::new(move || {
            let mut s = Snapshot::new();
            s.counter("requests", 7);
            s.push(
                "hist.latency_us",
                dahlia_obs::Value::Histogram(snap.clone()),
            );
            s
        });
        let health: HealthFn = Arc::new(|| obj([("ok", Json::Bool(true))]));
        spawn(listener, stats, health).unwrap();
        addr
    }

    #[test]
    fn metrics_endpoint_serves_stats_json() {
        let addr = endpoint();
        let response = get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("Content-Type: application/json"));
        let v = Json::parse(body(&response).trim()).expect("json body");
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(7));

        // Anything else is a 404, and the endpoint survives to answer
        // the next scrape.
        assert!(get(addr, "/other").starts_with("HTTP/1.1 404"), "404 path");
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200"));
    }

    /// Every non-comment exposition line must be `name{labels} value`
    /// with a valid metric name and a parsable float — the shape any
    /// Prometheus scraper requires.
    fn assert_valid_exposition(text: &str) {
        assert!(!text.trim().is_empty(), "empty exposition");
        for line in text.lines() {
            if line.starts_with("# TYPE ") {
                let mut parts = line.split_whitespace().skip(2);
                assert!(
                    dahlia_obs::prom::valid_metric_name(parts.next().unwrap()),
                    "bad family name: {line}"
                );
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample line");
            let name = name_part.split('{').next().unwrap();
            assert!(
                dahlia_obs::prom::valid_metric_name(name),
                "bad metric name: {line}"
            );
            if let Some(labels) = name_part.strip_prefix(name) {
                if !labels.is_empty() {
                    assert!(
                        labels.starts_with('{') && labels.ends_with('}'),
                        "bad labels: {line}"
                    );
                }
            }
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value: {line}"));
        }
    }

    #[test]
    fn prometheus_format_negotiates_by_query_and_accept_header() {
        let addr = endpoint();
        let via_query = get(addr, "/metrics?format=prometheus");
        assert!(via_query.starts_with("HTTP/1.1 200 OK"), "{via_query}");
        assert!(via_query.contains("Content-Type: text/plain; version=0.0.4"));
        let text = body(&via_query);
        assert!(text.contains("# TYPE dahlia_requests gauge"));
        assert!(text.contains("dahlia_requests 7\n"));
        assert!(text.contains("# TYPE dahlia_hist_latency_us histogram"));
        assert!(text.contains("dahlia_hist_latency_us_count 3\n"));
        assert!(text.contains("le=\"+Inf\"} 3\n"));
        assert_valid_exposition(text);

        let via_accept = request(
            addr,
            "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: text/plain\r\n\r\n",
        );
        assert_eq!(body(&via_accept), text, "both negotiation paths agree");

        // JSON stays the default for scrapers that don't ask.
        let json = get(addr, "/metrics");
        assert!(Json::parse(body(&json).trim()).is_ok());
    }

    #[test]
    fn healthz_reports_liveness_and_uptime() {
        let addr = endpoint();
        let response = get(addr, "/healthz");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let v = Json::parse(body(&response).trim()).expect("health json");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert!(v.get("uptime_s").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn malformed_request_lines_get_400_not_a_hang() {
        let addr = endpoint();
        let response = request(addr, "\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        // The endpoint survives the abuse.
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200"));
    }
}
