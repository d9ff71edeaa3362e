//! The JSON-lines request/response protocol.
//!
//! One request object per input line, one response object per output
//! line, in order. Field order in responses is fixed (and pinned by the
//! golden tests): `id`, `stage`, `ok`, `cached`, `latency_us`, then the
//! stage payload (`estimate`, `report`, `cpp`, `ir`, `pretty`) or
//! `error`.
//!
//! ```text
//! → {"id":"r1","stage":"est","name":"scale","source":"let A: float[8 bank 8]; ..."}
//! ← {"id":"r1","stage":"est","ok":true,"cached":false,"latency_us":412,"estimate":{...}}
//! → {"op":"stats"}
//! ← {"stats":{"requests":1,...}}
//! ```

use hls_sim::StableDigest;

use crate::codec;
use crate::json::{obj, Json};
use crate::pipeline::{Artifact, Options, Stage};
use crate::store::CacheValue;

/// One compilation request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed back verbatim.
    pub id: String,
    /// Terminal stage to produce.
    pub stage: Stage,
    /// Dahlia source text.
    pub source: String,
    /// Options participating in the cache key.
    pub options: Options,
    /// Trace id, when the caller asked for a span breakdown. Sent as
    /// `"trace":"<id>"` (or `"trace":true` to have the service mint an
    /// id); propagated gateway → shard, echoed in the response's
    /// `trace` object, and retained in the host's trace journal.
    pub trace: Option<String>,
}

impl Request {
    /// Build a request.
    pub fn new(
        id: impl Into<String>,
        stage: Stage,
        source: impl Into<String>,
        kernel_name: impl Into<String>,
    ) -> Request {
        Request {
            id: id.into(),
            stage,
            source: source.into(),
            options: Options::named(kernel_name),
            trace: None,
        }
    }

    /// The same request with tracing enabled under `trace_id`.
    pub fn traced(mut self, trace_id: impl Into<String>) -> Request {
        self.trace = Some(trace_id.into());
        self
    }

    /// An `est` request with default options.
    pub fn estimate(id: impl Into<String>, source: impl Into<String>) -> Request {
        Request::new(id, Stage::Estimate, source, "kernel")
    }

    /// Encode as a request object (the client side of the protocol;
    /// [`Request::from_json`] is the server side).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("stage".to_string(), Json::Str(self.stage.name().into())),
            (
                "name".to_string(),
                Json::Str(self.options.kernel_name.clone()),
            ),
            ("source".to_string(), Json::Str(self.source.clone())),
        ];
        if let Some(trace) = &self.trace {
            fields.push(("trace".to_string(), Json::Str(trace.clone())));
        }
        Json::Obj(fields)
    }

    /// [`Request::to_json`], emitted as a compact line.
    pub fn to_line(&self) -> String {
        self.to_json().emit()
    }

    /// Decode one protocol line. `seq` numbers requests with no `id`.
    pub fn from_line(line: &str, seq: u64) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        Request::from_json(&v, seq)
    }

    /// Decode an already-parsed request object. `seq` numbers requests
    /// with no `id`.
    pub fn from_json(v: &Json, seq: u64) -> Result<Request, String> {
        let id = match v.get("id") {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => Json::Num(*n).emit(),
            Some(other) => return Err(format!("bad id: {}", other.emit())),
            None => format!("req-{seq}"),
        };
        let stage = match v.get("stage") {
            Some(Json::Str(s)) => {
                Stage::from_name(s).ok_or_else(|| format!("unknown stage `{s}`"))?
            }
            Some(other) => return Err(format!("bad stage: {}", other.emit())),
            None => Stage::Estimate,
        };
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or("missing `source`")?
            .to_string();
        let name = v.get("name").and_then(Json::as_str).unwrap_or("kernel");
        let trace = match v.get("trace") {
            Some(Json::Str(s)) if !s.is_empty() => Some(s.clone()),
            // `"trace":true` asks the service to mint the id.
            Some(Json::Bool(true)) => Some(dahlia_obs::next_trace_id()),
            Some(Json::Bool(false)) | Some(Json::Null) | None => None,
            Some(other) => return Err(format!("bad trace: {}", other.emit())),
        };
        Ok(Request {
            id,
            stage,
            source,
            options: Options::named(name),
            trace,
        })
    }
}

/// One compilation response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed request id.
    pub id: String,
    /// The stage that was requested.
    pub stage: Stage,
    /// Served without computing *this* request's terminal stage
    /// (cache hit or single-flight join).
    pub cached: bool,
    /// Wall-clock service time for this request, in microseconds.
    pub latency_us: u64,
    /// The artifact, or the diagnostic that rejected the program.
    pub value: CacheValue,
    /// The span breakdown for a traced request
    /// (`{"id":...,"spans":[...]}`), appended as the trailing `trace`
    /// field. `None` for untraced requests — the response line is then
    /// byte-identical to the pre-tracing protocol.
    pub trace: Option<Json>,
}

impl Response {
    /// Did the request succeed?
    pub fn ok(&self) -> bool {
        self.value.is_ok()
    }

    /// The estimate payload, when this was a successful `est` request.
    pub fn estimate(&self) -> Option<&hls_sim::Estimate> {
        match &self.value {
            Ok(Artifact::Estimate(e)) => Some(e),
            _ => None,
        }
    }

    /// Encode as one protocol line (no trailing newline).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("stage".into(), Json::Str(self.stage.name().into())),
            ("ok".into(), Json::Bool(self.ok())),
            ("cached".into(), Json::Bool(self.cached)),
            ("latency_us".into(), Json::Num(self.latency_us as f64)),
        ];
        match &self.value {
            Ok(artifact) => fields.push(payload_field(artifact)),
            Err(d) => fields.push((
                "error".into(),
                obj([
                    ("phase", Json::Str(d.phase.name().into())),
                    ("code", Json::Str(d.code.into())),
                    ("message", Json::Str(d.message.clone())),
                    ("line", Json::Num(d.span.line as f64)),
                    ("col", Json::Num(d.span.col as f64)),
                ]),
            )),
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace".into(), trace.clone()));
        }
        Json::Obj(fields)
    }

    /// [`Response::to_json`], emitted as a compact line.
    pub fn to_line(&self) -> String {
        self.to_json().emit()
    }
}

fn payload_field(artifact: &Artifact) -> (String, Json) {
    match artifact {
        Artifact::Ast(p) | Artifact::Desugared(p) => {
            ("pretty".into(), Json::Str(dahlia_core::pretty::program(p)))
        }
        Artifact::Check(r) => ("report".into(), codec::check_to_json(r)),
        Artifact::Ir(k) => (
            "ir".into(),
            obj([
                ("name", Json::Str(k.name.clone())),
                ("arrays", Json::Num(k.arrays.len() as f64)),
                ("stmts", Json::Num(k.body.len() as f64)),
                ("digest", Json::Str(format!("{:032x}", k.stable_digest()))),
            ]),
        ),
        Artifact::Cpp(text) => ("cpp".into(), Json::Str((**text).clone())),
        Artifact::Estimate(e) => ("estimate".into(), codec::estimate_to_json(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_decoding_defaults() {
        let r = Request::from_line(r#"{"source":"let x = 1;"}"#, 7).unwrap();
        assert_eq!(r.id, "req-7");
        assert_eq!(r.stage, Stage::Estimate);
        assert_eq!(r.options.kernel_name, "kernel");

        let r = Request::from_line(
            r#"{"id":"a","stage":"check","source":"let x = 1;","name":"k"}"#,
            0,
        )
        .unwrap();
        assert_eq!((r.id.as_str(), r.stage), ("a", Stage::Check));
        assert_eq!(r.options.kernel_name, "k");
    }

    #[test]
    fn request_decoding_rejects_garbage() {
        assert!(Request::from_line("not json", 0).is_err());
        assert!(Request::from_line(r#"{"stage":"bogus","source":""}"#, 0).is_err());
        assert!(
            Request::from_line(r#"{"stage":"est"}"#, 0).is_err(),
            "missing source"
        );
        assert!(Request::from_line(r#"{"id":[1],"source":""}"#, 0).is_err());
    }

    #[test]
    fn requests_roundtrip_through_the_wire_format() {
        let r = Request::new("c7", Stage::Cpp, "let x = 1;", "scale");
        let back = Request::from_line(&r.to_line(), 0).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn trace_field_decodes_roundtrips_and_stays_optional() {
        // Explicit id rides the wire verbatim, both directions.
        let r = Request::new("c7", Stage::Cpp, "let x = 1;", "scale").traced("t-abc");
        assert!(
            r.to_line().ends_with(r#""trace":"t-abc"}"#),
            "{}",
            r.to_line()
        );
        let back = Request::from_line(&r.to_line(), 0).unwrap();
        assert_eq!(back, r);

        // `"trace":true` mints an id; false/null/absent disable tracing.
        let minted = Request::from_line(r#"{"source":"let x = 1;","trace":true}"#, 0).unwrap();
        assert!(minted.trace.is_some());
        for line in [
            r#"{"source":"let x = 1;","trace":false}"#,
            r#"{"source":"let x = 1;","trace":null}"#,
            r#"{"source":"let x = 1;"}"#,
        ] {
            assert_eq!(Request::from_line(line, 0).unwrap().trace, None, "{line}");
        }
        assert!(Request::from_line(r#"{"source":"","trace":7}"#, 0).is_err());
    }

    #[test]
    fn numeric_ids_are_echoed_as_text() {
        let r = Request::from_line(r#"{"id":42,"source":"let x = 1;"}"#, 0).unwrap();
        assert_eq!(r.id, "42");
    }
}
