//! JSON encodings for the `dahlia-obs` types.
//!
//! `dahlia-obs` is deliberately wire-agnostic; this module owns the
//! mapping between its plain-data types and the protocol's [`Json`]
//! values:
//!
//! * a metrics [`Snapshot`] encodes as the stats object
//!   ([`snapshot_to_json`]): dotted sample names become nested objects,
//!   tables become arrays of row objects. [`snapshot_from_json`] reads
//!   one back against a schema (a snapshot naming each sample and its
//!   kind) — how a gateway decodes its shards' stats replies before
//!   merging them;
//! * histograms encode as `{"count","sum","p50","p95","p99","buckets"}`
//!   where `buckets` is an object keyed by decimal upper bounds. The
//!   percentiles are derived at encode time from the buckets, so a
//!   merged snapshot encodes cluster percentiles correctly;
//! * spans and trace entries encode as the `trace` objects riding
//!   responses and the `{"op":"trace"}` journal dump.

use crate::json::{obj, Json};
use dahlia_obs::{
    AlertEvent, HistSnapshot, Journal, RingSnapshot, Row, RuleState, Snapshot, Span, Table,
    TraceEntry, Value,
};

/// Encode a histogram snapshot. Bucket counts become an object keyed by
/// the decimal upper bound (`{"1023": 7, ...}`); `p50`/`p95`/`p99` are
/// computed here, from the buckets.
pub fn hist_to_json(snap: &HistSnapshot) -> Json {
    let (p50, p95, p99) = snap.percentiles();
    obj([
        ("count", Json::Num(snap.count as f64)),
        ("sum", Json::Num(snap.sum as f64)),
        ("p50", Json::Num(p50)),
        ("p95", Json::Num(p95)),
        ("p99", Json::Num(p99)),
        (
            "buckets",
            Json::Obj(
                snap.buckets
                    .iter()
                    .map(|&(bound, count)| (bound.to_string(), Json::Num(count as f64)))
                    .collect(),
            ),
        ),
    ])
}

/// Decode a histogram object produced by [`hist_to_json`]. Returns
/// `None` unless the value has the histogram shape (`count`, `sum`, and
/// a `buckets` object). The wire does not carry the observed max, so
/// the top bucket's bound stands in for it: a bound no observation
/// exceeds, so percentiles derive from the buckets alone — and a merge
/// with an in-process snapshot can only clamp them to a true bound.
pub fn hist_from_json(v: &Json) -> Option<HistSnapshot> {
    let sum = v.get("sum")?.as_u64()?;
    v.get("count")?.as_u64()?;
    let Some(Json::Obj(buckets)) = v.get("buckets") else {
        return None;
    };
    let pairs = buckets
        .iter()
        .filter_map(|(bound, count)| Some((bound.parse::<u64>().ok()?, count.as_u64()?)));
    let mut snap = HistSnapshot::from_buckets(pairs, sum);
    snap.max = snap.buckets.last().map_or(0, |&(bound, _)| bound);
    Some(snap)
}

/// Encode one sample value.
fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Counter(n) => Json::Num(*n as f64),
        Value::Gauge(x) => Json::Num(*x),
        Value::Flag(b) => Json::Bool(*b),
        Value::Histogram(h) => hist_to_json(h),
        Value::Table(t) => Json::Arr(
            t.rows
                .iter()
                .map(|row| {
                    let mut fields = vec![(t.key.to_string(), Json::Str(row.label.clone()))];
                    fields.extend(
                        row.fields
                            .iter()
                            .map(|(k, v)| (k.to_string(), value_to_json(v))),
                    );
                    Json::Obj(fields)
                })
                .collect(),
        ),
    }
}

/// Encode a snapshot as the stats object: each dotted sample name
/// becomes a path of nested objects, in sample order.
pub fn snapshot_to_json(s: &Snapshot) -> Json {
    let mut root = Vec::new();
    for (name, value) in s.iter() {
        let mut fields = &mut root;
        let mut segs = name.split('.').peekable();
        while let Some(seg) = segs.next() {
            if segs.peek().is_none() {
                fields.push((seg.to_string(), value_to_json(value)));
                break;
            }
            let at = match fields.iter().position(|(k, _)| k == seg) {
                Some(i) => i,
                None => {
                    fields.push((seg.to_string(), Json::Obj(Vec::new())));
                    fields.len() - 1
                }
            };
            let Json::Obj(inner) = &mut fields[at].1 else {
                break;
            };
            fields = inner;
        }
    }
    Json::Obj(root)
}

/// Resolve a dotted path inside an encoded stats object.
fn at_path<'a>(v: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(v, |at, seg| at.get(seg))
}

/// Decode one sample of the same kind as `kind`; `None` when the
/// encoding does not hold that kind.
fn value_from_json(v: &Json, kind: &Value) -> Option<Value> {
    Some(match kind {
        Value::Counter(_) => Value::Counter(v.as_f64()? as u64),
        Value::Gauge(_) => Value::Gauge(v.as_f64()?),
        Value::Flag(_) => Value::Flag(v.as_bool()?),
        Value::Histogram(_) => Value::Histogram(hist_from_json(v)?),
        Value::Table(_) => return None,
    })
}

/// Read an encoded stats object back into a snapshot, sample by sample
/// in `schema` order: each of the schema's samples names a path and
/// the kind to read there (the encoder's own registry, snapshotted).
/// Paths the object lacks are skipped, and so is everything the schema
/// does not name.
pub fn snapshot_from_json(v: &Json, schema: &Snapshot) -> Snapshot {
    let mut s = Snapshot::new();
    for (name, kind) in schema.iter() {
        if let Some(value) = at_path(v, name).and_then(|x| value_from_json(x, kind)) {
            s.push(name, value);
        }
    }
    s
}

/// Encode one span as `{"name","us"[,"detail"]}`.
pub fn span_to_json(span: &Span) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(span.name.clone())),
        ("us".to_string(), Json::Num(span.us as f64)),
    ];
    if let Some(d) = &span.detail {
        fields.push(("detail".to_string(), Json::Str(d.clone())));
    }
    Json::Obj(fields)
}

/// Decode a span object (ignoring unknown fields). Returns `None` when
/// `name` or `us` is missing.
pub fn span_from_json(v: &Json) -> Option<Span> {
    let name = v.get("name")?.as_str()?.to_string();
    let us = v.get("us")?.as_u64()?;
    Some(Span {
        name,
        us,
        detail: v.get("detail").and_then(Json::as_str).map(str::to_string),
    })
}

/// Encode the `trace` object appended to a traced response:
/// `{"id":<trace id>,"spans":[...]}`.
pub fn trace_field(trace_id: &str, spans: &[Span]) -> Json {
    obj([
        ("id", Json::Str(trace_id.to_string())),
        ("spans", Json::Arr(spans.iter().map(span_to_json).collect())),
    ])
}

/// Encode one trace entry: for a slow-log capture its cursor first,
/// then the `trace` id when there is one (a slow capture of an
/// untraced request has none), outcome, wall time, and spans.
pub fn trace_entry_to_json(seq: Option<u64>, e: &TraceEntry) -> Json {
    let mut fields = Vec::new();
    fields.extend(seq.map(|seq| ("seq", Json::Num(seq as f64))));
    if !e.trace.is_empty() {
        fields.push(("trace", Json::Str(e.trace.clone())));
    }
    fields.extend([
        ("id", Json::Str(e.id.clone())),
        ("stage", Json::Str(e.stage.clone())),
        ("ok", Json::Bool(e.ok)),
        ("wall_us", Json::Num(e.wall_us as f64)),
        (
            "spans",
            Json::Arr(e.spans.iter().map(span_to_json).collect()),
        ),
    ]);
    obj(fields)
}

/// Encode a ring read: retention bound, lifetime eviction count, the
/// newest sequence number when the ring is polled by cursor (the next
/// `since`), any `extra` field, and the retained entries oldest-first.
fn ring_to_json<T>(
    snap: &RingSnapshot<T>,
    cursor: bool,
    extra: Option<(&'static str, Json)>,
    entry: impl Fn(u64, &T) -> Json,
) -> Json {
    let mut fields = vec![
        ("capacity", Json::Num(snap.capacity as f64)),
        ("dropped", Json::Num(snap.dropped as f64)),
    ];
    if cursor {
        fields.push(("last_seq", Json::Num(snap.last_seq as f64)));
    }
    fields.extend(extra);
    let entries = snap.entries.iter().map(|(seq, e)| entry(*seq, e));
    fields.push(("entries", Json::Arr(entries.collect())));
    obj(fields)
}

/// The `{"op":"trace"}` answer: the whole journal.
pub fn journal_to_json(journal: &Journal) -> Json {
    ring_to_json(&journal.since(0), false, None, |_, e| {
        trace_entry_to_json(None, e)
    })
}

/// The `{"op":"slowlog"}` answer: the captures past the poller's cursor.
pub fn slowlog_to_json(snap: &RingSnapshot<TraceEntry>) -> Json {
    ring_to_json(snap, true, None, |seq, e| trace_entry_to_json(Some(seq), e))
}

/// Encode one alert-journal entry. `detail` appears only when the
/// emitting host attached one (e.g. the drained shard's address).
pub fn alert_event_to_json(seq: u64, e: &AlertEvent) -> Json {
    let mut fields = vec![
        ("seq".to_string(), Json::Num(seq as f64)),
        ("t_ms".to_string(), Json::Num(e.t_ms as f64)),
        ("rule".to_string(), Json::Str(e.rule.clone())),
        ("event".to_string(), Json::Str(e.event.clone())),
        ("value".to_string(), Json::Num(e.value)),
    ];
    if !e.detail.is_empty() {
        fields.push(("detail".to_string(), Json::Str(e.detail.clone())));
    }
    Json::Obj(fields)
}

/// The per-rule state table: each row is a rule's text with its gauge
/// value (0 ok / 1 pending / 2 firing) and the last observed series
/// value. The `alert_state` stats section, exported to Prometheus as
/// `dahlia_alert_state{rule=...}` gauges of the state alone.
pub fn alert_states_table(states: &[RuleState]) -> Table {
    Table {
        key: "rule",
        label: "rule",
        export: Some("state"),
        rows: states
            .iter()
            .map(|s| Row {
                label: s.rule.clone(),
                fields: vec![
                    ("state", Value::Counter(s.state.gauge())),
                    ("value", Value::Gauge(s.value)),
                ],
            })
            .collect(),
    }
}

/// The `{"op":"alerts"}` answer: the per-rule state array, then the
/// transitions past the poller's cursor.
pub fn alertlog_to_json(snap: &RingSnapshot<AlertEvent>, states: &[RuleState]) -> Json {
    let states = value_to_json(&Value::Table(alert_states_table(states)));
    ring_to_json(snap, true, Some(("states", states)), alert_event_to_json)
}

/// Decode raw telemetry-ring records back into `(t_ms, stats)` JSON
/// samples, silently dropping any record that no longer parses (a
/// format change across versions reads as a gap, not an error — the
/// ring's checksums already rejected torn or corrupt bytes).
pub fn decode_samples(raw: Vec<(u64, Vec<u8>)>) -> Vec<(u64, Json)> {
    raw.into_iter()
        .filter_map(|(t, payload)| {
            let text = String::from_utf8(payload).ok()?;
            Json::parse(&text).ok().map(|stats| (t, stats))
        })
        .collect()
}

/// Build the `{"op":"history"}` answer from the raw `(t_ms, stats)`
/// samples recovered off the telemetry ring.
///
/// `kind` is a sample of the series' kind in the host's own registry
/// (records written before the series existed simply lack it). Scalar
/// series
/// downsample to per-`step` bins of min/max/mean
/// ([`dahlia_obs::downsample`]); histogram series merge their buckets
/// per bin and derive p50/p95/p99 from the merged counts — the same
/// merge-then-quantile discipline as the cluster merge, because
/// percentiles do not average across samples any more than they sum
/// across shards.
pub fn history_to_json(
    series: &str,
    kind: &Value,
    since: u64,
    step: u64,
    samples: &[(u64, Json)],
) -> Json {
    let mut scalar: Vec<(u64, f64)> = Vec::new();
    let mut hists: Vec<(u64, HistSnapshot)> = Vec::new();
    for (t, stats) in samples {
        match at_path(stats, series).and_then(|v| value_from_json(v, kind)) {
            Some(Value::Histogram(h)) => hists.push((*t, h)),
            Some(v) => scalar.extend(v.as_f64().map(|n| (*t, n))),
            None => {}
        }
    }
    let points: Vec<Json> = if !scalar.is_empty() {
        dahlia_obs::downsample(&scalar, since, step)
            .iter()
            .map(|b| {
                obj([
                    ("t_ms", Json::Num(b.t_ms as f64)),
                    ("count", Json::Num(b.count as f64)),
                    ("min", Json::Num(b.min)),
                    ("max", Json::Num(b.max)),
                    ("mean", Json::Num(b.mean)),
                ])
            })
            .collect()
    } else {
        // Histogram series: fold each bin's snapshots together, then
        // quantile the merged buckets.
        let mut bins: Vec<(u64, u64, HistSnapshot)> = Vec::new();
        for (t, h) in hists {
            if t < since {
                continue;
            }
            let start = if step == 0 { t } else { t - t % step };
            match bins.last_mut() {
                Some((bt, n, acc)) if step != 0 && *bt == start => {
                    acc.merge(&h);
                    *n += 1;
                }
                _ => bins.push((start, 1, h)),
            }
        }
        bins.iter()
            .map(|(t, n, h)| {
                let (p50, p95, p99) = h.percentiles();
                obj([
                    ("t_ms", Json::Num(*t as f64)),
                    ("count", Json::Num(*n as f64)),
                    ("observations", Json::Num(h.count as f64)),
                    ("p50", Json::Num(p50)),
                    ("p95", Json::Num(p95)),
                    ("p99", Json::Num(p99)),
                ])
            })
            .collect()
    };
    obj([
        ("series", Json::Str(series.into())),
        ("since", Json::Num(since as f64)),
        ("step", Json::Num(step as f64)),
        ("samples", Json::Num(samples.len() as f64)),
        ("points", Json::Arr(points)),
    ])
}

/// Splice gateway-side spans in front of the span list of a response's
/// `trace` object (inserting the object if the response has none — a
/// shard that predates tracing answered). The response keeps its field
/// order; `trace` stays the trailing field.
pub fn prepend_trace_spans(resp: &mut Json, trace_id: &str, spans: &[Span]) {
    if spans.is_empty() {
        return;
    }
    let Json::Obj(fields) = resp else { return };
    let mut prefixed: Vec<Json> = spans.iter().map(span_to_json).collect();
    match fields.iter_mut().find(|(k, _)| k == "trace") {
        Some((_, Json::Obj(trace_fields))) => {
            match trace_fields.iter_mut().find(|(k, _)| k == "spans") {
                Some((_, Json::Arr(existing))) => {
                    prefixed.append(existing);
                    *existing = prefixed;
                }
                _ => trace_fields.push(("spans".to_string(), Json::Arr(prefixed))),
            }
        }
        _ => fields.push(("trace".to_string(), trace_field(trace_id, spans))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dahlia_obs::Histogram;

    #[test]
    fn hist_roundtrips_through_json() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 500, 501] {
            h.record(v);
        }
        let snap = h.snapshot();
        let v = hist_to_json(&snap);
        let back = hist_from_json(&v).expect("hist shape");
        assert_eq!(back.buckets, snap.buckets);
        assert_eq!(back.count, snap.count);
        assert_eq!(back.sum, snap.sum);
        let unclamped = HistSnapshot::from_buckets(snap.buckets.iter().copied(), snap.sum);
        assert_eq!(back.percentiles(), unclamped.percentiles(), "buckets alone");
    }

    #[test]
    fn snapshots_encode_nested_and_decode_against_their_schema() {
        let h = Histogram::new();
        h.record(90);
        let mut s = Snapshot::new();
        s.counter("requests", 3);
        s.gauge("window.rate", 0.5);
        s.push("window.latency_us", Value::Histogram(h.snapshot()));
        s.push("up", Value::Flag(true));
        let v = snapshot_to_json(&s);
        assert_eq!(
            v.emit(),
            r#"{"requests":3,"window":{"rate":0.5,"latency_us":{"count":1,"sum":90,"p50":90,"p95":90,"p99":90,"buckets":{"127":1}}},"up":true}"#
        );
        let back = snapshot_from_json(&v, &s);
        let names = |s: &Snapshot| s.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&back), names(&s));
        assert_eq!(back.value("requests"), Some(3.0));
        // The schema decides what is read: unnamed paths are skipped.
        let mut schema = Snapshot::new();
        schema.counter("requests", 0);
        assert_eq!(snapshot_from_json(&v, &schema).iter().count(), 1);
    }

    #[test]
    fn spans_roundtrip() {
        let s = Span::with_detail("stage:parse", 42, "computed");
        assert_eq!(span_from_json(&span_to_json(&s)), Some(s));
        let bare = Span::new("queue", 7);
        assert_eq!(span_from_json(&span_to_json(&bare)), Some(bare));
    }

    #[test]
    fn prepend_inserts_or_splices() {
        let shard_span = Span::with_detail("stage:est", 10, "memory");
        let gw = [Span::new("shard:127.0.0.1:1", 33)];

        // Response already carrying a trace: gateway spans go first.
        let mut resp = obj([
            ("id", Json::Str("r1".into())),
            ("trace", trace_field("t1", &[shard_span])),
        ]);
        prepend_trace_spans(&mut resp, "t1", &gw);
        let spans = resp.get("trace").unwrap().get("spans").unwrap();
        let Json::Arr(spans) = spans else { panic!() };
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].get("name").unwrap().as_str(),
            Some("shard:127.0.0.1:1")
        );

        // No trace object yet: one is appended.
        let mut bare = obj([("id", Json::Str("r2".into()))]);
        prepend_trace_spans(&mut bare, "t9", &gw);
        assert_eq!(
            bare.get("trace").unwrap().get("id").unwrap().as_str(),
            Some("t9")
        );
    }

    mod properties {
        use super::*;
        use dahlia_obs::{Counter, Gauge, Registry};
        use proptest::prelude::*;
        use std::sync::Arc;

        /// One host's worth of metrics: a counter, a gauge, and a
        /// histogram, registered the way hosts register them.
        fn host() -> (Registry, Counter, Gauge, Arc<Histogram>) {
            let mut reg = Registry::new();
            let (c, g, h) = (Counter::new(), Gauge::new(0.0), Arc::new(Histogram::new()));
            reg.counter("requests", &c);
            let gauge = g.clone();
            reg.collect(move |s| s.gauge("window.rate", gauge.get()));
            reg.histogram("hist.latency_us", &h);
            (reg, c, g, h)
        }

        /// Record `obs` split across `k` hosts and into one host that
        /// sees everything.
        fn record(obs: &[(usize, u64, u64)], k: usize) -> (Vec<Snapshot>, Snapshot) {
            let parts: Vec<_> = (0..k).map(|_| host()).collect();
            let all = host();
            for &(i, v, n) in obs {
                for (_, c, g, h) in [&parts[i % k], &all] {
                    c.add(n);
                    g.set(g.get() + n as f64);
                    h.record(v);
                }
            }
            let snaps = parts.iter().map(|(reg, ..)| reg.snapshot()).collect();
            (snaps, all.0.snapshot())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// k registries' snapshots, merged and encoded, equal the
            /// one registry that recorded every observation: counts,
            /// sums, buckets, and p50/p95/p99.
            #[test]
            fn merged_snapshots_encode_like_one_registry(
                obs in prop::collection::vec((0usize..8, 0u64..1_000_000, 0u64..1000), 0..200),
                k in 1usize..5,
            ) {
                let (parts, all) = record(&obs, k);
                let mut merged = Snapshot::new();
                for s in &parts {
                    merged.merge(s);
                }
                prop_assert_eq!(snapshot_to_json(&merged).emit(), snapshot_to_json(&all).emit());
            }

            /// The same through the wire, as a gateway merges its
            /// shards: decode each encoded part against the schema,
            /// merge, encode — equal to the whole decoded the same way.
            #[test]
            fn decoded_snapshots_merge_like_one_registry(
                obs in prop::collection::vec((0usize..8, 0u64..1_000_000, 0u64..1000), 0..200),
                k in 1usize..5,
            ) {
                let (parts, all) = record(&obs, k);
                let wire = |s: &Snapshot| snapshot_from_json(&snapshot_to_json(s), &all);
                let mut merged = Snapshot::new();
                for s in &parts {
                    merged.merge(&wire(s));
                }
                prop_assert_eq!(
                    snapshot_to_json(&merged).emit(),
                    snapshot_to_json(&wire(&all)).emit()
                );
            }
        }
    }
}
