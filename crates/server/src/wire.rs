//! The v1 binary wire encoding and frame layout.
//!
//! One compact, self-describing binary encoding of the [`Json`] value
//! tree serves two masters:
//!
//! * **the wire** — v1 sessions (negotiated via the `hello` control op,
//!   see `docs/PROTOCOL.md` §5) exchange length-prefixed frames whose
//!   bodies are binary-encoded request/response objects instead of JSON
//!   text lines;
//! * **the disk** — the artifact tier persists `codec::encode` envelopes
//!   of `check`, `cpp` and `est` results through [`to_bytes`] (see
//!   [`crate::codec::encode_bin`]), cutting entry sizes versus the JSON
//!   text they used to hold.
//!
//! Both consumers decode through [`from_bytes`], which never panics on
//! malformed input: truncation, trailing garbage, bad UTF-8, or absurd
//! lengths all yield `None`, and callers degrade (recompute the cache
//! entry, raise a protocol error) rather than crash.
//!
//! # Value encoding
//!
//! A value is one tag byte followed by its payload. Lengths and counts
//! are unsigned LEB128 varints.
//!
//! | tag | value | payload |
//! |-----|-------|---------|
//! | `0` | null  | — |
//! | `1` | false | — |
//! | `2` | true  | — |
//! | `3` | number | 8 bytes, IEEE-754 f64, little-endian |
//! | `4` | string | varint byte length, then UTF-8 bytes |
//! | `5` | array  | varint element count, then each element |
//! | `6` | object | varint entry count, then (varint key length, key UTF-8, value) per entry |
//!
//! Object key order is preserved, so a JSON→binary→JSON round trip emits
//! byte-identical text — the property tests in `protocol.rs` lean on
//! this to prove the two codecs agree.
//!
//! # Frame layout
//!
//! A frame is `u32` little-endian length (counting everything after the
//! length word), one tag byte, then the body:
//!
//! | frame tag | body |
//! |-----------|------|
//! | [`FRAME_REQUEST`] | binary-encoded request object |
//! | [`FRAME_RESPONSE`] | binary-encoded response object |
//! | [`FRAME_CONTROL`] | UTF-8 JSON text of a control/admin op (no newline) |
//! | [`FRAME_CONTROL_REPLY`] | UTF-8 JSON text of a control/admin reply (no newline) |
//!
//! Control ops stay JSON text even on v1 sessions: they are rare, tiny,
//! and keeping them textual means the control-plane grammar (and its
//! golden tests) exist exactly once.

use crate::json::Json;

/// Highest wire protocol version this build speaks. Version 0 is the
/// JSON-lines protocol; version 1 adds binary framing.
pub const WIRE_VERSION: u64 = 1;

/// Frame tag: a compile request, body is a binary-encoded request object.
pub const FRAME_REQUEST: u8 = 1;

/// Frame tag: a compile response, body is a binary-encoded response object.
pub const FRAME_RESPONSE: u8 = 2;

/// Frame tag: a control/admin op, body is JSON text (no trailing newline).
pub const FRAME_CONTROL: u8 = 3;

/// Frame tag: a control/admin reply, body is JSON text (no trailing newline).
pub const FRAME_CONTROL_REPLY: u8 = 4;

/// Upper bound on a single frame's length field. Anything larger is a
/// protocol error (or a corrupted stream), not a real payload.
pub const MAX_FRAME: usize = 64 << 20;

/// Decode recursion guard: deeper nesting than this is rejected rather
/// than risking a stack overflow on hostile input.
const MAX_DEPTH: u32 = 512;

const T_NULL: u8 = 0;
const T_FALSE: u8 = 1;
const T_TRUE: u8 = 2;
const T_NUM: u8 = 3;
const T_STR: u8 = 4;
const T_ARR: u8 = 5;
const T_OBJ: u8 = 6;

// ------------------------------------------------------------- values

/// Serialize a [`Json`] value into the binary encoding.
pub fn to_bytes(v: &Json) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    write_value(v, &mut out);
    out
}

/// Deserialize a binary-encoded [`Json`] value. `None` if the input is
/// truncated, has trailing bytes, or is structurally malformed — never
/// panics.
pub fn from_bytes(bytes: &[u8]) -> Option<Json> {
    let mut pos = 0usize;
    let v = read_value(bytes, &mut pos, 0)?;
    if pos == bytes.len() {
        Some(v)
    } else {
        None
    }
}

fn write_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut n = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None;
        }
        n |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(n);
        }
        shift += 7;
    }
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    write_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = read_varint(bytes, pos)?;
    let len = usize::try_from(len).ok()?;
    let end = pos.checked_add(len)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    String::from_utf8(slice.to_vec()).ok()
}

fn write_value(v: &Json, out: &mut Vec<u8>) {
    match v {
        Json::Null => out.push(T_NULL),
        Json::Bool(false) => out.push(T_FALSE),
        Json::Bool(true) => out.push(T_TRUE),
        Json::Num(n) => {
            out.push(T_NUM);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Json::Str(s) => {
            out.push(T_STR);
            write_str(s, out);
        }
        Json::Arr(items) => {
            out.push(T_ARR);
            write_varint(items.len() as u64, out);
            for item in items {
                write_value(item, out);
            }
        }
        Json::Obj(entries) => {
            out.push(T_OBJ);
            write_varint(entries.len() as u64, out);
            for (key, value) in entries {
                write_str(key, out);
                write_value(value, out);
            }
        }
    }
}

fn read_value(bytes: &[u8], pos: &mut usize, depth: u32) -> Option<Json> {
    if depth > MAX_DEPTH {
        return None;
    }
    let tag = *bytes.get(*pos)?;
    *pos += 1;
    match tag {
        T_NULL => Some(Json::Null),
        T_FALSE => Some(Json::Bool(false)),
        T_TRUE => Some(Json::Bool(true)),
        T_NUM => {
            let end = pos.checked_add(8)?;
            let raw: [u8; 8] = bytes.get(*pos..end)?.try_into().ok()?;
            *pos = end;
            Some(Json::Num(f64::from_le_bytes(raw)))
        }
        T_STR => Some(Json::Str(read_str(bytes, pos)?)),
        T_ARR => {
            let count = read_varint(bytes, pos)?;
            // Remaining input bounds the plausible count: each element
            // is at least one byte, so a huge count on a short buffer is
            // garbage and must not pre-allocate.
            if count > (bytes.len() - *pos) as u64 {
                return None;
            }
            let mut items = Vec::with_capacity(count as usize);
            for _ in 0..count {
                items.push(read_value(bytes, pos, depth + 1)?);
            }
            Some(Json::Arr(items))
        }
        T_OBJ => {
            let count = read_varint(bytes, pos)?;
            if count > (bytes.len() - *pos) as u64 {
                return None;
            }
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let key = read_str(bytes, pos)?;
                let value = read_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
            }
            Some(Json::Obj(entries))
        }
        _ => None,
    }
}

// ------------------------------------------------------------- frames

/// Assemble a complete frame: length word, tag byte, body.
pub fn frame(tag: u8, body: &[u8]) -> Vec<u8> {
    let len = (body.len() + 1) as u32;
    let mut out = Vec::with_capacity(4 + body.len() + 1);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(body);
    out
}

/// Assemble a frame whose body is the binary encoding of `v`.
pub fn json_frame(tag: u8, v: &Json) -> Vec<u8> {
    frame(tag, &to_bytes(v))
}

/// A frame split off a buffer: `(tag, body, bytes consumed)`.
pub type Frame<'a> = (u8, &'a [u8], usize);

/// Try to split one frame off the front of `buf`.
///
/// * `Ok(Some((tag, body, consumed)))` — a complete frame; the caller
///   should drop the first `consumed` bytes of its buffer.
/// * `Ok(None)` — the buffer holds only a partial frame; read more.
/// * `Err(..)` — the stream is unrecoverable (zero-length or oversized
///   frame); the caller should fail the session.
pub fn split_frame(buf: &[u8]) -> Result<Option<Frame<'_>>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 {
        return Err("zero-length frame".into());
    }
    if len > MAX_FRAME {
        return Err(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((buf[4], &buf[4 + 1..4 + len], 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn roundtrip(v: &Json) -> Json {
        from_bytes(&to_bytes(v)).expect("roundtrips")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-1.5),
            Json::Num(1e308),
            Json::Num(123456789.0),
            Json::Str(String::new()),
            Json::Str("héllo \u{1F600} wörld".into()),
        ] {
            assert_eq!(roundtrip(&v).emit(), v.emit());
        }
    }

    #[test]
    fn nested_structures_roundtrip_and_preserve_key_order() {
        let v = obj([
            ("zeta", Json::Num(1.0)),
            ("alpha", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            (
                "nested",
                obj([
                    ("b", Json::Str("x".into())),
                    ("a", Json::Arr(vec![obj([("k", Json::Num(2.0))])])),
                ]),
            ),
        ]);
        // emit() preserves insertion order, so byte equality of the
        // emitted text proves key order survived the binary trip.
        assert_eq!(roundtrip(&v).emit(), v.emit());
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let full = to_bytes(&obj([
            ("key", Json::Str("value".into())),
            ("n", Json::Num(7.0)),
        ]));
        for cut in 0..full.len() {
            assert!(from_bytes(&full[..cut]).is_none(), "truncated at {cut}");
        }
        let mut extended = full;
        extended.push(0);
        assert!(from_bytes(&extended).is_none(), "trailing byte accepted");
    }

    #[test]
    fn bad_tags_bad_utf8_and_absurd_counts_are_rejected() {
        assert!(from_bytes(&[9]).is_none(), "unknown tag");
        assert!(from_bytes(&[T_STR, 2, 0xff, 0xfe]).is_none(), "bad utf8");
        // Array claiming u64::MAX elements on a 3-byte buffer.
        let mut absurd = vec![T_ARR];
        super::write_varint(u64::MAX, &mut absurd);
        assert!(from_bytes(&absurd).is_none(), "absurd count");
        // Varint longer than 64 bits.
        let over = vec![
            T_ARR, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02,
        ];
        assert!(from_bytes(&over).is_none(), "varint overflow");
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        let mut bytes = Vec::new();
        for _ in 0..(MAX_DEPTH + 8) {
            bytes.push(T_ARR);
            bytes.push(1); // one element
        }
        bytes.push(T_NULL);
        assert!(from_bytes(&bytes).is_none());
        // A depth just inside the bound decodes fine.
        let mut ok = Vec::new();
        for _ in 0..64 {
            ok.push(T_ARR);
            ok.push(1);
        }
        ok.push(T_NULL);
        assert!(from_bytes(&ok).is_some());
    }

    #[test]
    fn frames_split_cleanly() {
        let a = json_frame(FRAME_REQUEST, &obj([("id", Json::Str("r1".into()))]));
        let b = frame(FRAME_CONTROL, br#"{"op":"stats"}"#);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);

        // Partial prefixes are incomplete, not errors.
        for cut in 0..a.len() {
            assert!(matches!(split_frame(&stream[..cut]), Ok(None)), "cut {cut}");
        }
        let (tag, body, consumed) = split_frame(&stream).unwrap().unwrap();
        assert_eq!(tag, FRAME_REQUEST);
        assert_eq!(consumed, a.len());
        assert_eq!(
            from_bytes(body).unwrap().emit(),
            obj([("id", Json::Str("r1".into()))]).emit()
        );
        let rest = &stream[consumed..];
        let (tag, body, consumed) = split_frame(rest).unwrap().unwrap();
        assert_eq!(tag, FRAME_CONTROL);
        assert_eq!(body, br#"{"op":"stats"}"#);
        assert_eq!(consumed, rest.len());
    }

    #[test]
    fn corrupt_length_words_fail_the_session() {
        assert!(split_frame(&[0, 0, 0, 0, 9]).is_err(), "zero length");
        let huge = u32::MAX.to_le_bytes();
        assert!(split_frame(&huge).is_err(), "oversized length");
    }
}
