//! The departure log and its compact encoding.
//!
//! A switch logs one [`PacketDeparture`] per delivered packet, so the
//! log is the bulk of every report, snapshot and fleet stream. It is
//! written in one encoding everywhere it leaves memory: per departure,
//! LEB128 varints of
//!
//! - the zigzag packet-id delta and the zigzag departure-time delta
//!   (picoseconds), both taken from 0 at the start of the encoding;
//! - the zigzag `time − arrival`;
//! - the fiber, then the wavelength.
//!
//! Deltas are taken modulo 2^64, so every `PacketDeparture` value
//! round-trips. A departure takes at least [`MIN_DEPARTURE_BYTES`] and
//! at most [`MAX_DEPARTURE_BYTES`] bytes; a delivery-ordered log of a
//! real run takes about 10.5.
//!
//! In JSON (reports and snapshots) a [`DepartureLog`] is one string:
//! the padded RFC 4648 base64 of its whole encoding. The fleet wire
//! frames the same encoding in binary blocks (`rip-bench`'s `fleet`
//! module). Decoding is strict: a truncated, overlong or non-minimal
//! varint, a lane above `u32::MAX`, and base64 that is not canonical
//! and padded are each a typed [`DepartureCodecError`], so every log
//! has exactly one encoding.

use std::fmt;
use std::ops::{Deref, DerefMut};

use rip_units::SimTime;
use serde::de::Reader;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::output::PacketDeparture;

/// Fewest bytes one encoded departure takes: five one-byte varints.
pub const MIN_DEPARTURE_BYTES: usize = 5;

/// Most bytes one encoded departure takes: three 64-bit and two 32-bit
/// varints.
pub const MAX_DEPARTURE_BYTES: usize = 3 * 10 + 2 * 5;

/// Encoded bytes [`DepartureLog`]'s JSON writer gathers before turning
/// them into base64 (a multiple of 3, so no chunk but the last pads).
const CHUNK_BYTES: usize = 3 * 1024;

/// Why bytes or text do not decode as departures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepartureCodecError {
    /// The bytes end inside a varint or a departure.
    Truncated,
    /// A varint runs past 64 bits or ends in a redundant zero byte.
    Overlong,
    /// A fiber or wavelength above `u32::MAX`.
    Lane(u64),
    /// Base64 text whose length is not a multiple of 4.
    Base64Length(usize),
    /// A character outside the base64 alphabet, or padding anywhere
    /// but the end, at this character index.
    Base64Char(usize),
    /// Padded base64 whose last character carries nonzero bits past
    /// the encoded bytes.
    Base64TrailingBits,
}

impl fmt::Display for DepartureCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepartureCodecError::Truncated => f.write_str("ends inside a varint"),
            DepartureCodecError::Overlong => f.write_str("holds an overlong varint"),
            DepartureCodecError::Lane(v) => write!(f, "holds lane {v}, above u32::MAX"),
            DepartureCodecError::Base64Length(n) => {
                write!(f, "is {n} base64 characters, not a multiple of 4")
            }
            DepartureCodecError::Base64Char(at) => {
                write!(f, "has a bad base64 character at {at}")
            }
            DepartureCodecError::Base64TrailingBits => {
                f.write_str("has nonzero bits after its last base64 byte")
            }
        }
    }
}

impl std::error::Error for DepartureCodecError {}

/// Append `v` as a LEB128 varint: seven bits per byte, low bits first,
/// high bit set on every byte but the last.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A difference taken modulo 2^64, read as signed and mapped so small
/// magnitudes of either sign get small codes.
#[inline]
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Writes departures one after another, each as deltas from the one
/// before (the first from packet 0 at time 0).
#[derive(Debug, Default, Clone, Copy)]
pub struct DepartureEncoder {
    packet: u64,
    time: u64,
}

impl DepartureEncoder {
    /// Append the encoding of `d` to `out`.
    #[inline]
    pub fn put(&mut self, out: &mut Vec<u8>, d: &PacketDeparture) {
        let t = d.time.as_ps();
        put_varint(out, zigzag(d.packet.wrapping_sub(self.packet)));
        put_varint(out, zigzag(t.wrapping_sub(self.time)));
        put_varint(out, zigzag(t.wrapping_sub(d.arrival.as_ps())));
        put_varint(out, u64::from(d.fiber));
        put_varint(out, u64::from(d.wavelength));
        (self.packet, self.time) = (d.packet, t);
    }
}

/// A cursor over encoded bytes: varints and departures, the latter
/// decoded against the running deltas of a [`DepartureEncoder`] that
/// started where this decoder did.
pub struct DepartureDecoder<'a> {
    bytes: &'a [u8],
    at: usize,
    packet: u64,
    time: u64,
}

impl<'a> DepartureDecoder<'a> {
    /// A decoder at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        DepartureDecoder {
            bytes,
            at: 0,
            packet: 0,
            time: 0,
        }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next varint. Truncated, past 64 bits or non-minimal (a last
    /// byte of 0 after the first) is an error, so every value has one
    /// encoding.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DepartureCodecError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err(DepartureCodecError::Truncated);
            };
            self.at += 1;
            if (shift == 63 && b > 1) || (b == 0 && shift > 0) {
                return Err(DepartureCodecError::Overlong);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// The next varint as a lane index.
    #[inline]
    fn lane(&mut self) -> Result<u32, DepartureCodecError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| DepartureCodecError::Lane(v))
    }

    /// The next departure. After an error the decoder's position is
    /// unspecified.
    #[inline]
    pub fn departure(&mut self) -> Result<PacketDeparture, DepartureCodecError> {
        self.packet = self.packet.wrapping_add(unzigzag(self.varint()?));
        self.time = self.time.wrapping_add(unzigzag(self.varint()?));
        let arrival = self.time.wrapping_sub(unzigzag(self.varint()?));
        Ok(PacketDeparture {
            packet: self.packet,
            time: SimTime::from_ps(self.time),
            arrival: SimTime::from_ps(arrival),
            fiber: self.lane()?,
            wavelength: self.lane()?,
        })
    }
}

/// Every delivered packet's departure, in delivery order.
///
/// A `Vec<PacketDeparture>` in memory (it derefs to one, so `len()`,
/// indexing, `push` and `&log` as `&[PacketDeparture]` all work) whose
/// JSON form is one base64 string of the module's varint encoding,
/// about 14 characters per departure against about 99 for a JSON
/// object each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepartureLog(Vec<PacketDeparture>);

impl Deref for DepartureLog {
    type Target = Vec<PacketDeparture>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for DepartureLog {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl From<Vec<PacketDeparture>> for DepartureLog {
    fn from(v: Vec<PacketDeparture>) -> Self {
        DepartureLog(v)
    }
}

impl<'a> IntoIterator for &'a DepartureLog {
    type Item = &'a PacketDeparture;
    type IntoIter = std::slice::Iter<'a, PacketDeparture>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl DepartureLog {
    /// Append the log's base64 text (no quotes) to `out`, encoding
    /// about 3 KiB at a time: no buffer as large as the log.
    pub fn write_base64(&self, out: &mut String) {
        let mut bytes = Vec::with_capacity(CHUNK_BYTES + MAX_DEPARTURE_BYTES);
        let mut enc = DepartureEncoder::default();
        for d in &self.0 {
            enc.put(&mut bytes, d);
            if bytes.len() >= CHUNK_BYTES {
                let whole = bytes.len() / 3 * 3;
                put_base64(out, &bytes[..whole]);
                bytes.drain(..whole);
            }
        }
        put_base64(out, &bytes);
    }

    /// Decode a log from its base64 text. Room is reserved only for as
    /// many departures as the text can hold (one per
    /// [`MIN_DEPARTURE_BYTES`] decoded bytes, so one per 20/3
    /// characters).
    pub fn from_base64(text: &str) -> Result<Self, DepartureCodecError> {
        let bytes = base64_bytes(text)?;
        let mut log = Vec::with_capacity(bytes.len() / MIN_DEPARTURE_BYTES);
        let mut dec = DepartureDecoder::new(&bytes);
        while dec.remaining() > 0 {
            log.push(dec.departure()?);
        }
        Ok(DepartureLog(log))
    }

    fn decode_str(text: &str) -> Result<Self, DeError> {
        Self::from_base64(text).map_err(|e| DeError::custom(format!("departure log {e}")))
    }
}

impl Serialize for DepartureLog {
    fn to_value(&self) -> Value {
        let mut text = String::new();
        self.write_base64(&mut text);
        Value::String(text)
    }

    fn write_json(&self, out: &mut String) {
        // Base64 needs no JSON escapes.
        out.push('"');
        self.write_base64(out);
        out.push('"');
    }
}

impl Deserialize for DepartureLog {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let text = v
            .as_str()
            .ok_or_else(|| DeError::expected("string", v, "DepartureLog"))?;
        Self::decode_str(text)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Self::decode_str(&r.string("DepartureLog")?)
    }
}

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Each byte's base64 digit, or `0xFF` outside the alphabet.
const BASE64_DIGIT: [u8; 256] = {
    let mut t = [0xFF; 256];
    let mut i = 0;
    while i < 64 {
        t[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// Append the padded base64 text of `bytes` to `out`, through a stack
/// buffer of 1 KiB.
fn put_base64(out: &mut String, bytes: &[u8]) {
    let digit = |v: u32, shift: u32| BASE64[((v >> shift) & 63) as usize];
    let mut text = [0u8; 1024];
    for part in bytes.chunks(text.len() / 4 * 3) {
        let mut n = 0;
        let mut groups = part.chunks_exact(3);
        for g in &mut groups {
            let v = (u32::from(g[0]) << 16) | (u32::from(g[1]) << 8) | u32::from(g[2]);
            text[n..n + 4].copy_from_slice(&[digit(v, 18), digit(v, 12), digit(v, 6), digit(v, 0)]);
            n += 4;
        }
        // Only the last part can leave a partial group.
        let tail = match *groups.remainder() {
            [a] => Some((u32::from(a) << 16, 2)),
            [a, b] => Some(((u32::from(a) << 16) | (u32::from(b) << 8), 1)),
            _ => None,
        };
        if let Some((v, pad)) = tail {
            let quad = [digit(v, 18), digit(v, 12), digit(v, 6), b'='];
            text[n..n + 4].copy_from_slice(&quad);
            text[n + 4 - pad..n + 4].fill(b'=');
            n += 4;
        }
        out.push_str(std::str::from_utf8(&text[..n]).expect("base64 digits are ASCII"));
    }
}

/// The bytes of padded, canonical base64 `text`.
fn base64_bytes(text: &str) -> Result<Vec<u8>, DepartureCodecError> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(DepartureCodecError::Base64Length(text.len()));
    }
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    for (q, quad) in text.chunks_exact(4).enumerate() {
        let pad = if (q + 1) * 4 == text.len() {
            quad.iter().rev().take_while(|&&c| c == b'=').count()
        } else {
            0
        };
        if pad > 2 {
            return Err(DepartureCodecError::Base64Char(q * 4 + 4 - pad));
        }
        let mut v = 0u32;
        for (i, &c) in quad[..4 - pad].iter().enumerate() {
            let d = BASE64_DIGIT[usize::from(c)];
            if d == 0xFF {
                return Err(DepartureCodecError::Base64Char(q * 4 + i));
            }
            v |= u32::from(d) << (18 - 6 * i);
        }
        let group = [(v >> 16) as u8, (v >> 8) as u8, v as u8];
        let (keep, spare) = group.split_at(3 - pad);
        if spare.iter().any(|&b| b != 0) {
            return Err(DepartureCodecError::Base64TrailingBits);
        }
        out.extend_from_slice(keep);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b64(bytes: &[u8]) -> String {
        let mut s = String::new();
        put_base64(&mut s, bytes);
        s
    }

    #[test]
    fn base64_matches_the_rfc_4648_test_vectors() {
        let vectors = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, coded) in vectors {
            assert_eq!(b64(plain.as_bytes()), coded);
            assert_eq!(base64_bytes(coded).as_deref(), Ok(plain.as_bytes()));
        }
        // Across the 1 KiB text buffer's parts.
        let long: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
        assert_eq!(base64_bytes(&b64(&long)), Ok(long));
    }

    #[test]
    fn non_canonical_base64_is_refused() {
        use DepartureCodecError::*;
        for (text, want) in [
            ("Zg=", Base64Length(3)),
            ("Zg", Base64Length(2)),
            ("Z===", Base64Char(1)),
            ("====", Base64Char(0)),
            ("Zg==Zg==", Base64Char(2)),
            ("Z=g=", Base64Char(1)),
            ("Zm9*", Base64Char(3)),
            ("Zh==", Base64TrailingBits),
            ("Zm9=", Base64TrailingBits),
        ] {
            assert_eq!(base64_bytes(text), Err(want), "{text:?}");
        }
    }

    /// A departure field: mostly the values the deltas wrap at.
    fn edge_u64() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(kind, r)| match kind {
            0 => u64::MAX - r % 3,
            1 => r % 3,
            2 => r % 100_000,
            _ => r,
        })
    }

    fn departure() -> impl Strategy<Value = PacketDeparture> {
        // Lanes keep the low half, so their edges are at `u32::MAX`.
        (edge_u64(), edge_u64(), edge_u64(), edge_u64(), edge_u64()).prop_map(
            |(packet, time, arrival, fiber, wavelength)| PacketDeparture {
                packet,
                time: SimTime::from_ps(time),
                arrival: SimTime::from_ps(arrival),
                fiber: fiber as u32,
                wavelength: wavelength as u32,
            },
        )
    }

    /// The encoded bytes of `log`, whole.
    fn encoded(log: &[PacketDeparture]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut enc = DepartureEncoder::default();
        for d in log {
            enc.put(&mut bytes, d);
        }
        bytes
    }

    /// Decode `text` and check that no more room was reserved than its
    /// length can hold: one departure per 20/3 characters.
    fn decode_within_text(text: &str) -> Result<DepartureLog, DepartureCodecError> {
        let got = DepartureLog::from_base64(text);
        if let Ok(log) = &got {
            assert!(log.capacity() <= text.len() * 3 / 20, "{text:?}");
        }
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any log round-trips exactly through its JSON string, both
        /// directly and through the value tree, and the direct writer
        /// prints what the tree prints. Logs up to 600 departures of up
        /// to 40 bytes span several of the writer's chunks.
        #[test]
        fn logs_round_trip_through_json(log in prop::collection::vec(departure(), 0..600)) {
            let log = DepartureLog::from(log);
            let text = serde_json::to_string(&log).expect("log serializes");
            let tree = log.to_value();
            prop_assert_eq!(&serde_json::to_string(&tree).expect("tree prints"), &text);
            prop_assert_eq!(&serde_json::from_str::<DepartureLog>(&text).expect("decodes"), &log);
            prop_assert_eq!(&DepartureLog::from_value(&tree).expect("decodes"), &log);
            prop_assert_eq!(text.len(), 2 + encoded(&log).len().div_ceil(3) * 4);
        }

        /// Real log strings, truncated, spliced or with characters
        /// replaced: a typed error or a decode, never a panic or a
        /// reservation larger than the text can hold.
        #[test]
        fn mutated_log_strings_decode_or_fail_within_their_text(
            log in prop::collection::vec(departure(), 1..100),
            cut in any::<prop::sample::Index>(),
            at in any::<prop::sample::Index>(),
            subs in prop::collection::vec(
                (any::<prop::sample::Index>(), prop::sample::select(b"A/+=_-9 \"".to_vec())),
                1..4,
            ),
        ) {
            let mut text = String::new();
            DepartureLog::from(log).write_base64(&mut text);
            let cut = cut.index(text.len());
            let mut subbed = text.clone().into_bytes();
            for (i, c) in &subs {
                subbed[i.index(text.len())] = *c;
            }
            let subbed = String::from_utf8(subbed).expect("ASCII");
            let spliced = [&text[..cut], &text[at.index(text.len())..]].concat();
            for t in [&text[..cut], &subbed[..], &spliced[..]] {
                let _ = decode_within_text(t);
                let json = serde_json::to_string(&t).expect("string serializes");
                let direct = serde_json::from_str::<DepartureLog>(&json);
                let tree = DepartureLog::from_value(&Value::String(t.to_string()));
                prop_assert_eq!(direct.is_ok(), tree.is_ok());
            }
        }

        /// Arbitrary base64 text: a typed error or a decode, never more
        /// room reserved than the text can hold.
        #[test]
        fn arbitrary_text_decodes_within_its_length(
            digits in prop::collection::vec(0usize..66, 0..400),
        ) {
            const CHARS: &[u8; 66] =
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=*";
            let text: String = digits.iter().map(|&d| CHARS[d] as char).collect();
            let _ = decode_within_text(&text);
        }
    }

    #[test]
    fn malformed_encodings_are_typed_errors() {
        use DepartureCodecError::*;
        let text_of = |bytes: &[u8]| b64(bytes);
        let mut u32_past = Vec::new();
        put_varint(&mut u32_past, u64::from(u32::MAX) + 1);
        let lane_past = [&[0, 0, 0][..], &u32_past, &[0]].concat();
        let mut eleven = vec![0xff; 10];
        eleven.push(0x01);
        for (bytes, want) in [
            // A departure cut after its fourth field, and inside a varint.
            (vec![0, 0, 0, 0], Truncated),
            (vec![0, 0, 0, 0, 0x80], Truncated),
            // Non-minimal: 0 written in two bytes.
            (vec![0x80, 0x00, 0, 0, 0, 0], Overlong),
            // One past 64 bits, and 11 bytes long.
            ([&[0xff; 9][..], &[0x02, 0, 0, 0, 0]].concat(), Overlong),
            ([&eleven[..], &[0, 0, 0, 0]].concat(), Overlong),
            (lane_past, Lane(u64::from(u32::MAX) + 1)),
        ] {
            assert_eq!(decode_within_text(&text_of(&bytes)), Err(want), "{bytes:?}");
        }
        // The longest departure: deltas of 2^63 and the widest lanes;
        // then the same one again, whose deltas are 0.
        let far = PacketDeparture {
            packet: 1 << 63,
            time: SimTime::from_ps(1 << 63),
            arrival: SimTime::ZERO,
            fiber: u32::MAX,
            wavelength: u32::MAX,
        };
        assert_eq!(encoded(&[far]).len(), MAX_DEPARTURE_BYTES);
        let bytes = encoded(&[far, far]);
        assert_eq!(bytes.len(), MAX_DEPARTURE_BYTES + 1 + 1 + 10 + 5 + 5);
        assert_eq!(
            decode_within_text(&text_of(&bytes)).map(|l| l.to_vec()),
            Ok(vec![far, far])
        );
        // Through JSON the same failures are `DeError`s, and so is a
        // log that is not a string (the layout before the encoding).
        for json in ["\"gA==\"", "\"Zh==\"", "[]", "[{\"packet\":1}]", "null"] {
            assert!(
                serde_json::from_str::<DepartureLog>(json).is_err(),
                "{json}"
            );
        }
    }
}
