//! Low-level wire primitives shared by the SAPK and SDEX codecs.
//!
//! Everything here operates on [`bytes::Buf`]/[`bytes::BufMut`] so the same
//! helpers serve both the in-memory writers and the parsers. Integers use
//! LEB128 unsigned varints (as DEX itself does for most counts); strings are
//! varint-length-prefixed UTF-8; integrity uses Adler-32 (the checksum real
//! DEX headers carry).

use crate::error::ApkError;
use bytes::{Buf, BufMut};

/// Maximum number of bytes a canonical u64 LEB128 varint may occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Append `value` to `buf` as an unsigned LEB128 varint.
pub fn put_uvarint<B: BufMut>(buf: &mut B, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint from `buf`.
///
/// Rejects varints longer than [`MAX_VARINT_LEN`] bytes and truncated input.
/// The single-byte case — nearly every count, index, and register in an
/// SDEX blob — is split out ahead of the loop so decode-side callers pay
/// one branch for it.
#[inline]
pub fn get_uvarint<B: Buf>(buf: &mut B) -> Result<u64, ApkError> {
    if !buf.has_remaining() {
        return Err(ApkError::Truncated { context: "varint" });
    }
    let byte = buf.get_u8();
    if byte & 0x80 == 0 {
        return Ok(byte as u64);
    }
    let mut value = (byte & 0x7f) as u64;
    let mut shift = 7u32;
    for i in 1..MAX_VARINT_LEN {
        if !buf.has_remaining() {
            return Err(ApkError::Truncated { context: "varint" });
        }
        let byte = buf.get_u8();
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute one bit.
        if i == MAX_VARINT_LEN - 1 && payload > 1 {
            return Err(ApkError::BadVarint);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
    Err(ApkError::BadVarint)
}

/// Append a varint-length-prefixed UTF-8 string.
pub fn put_string<B: BufMut>(buf: &mut B, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Read a varint-length-prefixed UTF-8 string.
pub fn get_string<B: Buf>(buf: &mut B) -> Result<String, ApkError> {
    let len = get_uvarint(buf)? as usize;
    if buf.remaining() < len {
        return Err(ApkError::Truncated { context: "string" });
    }
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| ApkError::BadUtf8)
}

/// Validate a varint-length-prefixed UTF-8 string *in place* and return its
/// `(offset, len)` location within `full`, advancing `buf` past it.
///
/// Zero-copy analog of [`get_string`]: the caller keeps the backing buffer
/// alive and slices the string back out on demand, so decoding a pool of N
/// strings performs zero per-entry allocations. `buf` must be a suffix of
/// `full` (the decoder's cursor into the same blob); offsets are relative to
/// the start of `full`. Error behaviour is identical to [`get_string`].
#[inline]
pub fn get_string_span(full: &[u8], buf: &mut &[u8]) -> Result<(u32, u32), ApkError> {
    let len = get_uvarint(buf)? as usize;
    if buf.len() < len {
        return Err(ApkError::Truncated { context: "string" });
    }
    std::str::from_utf8(&buf[..len]).map_err(|_| ApkError::BadUtf8)?;
    let off = full.len() - buf.len();
    let span = span_u32(off, len)?;
    *buf = &buf[len..];
    Ok(span)
}

/// Narrow a `(offset, len)` span to the u32 wire representation, refusing
/// values that would silently wrap.
///
/// `get_string_span` offsets are relative to the backing buffer; once that
/// buffer is a multi-gigabyte shard instead of a standalone
/// blob, `off as u32` would truncate and alias an unrelated string. The
/// guard turns that corruption into [`ApkError::SpanOverflow`].
pub fn span_u32(off: usize, len: usize) -> Result<(u32, u32), ApkError> {
    match (u32::try_from(off), u32::try_from(len)) {
        (Ok(o), Ok(l)) => Ok((o, l)),
        _ => Err(ApkError::SpanOverflow {
            offset: off as u64,
            len: len as u64,
        }),
    }
}

/// Compute the Adler-32 checksum of `data` (RFC 1950), the same checksum
/// carried by real DEX file headers.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    // Largest n such that 255*n*(n+1)/2 + (n+1)*(MOD-1) < 2^32, per zlib.
    const NMAX: usize = 5552;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(NMAX) {
        for &byte in chunk {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_uvarint(&mut slice).unwrap(), v);
            assert!(slice.is_empty(), "varint for {v} left trailing bytes");
        }
    }

    #[test]
    fn varint_truncated_is_error() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(get_uvarint(&mut slice).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn varint_overlong_rejected() {
        // Eleven continuation bytes can never be canonical.
        let raw = [0xff; 11];
        let mut slice = &raw[..];
        assert_eq!(get_uvarint(&mut slice), Err(ApkError::BadVarint));
    }

    #[test]
    fn varint_tenth_byte_overflow_rejected() {
        // 9 continuation bytes then a final byte with more than 1 bit set
        // would overflow u64.
        let mut raw = vec![0x80u8; 9];
        raw.push(0x02);
        let mut slice = &raw[..];
        assert_eq!(get_uvarint(&mut slice), Err(ApkError::BadVarint));
    }

    #[test]
    fn string_roundtrip() {
        for s in ["", "a", "android/webkit/WebView", "日本語テキスト"] {
            let mut buf = Vec::new();
            put_string(&mut buf, s);
            let mut slice = &buf[..];
            assert_eq!(get_string(&mut slice).unwrap(), s);
        }
    }

    #[test]
    fn string_invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut slice = &buf[..];
        assert_eq!(get_string(&mut slice), Err(ApkError::BadUtf8));
    }

    #[test]
    fn string_span_matches_get_string() {
        let samples = ["", "a", "android/webkit/WebView", "日本語テキスト"];
        let mut full = Vec::new();
        put_uvarint(&mut full, 99); // junk the cursor has already consumed
        let mark = full.len();
        for s in samples {
            put_string(&mut full, s);
        }
        let mut buf = &full[mark..];
        for s in samples {
            let (off, len) = get_string_span(&full, &mut buf).unwrap();
            assert_eq!(&full[off as usize..(off + len) as usize], s.as_bytes());
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn string_span_invalid_utf8_rejected_without_advancing_past_it() {
        let mut full = Vec::new();
        put_uvarint(&mut full, 2);
        full.extend_from_slice(&[0xff, 0xfe]);
        let mut buf = &full[..];
        assert_eq!(get_string_span(&full, &mut buf), Err(ApkError::BadUtf8));
    }

    #[test]
    fn span_u32_boundary() {
        let max = u32::MAX as usize;
        // Exactly representable: the u32::MAX corner itself.
        assert_eq!(span_u32(max, max).unwrap(), (u32::MAX, u32::MAX));
        assert_eq!(span_u32(0, 0).unwrap(), (0, 0));
        // One past the boundary on either field must refuse, not wrap.
        assert_eq!(
            span_u32(max + 1, 7),
            Err(ApkError::SpanOverflow {
                offset: max as u64 + 1,
                len: 7
            })
        );
        assert_eq!(
            span_u32(7, max + 1),
            Err(ApkError::SpanOverflow {
                offset: 7,
                len: max as u64 + 1
            })
        );
        // The old `as u32` behavior would have produced offset 0 here —
        // aliasing the start of the pool. Make sure the kind is distinct
        // and stable for the failure taxonomy.
        assert_eq!(span_u32(max + 1, 0).unwrap_err().kind(), "span-overflow");
    }

    #[test]
    fn adler32_known_vectors() {
        // Reference values from zlib.
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn adler32_large_input_no_overflow() {
        let data = vec![0xffu8; 1 << 20];
        // Must not panic; spot-check stability.
        let c1 = adler32(&data);
        let c2 = adler32(&data);
        assert_eq!(c1, c2);
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            prop_assert!(buf.len() <= MAX_VARINT_LEN);
            let mut slice = &buf[..];
            prop_assert_eq!(get_uvarint(&mut slice).unwrap(), v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            let mut buf = Vec::new();
            put_string(&mut buf, &s);
            let mut slice = &buf[..];
            prop_assert_eq!(get_string(&mut slice).unwrap(), s);
        }

        #[test]
        fn prop_string_span_equivalent_to_owned(raw in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut owned_cur = &raw[..];
            let mut span_cur = &raw[..];
            match (get_string(&mut owned_cur), get_string_span(&raw, &mut span_cur)) {
                (Ok(s), Ok((off, len))) => {
                    prop_assert_eq!(s.as_bytes(), &raw[off as usize..off as usize + len as usize]);
                    prop_assert_eq!(owned_cur.len(), span_cur.len());
                }
                (Err(e1), Err(e2)) => prop_assert_eq!(e1.kind(), e2.kind()),
                (o, s) => prop_assert!(false, "owned/span decoders diverged: {o:?} vs {s:?}"),
            }
        }

        #[test]
        fn prop_varint_decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..16)) {
            let mut slice = &raw[..];
            let _ = get_uvarint(&mut slice);
        }

        #[test]
        fn prop_adler32_differs_on_flip(data in proptest::collection::vec(any::<u8>(), 1..256), idx in any::<prop::sample::Index>()) {
            let mut flipped = data.clone();
            let i = idx.index(flipped.len());
            flipped[i] ^= 0x01;
            prop_assert_ne!(adler32(&data), adler32(&flipped));
        }
    }
}
