//! SAPK — the APK-analog outer container.
//!
//! A real APK is a ZIP; what the pipeline needs from it is (1) the binary
//! manifest, (2) the DEX blob(s), (3) opaque resources, and (4) a way to
//! fail loudly when the archive is damaged. SAPK provides exactly that: a
//! sectioned container with a fixed header, a section directory, and an
//! Adler-32 over the payload.
//!
//! ```text
//! +--------+---------+----------+---------+----------------------+---------+
//! | "SAPK" | version | checksum | n_sects | dir: (tag,off,len)*n | payload |
//! | 4 B    | u16 LE  | u32 LE   | u8      | 9 B each             | ...     |
//! +--------+---------+----------+---------+----------------------+---------+
//! ```
//!
//! Offsets in the directory are relative to the start of the payload area.

use crate::error::ApkError;
use crate::wire::adler32;
use bytes::{Buf, BufMut, Bytes};

/// Magic bytes at the start of every SAPK container.
pub const SAPK_MAGIC: [u8; 4] = *b"SAPK";
/// Current SAPK format version.
pub const SAPK_VERSION: u16 = 1;
/// Magic, version and checksum: the bytes before the checksummed part.
const HEADER_LEN: usize = 10;

/// Kinds of section a SAPK container may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionTag {
    /// Serialized `wla-manifest` blob.
    Manifest,
    /// SDEX bytecode blob.
    Dex,
    /// Opaque resources (layouts, assets); the pipeline ignores the content
    /// but real corpora have them, so size accounting stays realistic.
    Resources,
}

impl SectionTag {
    fn to_byte(self) -> u8 {
        match self {
            SectionTag::Manifest => 1,
            SectionTag::Dex => 2,
            SectionTag::Resources => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ApkError> {
        Ok(match b {
            1 => SectionTag::Manifest,
            2 => SectionTag::Dex,
            3 => SectionTag::Resources,
            other => return Err(ApkError::BadSectionTag(other)),
        })
    }
}

/// One decoded section: tag plus owned payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SapkSection {
    /// Section kind.
    pub tag: SectionTag,
    /// Raw section bytes.
    pub data: Bytes,
}

/// A parsed SAPK container.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sapk {
    sections: Vec<SapkSection>,
}

impl Sapk {
    /// Empty container (builder start state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section. Sections keep insertion order; duplicate tags are
    /// allowed at this layer (multi-dex APKs exist), and accessors return
    /// the first match.
    pub fn push(&mut self, tag: SectionTag, data: impl Into<Bytes>) -> &mut Self {
        self.sections.push(SapkSection {
            tag,
            data: data.into(),
        });
        self
    }

    /// All sections in order.
    pub fn sections(&self) -> &[SapkSection] {
        &self.sections
    }

    /// First section with `tag`, if any.
    pub fn section(&self, tag: SectionTag) -> Option<&Bytes> {
        self.sections.iter().find(|s| s.tag == tag).map(|s| &s.data)
    }

    /// The manifest section, required for analysis.
    pub fn manifest_bytes(&self) -> Result<&Bytes, ApkError> {
        self.section(SectionTag::Manifest)
            .ok_or(ApkError::MissingSection("manifest"))
    }

    /// Serialize to the SAPK wire format, in one buffer of exactly the
    /// container's length: the header, the directory and the payload are
    /// written in place, and the checksum last, over what follows it.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.sections.len() <= u8::MAX as usize,
            "SAPK supports at most 255 sections"
        );
        let payload: usize = self.sections.iter().map(|s| s.data.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + 1 + 9 * self.sections.len() + payload);
        out.put_slice(&SAPK_MAGIC);
        out.put_u16_le(SAPK_VERSION);
        out.put_u32_le(0);
        // The checksum covers the directory and the payload, so a damaged
        // directory is also caught.
        out.put_u8(self.sections.len() as u8);
        let mut off = 0u32;
        for s in &self.sections {
            out.put_u8(s.tag.to_byte());
            out.put_u32_le(off);
            out.put_u32_le(s.data.len() as u32);
            off += s.data.len() as u32;
        }
        for s in &self.sections {
            out.put_slice(&s.data);
        }
        let checksum = adler32(&out[HEADER_LEN..]);
        out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parse and validate a SAPK container from a borrowed slice.
    ///
    /// Copies `raw` into fresh shared storage once; callers that already
    /// hold the container as [`Bytes`] — a window into a shard buffer, an
    /// HTTP body — should use [`Sapk::decode_bytes`], which shares it.
    pub fn decode(raw: &[u8]) -> Result<Sapk, ApkError> {
        Sapk::decode_bytes(Bytes::copy_from_slice(raw))
    }

    /// Parse and validate a SAPK container. Sections are sub-views of
    /// `raw`, so the payload bytes are never copied.
    pub fn decode_bytes(raw: Bytes) -> Result<Sapk, ApkError> {
        let mut buf = &raw[..];
        if buf.remaining() < 4 {
            return Err(ApkError::Truncated { context: "magic" });
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != SAPK_MAGIC {
            return Err(ApkError::BadMagic {
                expected: "SAPK",
                found: magic,
            });
        }
        if buf.remaining() < 6 {
            return Err(ApkError::Truncated { context: "header" });
        }
        let version = buf.get_u16_le();
        if version != SAPK_VERSION {
            return Err(ApkError::UnsupportedVersion(version));
        }
        let stored = buf.get_u32_le();
        let computed = adler32(buf);
        if stored != computed {
            return Err(ApkError::ChecksumMismatch { stored, computed });
        }

        if !buf.has_remaining() {
            return Err(ApkError::Truncated {
                context: "section count",
            });
        }
        let n = buf.get_u8() as usize;
        if buf.remaining() < n * 9 {
            return Err(ApkError::Truncated {
                context: "section directory",
            });
        }
        let mut dir = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = SectionTag::from_byte(buf.get_u8())?;
            let off = buf.get_u32_le();
            let len = buf.get_u32_le();
            dir.push((tag, off, len));
        }
        // `buf` is a suffix of `raw`: the payload is its trailing
        // `buf.len()` bytes.
        let payload = raw.slice(raw.len() - buf.len()..);
        let total = payload.len() as u32;
        let mut sections = Vec::with_capacity(n);
        for (tag, off, len) in dir {
            let end = off.checked_add(len).ok_or(ApkError::SectionOutOfBounds {
                offset: off,
                len,
                total,
            })?;
            if end > total {
                return Err(ApkError::SectionOutOfBounds {
                    offset: off,
                    len,
                    total,
                });
            }
            sections.push(SapkSection {
                tag,
                data: payload.slice(off as usize..end as usize),
            });
        }
        Ok(Sapk { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sapk {
        let mut apk = Sapk::new();
        apk.push(SectionTag::Manifest, &b"manifest-bytes"[..]);
        apk.push(SectionTag::Dex, &b"dex-bytes-here"[..]);
        apk.push(SectionTag::Resources, vec![0u8; 64]);
        apk
    }

    #[test]
    fn roundtrip() {
        let apk = sample();
        let bytes = apk.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "one exact-size buffer");
        let back = Sapk::decode(&bytes).unwrap();
        assert_eq!(apk, back);
    }

    #[test]
    fn accessors() {
        let apk = sample();
        assert_eq!(&apk.manifest_bytes().unwrap()[..], b"manifest-bytes");
        assert_eq!(
            &apk.section(SectionTag::Dex).unwrap()[..],
            b"dex-bytes-here"
        );
    }

    #[test]
    fn missing_sections_reported() {
        let apk = Sapk::new();
        assert_eq!(
            apk.manifest_bytes().unwrap_err(),
            ApkError::MissingSection("manifest")
        );
    }

    #[test]
    fn empty_container_roundtrips() {
        let apk = Sapk::new();
        let back = Sapk::decode(&apk.encode()).unwrap();
        assert!(back.sections().is_empty());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Sapk::decode(&bytes[..cut]).is_err(),
                "decode accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn bitflip_rejected_everywhere() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Sapk::decode(&bad).is_err(),
                "decode accepted a bit flip at byte {i}"
            );
        }
    }

    #[test]
    fn out_of_bounds_section_rejected() {
        // Forge a directory pointing past the payload, with a valid checksum.
        let mut covered = Vec::new();
        covered.push(1u8); // one section
        covered.push(2u8); // Dex
        covered.extend_from_slice(&0u32.to_le_bytes()); // off
        covered.extend_from_slice(&100u32.to_le_bytes()); // len > payload
        covered.extend_from_slice(b"tiny");
        let mut raw = Vec::new();
        raw.extend_from_slice(&SAPK_MAGIC);
        raw.extend_from_slice(&SAPK_VERSION.to_le_bytes());
        raw.extend_from_slice(&adler32(&covered).to_le_bytes());
        raw.extend_from_slice(&covered);
        assert!(matches!(
            Sapk::decode(&raw),
            Err(ApkError::SectionOutOfBounds { .. })
        ));
    }

    #[test]
    fn decode_bytes_matches_decode_and_is_zero_copy() {
        let apk = sample();
        let blob = Bytes::from(apk.encode());
        let owned = Sapk::decode(&blob).unwrap();
        let shared = Sapk::decode_bytes(blob.clone()).unwrap();
        assert_eq!(owned, shared);
        // Zero-copy: each decoded section aliases the original buffer.
        let base = blob.as_ref().as_ptr() as usize;
        let end = base + blob.len();
        for s in shared.sections() {
            if s.data.is_empty() {
                continue;
            }
            let p = s.data.as_ref().as_ptr() as usize;
            assert!(p >= base && p + s.data.len() <= end, "section copied");
        }
    }

    #[test]
    fn decode_bytes_rejects_what_decode_rejects() {
        let blob = sample().encode();
        for cut in 0..blob.len() {
            let a = Sapk::decode(&blob[..cut]).unwrap_err();
            let b = Sapk::decode_bytes(Bytes::copy_from_slice(&blob[..cut])).unwrap_err();
            assert_eq!(a, b, "divergence at prefix {cut}");
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            let a = Sapk::decode(&bad).unwrap_err();
            let b = Sapk::decode_bytes(Bytes::from(bad)).unwrap_err();
            assert_eq!(a, b, "divergence at flipped byte {i}");
        }
    }

    #[test]
    fn multidex_first_wins() {
        let mut apk = Sapk::new();
        apk.push(SectionTag::Dex, &b"first"[..]);
        apk.push(SectionTag::Dex, &b"second"[..]);
        let back = Sapk::decode(&apk.encode()).unwrap();
        assert_eq!(&back.section(SectionTag::Dex).unwrap()[..], b"first");
        assert_eq!(back.sections().len(), 2);
    }
}
