//! Structured parse/encode errors for the SAPK and SDEX formats.

use std::fmt;

/// Any failure while decoding a SAPK container or SDEX blob.
///
/// Parsers in this crate never panic on malformed input; every way a byte
/// stream can be wrong maps onto one of these variants. The static pipeline
/// counts apps whose container fails to decode — the paper's "broken APKs"
/// row in Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApkError {
    /// The leading magic bytes did not match the expected format tag.
    BadMagic {
        /// Which format was being parsed (`"SAPK"` or `"SDEX"`).
        expected: &'static str,
        /// The bytes actually found (up to 4).
        found: [u8; 4],
    },
    /// The format version is newer than this parser understands.
    UnsupportedVersion(u16),
    /// The buffer ended before a complete structure could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The stored Adler-32 checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// An index (string, type, or method) points outside its table.
    IndexOutOfRange {
        /// Which table the index refers to.
        table: &'static str,
        /// The offending index.
        index: u32,
        /// Number of entries in the table.
        len: u32,
    },
    /// A varint was malformed (too long or non-canonical).
    BadVarint,
    /// A string-pool entry was not valid UTF-8.
    BadUtf8,
    /// An instruction opcode byte was not recognized.
    BadOpcode(u8),
    /// A section tag in the SAPK header was not recognized.
    BadSectionTag(u8),
    /// A section's declared extent falls outside the container.
    SectionOutOfBounds {
        /// Declared byte offset of the section.
        offset: u32,
        /// Declared byte length of the section.
        len: u32,
        /// Total container size.
        total: u32,
    },
    /// A string-pool span's offset or length does not fit the u32 wire
    /// representation. Unreachable for standalone SDEX blobs (their sizes
    /// are bounded by the container), but multi-gigabyte shard buffers
    /// can position a section past 4 GiB — truncating would
    /// silently alias another string, so the decoder refuses instead.
    SpanOverflow {
        /// Byte offset of the span within the backing buffer.
        offset: u64,
        /// Byte length of the span.
        len: u64,
    },
    /// A required section is missing from the container.
    MissingSection(&'static str),
    /// Structural rule violated (e.g., superclass cycle, duplicate class).
    Invalid(&'static str),
    /// The analyzer itself panicked on this container. Produced only by the
    /// static pipeline's fault isolation (`wla_pool::isolate`), never
    /// by the parsers in this crate; the app still counts toward Table 2's
    /// broken row instead of aborting the corpus run.
    AnalysisPanic {
        /// The panic payload, rendered to text.
        message: String,
    },
}

impl ApkError {
    /// Short stable label for the failure-taxonomy counters
    /// (`PipelineStats::failure_kinds` in `wla-static`).
    pub fn kind(&self) -> &'static str {
        match self {
            ApkError::BadMagic { .. } => "bad-magic",
            ApkError::UnsupportedVersion(_) => "unsupported-version",
            ApkError::Truncated { .. } => "truncated",
            ApkError::ChecksumMismatch { .. } => "checksum-mismatch",
            ApkError::IndexOutOfRange { .. } => "index-out-of-range",
            ApkError::BadVarint => "bad-varint",
            ApkError::BadUtf8 => "bad-utf8",
            ApkError::BadOpcode(_) => "bad-opcode",
            ApkError::BadSectionTag(_) => "bad-section-tag",
            ApkError::SectionOutOfBounds { .. } => "section-out-of-bounds",
            ApkError::SpanOverflow { .. } => "span-overflow",
            ApkError::MissingSection(_) => "missing-section",
            ApkError::Invalid(_) => "invalid-structure",
            ApkError::AnalysisPanic { .. } => "analysis-panic",
        }
    }
}

impl fmt::Display for ApkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApkError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:?}, found {found:02x?}")
            }
            ApkError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            ApkError::Truncated { context } => write!(f, "truncated input while reading {context}"),
            ApkError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ApkError::IndexOutOfRange { table, index, len } => {
                write!(f, "{table} index {index} out of range (table has {len})")
            }
            ApkError::BadVarint => write!(f, "malformed varint"),
            ApkError::BadUtf8 => write!(f, "string-pool entry is not valid UTF-8"),
            ApkError::BadOpcode(op) => write!(f, "unrecognized opcode {op:#04x}"),
            ApkError::BadSectionTag(t) => write!(f, "unrecognized section tag {t:#04x}"),
            ApkError::SectionOutOfBounds { offset, len, total } => write!(
                f,
                "section [{offset}, +{len}) falls outside container of {total} bytes"
            ),
            ApkError::SpanOverflow { offset, len } => write!(
                f,
                "string span [{offset}, +{len}) exceeds the u32 wire representation"
            ),
            ApkError::MissingSection(name) => write!(f, "required section {name} missing"),
            ApkError::Invalid(what) => write!(f, "invalid structure: {what}"),
            ApkError::AnalysisPanic { message } => {
                write!(f, "analyzer panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ApkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ApkError::BadMagic {
            expected: "SDEX",
            found: *b"ZIP\0",
        };
        let s = e.to_string();
        assert!(s.contains("SDEX"));
        assert!(s.contains("bad magic"));
    }

    #[test]
    fn checksum_display_hex() {
        let e = ApkError::ChecksumMismatch {
            stored: 0xdead_beef,
            computed: 0x1234_5678,
        };
        assert!(e.to_string().contains("0xdeadbeef"));
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(ApkError::BadVarint);
        assert_eq!(e.to_string(), "malformed varint");
    }
}
