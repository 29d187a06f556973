//! SDEX — the DEX-analog bytecode container.
//!
//! Mirrors the parts of real DEX that the paper's pipeline consumes:
//!
//! * a deduplicated **string pool** (class names, method names, descriptors,
//!   string literals such as URLs);
//! * a **type table** listing every class *referenced* by the file — both
//!   classes defined in this package and framework classes such as
//!   `android/webkit/WebView`;
//! * a **method table** of `(class, name, descriptor)` references;
//! * **class definitions** for the defined subset, each with a superclass
//!   link, flags, and encoded methods whose code is a small instruction set
//!   sufficient for call-graph construction (`invoke-*`, `const-string`,
//!   `new-instance`, branches, returns).
//!
//! [`DexBuilder`] writes files; [`Dex::decode`] parses and *validates* them
//! (index bounds, superclass acyclicity, checksum). The decoder must accept
//! exactly the encoder's output and reject everything [`crate::corrupt`]
//! produces.
//!
//! Decoding is **zero-copy**: the string pool is kept as `(offset, len)`
//! spans into the backing [`Bytes`] blob, validated (UTF-8 and bounds) in
//! the same linear pass that parses the tables, so no per-entry `String` is
//! ever allocated. [`Dex::decode_bytes`] shares the caller's buffer via the
//! `Bytes` refcount — handing it an SAPK section decodes a whole dex with a
//! single table-sized allocation per table. The pre-zero-copy owning
//! decoder survives as [`oracle`], and property tests pin the two together
//! byte-for-byte on valid and corrupted input alike.

use crate::error::ApkError;
use crate::wire::{adler32, get_string_span, get_uvarint, put_string, put_uvarint};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::fmt;
use wla_intern::FxBuildHasher;

/// Magic bytes at the start of every SDEX blob.
pub const SDEX_MAGIC: [u8; 4] = *b"SDEX";
/// The SDEX format version, the only one the decoders accept. Every
/// data-bearing instruction carries virtual-register operands
/// (`const-string vA`, `move vA vB`, explicit invoke argument lists), each
/// method records its register count, and a **type lookup table** section
/// follows the class table — a precomputed open-addressing hash over type
/// names (modelled on ART's `TypeLookupTable`) that makes
/// [`Dex::type_by_name`] an O(1) probe instead of a linear scan.
pub const SDEX_VERSION: u16 = 3;

/// Decode validation level. Full validation is the only level: `All` is
/// the sole variant.
///
/// Kept only because the end-to-end benchmark package
/// (`crates/bench/src/bin/benchmark`) names it when it calls
/// [`Dex::decode_bytes_with`]; nothing else in the workspace may use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyPreset {
    /// Full validation.
    All,
}

/// Index into the type table of a [`Dex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Index into the method table of a [`Dex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// Index of a virtual register inside one method body. Valid registers are
/// `0..MethodDef::registers`; the decoder bounds-checks every operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

/// A `(class, name, descriptor)` method reference — the SDEX analog of a
/// DEX `method_id_item`. Refers to internal or framework methods alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodRef {
    /// Type that declares (or receives) the call.
    pub class: TypeId,
    /// String-pool index of the method name.
    pub name: u32,
    /// String-pool index of the descriptor, e.g. `(Ljava/lang/String;)V`.
    pub descriptor: u32,
}

/// Class-level flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassFlags {
    /// Declared `public`.
    pub public: bool,
    /// Is an interface rather than a class.
    pub interface: bool,
    /// Declared `abstract`.
    pub abstract_: bool,
}

impl ClassFlags {
    fn to_bits(self) -> u64 {
        (self.public as u64) | (self.interface as u64) << 1 | (self.abstract_ as u64) << 2
    }

    fn from_bits(bits: u64) -> Self {
        ClassFlags {
            public: bits & 1 != 0,
            interface: bits & 2 != 0,
            abstract_: bits & 4 != 0,
        }
    }
}

/// How an `invoke` instruction dispatches, mirroring DEX invoke kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvokeKind {
    /// `invoke-virtual` — dispatch through the receiver's class hierarchy.
    Virtual,
    /// `invoke-static`.
    Static,
    /// `invoke-direct` — constructors and private methods.
    Direct,
    /// `invoke-interface`.
    Interface,
    /// `invoke-super`.
    Super,
}

impl InvokeKind {
    fn to_byte(self) -> u8 {
        match self {
            InvokeKind::Virtual => 0,
            InvokeKind::Static => 1,
            InvokeKind::Direct => 2,
            InvokeKind::Interface => 3,
            InvokeKind::Super => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ApkError> {
        Ok(match b {
            0 => InvokeKind::Virtual,
            1 => InvokeKind::Static,
            2 => InvokeKind::Direct,
            3 => InvokeKind::Interface,
            4 => InvokeKind::Super,
            other => return Err(ApkError::BadOpcode(0x10 | other)),
        })
    }
}

/// One SDEX instruction. The set is intentionally small: exactly what the
/// call-graph builder (invokes), decompiler (all of it), and the
/// constant-propagation pass that recovers string arguments need. The
/// data-bearing instructions carry register operands, so URL recovery is
/// def-use tracking rather than an adjacency accident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// Call the referenced method, passing the listed argument registers.
    Invoke {
        /// Dispatch kind.
        kind: InvokeKind,
        /// Callee reference.
        method: MethodId,
        /// Argument registers; for web-call methods the URL (or data)
        /// argument is `args[0]`.
        args: Vec<Reg>,
    },
    /// Load a string-pool constant (e.g. a URL later passed to `loadUrl`)
    /// into a register.
    ConstString {
        /// Destination register.
        dst: Reg,
        /// String-pool index.
        string: u32,
    },
    /// Copy one register into another.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Allocate an instance of a type (e.g. `new CustomTabsIntent.Builder`).
    NewInstance {
        /// Type allocated.
        ty: TypeId,
    },
    /// Conditional branch by a signed instruction offset.
    IfTest {
        /// Relative target, in instructions.
        offset: i32,
    },
    /// Unconditional branch by a signed instruction offset.
    Goto {
        /// Relative target, in instructions.
        offset: i32,
    },
    /// Return from a `void` method.
    ReturnVoid,
    /// No operation (padding the generator uses to vary method sizes).
    Nop,
}

const OP_INVOKE: u8 = 0x01;
const OP_CONST_STRING: u8 = 0x02;
const OP_NEW_INSTANCE: u8 = 0x03;
const OP_IF: u8 = 0x04;
const OP_GOTO: u8 = 0x05;
const OP_RETURN_VOID: u8 = 0x06;
const OP_NOP: u8 = 0x07;
const OP_MOVE: u8 = 0x08;

/// Hard ceiling on invoke argument counts, mirroring DEX's one-byte
/// argument count. Keeps a forged count from driving a huge allocation
/// before the per-register bounds checks run.
const MAX_INVOKE_ARGS: u64 = 255;

fn zigzag_encode(v: i32) -> u64 {
    ((v << 1) ^ (v >> 31)) as u32 as u64
}

fn zigzag_decode(v: u64) -> i32 {
    let v = v as u32;
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

impl Instruction {
    /// Highest register operand mentioned, if the instruction has any.
    pub fn max_reg(&self) -> Option<u16> {
        match self {
            Instruction::Invoke { args, .. } => args.iter().map(|r| r.0).max(),
            Instruction::ConstString { dst, .. } => Some(dst.0),
            Instruction::Move { dst, src } => Some(dst.0.max(src.0)),
            _ => None,
        }
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Instruction::Invoke { kind, method, args } => {
                buf.put_u8(OP_INVOKE);
                buf.put_u8(kind.to_byte());
                put_uvarint(buf, method.0 as u64);
                put_uvarint(buf, args.len() as u64);
                for a in args {
                    put_uvarint(buf, a.0 as u64);
                }
            }
            Instruction::ConstString { dst, string } => {
                buf.put_u8(OP_CONST_STRING);
                put_uvarint(buf, dst.0 as u64);
                put_uvarint(buf, *string as u64);
            }
            Instruction::Move { dst, src } => {
                buf.put_u8(OP_MOVE);
                put_uvarint(buf, dst.0 as u64);
                put_uvarint(buf, src.0 as u64);
            }
            Instruction::NewInstance { ty } => {
                buf.put_u8(OP_NEW_INSTANCE);
                put_uvarint(buf, ty.0 as u64);
            }
            Instruction::IfTest { offset } => {
                buf.put_u8(OP_IF);
                put_uvarint(buf, zigzag_encode(*offset));
            }
            Instruction::Goto { offset } => {
                buf.put_u8(OP_GOTO);
                put_uvarint(buf, zigzag_encode(*offset));
            }
            Instruction::ReturnVoid => buf.put_u8(OP_RETURN_VOID),
            Instruction::Nop => buf.put_u8(OP_NOP),
        }
    }

    /// Decode one instruction.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, ApkError> {
        if !buf.has_remaining() {
            return Err(ApkError::Truncated {
                context: "instruction opcode",
            });
        }
        let op = buf.get_u8();
        Ok(match op {
            OP_INVOKE => {
                if !buf.has_remaining() {
                    return Err(ApkError::Truncated {
                        context: "invoke kind",
                    });
                }
                let kind = InvokeKind::from_byte(buf.get_u8())?;
                let method = MethodId(get_uvarint(buf)? as u32);
                let argc = get_uvarint(buf)?;
                if argc > MAX_INVOKE_ARGS {
                    return Err(ApkError::Invalid("invoke argument count exceeds 255"));
                }
                let mut args = Vec::with_capacity(argc as usize);
                for _ in 0..argc {
                    args.push(Reg(get_uvarint(buf)? as u16));
                }
                Instruction::Invoke { kind, method, args }
            }
            OP_CONST_STRING => Instruction::ConstString {
                dst: Reg(get_uvarint(buf)? as u16),
                string: get_uvarint(buf)? as u32,
            },
            OP_MOVE => Instruction::Move {
                dst: Reg(get_uvarint(buf)? as u16),
                src: Reg(get_uvarint(buf)? as u16),
            },
            OP_NEW_INSTANCE => Instruction::NewInstance {
                ty: TypeId(get_uvarint(buf)? as u32),
            },
            OP_IF => Instruction::IfTest {
                offset: zigzag_decode(get_uvarint(buf)?),
            },
            OP_GOTO => Instruction::Goto {
                offset: zigzag_decode(get_uvarint(buf)?),
            },
            OP_RETURN_VOID => Instruction::ReturnVoid,
            OP_NOP => Instruction::Nop,
            other => return Err(ApkError::BadOpcode(other)),
        })
    }
}

/// A method *defined* in this SDEX file: a method-table reference plus code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDef {
    /// Reference into the method table.
    pub method: MethodId,
    /// Declared `public` (affects entry-point discovery for callbacks).
    pub public: bool,
    /// Declared `static`.
    pub static_: bool,
    /// Number of virtual registers the body may touch; every register
    /// operand in `code` must be below this.
    pub registers: u32,
    /// Encoded body.
    pub code: Vec<Instruction>,
}

impl MethodDef {
    /// Build a def whose register count is computed from the code itself
    /// (highest mentioned register + 1).
    pub fn new(method: MethodId, public: bool, static_: bool, code: Vec<Instruction>) -> Self {
        let registers = code
            .iter()
            .filter_map(Instruction::max_reg)
            .map(|r| r as u32 + 1)
            .max()
            .unwrap_or(0);
        MethodDef {
            method,
            public,
            static_,
            registers,
            code,
        }
    }
}

/// A class defined in this SDEX file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// This class's entry in the type table.
    pub ty: TypeId,
    /// Superclass link (`None` only for `java/lang/Object`-rooted synthetics).
    pub superclass: Option<TypeId>,
    /// Class-level flags.
    pub flags: ClassFlags,
    /// Methods with code.
    pub methods: Vec<MethodDef>,
}

/// Location of one string-pool entry inside [`Dex::pool`]. The bytes were
/// UTF-8-validated when the span was recorded, so lookups can slice without
/// re-checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StrSpan {
    off: u32,
    len: u32,
}

/// A parsed, validated SDEX file.
///
/// The string pool is a span table into `pool` rather than a
/// `Vec<String>`: for decoded files `pool` is the raw blob itself (shared
/// with the enclosing SAPK section via the `Bytes` refcount — the borrow
/// the pipeline needs, without a lifetime parameter), and for builder-made
/// files it is a packed concatenation of the interned strings. Either way
/// [`Dex::string`] is a bounds-checked slice, never an allocation.
/// Sentinel in [`Dex::class_index`] for types with no class definition.
/// Cannot collide with a real position: class counts are bounded well
/// below `u32::MAX` by the 4 GiB blob cap.
const NO_CLASS: u32 = u32::MAX;

#[derive(Clone)]
pub struct Dex {
    /// Backing bytes every [`StrSpan`] indexes into.
    pool: Bytes,
    strings: Vec<StrSpan>,
    types: Vec<u32>,
    methods: Vec<MethodRef>,
    classes: Vec<ClassDef>,
    /// type -> position in `classes`, direct-indexed by `TypeId` with
    /// [`NO_CLASS`] marking undefined types. An array, not a map: decode
    /// builds it with one `memset`-shaped fill instead of per-class
    /// hashing, and [`Dex::class`] — the hottest lookup in call-graph
    /// construction — is a bounds-checked load.
    class_index: Box<[u32]>,
    /// Type lookup table (the wire section after the class table): the
    /// canonical [`build_type_lut`] output — slot count a power of two,
    /// load ≤ 0.5, each slot `type_index + 1` or `0` for empty. Decode
    /// rejects any stored table that differs from the rebuild.
    lut: Box<[u32]>,
}

impl Dex {
    /// String-pool lookup. Panics only if `idx` escaped validation, which
    /// `decode` guarantees cannot happen for parsed files.
    #[allow(unsafe_code)]
    pub fn string(&self, idx: u32) -> &str {
        let s = self.strings[idx as usize];
        let bytes = &self.pool[s.off as usize..s.off as usize + s.len as usize];
        // SAFETY: every span is recorded exactly once, after a successful
        // `str::from_utf8` over these bytes (decode) or from an existing
        // `String` (builder), and `pool` is immutable from then on.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Binary name of a type, e.g. `com/example/Foo`.
    pub fn type_name(&self, ty: TypeId) -> &str {
        self.string(self.types[ty.0 as usize])
    }

    /// Number of entries in the type table — direct-indexed caches (e.g.
    /// the call graph's per-class vtables) size themselves from this.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// The method table entry for `id`.
    pub fn method_ref(&self, id: MethodId) -> MethodRef {
        self.methods[id.0 as usize]
    }

    /// Method name for `id`.
    pub fn method_name(&self, id: MethodId) -> &str {
        self.string(self.methods[id.0 as usize].name)
    }

    /// Number of entries in the method table.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Classes defined in this file.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// Mutable access to the class definitions — the corruption module
    /// re-encodes damaged method bodies through this.
    pub(crate) fn classes_mut(&mut self) -> &mut [ClassDef] {
        &mut self.classes
    }

    /// Look up a defined class by type id.
    pub fn class(&self, ty: TypeId) -> Option<&ClassDef> {
        match self.class_index.get(ty.0 as usize) {
            Some(&i) if i != NO_CLASS => self.classes.get(i as usize),
            _ => None,
        }
    }

    /// Look up a type id by binary name: an O(1) probe into the type
    /// lookup table. The table is canonical — the builder computes it and
    /// decode rejects any other — so every slot names a real type and
    /// load ≤ 0.5 leaves an empty slot to end every probe chain.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        let mask = self.lut.len() - 1;
        let mut i = fnv1a(name.as_bytes()) as usize & mask;
        loop {
            let t = TypeId(self.lut[i].checked_sub(1)?);
            if self.type_name(t) == name {
                return Some(t);
            }
            i = (i + 1) & mask;
        }
    }

    /// Mutable slots of the lookup table — the corruption module damages
    /// tables through this, then re-encodes; a damaged dex is never probed.
    pub(crate) fn lut_slots_mut(&mut self) -> &mut [u32] {
        &mut self.lut
    }

    /// Walk the superclass chain of `ty` (excluding `ty` itself), yielding
    /// type ids until the chain leaves the defined set. Allocation-free;
    /// the call-graph resolver and entry-point discovery iterate this per
    /// invoke site / per class, so it must not build a `Vec` each time.
    pub fn superclasses(&self, ty: TypeId) -> Superclasses<'_> {
        Superclasses {
            dex: self,
            cur: self.class(ty).and_then(|c| c.superclass),
        }
    }

    /// Serialize to the SDEX wire format.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        put_uvarint(&mut body, self.strings.len() as u64);
        for i in 0..self.strings.len() as u32 {
            put_string(&mut body, self.string(i));
        }
        put_uvarint(&mut body, self.types.len() as u64);
        for &s in &self.types {
            put_uvarint(&mut body, s as u64);
        }
        put_uvarint(&mut body, self.methods.len() as u64);
        for m in &self.methods {
            put_uvarint(&mut body, m.class.0 as u64);
            put_uvarint(&mut body, m.name as u64);
            put_uvarint(&mut body, m.descriptor as u64);
        }
        put_uvarint(&mut body, self.classes.len() as u64);
        for c in &self.classes {
            put_uvarint(&mut body, c.ty.0 as u64);
            match c.superclass {
                Some(s) => {
                    body.put_u8(1);
                    put_uvarint(&mut body, s.0 as u64);
                }
                None => body.put_u8(0),
            }
            put_uvarint(&mut body, c.flags.to_bits());
            put_uvarint(&mut body, c.methods.len() as u64);
            for m in &c.methods {
                put_uvarint(&mut body, m.method.0 as u64);
                body.put_u8(m.public as u8 | (m.static_ as u8) << 1);
                put_uvarint(&mut body, m.registers as u64);
                put_uvarint(&mut body, m.code.len() as u64);
                for ins in &m.code {
                    ins.encode(&mut body);
                }
            }
        }
        // Lookup-table section: a presence flag (always 1; decode rejects
        // 0), then the stored table verbatim. Emitting the *stored* slots
        // (never recomputing) keeps encoding canonical: decode(encode(d))
        // == d byte-for-byte.
        body.put_u8(1);
        put_uvarint(&mut body, self.lut.len() as u64);
        for &s in self.lut.iter() {
            body.put_u32_le(s);
        }

        let mut out = BytesMut::with_capacity(body.len() + 10);
        out.put_slice(&SDEX_MAGIC);
        out.put_u16_le(SDEX_VERSION);
        out.put_u32_le(adler32(&body));
        out.put_slice(&body);
        out.freeze()
    }

    /// Parse and validate an SDEX blob from a borrowed slice.
    ///
    /// Copies the blob once up front (the span table needs backing bytes
    /// that outlive this call); callers that already hold the blob as
    /// [`Bytes`] — e.g. an SAPK section — should use [`Dex::decode_bytes`],
    /// which shares the buffer instead of copying it.
    pub fn decode(raw: &[u8]) -> Result<Dex, ApkError> {
        Dex::decode_bytes(Bytes::copy_from_slice(raw))
    }

    /// Same as [`Dex::decode_bytes`]: the preset has one value, full
    /// validation.
    ///
    /// Kept only because the end-to-end benchmark package
    /// (`crates/bench/src/bin/benchmark`) calls it; nothing else in the
    /// workspace may.
    pub fn decode_bytes_with(raw: Bytes, _preset: VerifyPreset) -> Result<Dex, ApkError> {
        Dex::decode_bytes(raw)
    }

    /// Parse and validate an SDEX blob, zero-copy.
    ///
    /// One linear pass does all validation the old owning decoder did —
    /// UTF-8 over every pool entry, index bounds, instruction opcodes,
    /// checksum, lookup-table canonicality, structure — but records
    /// `(offset, len)` spans instead of materializing strings. The returned
    /// [`Dex`] keeps `raw` alive via the `Bytes` refcount; no byte of
    /// string data is copied.
    pub fn decode_bytes(raw: Bytes) -> Result<Dex, ApkError> {
        if raw.len() > u32::MAX as usize {
            // Spans are u32; real SDEX blobs are megabytes, not gigabytes.
            return Err(ApkError::Invalid("sdex blob exceeds 4 GiB"));
        }
        let full: &[u8] = &raw;
        let mut buf: &[u8] = full;
        if buf.remaining() < 4 {
            return Err(ApkError::Truncated { context: "magic" });
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != SDEX_MAGIC {
            return Err(ApkError::BadMagic {
                expected: "SDEX",
                found: magic,
            });
        }
        if buf.remaining() < 6 {
            return Err(ApkError::Truncated { context: "header" });
        }
        let version = buf.get_u16_le();
        if version != SDEX_VERSION {
            return Err(ApkError::UnsupportedVersion(version));
        }
        let stored = buf.get_u32_le();
        let computed = adler32(buf);
        if stored != computed {
            return Err(ApkError::ChecksumMismatch { stored, computed });
        }

        let string_count = get_uvarint(&mut buf)? as usize;
        let mut strings = Vec::with_capacity(string_count.min(1 << 20));
        for _ in 0..string_count {
            let (off, len) = get_string_span(full, &mut buf)?;
            strings.push(StrSpan { off, len });
        }

        let type_count = get_uvarint(&mut buf)? as usize;
        let mut types = Vec::with_capacity(type_count.min(1 << 20));
        for _ in 0..type_count {
            let s = get_uvarint(&mut buf)? as u32;
            check_index("string", s, strings.len())?;
            types.push(s);
        }

        let method_count = get_uvarint(&mut buf)? as usize;
        let mut methods = Vec::with_capacity(method_count.min(1 << 20));
        for _ in 0..method_count {
            let class = TypeId(get_uvarint(&mut buf)? as u32);
            let name = get_uvarint(&mut buf)? as u32;
            let descriptor = get_uvarint(&mut buf)? as u32;
            check_index("type", class.0, types.len())?;
            check_index("string", name, strings.len())?;
            check_index("string", descriptor, strings.len())?;
            methods.push(MethodRef {
                class,
                name,
                descriptor,
            });
        }

        let class_count = get_uvarint(&mut buf)? as usize;
        let mut classes = Vec::with_capacity(class_count.min(1 << 20));
        let mut class_index = vec![NO_CLASS; types.len()].into_boxed_slice();
        for _ in 0..class_count {
            let ty = TypeId(get_uvarint(&mut buf)? as u32);
            check_index("type", ty.0, types.len())?;
            if !buf.has_remaining() {
                return Err(ApkError::Truncated {
                    context: "superclass flag",
                });
            }
            let superclass = match buf.get_u8() {
                0 => None,
                _ => {
                    let s = TypeId(get_uvarint(&mut buf)? as u32);
                    check_index("type", s.0, types.len())?;
                    Some(s)
                }
            };
            let flags = ClassFlags::from_bits(get_uvarint(&mut buf)?);
            let def_count = get_uvarint(&mut buf)? as usize;
            let mut defs = Vec::with_capacity(def_count.min(1 << 16));
            for _ in 0..def_count {
                let method = MethodId(get_uvarint(&mut buf)? as u32);
                check_index("method", method.0, methods.len())?;
                if !buf.has_remaining() {
                    return Err(ApkError::Truncated {
                        context: "method flags",
                    });
                }
                let fl = buf.get_u8();
                let registers = get_uvarint(&mut buf)? as u32;
                let code_len = get_uvarint(&mut buf)? as usize;
                let mut code = Vec::with_capacity(code_len.min(1 << 16));
                for _ in 0..code_len {
                    let ins = Instruction::decode(&mut buf)?;
                    validate_instruction(
                        &ins,
                        strings.len(),
                        types.len(),
                        methods.len(),
                        registers,
                    )?;
                    code.push(ins);
                }
                defs.push(MethodDef {
                    method,
                    public: fl & 1 != 0,
                    static_: fl & 2 != 0,
                    registers,
                    code,
                });
            }
            let slot = &mut class_index[ty.0 as usize];
            if *slot != NO_CLASS {
                return Err(ApkError::Invalid("duplicate class definition"));
            }
            *slot = classes.len() as u32;
            classes.push(ClassDef {
                ty,
                superclass,
                flags,
                methods: defs,
            });
        }

        let lut = get_lookup_table(&mut buf, types.len(), |t| {
            let s = strings[types[t as usize] as usize];
            &full[s.off as usize..(s.off + s.len) as usize]
        })?;

        if buf.has_remaining() {
            return Err(ApkError::Invalid("trailing bytes after class table"));
        }

        let dex = Dex {
            pool: raw,
            strings,
            types,
            methods,
            classes,
            class_index,
            lut,
        };
        dex.validate_hierarchy()?;
        Ok(dex)
    }

    /// Reject superclass cycles among defined classes.
    fn validate_hierarchy(&self) -> Result<(), ApkError> {
        for c in &self.classes {
            let mut seen = 0usize;
            let mut cur = c.superclass;
            while let Some(s) = cur {
                seen += 1;
                if seen > self.classes.len() {
                    return Err(ApkError::Invalid("superclass cycle"));
                }
                cur = self.class(s).and_then(|d| d.superclass);
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Dex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Resolve the pool for readable test diffs instead of dumping spans
        // plus a byte soup.
        let strings: Vec<&str> = (0..self.strings.len() as u32)
            .map(|i| self.string(i))
            .collect();
        f.debug_struct("Dex")
            .field("strings", &strings)
            .field("types", &self.types)
            .field("methods", &self.methods)
            .field("classes", &self.classes)
            .finish()
    }
}

/// Equality by content: two dexes are equal when their resolved string
/// pools and tables match, regardless of whether the pool bytes live in a
/// decoded blob or a builder-packed buffer.
impl PartialEq for Dex {
    fn eq(&self, other: &Self) -> bool {
        self.strings.len() == other.strings.len()
            && (0..self.strings.len() as u32).all(|i| self.string(i) == other.string(i))
            && self.types == other.types
            && self.methods == other.methods
            && self.classes == other.classes
    }
}

impl Eq for Dex {}

/// Iterator over the defined ancestors of a type, produced by
/// [`Dex::superclasses`]. Terminates because `Dex::decode` rejects
/// superclass cycles (builder-made dexes are trusted the same way).
#[derive(Debug, Clone)]
pub struct Superclasses<'d> {
    dex: &'d Dex,
    cur: Option<TypeId>,
}

impl Iterator for Superclasses<'_> {
    type Item = TypeId;

    fn next(&mut self) -> Option<TypeId> {
        let s = self.cur?;
        self.cur = self.dex.class(s).and_then(|c| c.superclass);
        Some(s)
    }
}

/// 32-bit FNV-1a over a type's binary name — the lookup-table hash.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Slot count for a lookup table over `type_count` entries: the next power
/// of two at or above twice the entry count, so load factor stays ≤ 0.5 and
/// linear probe chains stay short. A typeless dex gets a single empty slot.
fn lut_slot_count(type_count: usize) -> usize {
    (type_count * 2).next_power_of_two()
}

/// Build the canonical type lookup table: open addressing with linear
/// probing, slots storing `type_index + 1` (`0` = empty). Types are
/// inserted in table order, so among duplicate names the smallest type id
/// sits earliest on its probe chain — probing preserves the first-match
/// semantics of the linear scan it replaces.
fn build_type_lut<'a>(type_count: usize, name_of: impl Fn(u32) -> &'a [u8]) -> Box<[u32]> {
    let cap = lut_slot_count(type_count);
    let mut slots = vec![0u32; cap].into_boxed_slice();
    let mask = cap - 1;
    for t in 0..type_count as u32 {
        let mut i = fnv1a(name_of(t)) as usize & mask;
        while slots[i] != 0 {
            i = (i + 1) & mask;
        }
        slots[i] = t + 1;
    }
    slots
}

/// Parse the lookup-table section at the end of the body and check it
/// against the canonical rebuild over the `type_count` type names. Every
/// SDEX v3 blob carries the table, so a zero presence flag is invalid.
fn get_lookup_table<'a>(
    buf: &mut &[u8],
    type_count: usize,
    name_of: impl Fn(u32) -> &'a [u8],
) -> Result<Box<[u32]>, ApkError> {
    if !buf.has_remaining() {
        return Err(ApkError::Truncated {
            context: "lookup-table flag",
        });
    }
    if buf.get_u8() == 0 {
        return Err(ApkError::Invalid("lookup table missing"));
    }
    let slot_count = get_uvarint(buf)? as usize;
    // The remaining-bytes check stops a forged count from driving a huge
    // allocation, and the probe mask needs a power of two.
    if buf.remaining() / 4 < slot_count {
        return Err(ApkError::Truncated {
            context: "lookup-table slots",
        });
    }
    if !slot_count.is_power_of_two() {
        return Err(ApkError::Invalid("lookup table size not a power of two"));
    }
    let mut slots = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        slots.push(buf.get_u32_le());
    }
    for &v in &slots {
        if v != 0 {
            check_index("type", v - 1, type_count)?;
        }
    }
    let slots = slots.into_boxed_slice();
    if build_type_lut(type_count, name_of) != slots {
        return Err(ApkError::Invalid("lookup table mismatch"));
    }
    Ok(slots)
}

fn check_index(table: &'static str, index: u32, len: usize) -> Result<(), ApkError> {
    if (index as usize) < len {
        Ok(())
    } else {
        Err(ApkError::IndexOutOfRange {
            table,
            index,
            len: len as u32,
        })
    }
}

fn validate_instruction(
    ins: &Instruction,
    strings: usize,
    types: usize,
    methods: usize,
    registers: u32,
) -> Result<(), ApkError> {
    let check_reg = |r: Reg| check_index("register", r.0 as u32, registers as usize);
    match ins {
        Instruction::Invoke { method, args, .. } => {
            check_index("method", method.0, methods)?;
            args.iter().try_for_each(|&a| check_reg(a))
        }
        Instruction::ConstString { dst, string } => {
            check_index("string", *string, strings)?;
            check_reg(*dst)
        }
        Instruction::Move { dst, src } => {
            check_reg(*dst)?;
            check_reg(*src)
        }
        Instruction::NewInstance { ty } => check_index("type", ty.0, types),
        _ => Ok(()),
    }
}

/// [`DexBuilder`]'s `type_index` entry for a string that names no type.
const NO_TYPE: u32 = u32::MAX;

/// Incremental writer for [`Dex`] files with interning of strings, types,
/// and method references. This is what the corpus generator lowers app
/// behaviour through.
#[derive(Debug, Default)]
pub struct DexBuilder {
    /// Each interned string, held once, to its pool index.
    string_index: HashMap<Box<str>, u32, FxBuildHasher>,
    types: Vec<u32>,
    /// string pool index -> the type it names, or [`NO_TYPE`]; one entry
    /// per interned string.
    type_index: Vec<u32>,
    methods: Vec<MethodRef>,
    method_index: HashMap<(TypeId, u32, u32), MethodId, FxBuildHasher>,
    classes: Vec<ClassDef>,
    /// type -> position in `classes`, laid out as [`Dex::class_index`].
    class_index: Vec<u32>,
}

impl DexBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning its pool index.
    pub fn intern_string(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.string_index.get(s) {
            return i;
        }
        let i = self.string_index.len() as u32;
        self.string_index.insert(s.into(), i);
        self.type_index.push(NO_TYPE);
        i
    }

    /// Intern a type by binary name.
    pub fn intern_type(&mut self, name: &str) -> TypeId {
        let s = self.intern_string(name);
        let slot = &mut self.type_index[s as usize];
        if *slot == NO_TYPE {
            *slot = self.types.len() as u32;
            self.types.push(s);
            self.class_index.push(NO_CLASS);
        }
        TypeId(*slot)
    }

    /// Intern a method reference.
    pub fn intern_method(&mut self, class: &str, name: &str, descriptor: &str) -> MethodId {
        let class = self.intern_type(class);
        let name = self.intern_string(name);
        let descriptor = self.intern_string(descriptor);
        let key = (class, name, descriptor);
        if let Some(&m) = self.method_index.get(&key) {
            return m;
        }
        let m = MethodId(self.methods.len() as u32);
        self.methods.push(MethodRef {
            class,
            name,
            descriptor,
        });
        self.method_index.insert(key, m);
        m
    }

    /// Define a class. Returns an error token if the class already exists.
    pub fn define_class(
        &mut self,
        name: &str,
        superclass: Option<&str>,
        flags: ClassFlags,
        methods: Vec<MethodDef>,
    ) -> Result<TypeId, ApkError> {
        let ty = self.intern_type(name);
        if self.class_index[ty.0 as usize] != NO_CLASS {
            return Err(ApkError::Invalid("duplicate class definition"));
        }
        let superclass = superclass.map(|s| self.intern_type(s));
        self.class_index[ty.0 as usize] = self.classes.len() as u32;
        self.classes.push(ClassDef {
            ty,
            superclass,
            flags,
            methods,
        });
        Ok(ty)
    }

    /// Finish, producing an immutable [`Dex`]. The interned strings are
    /// packed by pool index into one contiguous pool, so lookups go
    /// through the same span path as decoded files.
    pub fn build(self) -> Dex {
        let mut by_index = vec![""; self.string_index.len()];
        for (s, &i) in &self.string_index {
            by_index[i as usize] = s;
        }
        let mut pool = BytesMut::with_capacity(by_index.iter().map(|s| s.len()).sum());
        let spans: Vec<StrSpan> = by_index
            .iter()
            .map(|s| {
                let span = StrSpan {
                    off: pool.len() as u32,
                    len: s.len() as u32,
                };
                pool.put_slice(s.as_bytes());
                span
            })
            .collect();
        let pool = pool.freeze();
        let lut = build_type_lut(self.types.len(), |t| {
            let s = spans[self.types[t as usize] as usize];
            &pool[s.off as usize..(s.off + s.len) as usize]
        });
        Dex {
            pool,
            strings: spans,
            types: self.types,
            methods: self.methods,
            classes: self.classes,
            class_index: self.class_index.into_boxed_slice(),
            lut,
        }
    }
}

/// The pre-zero-copy owning decoder, kept as an equivalence oracle.
///
/// [`Dex::decode_bytes`] validates in one pass and records spans;
/// [`decode`](oracle::decode) here materializes an owned `String` per pool
/// entry, exactly as the parser shipped before the zero-copy refactor. The
/// property suite in `tests/decode_equivalence.rs` pins the two together:
/// identical `Ok` structures and identical [`ApkError`] kinds over valid
/// blobs and every `corrupt.rs` mutation.
pub mod oracle {
    use super::*;
    use crate::wire::get_string;

    /// Decoded SDEX with an owned string pool — the old representation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OwnedDex {
        /// Owned string pool, one allocation per entry.
        pub strings: Vec<String>,
        /// Type table (string-pool indices).
        pub types: Vec<u32>,
        /// Method table.
        pub methods: Vec<MethodRef>,
        /// Defined classes.
        pub classes: Vec<ClassDef>,
    }

    /// Structural equality against the zero-copy representation: the pools
    /// resolve to the same strings and the tables match.
    impl PartialEq<OwnedDex> for Dex {
        fn eq(&self, other: &OwnedDex) -> bool {
            self.strings.len() == other.strings.len()
                && (0..other.strings.len() as u32)
                    .all(|i| self.string(i) == other.strings[i as usize])
                && self.types == other.types
                && self.methods == other.methods
                && self.classes == other.classes
        }
    }

    impl PartialEq<Dex> for OwnedDex {
        fn eq(&self, other: &Dex) -> bool {
            other == self
        }
    }

    /// Parse and validate an SDEX blob the old way: owned `String` per
    /// pool entry, identical validation order and error kinds.
    pub fn decode(raw: &[u8]) -> Result<OwnedDex, ApkError> {
        if raw.len() > u32::MAX as usize {
            // Mirrors the span-width guard in `Dex::decode_bytes` so the
            // two decoders stay equivalent on every input.
            return Err(ApkError::Invalid("sdex blob exceeds 4 GiB"));
        }
        let mut buf = raw;
        if buf.remaining() < 4 {
            return Err(ApkError::Truncated { context: "magic" });
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != SDEX_MAGIC {
            return Err(ApkError::BadMagic {
                expected: "SDEX",
                found: magic,
            });
        }
        if buf.remaining() < 6 {
            return Err(ApkError::Truncated { context: "header" });
        }
        let version = buf.get_u16_le();
        if version != SDEX_VERSION {
            return Err(ApkError::UnsupportedVersion(version));
        }
        let stored = buf.get_u32_le();
        let computed = adler32(buf);
        if stored != computed {
            return Err(ApkError::ChecksumMismatch { stored, computed });
        }

        let string_count = get_uvarint(&mut buf)? as usize;
        let mut strings = Vec::with_capacity(string_count.min(1 << 20));
        for _ in 0..string_count {
            strings.push(get_string(&mut buf)?);
        }

        let type_count = get_uvarint(&mut buf)? as usize;
        let mut types = Vec::with_capacity(type_count.min(1 << 20));
        for _ in 0..type_count {
            let s = get_uvarint(&mut buf)? as u32;
            check_index("string", s, strings.len())?;
            types.push(s);
        }

        let method_count = get_uvarint(&mut buf)? as usize;
        let mut methods = Vec::with_capacity(method_count.min(1 << 20));
        for _ in 0..method_count {
            let class = TypeId(get_uvarint(&mut buf)? as u32);
            let name = get_uvarint(&mut buf)? as u32;
            let descriptor = get_uvarint(&mut buf)? as u32;
            check_index("type", class.0, types.len())?;
            check_index("string", name, strings.len())?;
            check_index("string", descriptor, strings.len())?;
            methods.push(MethodRef {
                class,
                name,
                descriptor,
            });
        }

        let class_count = get_uvarint(&mut buf)? as usize;
        let mut classes: Vec<ClassDef> = Vec::with_capacity(class_count.min(1 << 20));
        let mut class_index = HashMap::with_capacity(class_count.min(1 << 20));
        for _ in 0..class_count {
            let ty = TypeId(get_uvarint(&mut buf)? as u32);
            check_index("type", ty.0, types.len())?;
            if !buf.has_remaining() {
                return Err(ApkError::Truncated {
                    context: "superclass flag",
                });
            }
            let superclass = match buf.get_u8() {
                0 => None,
                _ => {
                    let s = TypeId(get_uvarint(&mut buf)? as u32);
                    check_index("type", s.0, types.len())?;
                    Some(s)
                }
            };
            let flags = ClassFlags::from_bits(get_uvarint(&mut buf)?);
            let def_count = get_uvarint(&mut buf)? as usize;
            let mut defs = Vec::with_capacity(def_count.min(1 << 16));
            for _ in 0..def_count {
                let method = MethodId(get_uvarint(&mut buf)? as u32);
                check_index("method", method.0, methods.len())?;
                if !buf.has_remaining() {
                    return Err(ApkError::Truncated {
                        context: "method flags",
                    });
                }
                let fl = buf.get_u8();
                let registers = get_uvarint(&mut buf)? as u32;
                let code_len = get_uvarint(&mut buf)? as usize;
                let mut code = Vec::with_capacity(code_len.min(1 << 16));
                for _ in 0..code_len {
                    let ins = Instruction::decode(&mut buf)?;
                    validate_instruction(
                        &ins,
                        strings.len(),
                        types.len(),
                        methods.len(),
                        registers,
                    )?;
                    code.push(ins);
                }
                defs.push(MethodDef {
                    method,
                    public: fl & 1 != 0,
                    static_: fl & 2 != 0,
                    registers,
                    code,
                });
            }
            if class_index.insert(ty, classes.len()).is_some() {
                return Err(ApkError::Invalid("duplicate class definition"));
            }
            classes.push(ClassDef {
                ty,
                superclass,
                flags,
                methods: defs,
            });
        }

        // Lookup-table section: parsed and verified exactly like the
        // zero-copy decoder, then dropped — the owning representation
        // predates the section and name lookups on it are not on any hot
        // path.
        get_lookup_table(&mut buf, types.len(), |t| {
            strings[types[t as usize] as usize].as_bytes()
        })?;

        if buf.has_remaining() {
            return Err(ApkError::Invalid("trailing bytes after class table"));
        }

        // Cycle check, same walk as `Dex::validate_hierarchy`.
        for c in &classes {
            let mut seen = 0usize;
            let mut cur = c.superclass;
            while let Some(s) = cur {
                seen += 1;
                if seen > classes.len() {
                    return Err(ApkError::Invalid("superclass cycle"));
                }
                cur = class_index.get(&s).and_then(|&i| classes[i].superclass);
            }
        }

        Ok(OwnedDex {
            strings,
            types,
            methods,
            classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but structurally complete dex: an activity whose `onCreate`
    /// calls an SDK helper which calls `WebView.loadUrl`.
    pub(crate) fn sample_dex() -> Dex {
        let mut b = DexBuilder::new();
        let load_url =
            b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
        let url = b.intern_string("https://ads.example.net/creative");
        let helper = b.intern_method("com/applovin/adview/AdRenderer", "render", "()V");
        b.define_class(
            "com/applovin/adview/AdRenderer",
            Some("java/lang/Object"),
            ClassFlags {
                public: true,
                ..Default::default()
            },
            vec![MethodDef::new(
                helper,
                true,
                false,
                vec![
                    Instruction::ConstString {
                        dst: Reg(0),
                        string: url,
                    },
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: load_url,
                        args: vec![Reg(0)],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        let on_create = b.intern_method("com/example/app/MainActivity", "onCreate", "(B)V");
        b.define_class(
            "com/example/app/MainActivity",
            Some("android/app/Activity"),
            ClassFlags {
                public: true,
                ..Default::default()
            },
            vec![MethodDef::new(
                on_create,
                true,
                false,
                vec![
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: helper,
                        args: vec![],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn roundtrip_sample() {
        let dex = sample_dex();
        let bytes = dex.encode();
        let back = Dex::decode(&bytes).unwrap();
        assert_eq!(dex, back);
    }

    #[test]
    fn decode_bytes_is_zero_copy() {
        let blob = sample_dex().encode();
        let back = Dex::decode_bytes(blob.clone()).unwrap();
        // The resolved strings point into the blob itself, not a copy.
        let range = blob.as_ptr() as usize..blob.as_ptr() as usize + blob.len();
        for i in 0..back.strings.len() as u32 {
            let s = back.string(i);
            assert!(
                s.is_empty() || range.contains(&(s.as_ptr() as usize)),
                "string {i} was copied out of the blob"
            );
        }
        assert_eq!(back, sample_dex());
    }

    #[test]
    fn oracle_matches_zero_copy_on_sample() {
        let bytes = sample_dex().encode();
        let zc = Dex::decode(&bytes).unwrap();
        let owned = oracle::decode(&bytes).unwrap();
        assert_eq!(zc, owned);
        assert_eq!(owned, zc);
    }

    #[test]
    fn builder_interns() {
        let mut b = DexBuilder::new();
        let a = b.intern_string("x");
        let a2 = b.intern_string("x");
        assert_eq!(a, a2);
        let t = b.intern_type("com/example/T");
        let t2 = b.intern_type("com/example/T");
        assert_eq!(t, t2);
        let m = b.intern_method("com/example/T", "f", "()V");
        let m2 = b.intern_method("com/example/T", "f", "()V");
        assert_eq!(m, m2);
        let m3 = b.intern_method("com/example/T", "f", "(I)V");
        assert_ne!(m, m3);
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut b = DexBuilder::new();
        b.define_class("com/x/A", None, ClassFlags::default(), vec![])
            .unwrap();
        assert!(b
            .define_class("com/x/A", None, ClassFlags::default(), vec![])
            .is_err());
    }

    #[test]
    fn lookup_helpers() {
        let dex = sample_dex();
        let main = dex.type_by_name("com/example/app/MainActivity").unwrap();
        let act = dex.class(main).unwrap();
        assert_eq!(dex.type_name(act.ty), "com/example/app/MainActivity");
        assert_eq!(
            dex.type_name(act.superclass.unwrap()),
            "android/app/Activity"
        );
        assert!(dex.type_by_name("missing/Class").is_none());
        let wv = dex.type_by_name("android/webkit/WebView").unwrap();
        // WebView is referenced but not defined here.
        assert!(dex.class(wv).is_none());
    }

    #[test]
    fn checksum_detects_flip() {
        let bytes = sample_dex().encode().to_vec();
        let mut bad = bytes.clone();
        let i = bytes.len() - 3;
        bad[i] ^= 0x40;
        match Dex::decode(&bad) {
            Err(ApkError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_dex().encode().to_vec();
        bytes[0] = b'Z';
        assert!(matches!(
            Dex::decode(&bytes),
            Err(ApkError::BadMagic {
                expected: "SDEX",
                ..
            })
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = sample_dex().encode().to_vec();
        bytes[4] = 0xff; // version LE low byte
        assert!(matches!(
            Dex::decode(&bytes),
            Err(ApkError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample_dex().encode();
        for cut in 0..bytes.len() {
            assert!(
                Dex::decode(&bytes[..cut]).is_err(),
                "decode accepted a {cut}-byte prefix of a {}-byte file",
                bytes.len()
            );
        }
    }

    #[test]
    fn superclass_cycle_rejected() {
        // Hand-assemble a dex whose A extends B extends A.
        let mut b = DexBuilder::new();
        b.intern_type("com/x/A");
        b.intern_type("com/x/B");
        let mut dex = b.build();
        let a = dex.type_by_name("com/x/A").unwrap();
        let bb = dex.type_by_name("com/x/B").unwrap();
        dex.classes.push(ClassDef {
            ty: a,
            superclass: Some(bb),
            flags: ClassFlags::default(),
            methods: vec![],
        });
        dex.classes.push(ClassDef {
            ty: bb,
            superclass: Some(a),
            flags: ClassFlags::default(),
            methods: vec![],
        });
        dex.class_index[a.0 as usize] = 0;
        dex.class_index[bb.0 as usize] = 1;
        let bytes = dex.encode();
        assert_eq!(
            Dex::decode(&bytes),
            Err(ApkError::Invalid("superclass cycle"))
        );
    }

    #[test]
    fn superclasses_walks_defined_classes() {
        let mut b = DexBuilder::new();
        let m = b.intern_method("com/x/C", "f", "()V");
        b.define_class(
            "com/x/A",
            Some("android/webkit/WebView"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.define_class("com/x/B", Some("com/x/A"), ClassFlags::default(), vec![])
            .unwrap();
        b.define_class(
            "com/x/C",
            Some("com/x/B"),
            ClassFlags::default(),
            vec![MethodDef::new(
                m,
                true,
                false,
                vec![Instruction::ReturnVoid],
            )],
        )
        .unwrap();
        let dex = b.build();
        let c = dex.type_by_name("com/x/C").unwrap();
        let chain: Vec<_> = dex
            .superclasses(c)
            .map(|t| dex.type_name(t).to_owned())
            .collect();
        assert_eq!(chain, ["com/x/B", "com/x/A", "android/webkit/WebView"]);
    }

    #[test]
    fn trailing_garbage_rejected() {
        // Appending bytes invalidates the checksum; fixing the checksum then
        // trips the trailing-bytes rule. Cover the latter path directly.
        let dex = sample_dex();
        let encoded = dex.encode();
        let mut body = encoded[10..].to_vec();
        body.push(0x00);
        let mut forged = Vec::new();
        forged.extend_from_slice(&SDEX_MAGIC);
        forged.extend_from_slice(&SDEX_VERSION.to_le_bytes());
        forged.extend_from_slice(&crate::wire::adler32(&body).to_le_bytes());
        forged.extend_from_slice(&body);
        assert!(matches!(Dex::decode(&forged), Err(ApkError::Invalid(_))));
    }

    #[test]
    fn empty_dex_roundtrips() {
        let dex = DexBuilder::new().build();
        let back = Dex::decode(&dex.encode()).unwrap();
        assert_eq!(back.classes().len(), 0);
        assert_eq!(back.strings.len(), 0);
    }

    #[test]
    fn register_shuffled_code_roundtrips() {
        let mut b = DexBuilder::new();
        let load_url =
            b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
        let url = b.intern_string("https://cdn.example/page");
        let decoy = b.intern_string("decoy");
        let m = b.intern_method("com/x/A", "go", "()V");
        b.define_class(
            "com/x/A",
            None,
            ClassFlags::default(),
            vec![MethodDef::new(
                m,
                true,
                false,
                vec![
                    Instruction::ConstString {
                        dst: Reg(0),
                        string: url,
                    },
                    Instruction::ConstString {
                        dst: Reg(1),
                        string: decoy,
                    },
                    Instruction::Move {
                        dst: Reg(2),
                        src: Reg(0),
                    },
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: load_url,
                        args: vec![Reg(2)],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        let dex = b.build();
        assert_eq!(dex.classes()[0].methods[0].registers, 3);
        let back = Dex::decode(&dex.encode()).unwrap();
        assert_eq!(dex, back);
        let owned = oracle::decode(&dex.encode()).unwrap();
        assert_eq!(back, owned);
    }

    #[test]
    fn out_of_range_register_rejected() {
        // Hand-build a def whose register count is too small for its code;
        // the encoder trusts it, the decoder must not.
        let mut b = DexBuilder::new();
        let url = b.intern_string("https://x.example");
        let m = b.intern_method("com/x/A", "f", "()V");
        b.define_class(
            "com/x/A",
            None,
            ClassFlags::default(),
            vec![MethodDef {
                method: m,
                public: true,
                static_: false,
                registers: 1,
                code: vec![
                    Instruction::ConstString {
                        dst: Reg(4),
                        string: url,
                    },
                    Instruction::ReturnVoid,
                ],
            }],
        )
        .unwrap();
        let bytes = b.build().encode();
        for result in [
            Dex::decode(&bytes).err().map(|e| format!("{e:?}")),
            oracle::decode(&bytes).err().map(|e| format!("{e:?}")),
        ] {
            let err = result.expect("decoder accepted an out-of-range register");
            assert!(err.contains("register"), "unexpected error: {err}");
        }
    }

    /// Frame `body` with an SDEX header at wire `version` and a valid
    /// Adler-32, so decoding reaches the checks behind the checksum.
    fn framed(version: u16, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SDEX_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&adler32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// Hand-assemble a version-1 body (no register operands on the wire).
    /// `count` is the instruction count; `code` the pre-encoded bytes.
    fn v1_blob(count: u64, code: &[u8]) -> Vec<u8> {
        let mut body = BytesMut::new();
        // strings: "com/x/A", "f", "()V", "https://v1.example"
        put_uvarint(&mut body, 4);
        for s in ["com/x/A", "f", "()V", "https://v1.example"] {
            put_string(&mut body, s);
        }
        // types: [string 0]
        put_uvarint(&mut body, 1);
        put_uvarint(&mut body, 0);
        // methods: [(type 0, name 1, desc 2)]
        put_uvarint(&mut body, 1);
        for idx in [0u64, 1, 2] {
            put_uvarint(&mut body, idx);
        }
        // one class: type 0, no superclass, public, one method
        put_uvarint(&mut body, 1);
        put_uvarint(&mut body, 0);
        body.put_u8(0);
        put_uvarint(
            &mut body,
            ClassFlags {
                public: true,
                ..Default::default()
            }
            .to_bits(),
        );
        put_uvarint(&mut body, 1);
        put_uvarint(&mut body, 0); // method id
        body.put_u8(1); // public
                        // no `registers` varint in version 1
        put_uvarint(&mut body, count);
        body.put_slice(code);
        framed(1, &body)
    }

    /// Hand-assemble the sample dex body at wire version 2 (registers, no
    /// lookup-table section).
    fn v2_blob() -> Vec<u8> {
        let dex = sample_dex();
        let v3 = dex.encode();
        // The v3 body is the v2 body plus the trailing lut section; strip
        // the section (flag byte + count varint + slots) and re-stamp.
        let slots = dex.lut.len();
        let mut count_len = Vec::new();
        put_uvarint(&mut count_len, slots as u64);
        let body_end = v3.len() - (1 + count_len.len() + slots * 4);
        framed(2, &v3[10..body_end])
    }

    #[test]
    fn version1_blob_is_unsupported() {
        // const-string #3; invoke-virtual kind=0 method=0; return-void —
        // the retired pre-register layout, one byte-coded instruction each.
        let blob = v1_blob(3, &[OP_CONST_STRING, 3, OP_INVOKE, 0, 0, OP_RETURN_VOID]);
        assert_eq!(Dex::decode(&blob), Err(ApkError::UnsupportedVersion(1)));
        assert_eq!(
            oracle::decode(&blob).unwrap_err(),
            ApkError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn version1_move_blob_is_unsupported() {
        // The version gate fires before any opcode is read, so a body that
        // was malformed even at version 1 reports the version, not `move`.
        let blob = v1_blob(2, &[OP_MOVE, 0, 0, OP_RETURN_VOID]);
        assert_eq!(Dex::decode(&blob), Err(ApkError::UnsupportedVersion(1)));
        assert_eq!(
            oracle::decode(&blob).unwrap_err(),
            ApkError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn version2_blob_is_unsupported() {
        let blob = v2_blob();
        assert_eq!(Dex::decode(&blob), Err(ApkError::UnsupportedVersion(2)));
        assert_eq!(
            oracle::decode(&blob).unwrap_err(),
            ApkError::UnsupportedVersion(2)
        );
    }

    #[test]
    fn invalid_utf8_rejected_on_every_entry_point() {
        // One string-pool byte overwritten with 0xFF (never valid UTF-8)
        // behind a restamped checksum. `Dex::string` slices the pool
        // without re-checking, so every entry point must run the scan.
        let blob = sample_dex().encode();
        let url = b"https://ads.example.net/creative";
        let at = blob.windows(url.len()).position(|w| w == url).unwrap();
        let mut body = blob[10..].to_vec();
        body[at - 10] = 0xFF;
        let bad = framed(SDEX_VERSION, &body);
        assert_eq!(Dex::decode(&bad), Err(ApkError::BadUtf8));
        assert_eq!(
            Dex::decode_bytes(Bytes::from(bad.clone())),
            Err(ApkError::BadUtf8)
        );
        assert_eq!(
            Dex::decode_bytes_with(Bytes::from(bad.clone()), VerifyPreset::All),
            Err(ApkError::BadUtf8)
        );
        assert_eq!(oracle::decode(&bad).unwrap_err(), ApkError::BadUtf8);
    }

    #[test]
    fn lookup_table_probe_matches_linear_scan() {
        let dex = sample_dex();
        let types = || (0..dex.type_count() as u32).map(TypeId);
        for t in types() {
            let name = dex.type_name(t).to_owned();
            let scan = types().find(|&u| dex.type_name(u) == name);
            assert_eq!(dex.type_by_name(&name), scan, "{name}");
        }
        assert_eq!(dex.type_by_name("missing/Class"), None);
        // The stored table survives the wire roundtrip and probes the same.
        let back = Dex::decode_bytes(dex.encode()).unwrap();
        for t in (0..back.type_count() as u32).map(TypeId) {
            let name = back.type_name(t).to_owned();
            assert_eq!(back.type_by_name(&name), Some(t));
        }
    }

    #[test]
    fn absent_lookup_table_flag_rejected() {
        // A v3 body whose lookup-table flag is 0, checksum restamped: the
        // table is mandatory, and both decoders reject it with one value.
        let mut body = v2_blob()[10..].to_vec();
        body.push(0);
        let blob = framed(SDEX_VERSION, &body);
        let missing = ApkError::Invalid("lookup table missing");
        assert_eq!(Dex::decode(&blob).unwrap_err(), missing);
        assert_eq!(oracle::decode(&blob).unwrap_err(), missing);
        // The sample's stored table re-encodes verbatim (canonicality).
        let good = sample_dex().encode();
        assert_eq!(
            &Dex::decode_bytes(good.clone()).unwrap().encode()[..],
            &good[..]
        );
    }

    #[test]
    fn damaged_lookup_table_rejected_at_all() {
        let mut dex = sample_dex();
        let type_count = dex.type_count() as u32;
        {
            let slots = dex.lut_slots_mut();
            let i = slots.iter().position(|&v| v != 0).unwrap();
            // In-range but wrong slot value: caught by the canonical
            // rebuild compare, not the per-slot bounds check.
            slots[i] = (slots[i] % type_count) + 1;
        }
        let blob = dex.encode(); // restamps the checksum over the bad table
        match Dex::decode_bytes(blob) {
            Err(ApkError::Invalid("lookup table mismatch"))
            | Err(ApkError::IndexOutOfRange { .. }) => {}
            other => panic!("damaged table accepted: {other:?}"),
        }
    }

    #[test]
    fn oversized_invoke_arg_count_rejected() {
        let mut b = DexBuilder::new();
        let m = b.intern_method("com/x/A", "f", "()V");
        let callee = b.intern_method("com/x/A", "g", "()V");
        b.define_class(
            "com/x/A",
            None,
            ClassFlags::default(),
            vec![MethodDef {
                method: m,
                public: true,
                static_: false,
                registers: 300,
                code: vec![Instruction::Invoke {
                    kind: InvokeKind::Static,
                    method: callee,
                    args: (0..300).map(Reg).collect(),
                }],
            }],
        )
        .unwrap();
        let bytes = b.build().encode();
        assert!(matches!(
            Dex::decode(&bytes),
            Err(ApkError::Invalid("invoke argument count exceeds 255"))
        ));
    }
}
