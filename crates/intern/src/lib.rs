//! # wla-intern — the interned-symbol IR shared by the static pipeline
//!
//! At corpus scale the static path (§3.1) is dominated by string churn:
//! every call site used to materialize owned `String`s for method names,
//! caller classes, and dotted packages, and every aggregation pass hashed
//! those strings again. This crate replaces them with `u32` handles:
//!
//! * [`Symbol`] — a handle into an interner; [`PkgId`] — a symbol known to
//!   be a dotted Java package;
//! * [`LocalInterner`] — the unsynchronized per-worker interner the
//!   analysis stages write into: one string arena, its span ends, and an
//!   open-addressing index, so a new string costs no allocation of its own;
//! * [`SymbolTable`] — the frozen form of that table (arena plus span
//!   ends, at exact size), owned by each run's output for display-time
//!   resolution;
//! * [`merge_ordered`] — the join-time merge that freezes the workers'
//!   interners and rewrites their symbols, where they are stored, into one
//!   fresh table in input order, so global symbol ids are deterministic
//!   regardless of worker count or scheduling;
//! * [`FxBuildHasher`] — the multiplicative hasher every hot map uses
//!   (strings hashed once at intern time, `u32` keys everywhere after; a
//!   `u32` or `usize` key costs one multiply).
//!
//! Symbol lifecycle: decode → per-worker intern → merge (remap + freeze) →
//! report-time resolve. A `Symbol` is only meaningful relative to the
//! table that produced it; the pipeline upholds this by remapping every
//! analysis into the merged table before results leave the join.

#![forbid(unsafe_code)]

use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::num::NonZeroU32;

/// An interned string handle: a dense table index. `Copy`, 4 bytes, and
/// `Option<Symbol>` is 4 bytes too (the index is stored plus one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Symbol(NonZeroU32);

impl Symbol {
    /// The symbol of table index `index`. Only the tables in this crate
    /// hand out symbols.
    ///
    /// # Panics
    /// If `index` is `u32::MAX`, which no table can reach.
    pub(crate) fn new(index: u32) -> Symbol {
        Symbol(NonZeroU32::new(index.wrapping_add(1)).expect("symbol index below u32::MAX"))
    }

    /// The table index.
    pub fn raw(self) -> u32 {
        self.0.get() - 1
    }
}

/// Hashes the table index, in one [`Hasher::write_u32`].
impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.raw());
    }
}

/// A [`Symbol`] known to resolve to a dotted Java package name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PkgId(pub Symbol);

impl PkgId {
    /// The underlying symbol.
    pub fn symbol(self) -> Symbol {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Hashers
// ---------------------------------------------------------------------------

/// FxHash-style multiplicative hasher (the rustc one): fast on short
/// segment/package strings, vendored here because the workspace builds
/// hermetically offline.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                word |= (b as u64) << (8 * i);
            }
            self.add(word);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] — use for every hot map: on a string
/// key it hashes eight bytes per multiply, and on a `u32` or `usize` key
/// ([`Symbol`], [`PkgId`], catalog indices, pointer identities) one
/// multiply spreads the already-unique key across buckets.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

// ---------------------------------------------------------------------------
// LocalInterner and its frozen SymbolTable
// ---------------------------------------------------------------------------

/// Empty slot in [`LocalInterner`]'s index.
const EMPTY: u32 = 0;
/// Index slots allocated by the first insert.
const MIN_SLOTS: usize = 16;

fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// Byte range of symbol `i` in an arena whose span ends are `ends`.
fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

/// Unsynchronized interner owned by one pipeline worker.
///
/// Symbols are dense indices (`0..len`) in insertion order. The text of
/// every string lives in one arena; `ends[i]` is where string `i` stops.
/// The index is an open-addressing table of `id + 1` (0 = empty) with
/// linear probing, kept at most half full and keyed by the fx hash's top
/// bits; a std `HashMap` cannot key into the arena without storing a
/// second copy of each key.
#[derive(Debug, Default, Clone)]
pub struct LocalInterner {
    text: String,
    ends: Vec<u32>,
    index: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl LocalInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner that holds `strings` strings of `bytes` bytes in
    /// all without growing its arena, its span ends or its index.
    fn with_capacity(strings: usize, bytes: usize) -> Self {
        LocalInterner {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(strings),
            index: vec![EMPTY; ((strings + 1) * 2).next_power_of_two().max(MIN_SLOTS)],
            ..Self::default()
        }
    }

    fn str_at(&self, id: u32) -> &str {
        &self.text[span(&self.ends, id as usize)]
    }

    /// First slot of `hash`'s probe sequence in an index of `slots` slots
    /// (a power of two).
    fn home(hash: u64, slots: usize) -> usize {
        (hash >> (64 - slots.trailing_zeros())) as usize
    }

    /// The index slot holding `s`, or the empty slot where it would go.
    fn probe(&self, s: &str, hash: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = Self::home(hash, self.index.len());
        loop {
            match self.index[slot] {
                EMPTY => return slot,
                id if self.str_at(id - 1) == s => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the index (or allocate the first one) and re-place every id.
    fn grow(&mut self) {
        let slots = (self.index.len() * 2).max(MIN_SLOTS);
        let mut index = vec![EMPTY; slots];
        for id in 0..self.ends.len() {
            let mut slot = Self::home(hash_str(self.str_at(id as u32)), slots);
            while index[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            index[slot] = id as u32 + 1;
        }
        self.index = index;
    }

    /// Intern `s`, returning its symbol (stable for the interner's life).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if (self.ends.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let slot = self.probe(s, hash_str(s));
        if self.index[slot] != EMPTY {
            self.hits += 1;
            return Symbol::new(self.index[slot] - 1);
        }
        self.misses += 1;
        let id = self.ends.len() as u32;
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("interned text fits in u32 offsets");
        self.ends.push(end);
        self.index[slot] = id + 1;
        Symbol::new(id)
    }

    /// Non-inserting lookup: the symbol of `s` if already interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if self.index.is_empty() {
            return None;
        }
        match self.index[self.probe(s, hash_str(s))] {
            EMPTY => None,
            id => Some(Symbol::new(id - 1)),
        }
    }

    /// Resolve a symbol produced by this interner.
    pub fn resolve(&self, s: Symbol) -> &str {
        self.str_at(s.raw())
    }

    /// Number of distinct strings interned.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing has been interned.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes of distinct interned strings.
    #[cfg(test)]
    pub fn bytes(&self) -> usize {
        self.text.len()
    }

    /// `intern` calls that found the string already present.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// `intern` calls that inserted a new string.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Forget every string interned so far, keeping the arena's and the
    /// index's capacity and the hit and miss counters: symbols handed out
    /// before no longer resolve, and ids start again from 0. For a worker
    /// whose symbols outlive no batch of its apps.
    pub fn forget(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.index.fill(EMPTY);
    }

    /// The read-only table of everything interned so far, at exact size:
    /// the index and any spare capacity are dropped.
    fn freeze(self) -> SymbolTable {
        SymbolTable {
            text: self.text.into_boxed_str(),
            ends: self.ends.into_boxed_slice(),
        }
    }
}

/// The frozen form of a [`LocalInterner`]: its arena and span ends, no
/// index. A run's output owns one, and the report layer resolves every
/// symbol the output carries against it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    text: Box<str>,
    ends: Box<[u32]>,
}

impl SymbolTable {
    /// Resolve a symbol of this table.
    pub fn resolve(&self, s: Symbol) -> &str {
        &self.text[span(&self.ends, s.raw() as usize)]
    }

    /// Number of symbols in the table.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes of the table's strings.
    pub fn bytes(&self) -> usize {
        self.text.len()
    }

    /// Heap bytes the table holds: its arena and its span ends.
    pub fn heap_bytes(&self) -> usize {
        self.text.len() + self.ends.len() * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------------
// Ordered local→global merge
// ---------------------------------------------------------------------------

/// Translate the worker-local symbols of `items` into one fresh
/// [`SymbolTable`], in place, with ids that depend only on the order of
/// `items`.
///
/// `items` is in input order, and the symbols of an item resolve against
/// `lexicons[worker(item)]`. `visit` must pass every symbol an item
/// stands for through the given function and store what it returns. An
/// item may be the record itself or a handle to a record stored elsewhere
/// (a row of a worker's result table): either way the symbols are
/// rewritten where they live, and nothing is copied. The lexicons are
/// frozen first, so the merge reads each worker's strings without its
/// index. Then two visits per item, in input order:
///
/// * the first marks each worker's symbols that items name, and sizes the
///   fresh table for their strings;
/// * the second interns each marked string at its first occurrence and
///   rewrites every symbol to its global id, so equal strings from
///   different workers share the first one's id and a global id is the
///   string's first-occurrence rank. The table is then frozen.
///
/// The first visit only sizes the table, and it pays for itself: a single
/// visit that interns as it goes reaches the same live-heap peak but
/// grows the table by doubling, and the buffers it outgrows stay
/// resident (a streamed 1:10 run's resident peak read ~0.34 MiB higher).
///
/// Global ids — and so every merged item — are therefore the same at any
/// worker count and under any schedule that produced the lexicons, which
/// is what keeps parallel runs bit-identical to serial ones.
pub fn merge_ordered<T>(
    items: &mut [T],
    lexicons: Vec<LocalInterner>,
    worker: impl Fn(&T) -> usize,
    mut visit: impl FnMut(&mut T, &mut dyn FnMut(Symbol) -> Symbol),
) -> SymbolTable {
    /// A local symbol no item has named.
    const UNSEEN: u32 = u32::MAX;
    /// A local symbol an item names, not interned yet.
    const SEEN: u32 = u32::MAX - 1;
    let lexicons: Vec<SymbolTable> = lexicons.into_iter().map(LocalInterner::freeze).collect();
    // `slots[w][local]`: UNSEEN, SEEN after the first visit, the global id
    // after the second.
    let mut slots: Vec<Vec<u32>> = lexicons.iter().map(|l| vec![UNSEEN; l.len()]).collect();
    let (mut strings, mut bytes) = (0, 0);
    for item in items.iter_mut() {
        let w = worker(item);
        let (lexicon, slots) = (&lexicons[w], &mut slots[w]);
        visit(item, &mut |sym| {
            let slot = &mut slots[sym.raw() as usize];
            if *slot == UNSEEN {
                *slot = SEEN;
                strings += 1;
                bytes += lexicon.resolve(sym).len();
            }
            sym
        });
    }
    let mut global = LocalInterner::with_capacity(strings, bytes);
    for item in items.iter_mut() {
        let w = worker(item);
        let (lexicon, slots) = (&lexicons[w], &mut slots[w]);
        visit(item, &mut |sym| {
            let slot = &mut slots[sym.raw() as usize];
            debug_assert_ne!(*slot, UNSEEN, "the first visit saw every symbol");
            if *slot == SEEN {
                *slot = global.intern(lexicon.resolve(sym)).raw();
            }
            Symbol::new(*slot)
        });
    }
    global.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn local_intern_dedups_and_resolves() {
        let mut lex = LocalInterner::new();
        let a = lex.intern("loadUrl");
        let b = lex.intern("launchUrl");
        let a2 = lex.intern("loadUrl");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(lex.resolve(a), "loadUrl");
        assert_eq!(lex.resolve(b), "launchUrl");
        assert_eq!(lex.len(), 2);
        assert_eq!(lex.bytes(), "loadUrl".len() + "launchUrl".len());
        assert_eq!((lex.hits(), lex.misses()), (1, 2));
        assert_eq!(lex.get("loadUrl"), Some(a));
        assert_eq!(lex.get("never-seen"), None);
        assert_eq!(LocalInterner::new().get(""), None);
    }

    #[test]
    fn forget_keeps_capacity_and_counters() {
        let mut lex = LocalInterner::new();
        for i in 0..100 {
            lex.intern(&format!("com.example.seg{i}"));
        }
        lex.intern("com.example.seg0");
        let (text, ends, slots) = (lex.text.capacity(), lex.ends.capacity(), lex.index.len());
        lex.forget();
        assert!(lex.is_empty());
        assert_eq!((lex.len(), lex.bytes()), (0, 0));
        assert_eq!(lex.get("com.example.seg0"), None);
        assert_eq!((lex.hits(), lex.misses()), (1, 100));
        // Ids start again from 0, and re-interning allocates nothing.
        for i in 0..100 {
            let s = format!("com.example.seg{}", 99 - i);
            assert_eq!(lex.intern(&s), Symbol::new(i));
        }
        assert_eq!(lex.resolve(Symbol::new(0)), "com.example.seg99");
        assert_eq!((lex.hits(), lex.misses()), (1, 200));
        assert_eq!(
            (lex.text.capacity(), lex.ends.capacity(), lex.index.len()),
            (text, ends, slots)
        );
    }

    #[test]
    fn symbols_have_a_niche() {
        assert_eq!(std::mem::size_of::<Symbol>(), 4);
        assert_eq!(std::mem::size_of::<Option<Symbol>>(), 4);
        assert_eq!(std::mem::size_of::<Option<PkgId>>(), 4);
        assert_eq!(Symbol::new(0).raw(), 0);
        assert_eq!(Symbol::new(u32::MAX - 1).raw(), u32::MAX - 1);
    }

    #[test]
    fn snapshot_resolves_every_symbol() {
        let mut lex = LocalInterner::new();
        let syms: Vec<(Symbol, String)> = (0..200)
            .map(|i| {
                let s = format!("com.example.seg{i}");
                (lex.intern(&s), s)
            })
            .collect();
        let (len, bytes) = (lex.len(), lex.bytes());
        let table = lex.freeze();
        assert_eq!((table.len(), table.bytes()), (len, bytes));
        assert_eq!(table.heap_bytes(), bytes + 4 * len);
        for (sym, s) in syms {
            assert_eq!(table.resolve(sym), s);
        }
    }

    /// The serial reference: each string's id is the number of distinct
    /// strings seen before its first occurrence.
    fn first_occurrence_ids<'a>(strings: impl IntoIterator<Item = &'a str>) -> Vec<(&'a str, u32)> {
        let mut ids: HashMap<&str, u32> = HashMap::new();
        strings
            .into_iter()
            .map(|s| {
                let next = ids.len() as u32;
                (s, *ids.entry(s).or_insert(next))
            })
            .collect()
    }

    /// `items` split across `workers` lexicons by `assign`, then merged.
    fn merge_split(
        items: &[Vec<String>],
        workers: usize,
        assign: impl Fn(usize) -> usize,
    ) -> (Vec<Vec<Symbol>>, SymbolTable) {
        let mut lexicons: Vec<LocalInterner> = (0..workers).map(|_| LocalInterner::new()).collect();
        let mut local: Vec<(usize, Vec<Symbol>)> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let w = assign(i) % workers;
                (w, item.iter().map(|s| lexicons[w].intern(s)).collect())
            })
            .collect();
        let table = merge_ordered(
            &mut local,
            lexicons,
            |&(w, _)| w,
            |(_, syms), f| {
                for sym in syms.iter_mut() {
                    *sym = f(*sym);
                }
            },
        );
        (local.into_iter().map(|(_, syms)| syms).collect(), table)
    }

    #[test]
    fn merge_ordered_ids_depend_only_on_input_order() {
        // Items are lists of strings, `""` and repeats across items
        // included; the global id of a string is its first-occurrence rank
        // over the items in input order.
        let items: Vec<Vec<String>> = (0..40)
            .map(|i| {
                (0..5)
                    .map(|j| match (i * 7 + j * 3) % 23 {
                        0 => String::new(),
                        k => format!("host{k}"),
                    })
                    .collect()
            })
            .collect();
        let reference = first_occurrence_ids(items.iter().flatten().map(String::as_str));
        let expect: Vec<Vec<Symbol>> = reference
            .chunks(5)
            .map(|ids| ids.iter().map(|&(_, id)| Symbol::new(id)).collect())
            .collect();
        let mut distinct: Vec<&str> = Vec::new();
        for &(s, id) in &reference {
            if id as usize == distinct.len() {
                distinct.push(s);
            }
        }
        let random: Vec<usize> = (0..items.len())
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) ^ (i * 31))
            .collect();
        let splits: [&dyn Fn(usize) -> usize; 2] = [&|i| i, &|i| random[i]];
        for workers in [1, 2, 8] {
            for (how, assign) in splits.iter().enumerate() {
                let (merged, table) = merge_split(&items, workers, assign);
                assert_eq!(merged, expect, "workers = {workers}, split {how}");
                assert_eq!(table.len(), distinct.len());
                for (i, s) in distinct.iter().enumerate() {
                    assert_eq!(table.resolve(Symbol::new(i as u32)), *s);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The arena interner agrees with a `HashMap` first-occurrence
        /// reference on ids, lookups, resolution and counters. Every list
        /// holds enough distinct strings to grow the index at least three
        /// times (16 → 32 → 64 → 128 slots at half load).
        #[test]
        fn prop_intern_roundtrip(
            strings in proptest::collection::vec(
                prop_oneof![
                    Just(String::new()),
                    "[a-c]{1,2}",
                    "[ -~]{0,24}",
                ],
                150..400,
            )
        ) {
            let mut lex = LocalInterner::new();
            let mut reference: HashMap<String, u32> = HashMap::new();
            let (mut hits, mut bytes) = (0u64, 0usize);
            for s in &strings {
                let seen = reference.get(s).copied();
                prop_assert_eq!(lex.get(s), seen.map(Symbol::new));
                let next = reference.len() as u32;
                let id = *reference.entry(s.clone()).or_insert(next);
                match seen {
                    Some(_) => hits += 1,
                    None => bytes += s.len(),
                }
                let sym = lex.intern(s);
                prop_assert_eq!(sym, Symbol::new(id));
                prop_assert_eq!(lex.resolve(sym), s.as_str());
                prop_assert_eq!(lex.get(s), Some(sym));
            }
            prop_assert_eq!(lex.len(), reference.len());
            prop_assert_eq!(lex.bytes(), bytes);
            prop_assert_eq!(lex.hits(), hits);
            prop_assert_eq!(lex.misses(), reference.len() as u64);
            prop_assert!(lex.index.len() >= 128, "{} index slots", lex.index.len());
            let table = lex.clone().freeze();
            for (s, &id) in &reference {
                prop_assert_eq!(lex.resolve(Symbol::new(id)), s.as_str());
                prop_assert_eq!(table.resolve(Symbol::new(id)), s.as_str());
            }
        }
    }
}
