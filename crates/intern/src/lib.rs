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
//!   analysis stages write into (hot path, no locks);
//! * [`Interner`] — the sharded, read-mostly global table per-worker
//!   lexicons merge into at pipeline join;
//! * [`SymbolTable`] — an immutable snapshot of the global table for
//!   display-time resolution at the report boundary;
//! * [`merge_ordered`] — the join-time merge that rewrites worker-local
//!   symbols into one fresh global table in input order, so global symbol
//!   ids are deterministic regardless of worker count or scheduling;
//! * [`FxBuildHasher`] / [`U32BuildHasher`] — the multiplicative hashers
//!   the hot maps use (strings hashed once at intern time, `u32` keys
//!   everywhere after).
//!
//! Symbol lifecycle: decode → per-worker intern → merge (remap) →
//! report-time resolve. A `Symbol` is only meaningful relative to the
//! interner that produced it; the pipeline upholds this by remapping every
//! analysis into the global namespace before results leave the join.

#![forbid(unsafe_code)]

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An interned string handle. `Copy`, 4 bytes, hashes in one multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw table index (shard-encoded for global symbols).
    pub fn raw(self) -> u32 {
        self.0
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

/// `BuildHasher` for [`FxHasher`] — use for string-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Single-multiply hasher for `u32`-sized keys ([`Symbol`], [`PkgId`],
/// catalog indices): the key is already unique, so one Fibonacci multiply
/// spreads it across buckets.
#[derive(Default, Clone)]
pub struct U32Hasher {
    hash: u64,
}

impl Hasher for U32Hasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u32 writes (e.g. derived Hash on wrappers).
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.hash = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        // Pointer-sized keys (e.g. `Arc` identities) get the same
        // single-multiply treatment; the multiplier mixes the zeroed
        // alignment bits into the bucket index.
        self.hash = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`U32Hasher`] — use for symbol-keyed hot maps.
pub type U32BuildHasher = BuildHasherDefault<U32Hasher>;

/// String-keyed map with the fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

// ---------------------------------------------------------------------------
// LocalInterner
// ---------------------------------------------------------------------------

/// Unsynchronized interner owned by one pipeline worker.
///
/// Symbols are dense indices into the local table (`0..len`). Storage is
/// `Arc<str>` so [`resolve_arc`](Self::resolve_arc) can hand out a cheap
/// clone that outlives any later mutation, and so the global merge can
/// move the allocation instead of copying bytes.
#[derive(Debug, Default, Clone)]
pub struct LocalInterner {
    map: FxHashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

impl LocalInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its symbol (stable for the interner's life).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&idx) = self.map.get(s) {
            self.hits += 1;
            return Symbol(idx);
        }
        self.misses += 1;
        let idx = self.strings.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.bytes += s.len();
        self.strings.push(Arc::clone(&arc));
        self.map.insert(arc, idx);
        Symbol(idx)
    }

    /// Non-inserting lookup: the symbol of `s` if already interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).map(|&idx| Symbol(idx))
    }

    /// Resolve a symbol produced by this interner.
    pub fn resolve(&self, s: Symbol) -> &str {
        &self.strings[s.0 as usize]
    }

    /// Resolve to a shared allocation (cheap `Arc` clone, no copy).
    pub fn resolve_arc(&self, s: Symbol) -> Arc<str> {
        Arc::clone(&self.strings[s.0 as usize])
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total bytes of distinct interned strings.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// `intern` calls that found the string already present.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// `intern` calls that inserted a new string.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

// ---------------------------------------------------------------------------
// Global sharded Interner
// ---------------------------------------------------------------------------

const SHARD_BITS: u32 = 4;
/// Number of shards in the global [`Interner`].
pub const SHARDS: usize = 1 << SHARD_BITS;
const SHARD_MASK: u32 = SHARDS as u32 - 1;

#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
    bytes: usize,
}

/// Thread-safe sharded interner: the global table per-worker lexicons
/// merge into at pipeline join.
///
/// A global symbol encodes its shard in the low `SHARD_BITS` (4) bits
/// (`(idx << SHARD_BITS) | shard`), so resolution never searches. Lookup
/// is read-mostly: a read lock probes the shard map; only a genuine miss
/// upgrades to the write lock (with a double-check, since another thread
/// may have raced the insert).
#[derive(Debug, Default)]
pub struct Interner {
    shards: [RwLock<Shard>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

fn shard_of(s: &str) -> usize {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    (h.finish() as u32 & SHARD_MASK) as usize
}

/// Batch size below which [`Interner::intern_ordered`] stays serial even
/// on wide hosts — the scatter/gather overhead only pays off for big
/// merges.
const ORDERED_PARALLEL_MIN: usize = 4096;

impl Interner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table pre-sized for roughly `total` distinct strings.
    ///
    /// The pipeline join knows an upper bound up front (the summed sizes
    /// of the worker lexicons), so the shard maps can reserve once instead
    /// of rehashing as the merge inserts. The fx-hash shard split is not
    /// perfectly even, so each shard reserves a quarter more than the even
    /// share.
    pub fn with_capacity(total: usize) -> Self {
        let per_shard = total.div_ceil(SHARDS) + total.div_ceil(SHARDS * 4);
        Interner {
            shards: std::array::from_fn(|_| {
                RwLock::new(Shard {
                    map: FxHashMap::with_capacity_and_hasher(per_shard, FxBuildHasher::default()),
                    strings: Vec::with_capacity(per_shard),
                    bytes: 0,
                })
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Intern `s` into the global table.
    pub fn intern(&self, s: &str) -> Symbol {
        let shard = shard_of(s);
        {
            let guard = self.shards[shard].read();
            if let Some(&idx) = guard.map.get(s) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Symbol((idx << SHARD_BITS) | shard as u32);
            }
        }
        let mut guard = self.shards[shard].write();
        if let Some(&idx) = guard.map.get(s) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Symbol((idx << SHARD_BITS) | shard as u32);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = guard.strings.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        guard.bytes += s.len();
        guard.strings.push(Arc::clone(&arc));
        guard.map.insert(arc, idx);
        Symbol((idx << SHARD_BITS) | shard as u32)
    }

    /// Intern an already-shared allocation (no byte copy on miss).
    pub fn intern_arc(&self, s: Arc<str>) -> Symbol {
        let shard = shard_of(&s);
        {
            let guard = self.shards[shard].read();
            if let Some(&idx) = guard.map.get(&*s) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Symbol((idx << SHARD_BITS) | shard as u32);
            }
        }
        let mut guard = self.shards[shard].write();
        if let Some(&idx) = guard.map.get(&*s) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Symbol((idx << SHARD_BITS) | shard as u32);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = guard.strings.len() as u32;
        guard.bytes += s.len();
        guard.strings.push(Arc::clone(&s));
        guard.map.insert(s, idx);
        Symbol((idx << SHARD_BITS) | shard as u32)
    }

    /// Intern a batch of strings, assigning exactly the ids a serial
    /// `intern_arc` loop over `items` would — a global id depends only on
    /// the order of first occurrences within the item's shard, which is
    /// the serial order restricted to that shard. Each shard's write lock
    /// is taken once for the whole batch instead of once per miss, and on
    /// hosts with spare parallelism large batches fill their shards
    /// concurrently (id assignment stays deterministic because no shard's
    /// ids depend on another shard's progress).
    fn intern_ordered(&self, items: &[Arc<str>]) -> Vec<Symbol> {
        let wide = items.len() >= ORDERED_PARALLEL_MIN
            && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        self.intern_ordered_impl(items, wide)
    }

    fn intern_ordered_impl(&self, items: &[Arc<str>], parallel: bool) -> Vec<Symbol> {
        // Group item positions by target shard, preserving batch order
        // within each group.
        let mut by_shard: Vec<Vec<u32>> = (0..SHARDS).map(|_| Vec::new()).collect();
        for (i, s) in items.iter().enumerate() {
            by_shard[shard_of(s)].push(i as u32);
        }
        let fill_shard = |shard: usize, positions: &[u32]| -> Vec<Symbol> {
            let mut guard = self.shards[shard].write();
            let (mut hits, mut misses) = (0u64, 0u64);
            let symbols = positions
                .iter()
                .map(|&p| {
                    let s = &items[p as usize];
                    let idx = match guard.map.get(&**s) {
                        Some(&idx) => {
                            hits += 1;
                            idx
                        }
                        None => {
                            misses += 1;
                            let idx = guard.strings.len() as u32;
                            guard.bytes += s.len();
                            guard.strings.push(Arc::clone(s));
                            guard.map.insert(Arc::clone(s), idx);
                            idx
                        }
                    };
                    Symbol((idx << SHARD_BITS) | shard as u32)
                })
                .collect();
            self.hits.fetch_add(hits, Ordering::Relaxed);
            self.misses.fetch_add(misses, Ordering::Relaxed);
            symbols
        };
        let per_shard: Vec<Vec<Symbol>> = if parallel {
            std::thread::scope(|scope| {
                let fill_shard = &fill_shard;
                let handles: Vec<_> = by_shard
                    .iter()
                    .enumerate()
                    .map(|(shard, positions)| scope.spawn(move || fill_shard(shard, positions)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard fill does not panic"))
                    .collect()
            })
        } else {
            by_shard
                .iter()
                .enumerate()
                .map(|(shard, positions)| fill_shard(shard, positions))
                .collect()
        };
        // Scatter per-shard results back to batch order.
        let mut out = vec![Symbol(0); items.len()];
        for (positions, symbols) in by_shard.iter().zip(&per_shard) {
            for (&p, &sym) in positions.iter().zip(symbols) {
                out[p as usize] = sym;
            }
        }
        out
    }

    /// Non-inserting lookup.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        let shard = shard_of(s);
        let guard = self.shards[shard].read();
        guard
            .map
            .get(s)
            .map(|&idx| Symbol((idx << SHARD_BITS) | shard as u32))
    }

    /// Resolve to a shared allocation.
    pub fn resolve_arc(&self, s: Symbol) -> Arc<str> {
        let shard = (s.0 & SHARD_MASK) as usize;
        let idx = (s.0 >> SHARD_BITS) as usize;
        Arc::clone(&self.shards[shard].read().strings[idx])
    }

    /// Number of distinct strings across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().strings.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of distinct interned strings.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read().bytes).sum()
    }

    /// Intern calls that found the string present (dedup across workers).
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Intern calls that inserted a new string.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Immutable snapshot for display-time resolution. `Arc` clones only —
    /// no string bytes are copied.
    pub fn snapshot(&self) -> SymbolTable {
        SymbolTable {
            shards: self
                .shards
                .iter()
                .map(|s| s.read().strings.clone())
                .collect(),
        }
    }
}

/// Immutable snapshot of a global [`Interner`], used by the report layer
/// to resolve symbols without touching any lock.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    shards: Vec<Vec<Arc<str>>>,
}

impl SymbolTable {
    /// Resolve a global symbol.
    pub fn resolve(&self, s: Symbol) -> &str {
        &self.shards[(s.0 & SHARD_MASK) as usize][(s.0 >> SHARD_BITS) as usize]
    }

    /// Number of symbols in the snapshot.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Vec::is_empty)
    }
}

// ---------------------------------------------------------------------------
// Ordered local→global merge
// ---------------------------------------------------------------------------

/// Translate the worker-local symbols of `items` into one fresh global
/// [`Interner`], with ids that depend only on the order of `items`.
///
/// `items` holds `(worker, item)` pairs in input order; the symbols of an
/// item from worker `w` resolve against `lexicons[w]`. `visit` must pass
/// every symbol an item carries through the given function and store what
/// it returns (the shape of `AppAnalysis::remap_symbols`). Three phases:
///
/// * (A) one visit per item, in input order, ranks each worker's first
///   occurrences;
/// * (B) the ranked strings are interned as one ordered batch into a table
///   pre-sized from the summed lexicon sizes — `intern_ordered` assigns
///   exactly the ids a serial first-occurrence loop would;
/// * (C) a second visit rewrites every symbol to its global id.
///
/// Global ids — and so every merged item — are therefore the same at any
/// worker count and under any schedule that produced the lexicons, which
/// is what keeps parallel runs bit-identical to serial ones.
pub fn merge_ordered<T>(
    mut items: Vec<(usize, T)>,
    lexicons: &[LocalInterner],
    mut visit: impl FnMut(&mut T, &mut dyn FnMut(Symbol) -> Symbol),
) -> (Vec<T>, Interner) {
    const UNSEEN: u32 = u32::MAX;
    let interner = Interner::with_capacity(lexicons.iter().map(LocalInterner::len).sum());
    // `table[w][local]`: the first-occurrence rank after (A), the global
    // id after (B).
    let mut table: Vec<Vec<u32>> = lexicons.iter().map(|l| vec![UNSEEN; l.len()]).collect();
    let mut order: Vec<(usize, Symbol)> = Vec::new();
    for (w, item) in &mut items {
        let (w, slots) = (*w, &mut table[*w]);
        visit(item, &mut |sym| {
            let slot = &mut slots[sym.0 as usize];
            if *slot == UNSEEN {
                *slot = order.len() as u32;
                order.push((w, sym));
            }
            sym
        });
    }
    let arcs: Vec<Arc<str>> = order
        .iter()
        .map(|&(w, sym)| lexicons[w].resolve_arc(sym))
        .collect();
    for (&(w, sym), global) in order.iter().zip(interner.intern_ordered(&arcs)) {
        table[w][sym.0 as usize] = global.0;
    }
    let items = items
        .into_iter()
        .map(|(w, mut item)| {
            let slots = &table[w];
            visit(&mut item, &mut |sym| {
                let global = slots[sym.0 as usize];
                debug_assert_ne!(global, UNSEEN, "phase A visited every symbol");
                Symbol(global)
            });
            item
        })
        .collect();
    (items, interner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    }

    #[test]
    fn resolve_arc_outlives_later_interning() {
        let mut lex = LocalInterner::new();
        let a = lex.intern("com.applovin.adview");
        let arc = lex.resolve_arc(a);
        for i in 0..100 {
            lex.intern(&format!("filler.{i}"));
        }
        assert_eq!(&*arc, "com.applovin.adview");
    }

    #[test]
    fn global_interner_dedups_across_threads() {
        let global = Interner::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..64 {
                        global.intern(&format!("pkg.{}", i % 16));
                    }
                });
            }
        });
        assert_eq!(global.len(), 16);
        assert_eq!(global.miss_count(), 16);
        assert_eq!(global.hit_count(), 4 * 64 - 16);
        let s = global.intern("pkg.3");
        assert_eq!(&*global.resolve_arc(s), "pkg.3");
        let table = global.snapshot();
        assert_eq!(table.resolve(s), "pkg.3");
        assert_eq!(table.len(), 16);
    }

    #[test]
    fn snapshot_resolves_every_symbol() {
        let global = Interner::new();
        let syms: Vec<(Symbol, String)> = (0..200)
            .map(|i| {
                let s = format!("com.example.seg{i}");
                (global.intern(&s), s)
            })
            .collect();
        let table = global.snapshot();
        for (sym, s) in syms {
            assert_eq!(table.resolve(sym), s);
        }
    }

    #[test]
    fn merge_ordered_ids_depend_only_on_input_order() {
        // Items are lists of strings; the serial reference interns them
        // one by one, in item order, into one table.
        let items: Vec<Vec<String>> = (0..40)
            .map(|i| {
                (0..5)
                    .map(|j| format!("host{}", (i * 7 + j * 3) % 23))
                    .collect()
            })
            .collect();
        let serial = Interner::new();
        let expect: Vec<Vec<Symbol>> = items
            .iter()
            .map(|item| item.iter().map(|s| serial.intern(s)).collect())
            .collect();
        // Any split of the items over worker lexicons merges to the same ids.
        for workers in [1, 2, 3, 8] {
            let mut lexicons: Vec<LocalInterner> =
                (0..workers).map(|_| LocalInterner::new()).collect();
            let local: Vec<(usize, Vec<Symbol>)> = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let w = (i * 5 + 1) % workers;
                    (w, item.iter().map(|s| lexicons[w].intern(s)).collect())
                })
                .collect();
            let (merged, global) = merge_ordered(local, &lexicons, |syms, f| {
                for sym in syms.iter_mut() {
                    *sym = f(*sym);
                }
            });
            assert_eq!(merged, expect, "workers = {workers}");
            assert_eq!(global.len(), serial.len());
            let table = global.snapshot();
            for (item, syms) in items.iter().zip(&merged) {
                for (s, &sym) in item.iter().zip(syms) {
                    assert_eq!(table.resolve(sym), s);
                }
            }
        }
    }

    /// Batch fixture with duplicates, shard collisions, and strings that
    /// partly pre-exist in the table.
    fn ordered_fixture() -> Vec<Arc<str>> {
        (0..300)
            .map(|i| Arc::from(format!("com.example.seg{}", i % 97).as_str()))
            .collect()
    }

    #[test]
    fn intern_ordered_matches_serial_intern_arc() {
        // Both internal paths must assign exactly the ids a serial
        // `intern_arc` loop assigns, including over a pre-populated table.
        for parallel in [false, true] {
            let serial = Interner::new();
            let batched = Interner::new();
            serial.intern("pre.existing");
            batched.intern("pre.existing");
            let items = ordered_fixture();
            let expect: Vec<Symbol> = items
                .iter()
                .map(|s| serial.intern_arc(Arc::clone(s)))
                .collect();
            let got = batched.intern_ordered_impl(&items, parallel);
            assert_eq!(got, expect, "parallel={parallel}");
            assert_eq!(batched.len(), serial.len());
            assert_eq!(batched.hit_count(), serial.hit_count());
            assert_eq!(batched.miss_count(), serial.miss_count());
            for &sym in &got {
                assert_eq!(batched.resolve_arc(sym), serial.resolve_arc(sym));
            }
        }
    }

    #[test]
    fn with_capacity_assigns_same_ids_as_new() {
        let plain = Interner::new();
        let presized = Interner::with_capacity(1000);
        let items = ordered_fixture();
        for s in &items {
            assert_eq!(
                presized.intern_arc(Arc::clone(s)),
                plain.intern_arc(Arc::clone(s))
            );
        }
        assert_eq!(presized.len(), plain.len());
        assert_eq!(presized.bytes(), plain.bytes());
    }

    proptest! {
        /// Interning is a bijection between distinct strings and symbols,
        /// locally and globally, and snapshot resolution inverts it.
        #[test]
        fn prop_intern_roundtrip(strings in proptest::collection::vec("[ -~]{0,24}", 1..64)) {
            let mut lex = LocalInterner::new();
            let global = Interner::new();
            let locals: Vec<Symbol> = strings.iter().map(|s| lex.intern(s)).collect();
            let globals: Vec<Symbol> = strings.iter().map(|s| global.intern(s)).collect();
            let table = global.snapshot();
            for ((s, l), g) in strings.iter().zip(&locals).zip(&globals) {
                prop_assert_eq!(lex.resolve(*l), s.as_str());
                prop_assert_eq!(table.resolve(*g), s.as_str());
            }
            // Equal strings ⇒ equal symbols; distinct ⇒ distinct.
            for (i, a) in strings.iter().enumerate() {
                for (j, b) in strings.iter().enumerate() {
                    prop_assert_eq!(a == b, locals[i] == locals[j]);
                    prop_assert_eq!(a == b, globals[i] == globals[j]);
                }
            }
            let distinct: std::collections::HashSet<&str> =
                strings.iter().map(String::as_str).collect();
            prop_assert_eq!(lex.len(), distinct.len());
            prop_assert_eq!(global.len(), distinct.len());
        }
    }
}
