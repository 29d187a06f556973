//! Call-graph construction from SDEX bytecode.
//!
//! The graph is a **compressed-sparse-row (CSR) edge arena over dense
//! method indices**: every method defined in the dex gets a dense `u32`
//! node index (assigned in class/method order), out-edges live in one
//! contiguous `targets` array sliced by an `offsets` array, and the
//! `MethodId → dense` translation is a direct-indexed table sized from
//! `dex.method_count()` — no hashing on any traversal path. Virtual and
//! interface dispatch resolve through a per-class **flattened vtable**
//! built lazily (once per receiver class) instead of walking the
//! superclass chain at every invoke site. The pre-CSR hash-based build is
//! preserved verbatim in `wla_oracle::callgraph` as the correctness
//! reference.

use std::collections::HashMap;
use wla_apk::sdex::{Dex, Instruction, InvokeKind, MethodDef, MethodId, TypeId};

/// What is known about the string argument of a call site after provenance
/// analysis. Produced by the `wla-static` dataflow pass (or, in tests, by
/// the pending-string reference `wla_oracle::provenance`), never by graph
/// construction itself — freshly built graphs carry [`Provenance::Unknown`]
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// No single string constant is known to reach the argument.
    Unknown,
    /// Exactly this string-pool constant reaches the argument on every
    /// path to the site.
    Const(u32),
    /// Different constants merge at a join point in front of the site.
    Conflict,
}

impl Provenance {
    /// The constant's string-pool index, when resolved.
    pub fn constant(self) -> Option<u32> {
        match self {
            Provenance::Const(s) => Some(s),
            _ => None,
        }
    }

    /// Collapse to the pool-independent shape for summaries.
    pub fn origin(self) -> UrlOrigin {
        match self {
            Provenance::Unknown => UrlOrigin::Unknown,
            Provenance::Const(_) => UrlOrigin::Resolved,
            Provenance::Conflict => UrlOrigin::Conflict,
        }
    }
}

/// [`Provenance`] without the dex-local string-pool index: what summaries
/// and aggregation carry once the constant itself has been interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UrlOrigin {
    /// A single constant URL/data string was recovered.
    Resolved,
    /// Nothing recoverable statically.
    Unknown,
    /// Multiple candidate constants merge before the call.
    Conflict,
}

/// One `invoke-*` site in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Method containing the call.
    pub caller: MethodId,
    /// Class defining the caller.
    pub caller_class: TypeId,
    /// The callee *reference* as written in the bytecode (its class is the
    /// static receiver type — possibly a WebView subclass).
    pub callee_ref: MethodId,
    /// Dispatch kind.
    pub kind: InvokeKind,
    /// Resolved string-argument provenance (§3.1.4's URL extraction).
    /// [`Provenance::Unknown`] until an annotator runs over the sites.
    pub provenance: Provenance,
}

/// Sentinel in the `MethodId → dense` table for method-table entries with
/// no definition in this dex (framework references).
const NOT_DEFINED: u32 = u32::MAX;

/// Counters from one [`CallGraph::build`], surfaced through the pipeline's
/// observability (`PipelineStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Virtual/interface resolutions served by an already-built vtable.
    pub vtable_hits: u64,
    /// Vtables built (one per receiver class that needed hierarchy search).
    pub vtable_misses: u64,
    /// Repeated same-callee invokes collapsed by the CSR dedup.
    pub duplicate_edges: u64,
}

/// A whole-app call graph over a [`Dex`], stored as CSR over dense method
/// indices.
#[derive(Debug)]
pub struct CallGraph<'d> {
    dex: &'d Dex,
    /// `MethodId.0 → dense node index`; [`NOT_DEFINED`] for external refs.
    dense: Vec<u32>,
    /// CSR row starts into `targets`, one per dense node (a distinct
    /// method this dex defines) plus the end.
    offsets: Vec<u32>,
    /// CSR edge arena: dense callee indices, sorted and deduped per caller.
    targets: Vec<u32>,
    /// Every call site, resolved or not, in program order.
    sites: Vec<CallSite>,
    stats: BuildStats,
}

impl<'d> CallGraph<'d> {
    /// Build the graph with a two-pass count-then-fill CSR construction:
    /// pass one assigns dense indices and counts invoke sites to pre-size
    /// every arena; pass two resolves each site (vtable-cached) into a
    /// flat edge list that is then bucketed, sorted, and deduped in place.
    pub fn build(dex: &'d Dex) -> Self {
        // Pass 1 (count): dense index per defined method, signature index
        // for resolution, and the invoke-site count for exact pre-sizing.
        let mut dense = vec![NOT_DEFINED; dex.method_count()];
        let mut defined_methods = 0usize;
        let mut invoke_sites = 0usize;
        for class in dex.classes() {
            for m in &class.methods {
                defined_methods += 1;
                invoke_sites += m
                    .code
                    .iter()
                    .filter(|i| matches!(i, Instruction::Invoke { .. }))
                    .count();
            }
        }
        let mut nodes = 0u32;
        let mut by_signature: HashMap<(u32, u32, u32), u32> =
            HashMap::with_capacity(defined_methods);
        for class in dex.classes() {
            for m in &class.methods {
                // A re-defined method id merges its edges into one node.
                let slot = &mut dense[m.method.0 as usize];
                if *slot == NOT_DEFINED {
                    *slot = nodes;
                    nodes += 1;
                }
                let idx = *slot;
                let r = dex.method_ref(m.method);
                by_signature.insert((class.ty.0, r.name, r.descriptor), idx);
            }
        }

        // Pass 2 (fill): record sites and resolve internal edges into a
        // flat (caller, callee) list, then bucket it into CSR.
        let mut stats = BuildStats::default();
        let mut vtables = VtableCache::new(dex.type_count());
        let mut sites: Vec<CallSite> = Vec::with_capacity(invoke_sites);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(invoke_sites);
        for class in dex.classes() {
            for m in &class.methods {
                let caller = dense[m.method.0 as usize];
                for ins in &m.code {
                    if let Instruction::Invoke { kind, method, .. } = ins {
                        sites.push(CallSite {
                            caller: m.method,
                            caller_class: class.ty,
                            callee_ref: *method,
                            kind: *kind,
                            provenance: Provenance::Unknown,
                        });
                        if let Some(target) = resolve(
                            dex,
                            &by_signature,
                            &dense,
                            &mut vtables,
                            &mut stats,
                            *method,
                            *kind,
                        ) {
                            pairs.push((caller, target));
                        }
                    }
                }
            }
        }

        let (offsets, targets, duplicate_edges) = csr_from_pairs(nodes as usize, &pairs);
        stats.duplicate_edges = duplicate_edges;

        CallGraph {
            dex,
            dense,
            offsets,
            targets,
            sites,
            stats,
        }
    }

    /// Same as [`CallGraph::build`]: the flag is ignored, hash vtables are
    /// the only layout.
    ///
    /// Kept only because the end-to-end benchmark package
    /// (`crates/bench/src/bin/benchmark`) calls it; nothing else in the
    /// workspace may.
    pub fn build_with(dex: &'d Dex, _hash_vtables: bool) -> Self {
        CallGraph::build(dex)
    }

    /// The dex this graph was built over.
    pub fn dex(&self) -> &'d Dex {
        self.dex
    }

    /// Every call site in program order.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// Mutable site access for provenance annotators — sites stay in
    /// program order; only the `provenance` field is meant to change.
    pub fn sites_mut(&mut self) -> &mut [CallSite] {
        &mut self.sites
    }

    /// Number of graph nodes (methods defined in this dex).
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Dense node index of `m`, or `None` for external (framework) refs.
    #[inline]
    pub fn node_index(&self, m: MethodId) -> Option<u32> {
        let d = *self.dense.get(m.0 as usize)?;
        (d != NOT_DEFINED).then_some(d)
    }

    /// CSR out-edge slice of a dense node (sorted, deduped dense indices).
    #[inline]
    pub fn callee_indices(&self, idx: u32) -> &[u32] {
        let start = self.offsets[idx as usize] as usize;
        let end = self.offsets[idx as usize + 1] as usize;
        &self.targets[start..end]
    }

    /// Total internal edge count (after per-caller dedup).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Build-time resolution counters.
    pub fn build_stats(&self) -> BuildStats {
        self.stats
    }
}

/// Bucket a flat `(caller, callee)` edge list into CSR: count per caller,
/// prefix-sum into row starts, scatter-fill, then sort + dedup each row in
/// place (compacting the arena). Returns `(offsets, targets, duplicates)`.
fn csr_from_pairs(n: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>, u64) {
    let mut offsets = vec![0u32; n + 1];
    for &(c, _) in pairs {
        offsets[c as usize + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut targets = vec![0u32; pairs.len()];
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    for &(c, t) in pairs {
        let pos = &mut cursor[c as usize];
        targets[*pos as usize] = t;
        *pos += 1;
    }
    // Dedup row by row; `write` trails `start`, so in-place is safe.
    let mut write = 0usize;
    let mut start = 0usize;
    for i in 0..n {
        let end = offsets[i + 1] as usize;
        targets[start..end].sort_unstable();
        offsets[i] = write as u32;
        let mut prev: Option<u32> = None;
        for r in start..end {
            let t = targets[r];
            if prev != Some(t) {
                targets[write] = t;
                write += 1;
                prev = Some(t);
            }
        }
        start = end;
    }
    offsets[n] = write as u32;
    let duplicates = (targets.len() - write) as u64;
    targets.truncate(write);
    (offsets, targets, duplicates)
}

/// Assign provenance to every call site of a graph built over `dex`.
///
/// `per_method` returns one [`Provenance`] per invoke, in code order, for
/// each defined method. Sites are walked in the same class/method/
/// instruction order [`CallGraph::build`] (and the hash-based reference)
/// pushed them, so the two streams zip positionally; both builders over
/// the same dex therefore receive bit-identical annotations from the same
/// resolver.
pub fn annotate_provenance(
    dex: &Dex,
    sites: &mut [CallSite],
    mut per_method: impl FnMut(&MethodDef) -> Vec<Provenance>,
) {
    let mut cursor = 0usize;
    for class in dex.classes() {
        for m in &class.methods {
            let invokes = m
                .code
                .iter()
                .filter(|i| matches!(i, Instruction::Invoke { .. }))
                .count();
            let resolved = per_method(m);
            debug_assert_eq!(
                resolved.len(),
                invokes,
                "resolver must yield one provenance per invoke"
            );
            for p in resolved.into_iter().take(invokes) {
                if let Some(site) = sites.get_mut(cursor) {
                    site.provenance = p;
                }
                cursor += 1;
            }
        }
    }
    debug_assert_eq!(cursor, sites.len(), "site stream out of sync with dex");
}

/// One flattened vtable entry: `(name, descriptor) → dense method index`,
/// with the nearest definition in the hierarchy winning.
type VtEntry = (u32, u32, u32);

/// Empty slot in a hash-layout vtable. A real entry's dense index is
/// always a *defined* method, so [`NOT_DEFINED`] can never collide.
const VT_EMPTY: VtEntry = (0, 0, NOT_DEFINED);

/// Mix a `(name, descriptor)` signature into a probe start. Two odd
/// multipliers decorrelate the pair — plenty for tables kept at ≤ 0.5 load.
#[inline]
fn vt_hash(name: u32, descriptor: u32) -> u32 {
    name.wrapping_mul(0x9E37_79B1) ^ descriptor.wrapping_mul(0x85EB_CA77)
}

/// Lazily built per-class flattened vtables, direct-indexed by `TypeId`.
/// Each table is the class's own methods plus every inherited signature —
/// computed once per receiver class instead of re-walking the superclass
/// chain at every virtual invoke site — laid out as an open-addressing
/// hash over `(name, descriptor)`, so binding is an O(1) probe.
struct VtableCache {
    tables: Vec<Option<Box<[VtEntry]>>>,
    scratch: Vec<VtEntry>,
}

impl VtableCache {
    fn new(type_count: usize) -> Self {
        VtableCache {
            tables: (0..type_count).map(|_| None).collect(),
            scratch: Vec::new(),
        }
    }

    fn lookup(
        &mut self,
        dex: &Dex,
        dense: &[u32],
        ty: TypeId,
        name: u32,
        descriptor: u32,
        stats: &mut BuildStats,
    ) -> Option<u32> {
        let slot = self.tables.get_mut(ty.0 as usize)?;
        if slot.is_none() {
            stats.vtable_misses += 1;
            self.scratch.clear();
            // Scan order = hierarchy order (class, then ancestors), so the
            // *nearest* definition of a signature is seen first.
            let mut collect = |t: TypeId| {
                if let Some(class) = dex.class(t) {
                    for m in &class.methods {
                        let r = dex.method_ref(m.method);
                        self.scratch
                            .push((r.name, r.descriptor, dense[m.method.0 as usize]));
                    }
                }
            };
            collect(ty);
            for ancestor in dex.superclasses(ty) {
                collect(ancestor);
            }
            // Open addressing with linear probing at ≤ 0.5 load;
            // first-wins insertion in hierarchy order keeps the nearest
            // definition and drops shadowed ancestors.
            let cap = (self.scratch.len() * 2).next_power_of_two();
            let mask = cap - 1;
            let mut table = vec![VT_EMPTY; cap].into_boxed_slice();
            'insert: for &(n, d, idx) in &self.scratch {
                let mut i = vt_hash(n, d) as usize & mask;
                loop {
                    let e = table[i];
                    if e.2 == NOT_DEFINED {
                        table[i] = (n, d, idx);
                        continue 'insert;
                    }
                    if e.0 == n && e.1 == d {
                        // A nearer definition already claimed the slot.
                        continue 'insert;
                    }
                    i = (i + 1) & mask;
                }
            }
            *slot = Some(table);
        } else {
            stats.vtable_hits += 1;
        }
        let table = slot.as_deref().expect("just built");
        let mask = table.len() - 1;
        let mut i = vt_hash(name, descriptor) as usize & mask;
        loop {
            let e = table[i];
            if e.2 == NOT_DEFINED {
                return None;
            }
            if e.0 == name && e.1 == descriptor {
                return Some(e.2);
            }
            i = (i + 1) & mask;
        }
    }
}

/// Resolve a callee reference to the dense index of a *defined* method, or
/// `None` for external (framework) targets. Virtual/interface/super
/// dispatch searches the receiver class then its defined ancestors via the
/// flattened vtable (class-hierarchy analysis on the static type — the
/// paper's tooling does the same).
#[allow(clippy::too_many_arguments)]
fn resolve(
    dex: &Dex,
    by_signature: &HashMap<(u32, u32, u32), u32>,
    dense: &[u32],
    vtables: &mut VtableCache,
    stats: &mut BuildStats,
    callee_ref: MethodId,
    kind: InvokeKind,
) -> Option<u32> {
    let r = dex.method_ref(callee_ref);
    if let Some(&idx) = by_signature.get(&(r.class.0, r.name, r.descriptor)) {
        return Some(idx);
    }
    match kind {
        InvokeKind::Static | InvokeKind::Direct => None,
        InvokeKind::Virtual | InvokeKind::Interface | InvokeKind::Super => {
            vtables.lookup(dex, dense, r.class, r.name, r.descriptor, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_apk::sdex::{ClassFlags, DexBuilder, MethodDef, Reg};

    fn def(b: &mut DexBuilder, class: &str, name: &str, code: Vec<Instruction>) -> MethodDef {
        MethodDef::new(b.intern_method(class, name, "()V"), true, false, code)
    }

    #[test]
    fn static_edges_resolved() {
        let mut b = DexBuilder::new();
        let callee = b.intern_method("com/x/B", "run", "()V");
        let a = def(
            &mut b,
            "com/x/A",
            "go",
            vec![
                Instruction::Invoke {
                    kind: InvokeKind::Static,
                    method: callee,
                    args: vec![],
                },
                Instruction::ReturnVoid,
            ],
        );
        let b_run = def(&mut b, "com/x/B", "run", vec![Instruction::ReturnVoid]);
        b.define_class("com/x/A", None, ClassFlags::default(), vec![a])
            .unwrap();
        b.define_class("com/x/B", None, ClassFlags::default(), vec![b_run])
            .unwrap();
        let dex = b.build();
        let g = CallGraph::build(&dex);
        let a_id = dex
            .classes()
            .iter()
            .find(|c| dex.type_name(c.ty) == "com/x/A")
            .unwrap()
            .methods[0]
            .method;
        assert_eq!(g.callee_indices(g.node_index(a_id).unwrap()).len(), 1);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn virtual_dispatch_through_superclass() {
        // C extends B extends A; call site references C.handle but only A
        // defines it — resolution must walk up.
        let mut b = DexBuilder::new();
        let a_handle = b.intern_method("com/x/A", "handle", "()V");
        let c_handle = b.intern_method("com/x/C", "handle", "()V");
        let caller = def(
            &mut b,
            "com/x/Main",
            "go",
            vec![
                Instruction::Invoke {
                    kind: InvokeKind::Virtual,
                    method: c_handle,
                    args: vec![],
                },
                Instruction::ReturnVoid,
            ],
        );
        let a_def = def(&mut b, "com/x/A", "handle", vec![Instruction::ReturnVoid]);
        b.define_class("com/x/A", None, ClassFlags::default(), vec![a_def])
            .unwrap();
        b.define_class("com/x/B", Some("com/x/A"), ClassFlags::default(), vec![])
            .unwrap();
        b.define_class("com/x/C", Some("com/x/B"), ClassFlags::default(), vec![])
            .unwrap();
        b.define_class("com/x/Main", None, ClassFlags::default(), vec![caller])
            .unwrap();
        let dex = b.build();
        let g = CallGraph::build(&dex);
        let main = dex
            .class(dex.type_by_name("com/x/Main").unwrap())
            .unwrap()
            .methods[0]
            .method;
        let callees = g.callee_indices(g.node_index(main).unwrap());
        assert_eq!(callees, [g.node_index(a_handle).unwrap()]);
        // The walk went through the vtable cache, not an exact-probe hit.
        assert_eq!(g.build_stats().vtable_misses, 1);
    }

    #[test]
    fn nearest_override_wins_in_vtable() {
        // A and B both define handle; a call through C must bind to B's
        // (nearest) definition, not A's.
        let mut b = DexBuilder::new();
        let c_handle = b.intern_method("com/x/C", "handle", "()V");
        let caller = def(
            &mut b,
            "com/x/Main",
            "go",
            vec![
                Instruction::Invoke {
                    kind: InvokeKind::Virtual,
                    method: c_handle,
                    args: vec![],
                },
                Instruction::ReturnVoid,
            ],
        );
        let a_def = def(&mut b, "com/x/A", "handle", vec![Instruction::ReturnVoid]);
        let b_def = def(&mut b, "com/x/B", "handle", vec![Instruction::ReturnVoid]);
        let b_handle = b_def.method;
        b.define_class("com/x/A", None, ClassFlags::default(), vec![a_def])
            .unwrap();
        b.define_class(
            "com/x/B",
            Some("com/x/A"),
            ClassFlags::default(),
            vec![b_def],
        )
        .unwrap();
        b.define_class("com/x/C", Some("com/x/B"), ClassFlags::default(), vec![])
            .unwrap();
        b.define_class("com/x/Main", None, ClassFlags::default(), vec![caller])
            .unwrap();
        let dex = b.build();
        let g = CallGraph::build(&dex);
        let main = dex
            .class(dex.type_by_name("com/x/Main").unwrap())
            .unwrap()
            .methods[0]
            .method;
        let callees = g.callee_indices(g.node_index(main).unwrap());
        assert_eq!(callees, [g.node_index(b_handle).unwrap()]);
    }

    #[test]
    fn repeated_call_sites_dedup_to_one_edge() {
        // Three invokes of the same callee in one method: three sites but
        // exactly one CSR edge (regression pin for the dedup satellite).
        let mut b = DexBuilder::new();
        let callee = b.intern_method("com/x/B", "run", "()V");
        let other = b.intern_method("com/x/B", "other", "()V");
        let call = |m| Instruction::Invoke {
            kind: InvokeKind::Static,
            method: m,
            args: vec![],
        };
        let a = def(
            &mut b,
            "com/x/A",
            "go",
            vec![
                call(callee),
                call(callee),
                call(other),
                call(callee),
                Instruction::ReturnVoid,
            ],
        );
        let b_run = def(&mut b, "com/x/B", "run", vec![Instruction::ReturnVoid]);
        let b_other = def(&mut b, "com/x/B", "other", vec![Instruction::ReturnVoid]);
        b.define_class("com/x/A", None, ClassFlags::default(), vec![a])
            .unwrap();
        b.define_class("com/x/B", None, ClassFlags::default(), vec![b_run, b_other])
            .unwrap();
        let dex = b.build();
        let g = CallGraph::build(&dex);
        assert_eq!(g.sites().len(), 4, "every invoke site is retained");
        assert_eq!(g.edge_count(), 2, "edges are deduped per caller");
        assert_eq!(g.build_stats().duplicate_edges, 2);
        let a_id = dex
            .class(dex.type_by_name("com/x/A").unwrap())
            .unwrap()
            .methods[0]
            .method;
        assert_eq!(g.callee_indices(g.node_index(a_id).unwrap()).len(), 2);
    }

    #[test]
    fn external_calls_have_no_edge_but_keep_site() {
        let mut b = DexBuilder::new();
        let load = b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
        let url = b.intern_string("https://x.example");
        let caller = def(
            &mut b,
            "com/x/Main",
            "go",
            vec![
                Instruction::ConstString {
                    dst: Reg(0),
                    string: url,
                },
                Instruction::Invoke {
                    kind: InvokeKind::Virtual,
                    method: load,
                    args: vec![Reg(0)],
                },
                Instruction::ReturnVoid,
            ],
        );
        b.define_class("com/x/Main", None, ClassFlags::default(), vec![caller])
            .unwrap();
        let dex = b.build();
        let mut g = CallGraph::build(&dex);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.sites().len(), 1);
        assert_eq!(
            g.sites()[0].provenance,
            Provenance::Unknown,
            "sites start unannotated"
        );
        // Every invoke of the one method takes the URL constant.
        annotate_provenance(&dex, g.sites_mut(), |m| {
            m.code
                .iter()
                .filter(|i| matches!(i, Instruction::Invoke { .. }))
                .map(|_| Provenance::Const(url))
                .collect()
        });
        let site = g.sites()[0];
        assert_eq!(dex.method_name(site.callee_ref), "loadUrl");
        assert_eq!(
            dex.string(site.provenance.constant().unwrap()),
            "https://x.example"
        );
        assert_eq!(site.provenance.origin(), UrlOrigin::Resolved);
    }
}
