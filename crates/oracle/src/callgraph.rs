//! The pre-CSR hash-based call-graph path, kept as the correctness oracle
//! (`reach_oracle`). Deliberately not optimized — its value is being the
//! obviously-correct old semantics: `HashMap` adjacency with duplicate
//! edges retained, a superclass-chain walk per virtual invoke site, and a
//! `HashSet` BFS. `tests/reach_equivalence.rs` pins the CSR + bitset path
//! against it on randomized dexes; the `callgraph` bench uses it as the
//! ablation baseline.

use std::collections::{HashMap, HashSet};
use wla_apk::sdex::{Dex, Instruction, InvokeKind, MethodId, TypeId};
use wla_callgraph::reach::record_sites;
use wla_callgraph::{
    record_web_calls_with, CallGraph, CallSite, Provenance, ReachScratch, WebCallRecord,
};
use wla_intern::{LocalInterner, Symbol};
use wla_sdk_index::{LabelCache, SdkIndex};

/// The old hash-based call graph: adjacency lists keyed by `MethodId`,
/// duplicate edges preserved in call-site order.
#[derive(Debug)]
pub struct HashCallGraph<'d> {
    dex: &'d Dex,
    defined: HashMap<MethodId, TypeId>,
    edges: HashMap<MethodId, Vec<MethodId>>,
    sites: Vec<CallSite>,
}

/// Total number of instructions across every defined method of `dex`.
pub fn instruction_count(dex: &Dex) -> usize {
    dex.classes()
        .iter()
        .flat_map(|c| &c.methods)
        .map(|m| m.code.len())
        .sum()
}

impl<'d> HashCallGraph<'d> {
    /// Build with the original single-pass algorithm: exact-signature probe
    /// plus an ancestor-chain walk per virtual/interface/super site. Maps
    /// are pre-sized from the dex tables (the one optimization retained).
    pub fn build(dex: &'d Dex) -> Self {
        let mut defined: HashMap<MethodId, TypeId> = HashMap::with_capacity(dex.method_count());
        let mut by_signature: HashMap<(u32, u32, u32), MethodId> =
            HashMap::with_capacity(dex.method_count());
        for class in dex.classes() {
            for m in &class.methods {
                defined.insert(m.method, class.ty);
                let r = dex.method_ref(m.method);
                by_signature.insert((class.ty.0, r.name, r.descriptor), m.method);
            }
        }

        let mut edges: HashMap<MethodId, Vec<MethodId>> = HashMap::with_capacity(defined.len());
        let mut sites: Vec<CallSite> = Vec::with_capacity(instruction_count(dex));
        for class in dex.classes() {
            for m in &class.methods {
                for ins in &m.code {
                    if let Instruction::Invoke { kind, method, .. } = ins {
                        sites.push(CallSite {
                            caller: m.method,
                            caller_class: class.ty,
                            callee_ref: *method,
                            kind: *kind,
                            provenance: Provenance::Unknown,
                        });
                        if let Some(target) = resolve(dex, &by_signature, *method, *kind) {
                            edges.entry(m.method).or_default().push(target);
                        }
                    }
                }
            }
        }

        HashCallGraph {
            dex,
            defined,
            edges,
            sites,
        }
    }

    /// The dex this graph was built over.
    pub fn dex(&self) -> &'d Dex {
        self.dex
    }

    /// Every call site in program order.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// Mutable view of the sites, for provenance annotation.
    pub fn sites_mut(&mut self) -> &mut [CallSite] {
        &mut self.sites
    }

    /// Resolved internal callees of `m` (duplicates included).
    pub fn callees(&self, m: MethodId) -> &[MethodId] {
        self.edges.get(&m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Class defining `m`, if `m` is defined in this dex.
    pub fn defining_class(&self, m: MethodId) -> Option<TypeId> {
        self.defined.get(&m).copied()
    }

    /// Number of defined methods.
    pub fn defined_count(&self) -> usize {
        self.defined.len()
    }

    /// Total internal edge count (duplicates included).
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }
}

/// The original per-site resolution: exact signature, then the superclass
/// chain for virtual-ish kinds.
fn resolve(
    dex: &Dex,
    by_signature: &HashMap<(u32, u32, u32), MethodId>,
    callee_ref: MethodId,
    kind: InvokeKind,
) -> Option<MethodId> {
    let r = dex.method_ref(callee_ref);
    if let Some(&m) = by_signature.get(&(r.class.0, r.name, r.descriptor)) {
        return Some(m);
    }
    match kind {
        InvokeKind::Static | InvokeKind::Direct => None,
        InvokeKind::Virtual | InvokeKind::Interface | InvokeKind::Super => dex
            .superclasses(r.class)
            .find_map(|a| by_signature.get(&(a.0, r.name, r.descriptor)).copied()),
    }
}

/// The old `HashSet` BFS from `roots`.
pub fn reachable_methods_oracle(
    graph: &HashCallGraph<'_>,
    roots: &[MethodId],
) -> HashSet<MethodId> {
    let mut seen: HashSet<MethodId> = roots.iter().copied().collect();
    let mut queue: Vec<MethodId> = roots.to_vec();
    while let Some(m) = queue.pop() {
        for &callee in graph.callees(m) {
            if seen.insert(callee) {
                queue.push(callee);
            }
        }
    }
    seen
}

/// The methods `graph`'s dex defines, by dense node index: the inverse of
/// [`CallGraph::node_index`].
fn csr_methods(graph: &CallGraph<'_>) -> Vec<MethodId> {
    let mut methods = vec![MethodId(0); graph.node_count()];
    for d in graph.dex().classes().iter().flat_map(|c| &c.methods) {
        if let Some(i) = graph.node_index(d.method) {
            methods[i as usize] = d.method;
        }
    }
    methods
}

/// The CSR graph's resolved internal callees of `m`, as method ids.
pub fn csr_callees(graph: &CallGraph<'_>, m: MethodId) -> Vec<MethodId> {
    let Some(idx) = graph.node_index(m) else {
        return Vec::new();
    };
    let methods = csr_methods(graph);
    graph
        .callee_indices(idx)
        .iter()
        .map(|&t| methods[t as usize])
        .collect()
}

/// The class defining `m` in the CSR graph's dex, if the graph has a node
/// for it; a re-defined method id belongs to its last defining class, as
/// in [`HashCallGraph`].
pub fn csr_defining_class(graph: &CallGraph<'_>, m: MethodId) -> Option<TypeId> {
    graph.node_index(m)?;
    let mut classes = graph.dex().classes().iter().rev();
    classes
        .find(|c| c.methods.iter().any(|d| d.method == m))
        .map(|c| c.ty)
}

/// The CSR graph's bitset BFS ([`ReachScratch::mark_reachable`]) from
/// `roots`, as a set of method ids: like [`reachable_methods_oracle`], every
/// root (even an external ref) plus every defined method reached.
pub fn reachable_methods(graph: &CallGraph<'_>, roots: &[MethodId]) -> HashSet<MethodId> {
    let mut scratch = ReachScratch::new();
    scratch.mark_reachable(graph, roots);
    let mut seen: HashSet<MethodId> = roots.iter().copied().collect();
    for d in graph.dex().classes().iter().flat_map(|c| &c.methods) {
        if graph
            .node_index(d.method)
            .is_some_and(|i| scratch.is_marked(i))
        {
            seen.insert(d.method);
        }
    }
    seen
}

/// [`record_web_calls_with`] with a throwaway scratch, for one-shot
/// callers.
pub fn record_web_calls(
    graph: &CallGraph<'_>,
    roots: &[MethodId],
    webview_subclasses: &HashSet<Symbol>,
    catalog: &SdkIndex,
    lexicon: &mut LocalInterner,
    labels: &mut LabelCache,
) -> WebCallRecord {
    let mut scratch = ReachScratch::new();
    record_web_calls_with(
        graph,
        roots,
        webview_subclasses,
        catalog,
        lexicon,
        labels,
        &mut scratch,
    )
}

/// Oracle analog of [`record_web_calls`]: identical recording loop (shared
/// via `record_sites`), reachability from the hash BFS.
pub fn record_web_calls_oracle(
    graph: &HashCallGraph<'_>,
    roots: &[MethodId],
    webview_subclasses: &HashSet<Symbol>,
    catalog: &SdkIndex,
    lexicon: &mut LocalInterner,
    labels: &mut LabelCache,
) -> WebCallRecord {
    let reachable = reachable_methods_oracle(graph, roots);
    record_sites(
        graph.dex(),
        graph.sites(),
        |caller| reachable.contains(&caller),
        webview_subclasses,
        catalog,
        lexicon,
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_apk::sdex::{ClassFlags, DexBuilder, MethodDef, Reg};

    fn def(b: &mut DexBuilder, class: &str, name: &str, code: Vec<Instruction>) -> MethodDef {
        MethodDef::new(b.intern_method(class, name, "()V"), true, false, code)
    }

    #[test]
    fn oracle_and_csr_agree_on_a_small_graph() {
        let mut b = DexBuilder::new();
        let callee = b.intern_method("com/x/B", "run", "()V");
        let a = MethodDef::new(
            b.intern_method("com/x/A", "go", "()V"),
            true,
            true,
            vec![
                Instruction::Invoke {
                    kind: InvokeKind::Static,
                    method: callee,
                    args: vec![],
                },
                Instruction::Invoke {
                    kind: InvokeKind::Static,
                    method: callee,
                    args: vec![],
                },
                Instruction::ReturnVoid,
            ],
        );
        let b_run = MethodDef::new(callee, true, false, vec![Instruction::ReturnVoid]);
        b.define_class("com/x/A", None, ClassFlags::default(), vec![a])
            .unwrap();
        b.define_class("com/x/B", None, ClassFlags::default(), vec![b_run])
            .unwrap();
        let dex = b.build();
        assert_eq!(instruction_count(&dex), 4);

        let oracle = HashCallGraph::build(&dex);
        let csr = CallGraph::build(&dex);
        let a_id = dex
            .class(dex.type_by_name("com/x/A").unwrap())
            .unwrap()
            .methods[0]
            .method;

        // Oracle keeps the duplicate edge, CSR dedups it — but reachability
        // and sites agree.
        assert_eq!(oracle.edge_count(), 2);
        assert_eq!(csr.edge_count(), 1);
        assert_eq!(oracle.sites(), csr.sites());
        assert_eq!(
            reachable_methods_oracle(&oracle, &[a_id]),
            reachable_methods(&csr, &[a_id])
        );
        assert_eq!(
            oracle.defining_class(callee),
            csr_defining_class(&csr, callee)
        );
    }

    #[test]
    fn hash_vtables_match_the_hash_oracle() {
        // A deep override chain plus an unresolved external call exercises
        // hit, miss, and shadowing paths; the hash-vtable CSR build must
        // agree with the chain-walking oracle on every edge and count.
        let mut b = DexBuilder::new();
        let c_handle = b.intern_method("com/x/C", "handle", "()V");
        let c_other = b.intern_method("com/x/C", "other", "(I)V");
        let missing = b.intern_method("com/x/C", "absent", "()V");
        let mut code = Vec::new();
        for _ in 0..3 {
            code.push(Instruction::Invoke {
                kind: InvokeKind::Virtual,
                method: c_handle,
                args: vec![],
            });
        }
        code.push(Instruction::Invoke {
            kind: InvokeKind::Virtual,
            method: c_other,
            args: vec![Reg(0)],
        });
        code.push(Instruction::Invoke {
            kind: InvokeKind::Virtual,
            method: missing,
            args: vec![],
        });
        code.push(Instruction::ReturnVoid);
        let caller = def(&mut b, "com/x/Main", "go", code);
        let a_def = def(&mut b, "com/x/A", "handle", vec![Instruction::ReturnVoid]);
        let a_other = MethodDef::new(
            b.intern_method("com/x/A", "other", "(I)V"),
            true,
            false,
            vec![Instruction::ReturnVoid],
        );
        let b_def = def(&mut b, "com/x/B", "handle", vec![Instruction::ReturnVoid]);
        b.define_class("com/x/A", None, ClassFlags::default(), vec![a_def, a_other])
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
        let oracle = HashCallGraph::build(&dex);
        // The oracle keeps duplicate edges; the CSR build counts the ones
        // it dedups.
        assert_eq!(
            g.edge_count() + g.build_stats().duplicate_edges as usize,
            oracle.edge_count()
        );
        assert_eq!(g.node_count(), oracle.defined_count());
        assert_eq!(g.sites(), oracle.sites());
        let main = dex
            .class(dex.type_by_name("com/x/Main").unwrap())
            .unwrap()
            .methods[0]
            .method;
        let mut h = csr_callees(&g, main);
        let mut o = oracle.callees(main).to_vec();
        h.sort();
        o.sort();
        o.dedup();
        assert_eq!(h, o);
        // Nearest override must win under the hash layout.
        assert!(h
            .iter()
            .any(|&m| dex.type_name(csr_defining_class(&g, m).unwrap()) == "com/x/B"));
    }
}
