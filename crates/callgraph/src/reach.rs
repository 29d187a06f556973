//! Reachability traversal and WebView / Custom-Tabs call-site recording —
//! step (5) of the pipeline.
//!
//! Traversal runs on a **reusable bitset + `Vec` worklist**
//! ([`ReachScratch`]): the visited bitmap is indexed by the graph's dense
//! node indices, shared across all of an app's entry-point roots (common
//! subgraphs are walked once), and *cleared, not reallocated* between apps
//! — the worker's `AnalysisCtx` owns one scratch for its whole shard.
//!
//! Recording is also where strings leave the hot path: every name a site
//! carries (method, classes, argument) is interned into the worker's
//! [`LocalInterner`] here, and the caller package is derived from the
//! caller class and labeled against the SDK catalog while its dotted text
//! is still at hand. A site keeps the label, not the package: the package
//! is a function of the class (`wla_apk::names::package_of_into`), and a reader
//! that prints it derives it. Downstream stages (summaries, aggregation)
//! operate purely on the resulting `u32` handles.

use crate::graph::{BuildStats, CallGraph, CallSite, UrlOrigin};
use std::collections::{HashMap, HashSet};
use wla_apk::names::{framework, package_of_into, CT_LAUNCH_METHOD, WEBVIEW_CONTENT_METHODS};
use wla_apk::sdex::{Dex, MethodId};
use wla_intern::{FxBuildHasher, LocalInterner, PkgId, Symbol};
use wla_sdk_index::{LabelCache, LabelId, SdkIndex};

/// A recorded call to a WebView content method. All names are symbols in
/// the interner `record_web_calls_with` was handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WebViewSite {
    /// Method name (`loadUrl`, …).
    pub method: Symbol,
    /// Position of the method in [`WEBVIEW_CONTENT_METHODS`] — Table 7
    /// accounting indexes by this instead of comparing names.
    pub method_idx: u8,
    /// Binary name of the class containing the call.
    pub caller_class: Symbol,
    /// Binary name of the static receiver type (WebView itself or a
    /// subclass).
    pub receiver_class: Symbol,
    /// Catalog label of the caller class's package, resolved at record
    /// time (`Unlabeled` for the default package).
    pub label: LabelId,
    /// Resolved string argument of the call (URL / JS / bridge name),
    /// when provenance analysis pinned it to a single constant.
    pub argument: Option<Symbol>,
    /// How the URL argument resolved (constant / unknown / conflicting).
    pub origin: UrlOrigin,
    /// Whether the call is reachable from an entry point.
    pub reachable: bool,
}

/// A recorded Custom-Tabs interaction (`CustomTabsIntent` construction or
/// `launchUrl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtSite {
    /// `launchUrl`, `build`, or `<init>`.
    pub method: Symbol,
    /// Whether this is the content-populating [`CT_LAUNCH_METHOD`].
    pub is_launch: bool,
    /// Binary name of the class containing the call.
    pub caller_class: Symbol,
    /// Catalog label of the caller class's package, resolved at record
    /// time (`Unlabeled` for the default package).
    pub label: LabelId,
    /// Resolved URL argument for `launchUrl` sites, when provenance
    /// analysis pinned it to a single constant.
    pub argument: Option<Symbol>,
    /// How the URL argument resolved (constant / unknown / conflicting).
    pub origin: UrlOrigin,
    /// Whether the call is reachable from an entry point.
    pub reachable: bool,
}

/// The complete record for one app.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WebCallRecord {
    /// WebView content-method calls.
    pub webview: Vec<WebViewSite>,
    /// Custom-Tabs interactions.
    pub custom_tabs: Vec<CtSite>,
}

/// Reusable traversal scratch: a visited bitmap over dense node indices
/// plus a worklist. Owned by the worker's `AnalysisCtx` and cleared (never
/// shrunk) between apps, so steady-state traversal is allocation-free.
#[derive(Debug, Default)]
pub struct ReachScratch {
    /// Visited bitmap, one bit per dense node index.
    visited: Vec<u64>,
    /// DFS worklist of dense node indices.
    worklist: Vec<u32>,
    /// Traversals served without growing the bitmap.
    pub reuses: u64,
    /// Traversals that had to grow the bitmap (first app, or a bigger dex).
    pub grows: u64,
    /// Total CSR edges scanned across all traversals.
    pub edges_traversed: u64,
}

impl ReachScratch {
    /// Fresh scratch (first traversal will count as a grow).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset the bitmap for a graph of `nodes` methods, growing only if a
    /// previous app's dex was smaller.
    fn begin(&mut self, nodes: usize) {
        let words = nodes.div_ceil(64);
        if self.visited.len() < words {
            self.visited.resize(words, 0);
            self.grows += 1;
        } else {
            self.reuses += 1;
        }
        self.visited[..words].fill(0);
        self.worklist.clear();
    }

    /// Set the bit for `idx`; true if it was previously unset.
    #[inline]
    fn mark(&mut self, idx: u32) -> bool {
        let word = &mut self.visited[(idx >> 6) as usize];
        let bit = 1u64 << (idx & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Whether dense node `idx` was reached by the last [`mark_reachable`].
    ///
    /// [`mark_reachable`]: ReachScratch::mark_reachable
    #[inline]
    pub fn is_marked(&self, idx: u32) -> bool {
        self.visited[(idx >> 6) as usize] & (1u64 << (idx & 63)) != 0
    }

    /// Traverse `graph` from all `roots` at once, leaving the visited
    /// bitmap populated until the next call. Roots not defined in the dex
    /// (external refs) contribute nothing, matching the hash path where
    /// they had no out-edges.
    pub fn mark_reachable(&mut self, graph: &CallGraph<'_>, roots: &[MethodId]) {
        self.begin(graph.node_count());
        for &root in roots {
            if let Some(idx) = graph.node_index(root) {
                if self.mark(idx) {
                    self.worklist.push(idx);
                }
            }
        }
        while let Some(v) = self.worklist.pop() {
            let callees = graph.callee_indices(v);
            self.edges_traversed += callees.len() as u64;
            for &t in callees {
                if self.mark(t) {
                    self.worklist.push(t);
                }
            }
        }
    }
}

/// Per-worker call-graph counters, merged into `PipelineStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallGraphCounters {
    /// Call graphs built (≥ apps analyzed; one per dex).
    pub graphs: u64,
    /// Virtual resolutions served by an already-built vtable.
    pub vtable_hits: u64,
    /// Vtables built (one per receiver class needing hierarchy search).
    pub vtable_misses: u64,
    /// CSR edges across all graphs (after dedup).
    pub edges: u64,
    /// Duplicate same-callee invokes collapsed by the CSR dedup.
    pub duplicate_edges: u64,
    /// Traversals that reused the bitset without growing it.
    pub bitset_reuses: u64,
    /// Traversals that grew the bitset.
    pub bitset_grows: u64,
    /// CSR edges scanned by reachability traversals.
    pub edges_traversed: u64,
}

impl CallGraphCounters {
    /// Fold one graph's build stats in.
    pub fn absorb_build(&mut self, stats: &BuildStats, edge_count: usize) {
        self.graphs += 1;
        self.vtable_hits += stats.vtable_hits;
        self.vtable_misses += stats.vtable_misses;
        self.edges += edge_count as u64;
        self.duplicate_edges += stats.duplicate_edges;
    }

    /// Copy the scratch's traversal counters in (call once per worker,
    /// after its shard is done — the scratch accumulates across apps).
    pub fn absorb_scratch(&mut self, scratch: &ReachScratch) {
        self.bitset_reuses += scratch.reuses;
        self.bitset_grows += scratch.grows;
        self.edges_traversed += scratch.edges_traversed;
    }

    /// Merge another worker's counters.
    pub fn merge(&mut self, other: &CallGraphCounters) {
        self.graphs += other.graphs;
        self.vtable_hits += other.vtable_hits;
        self.vtable_misses += other.vtable_misses;
        self.edges += other.edges;
        self.duplicate_edges += other.duplicate_edges;
        self.bitset_reuses += other.bitset_reuses;
        self.bitset_grows += other.bitset_grows;
        self.edges_traversed += other.edges_traversed;
    }

    /// Fraction of virtual resolutions served from cache.
    pub fn vtable_hit_rate(&self) -> f64 {
        let total = self.vtable_hits + self.vtable_misses;
        if total == 0 {
            0.0
        } else {
            self.vtable_hits as f64 / total as f64
        }
    }
}

/// Record every WebView content-method call and CT interaction in `graph`,
/// marking reachability from `roots`, using the caller-owned `scratch` for
/// the traversal (allocation-free after the first app).
///
/// `webview_subclasses` is the set of (interned) binary names the
/// decompilation step found to extend WebView; its symbols must come from
/// `lexicon`. Caller classes are interned once per dex type (memoized),
/// their packages extracted into a reused scratch buffer, interned as the
/// key of `labels` and labeled through it.
pub fn record_web_calls_with(
    graph: &CallGraph<'_>,
    roots: &[MethodId],
    webview_subclasses: &HashSet<Symbol>,
    catalog: &SdkIndex,
    lexicon: &mut LocalInterner,
    labels: &mut LabelCache,
    scratch: &mut ReachScratch,
) -> WebCallRecord {
    scratch.mark_reachable(graph, roots);
    record_sites(
        graph.dex(),
        graph.sites(),
        |caller| {
            graph
                .node_index(caller)
                .is_some_and(|idx| scratch.is_marked(idx))
        },
        webview_subclasses,
        catalog,
        lexicon,
        labels,
    )
}

/// The site-recording loop, shared between the CSR path and the hash
/// oracle (`wla_oracle::callgraph`) so both provably apply identical
/// semantics: only the reachability predicate differs.
pub fn record_sites(
    dex: &Dex,
    sites: &[CallSite],
    mut is_reachable: impl FnMut(MethodId) -> bool,
    webview_subclasses: &HashSet<Symbol>,
    catalog: &SdkIndex,
    lexicon: &mut LocalInterner,
    labels: &mut LabelCache,
) -> WebCallRecord {
    let mut record = WebCallRecord::default();

    // TypeId → (class symbol, label). TypeIds are per-dex, so this memo
    // must not outlive the call.
    let mut callers: HashMap<u32, (Symbol, LabelId), FxBuildHasher> = HashMap::default();
    let mut scratch = String::new();

    for site in sites {
        let callee_ref = dex.method_ref(site.callee_ref);
        let receiver = dex.type_name(callee_ref.class);
        let name = dex.string(callee_ref.name);

        // Non-inserting subclass probe: a subclass name absent from the
        // lexicon cannot be in `webview_subclasses` (whose symbols came
        // from it), so `get` suffices and framework receivers never bloat
        // the table.
        let is_webview_receiver = receiver == framework::WEBVIEW
            || lexicon
                .get(receiver)
                .is_some_and(|s| webview_subclasses.contains(&s));
        let is_ct_receiver =
            receiver == framework::CUSTOM_TABS_INTENT || receiver == framework::CUSTOM_TABS_BUILDER;
        let method_idx = if is_webview_receiver {
            WEBVIEW_CONTENT_METHODS.iter().position(|m| *m == name)
        } else {
            None
        };
        if method_idx.is_none() && !is_ct_receiver {
            continue;
        }

        let (caller_class, label) = *callers.entry(site.caller_class.0).or_insert_with(|| {
            let class_name = dex.type_name(site.caller_class);
            let sym = lexicon.intern(class_name);
            let label = if package_of_into(class_name, &mut scratch) {
                labels.label(catalog, PkgId(lexicon.intern(&scratch)), &scratch)
            } else {
                LabelId::Unlabeled
            };
            (sym, label)
        });
        let reachable = is_reachable(site.caller);
        let argument = site
            .provenance
            .constant()
            .map(|s| lexicon.intern(dex.string(s)));
        let origin = site.provenance.origin();

        if let Some(idx) = method_idx {
            record.webview.push(WebViewSite {
                method: lexicon.intern(name),
                method_idx: idx as u8,
                caller_class,
                receiver_class: lexicon.intern(receiver),
                label,
                argument,
                origin,
                reachable,
            });
        }

        if is_ct_receiver {
            record.custom_tabs.push(CtSite {
                method: lexicon.intern(name),
                is_launch: name == CT_LAUNCH_METHOD,
                caller_class,
                label,
                argument,
                origin,
                reachable,
            });
        }
    }
    record
}

impl WebCallRecord {
    /// Reachable WebView sites only.
    pub fn reachable_webview(&self) -> impl Iterator<Item = &WebViewSite> {
        self.webview.iter().filter(|s| s.reachable)
    }

    /// Reachable CT sites only.
    pub fn reachable_custom_tabs(&self) -> impl Iterator<Item = &CtSite> {
        self.custom_tabs.iter().filter(|s| s.reachable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entrypoints::entry_points;
    use crate::graph::{annotate_provenance, Provenance};
    use wla_apk::names::WEBVIEW_LOAD_METHOD_MASK;
    use wla_apk::sdex::{ClassFlags, DexBuilder, Instruction, InvokeKind, MethodDef, Reg};
    use wla_manifest::{Component, ComponentKind, Manifest};

    /// Activity whose onCreate reaches loadUrl through one hop; plus a dead
    /// class calling loadUrl; plus a CT launch; plus a subclass receiver.
    fn build_fixture() -> (wla_apk::Dex, Manifest) {
        let mut b = DexBuilder::new();
        let load = b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
        let sub_load = b.intern_method("com/x/MyWebView", "loadUrl", "(Ljava/lang/String;)V");
        let launch = b.intern_method(
            "androidx/browser/customtabs/CustomTabsIntent",
            "launchUrl",
            "(Landroid/content/Context;Landroid/net/Uri;)V",
        );
        let url = b.intern_string("https://live.example");
        let dead_url = b.intern_string("https://dead.example");

        let helper = b.intern_method("com/x/Helper", "show", "()V");
        let on_create = b.intern_method("com/x/Main", "onCreate", "()V");
        let dead_m = b.intern_method("com/x/Dead", "zombie", "()V");

        b.define_class(
            "com/x/MyWebView",
            Some("android/webkit/WebView"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.define_class(
            "com/x/Helper",
            None,
            ClassFlags::default(),
            vec![MethodDef::new(
                helper,
                true,
                true,
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
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: sub_load,
                        args: vec![Reg(0)],
                    },
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: launch,
                        args: vec![Reg(0)],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        b.define_class(
            "com/x/Main",
            Some("android/app/Activity"),
            ClassFlags::default(),
            vec![MethodDef::new(
                on_create,
                true,
                false,
                vec![
                    Instruction::Invoke {
                        kind: InvokeKind::Static,
                        method: helper,
                        args: vec![],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        b.define_class(
            "com/x/Dead",
            None,
            ClassFlags::default(),
            vec![MethodDef::new(
                dead_m,
                false,
                true,
                vec![
                    Instruction::ConstString {
                        dst: Reg(0),
                        string: dead_url,
                    },
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: load,
                        args: vec![Reg(0)],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();

        let mut manifest = Manifest::new("com.x");
        manifest
            .components
            .push(Component::simple(ComponentKind::Activity, "com/x/Main"));
        (b.build(), manifest)
    }

    /// Each invoke's URL: the string of a `const-string` right before it.
    fn adjacent_strings(m: &MethodDef) -> Vec<Provenance> {
        let mut out = Vec::new();
        let mut pending = None;
        for ins in &m.code {
            if let Instruction::Invoke { .. } = ins {
                out.push(pending.map_or(Provenance::Unknown, Provenance::Const));
            }
            pending = match ins {
                Instruction::ConstString { string, .. } => Some(*string),
                _ => None,
            };
        }
        out
    }

    fn record(
        dex: &wla_apk::Dex,
        manifest: &Manifest,
        subclass_names: &[&str],
        lexicon: &mut LocalInterner,
    ) -> WebCallRecord {
        let mut g = CallGraph::build(dex);
        annotate_provenance(dex, g.sites_mut(), adjacent_strings);
        let roots = entry_points(&g, manifest);
        let subs: HashSet<Symbol> = subclass_names.iter().map(|n| lexicon.intern(n)).collect();
        let catalog = SdkIndex::new(vec![]);
        let mut labels = LabelCache::new();
        let mut scratch = ReachScratch::new();
        record_web_calls_with(
            &g,
            &roots,
            &subs,
            &catalog,
            lexicon,
            &mut labels,
            &mut scratch,
        )
    }

    #[test]
    fn reachable_and_dead_sites_distinguished() {
        let (dex, manifest) = build_fixture();
        let mut lexicon = LocalInterner::new();
        let rec = record(&dex, &manifest, &["com/x/MyWebView"], &mut lexicon);

        // Three WebView sites total: two live (framework + subclass), one dead.
        assert_eq!(rec.webview.len(), 3);
        assert_eq!(rec.reachable_webview().count(), 2);
        let dead: Vec<_> = rec.webview.iter().filter(|s| !s.reachable).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(lexicon.resolve(dead[0].caller_class), "com/x/Dead");
        assert_eq!(
            dead[0].argument.map(|s| lexicon.resolve(s)),
            Some("https://dead.example")
        );

        // Subclass receiver recorded as WebView usage, with the Table 7
        // index (which fixes the load-method flag) computed at record time.
        assert!(rec
            .webview
            .iter()
            .any(|s| lexicon.resolve(s.receiver_class) == "com/x/MyWebView" && s.reachable));
        for s in &rec.webview {
            assert_eq!(lexicon.resolve(s.method), "loadUrl");
            assert_eq!(s.method_idx, 0);
            assert!(WEBVIEW_LOAD_METHOD_MASK & (1 << s.method_idx) != 0);
        }

        // CT launch recorded and reachable.
        assert_eq!(rec.custom_tabs.len(), 1);
        assert!(rec.custom_tabs[0].reachable);
        assert!(rec.custom_tabs[0].is_launch);
        assert_eq!(lexicon.resolve(rec.custom_tabs[0].method), "launchUrl");
    }

    #[test]
    fn subclass_calls_invisible_without_subclass_set() {
        // Without the decompiler's subclass knowledge, the subclass call is
        // missed — this is exactly why the pipeline needs step (3).
        let (dex, manifest) = build_fixture();
        let mut lexicon = LocalInterner::new();
        let rec = record(&dex, &manifest, &[], &mut lexicon);
        assert_eq!(
            rec.webview
                .iter()
                .filter(|s| lexicon.resolve(s.receiver_class) == "com/x/MyWebView")
                .count(),
            0
        );
    }

    #[test]
    fn caller_packages_are_labeled_at_record_time() {
        let (dex, manifest) = build_fixture();
        let g = CallGraph::build(&dex);
        let roots = entry_points(&g, &manifest);
        let mut lexicon = LocalInterner::new();
        let subs: HashSet<Symbol> = [lexicon.intern("com/x/MyWebView")].into();
        let catalog = SdkIndex::paper();
        let mut labels = LabelCache::new();
        let mut scratch = ReachScratch::new();
        let rec = record_web_calls_with(
            &g,
            &roots,
            &subs,
            &catalog,
            &mut lexicon,
            &mut labels,
            &mut scratch,
        );
        // `com.x` is in no catalog and not obfuscated-looking ("com" is 3
        // chars): everything here is Unlabeled, computed without any
        // downstream string resolution.
        for s in &rec.webview {
            assert_eq!(s.label, LabelId::Unlabeled);
        }
        // Only two distinct caller *classes* record sites (Helper, Dead);
        // the TypeId memo collapses Helper's three sites to one lookup, and
        // both classes share `com.x`, so the label cache sees exactly one
        // miss and one hit.
        assert_eq!((labels.hits, labels.misses), (1, 1));
    }

    #[test]
    fn reachability_is_transitive_and_terminates_on_cycles() {
        let mut b = DexBuilder::new();
        let f = b.intern_method("com/x/A", "f", "()V");
        let gm = b.intern_method("com/x/A", "g", "()V");
        b.define_class(
            "com/x/A",
            None,
            ClassFlags::default(),
            vec![
                MethodDef::new(
                    f,
                    true,
                    true,
                    vec![
                        Instruction::Invoke {
                            kind: InvokeKind::Static,
                            method: gm,
                            args: vec![],
                        },
                        Instruction::ReturnVoid,
                    ],
                ),
                MethodDef::new(
                    gm,
                    true,
                    true,
                    vec![
                        Instruction::Invoke {
                            kind: InvokeKind::Static,
                            method: f,
                            args: vec![],
                        },
                        Instruction::ReturnVoid,
                    ],
                ),
            ],
        )
        .unwrap();
        let dex = b.build();
        let g = CallGraph::build(&dex);
        let mut scratch = ReachScratch::new();
        scratch.mark_reachable(&g, &[f]);
        let reached = (0..g.node_count() as u32).filter(|&i| scratch.is_marked(i));
        assert_eq!(reached.count(), 2);
    }

    #[test]
    fn scratch_is_reused_across_graphs_without_state_leaks() {
        // Two different dexes through the same scratch: the second (smaller)
        // traversal must not see the first's visited bits, and the counters
        // must show one grow + one reuse.
        let (dex, manifest) = build_fixture();
        let g = CallGraph::build(&dex);
        let roots = entry_points(&g, &manifest);
        let mut scratch = ReachScratch::new();
        scratch.mark_reachable(&g, &roots);
        assert_eq!((scratch.grows, scratch.reuses), (1, 0));
        let first_marked: Vec<bool> = (0..g.node_count() as u32)
            .map(|i| scratch.is_marked(i))
            .collect();
        assert!(first_marked.iter().any(|&m| m));
        assert!(first_marked.iter().any(|&m| !m), "Dead::zombie stays dead");

        // Same graph, no roots: everything must read unvisited again.
        scratch.mark_reachable(&g, &[]);
        assert_eq!((scratch.grows, scratch.reuses), (1, 1));
        assert!((0..g.node_count() as u32).all(|i| !scratch.is_marked(i)));

        // And a re-run from the real roots reproduces the first bitmap.
        scratch.mark_reachable(&g, &roots);
        let third: Vec<bool> = (0..g.node_count() as u32)
            .map(|i| scratch.is_marked(i))
            .collect();
        assert_eq!(first_marked, third);
    }
}
