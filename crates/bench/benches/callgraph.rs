//! Call-graph construction and traversal; ablations: CSR + bitset vs the
//! hash-based oracle path (DESIGN.md §6.3), and entry-point-bounded
//! traversal vs whole-graph site scan (DESIGN.md §6.2).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wla_core::wla_apk::sdex::{ClassFlags, DexBuilder, Instruction, InvokeKind, MethodDef, Reg};
use wla_core::wla_apk::{Dex, SectionTag, TypeId};
use wla_core::wla_callgraph::reach::{record_web_calls_with, ReachScratch};
use wla_core::wla_callgraph::{entry_points, CallGraph};
use wla_core::wla_corpus::ecosystem::{Ecosystem, EcosystemParams};
use wla_core::wla_corpus::lowering::lower;
use wla_core::wla_corpus::playstore::{AppMeta, PlayCategory};
use wla_core::wla_intern::{LocalInterner, Symbol};
use wla_core::wla_manifest::{wireformat, Manifest};
use wla_core::wla_sdk_index::{LabelCache, SdkIndex};
use wla_oracle::callgraph::{reachable_methods, record_web_calls};
use wla_oracle::{reachable_methods_oracle, record_web_calls_oracle, HashCallGraph};

fn fixture() -> (Dex, Manifest) {
    // A heavyweight app: scan seeds for the spec with the most SDKs so the
    // graph has realistic size (a mediation-stack app, not a toy).
    let catalog = SdkIndex::paper();
    let eco = Ecosystem::new(&catalog, EcosystemParams::default());
    let meta = AppMeta {
        package: "com.bench.app".into(),
        on_play_store: true,
        downloads: 50_000_000,
        category: PlayCategory::News,
        last_update_day: 900,
    };
    let spec = (0..200u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            eco.sample_app(&mut rng, meta.clone())
        })
        .max_by_key(|s| s.sdks.len())
        .expect("non-empty seed range");
    let mut rng = StdRng::seed_from_u64(1);
    let apk = lower(&spec, &catalog, &mut rng);
    let manifest = wireformat::decode(apk.manifest_bytes().unwrap()).unwrap();
    let dex = Dex::decode(apk.section(SectionTag::Dex).unwrap()).unwrap();
    (dex, manifest)
}

/// A hierarchy-heavy dex for the vtable-binding bench: `DEPTH` classes
/// in one superclass chain, `PER_CLASS` methods each, plus a driver whose
/// virtual invokes all name the *deepest* class as receiver while the
/// definitions live in ancestors. Every one of those sites misses the
/// direct signature map and resolves through the flattened vtable — a
/// 256-entry table probed 744 times — so vtable binding dominates.
fn deep_hierarchy_dex() -> Dex {
    const DEPTH: usize = 32;
    const PER_CLASS: usize = 8;
    let mut b = DexBuilder::new();
    for d in 0..DEPTH {
        let name = format!("com/deep/C{d}");
        let superclass = (d > 0).then(|| format!("com/deep/C{}", d - 1));
        let methods = (0..PER_CLASS)
            .map(|m| {
                MethodDef::new(
                    b.intern_method(&name, &format!("m{d}_{m}"), "()V"),
                    true,
                    false,
                    vec![Instruction::ReturnVoid],
                )
            })
            .collect();
        b.define_class(&name, superclass.as_deref(), ClassFlags::default(), methods)
            .unwrap();
    }
    let deepest = format!("com/deep/C{}", DEPTH - 1);
    let mut code = Vec::new();
    for _pass in 0..3 {
        for d in 0..DEPTH - 1 {
            for m in 0..PER_CLASS {
                code.push(Instruction::Invoke {
                    kind: InvokeKind::Virtual,
                    method: b.intern_method(&deepest, &format!("m{d}_{m}"), "()V"),
                    args: vec![Reg(0)],
                });
            }
        }
    }
    let main = vec![MethodDef::new(
        b.intern_method("com/deep/Main", "run", "()V"),
        true,
        false,
        code,
    )];
    b.define_class("com/deep/Main", None, ClassFlags::default(), main)
        .unwrap();
    b.build()
}

fn bench(c: &mut Criterion) {
    let catalog = SdkIndex::paper();
    let (dex, manifest) = fixture();
    let graph = CallGraph::build(&dex);
    let oracle = HashCallGraph::build(&dex);
    let roots = entry_points(&graph, &manifest);
    let subs: std::collections::HashSet<Symbol> = std::collections::HashSet::new();

    let mut group = c.benchmark_group("callgraph");
    // Build ablation: two-pass CSR (dense indices, vtable cache, dedup) vs
    // the single-pass HashMap adjacency build.
    group.bench_function("build", |b| b.iter(|| CallGraph::build(black_box(&dex))));
    group.bench_function("build_hash_oracle", |b| {
        b.iter(|| HashCallGraph::build(black_box(&dex)))
    });
    // Build on the hierarchy-heavy fixture, where virtual binding through
    // the hash vtables is the dominant cost instead of a rounding error.
    let deep = deep_hierarchy_dex();
    group.bench_function("vtable_bind_hash", |b| {
        b.iter(|| CallGraph::build(black_box(&deep)))
    });
    // Name-lookup ablation: O(1) probes into the stored wire lookup table
    // versus a linear scan of the type table — the pre-v3 shape every
    // by-name class lookup paid.
    let class_names: Vec<String> = dex
        .classes()
        .iter()
        .map(|c| dex.type_name(c.ty).to_string())
        .chain((0..64).map(|i| format!("com/miss/Absent{i}")))
        .collect();
    group.bench_function("type_by_name_lut", |b| {
        b.iter(|| {
            for name in &class_names {
                black_box(dex.type_by_name(black_box(name)));
            }
        })
    });
    group.bench_function("type_by_name_linear_scan", |b| {
        b.iter(|| {
            for name in &class_names {
                black_box(
                    (0..dex.type_count() as u32)
                        .map(TypeId)
                        .find(|&t| dex.type_name(t) == name.as_str()),
                );
            }
        })
    });
    group.bench_function("entry_points", |b| {
        b.iter(|| entry_points(black_box(&graph), black_box(&manifest)))
    });
    // Reachability ablation (the ISSUE's ≥2x criterion): reused bitset +
    // worklist over the CSR arena vs HashSet BFS over HashMap adjacency.
    // The scratch persists across iterations like a pipeline worker's.
    group.bench_function("reachability_bitset", |b| {
        let mut scratch = ReachScratch::new();
        b.iter(|| {
            scratch.mark_reachable(black_box(&graph), black_box(&roots));
        })
    });
    group.bench_function("reachability_hash_oracle", |b| {
        b.iter(|| reachable_methods_oracle(black_box(&oracle), black_box(&roots)))
    });
    // Set-materializing variant (allocates the HashSet): what callers of
    // the compat wrapper pay.
    group.bench_function("reachability_set", |b| {
        b.iter(|| reachable_methods(black_box(&graph), black_box(&roots)))
    });
    // Ablation: traversal-bounded recording vs scanning every site, plus
    // the end-to-end record against the hash oracle. The lexicon and label
    // cache persist across iterations like a pipeline worker's do across
    // apps.
    group.bench_function("record_entrypoint_bounded", |b| {
        let mut lexicon = LocalInterner::new();
        let mut labels = LabelCache::default();
        let mut scratch = ReachScratch::new();
        b.iter(|| {
            record_web_calls_with(
                black_box(&graph),
                black_box(&roots),
                &subs,
                &catalog,
                &mut lexicon,
                &mut labels,
                &mut scratch,
            )
        })
    });
    group.bench_function("record_hash_oracle", |b| {
        let mut lexicon = LocalInterner::new();
        let mut labels = LabelCache::default();
        b.iter(|| {
            record_web_calls_oracle(
                black_box(&oracle),
                black_box(&roots),
                &subs,
                &catalog,
                &mut lexicon,
                &mut labels,
            )
        })
    });
    group.bench_function("record_whole_graph_scan", |b| {
        let mut lexicon = LocalInterner::new();
        let mut labels = LabelCache::default();
        b.iter(|| {
            // Whole-graph scan: treat every defined method as a root.
            let all_roots: Vec<_> = dex
                .classes()
                .iter()
                .flat_map(|c| c.methods.iter().map(|m| m.method))
                .collect();
            record_web_calls(
                black_box(&graph),
                &all_roots,
                &subs,
                &catalog,
                &mut lexicon,
                &mut labels,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
