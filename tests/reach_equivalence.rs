//! Equivalence of the CSR + bitset call-graph path against the hash-based
//! oracle (`wla_oracle::callgraph`), in the style of the interned-IR
//! oracle suite: randomized inputs, bit-identical outputs.
//!
//! Three layers of property:
//! 1. on randomized dexes (deep hierarchies with overrides at multiple
//!    depths, interface dispatch, unresolved framework refs), the CSR
//!    graph and the hash graph agree on definitions, sites, reachable
//!    sets, and whole `WebCallRecord` streams;
//! 2. targeted deep-override chains pin nearest-definition-wins vtable
//!    binding against the oracle's superclass walk;
//! 3. the full pipeline produces identical results regardless of worker
//!    count — which also proves the per-worker
//!    `ReachScratch` leaks no visited state between apps.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use whatcha_lookin_at::wla_apk::sdex::{
    ClassFlags, Dex, DexBuilder, Instruction, InvokeKind, MethodDef, MethodId, Reg,
};
use whatcha_lookin_at::wla_callgraph::reach::{record_web_calls_with, ReachScratch};
use whatcha_lookin_at::wla_callgraph::{entry_points, CallGraph};
use whatcha_lookin_at::wla_corpus::{CorpusConfig, Generator};
use whatcha_lookin_at::wla_intern::{LocalInterner, Symbol};
use whatcha_lookin_at::wla_manifest::{Component, ComponentKind, Manifest};
use whatcha_lookin_at::wla_sdk_index::{LabelCache, SdkIndex};
use whatcha_lookin_at::wla_static::{run_pipeline, PipelineConfig};
use wla_oracle::callgraph::{
    csr_callees, csr_defining_class, reachable_methods, reachable_methods_oracle,
    record_web_calls_oracle, HashCallGraph,
};

const NAMES: [&str; 6] = ["handle", "run", "go", "onCreate", "process", "loadUrl"];
const DESCRIPTORS: [&str; 2] = ["()V", "(Ljava/lang/String;)V"];
const KINDS: [InvokeKind; 5] = [
    InvokeKind::Virtual,
    InvokeKind::Static,
    InvokeKind::Direct,
    InvokeKind::Interface,
    InvokeKind::Super,
];

/// A randomized dex: a class forest (chains rooted in nothing or in
/// framework types), interface-flagged classes, colliding method names at
/// several depths, invoke sites of every kind against both defined and
/// framework receivers, and const-strings sprinkled in.
fn random_dex(rng: &mut StdRng) -> (Dex, Manifest) {
    let mut b = DexBuilder::new();
    let n_classes = rng.gen_range(3..12usize);
    let class_names: Vec<String> = (0..n_classes).map(|i| format!("com/r/C{i}")).collect();

    // Callee reference pool: refs against every class (defined or not at
    // the referenced signature) plus framework receivers.
    let mut ref_pool: Vec<MethodId> = Vec::new();
    for class in &class_names {
        for _ in 0..2 {
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            let desc = DESCRIPTORS[rng.gen_range(0..DESCRIPTORS.len())];
            ref_pool.push(b.intern_method(class, name, desc));
        }
    }
    ref_pool.push(b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V"));
    ref_pool.push(b.intern_method(
        "androidx/browser/customtabs/CustomTabsIntent",
        "launchUrl",
        "(Landroid/content/Context;Landroid/net/Uri;)V",
    ));
    let strings: Vec<u32> = (0..4)
        .map(|i| b.intern_string(&format!("https://r{i}.example")))
        .collect();

    for (i, class) in class_names.iter().enumerate() {
        // Chain to an earlier class (acyclic by construction), a framework
        // type, or nothing.
        let superclass = match rng.gen_range(0..4u8) {
            0 if i > 0 => Some(class_names[rng.gen_range(0..i)].clone()),
            1 => Some("android/app/Activity".to_owned()),
            _ => None,
        };
        let n_methods = rng.gen_range(1..4usize);
        let mut defined: HashSet<(usize, usize)> = HashSet::new();
        let mut methods = Vec::new();
        for _ in 0..n_methods {
            let name_idx = rng.gen_range(0..NAMES.len());
            let desc_idx = rng.gen_range(0..DESCRIPTORS.len());
            if !defined.insert((name_idx, desc_idx)) {
                continue;
            }
            let mut code = Vec::new();
            for _ in 0..rng.gen_range(0..6usize) {
                match rng.gen_range(0..5u8) {
                    0 | 1 => code.push(Instruction::Invoke {
                        kind: KINDS[rng.gen_range(0..KINDS.len())],
                        method: ref_pool[rng.gen_range(0..ref_pool.len())],
                        args: if rng.gen_bool(0.5) {
                            vec![Reg(rng.gen_range(0..4u16))]
                        } else {
                            vec![]
                        },
                    }),
                    2 => code.push(Instruction::ConstString {
                        dst: Reg(rng.gen_range(0..4u16)),
                        string: strings[rng.gen_range(0..strings.len())],
                    }),
                    3 => code.push(Instruction::Nop),
                    _ => code.push(Instruction::Goto { offset: 1 }),
                }
            }
            code.push(Instruction::ReturnVoid);
            methods.push(MethodDef::new(
                b.intern_method(class, NAMES[name_idx], DESCRIPTORS[desc_idx]),
                rng.gen_bool(0.8),
                rng.gen_bool(0.3),
                code,
            ));
        }
        b.define_class(
            class,
            superclass.as_deref(),
            ClassFlags {
                public: true,
                interface: rng.gen_bool(0.15),
                abstract_: false,
            },
            methods,
        )
        .unwrap();
    }

    let mut manifest = Manifest::new("com.r");
    for class in &class_names {
        if rng.gen_bool(0.3) {
            manifest
                .components
                .push(Component::simple(ComponentKind::Activity, class));
        }
    }
    (b.build(), manifest)
}

/// All method-table ids (defined and framework refs).
fn all_method_ids(dex: &Dex) -> Vec<MethodId> {
    (0..dex.method_count() as u32).map(MethodId).collect()
}

/// Record via both paths with fresh, identically seeded lexicons so the
/// `WebCallRecord`s are symbol-for-symbol comparable.
fn record_both_paths(
    dex: &Dex,
    roots: &[MethodId],
    sub_names: &[&str],
) -> (
    whatcha_lookin_at::wla_callgraph::WebCallRecord,
    whatcha_lookin_at::wla_callgraph::WebCallRecord,
) {
    let catalog = SdkIndex::paper();
    let csr = CallGraph::build(dex);
    let oracle = HashCallGraph::build(dex);

    let mut lex_a = LocalInterner::new();
    let subs_a: HashSet<Symbol> = sub_names.iter().map(|n| lex_a.intern(n)).collect();
    let mut labels_a = LabelCache::new();
    let mut scratch = ReachScratch::new();
    let rec_csr = record_web_calls_with(
        &csr,
        roots,
        &subs_a,
        &catalog,
        &mut lex_a,
        &mut labels_a,
        &mut scratch,
    );

    let mut lex_b = LocalInterner::new();
    let subs_b: HashSet<Symbol> = sub_names.iter().map(|n| lex_b.intern(n)).collect();
    let mut labels_b = LabelCache::new();
    let rec_oracle =
        record_web_calls_oracle(&oracle, roots, &subs_b, &catalog, &mut lex_b, &mut labels_b);
    (rec_csr, rec_oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On randomized dexes, the CSR graph and the hash oracle agree on
    /// structure, reachability, and the recorded `WebCall` stream.
    #[test]
    fn csr_matches_oracle_on_random_dexes(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (dex, manifest) = random_dex(&mut rng);
        let csr = CallGraph::build(&dex);
        let oracle = HashCallGraph::build(&dex);

        prop_assert_eq!(csr.node_count(), oracle.defined_count());
        prop_assert_eq!(csr.sites(), oracle.sites());
        // CSR dedups; the oracle keeps duplicates — so ≤, and the per-node
        // target *sets* are identical.
        prop_assert!(csr.edge_count() <= oracle.edge_count());
        for m in all_method_ids(&dex) {
            prop_assert_eq!(csr_defining_class(&csr, m), oracle.defining_class(m), "def {:?}", m);
            let a: HashSet<MethodId> = csr_callees(&csr, m).into_iter().collect();
            let o: HashSet<MethodId> = oracle.callees(m).iter().copied().collect();
            prop_assert_eq!(a, o, "callees of {:?}", m);
        }

        // Entry-point reachability.
        let roots = entry_points(&csr, &manifest);
        prop_assert_eq!(
            reachable_methods(&csr, &roots),
            reachable_methods_oracle(&oracle, &roots)
        );

        // Arbitrary root sets, including framework (undefined) refs.
        let ids = all_method_ids(&dex);
        let arbitrary: Vec<MethodId> = ids
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.25))
            .collect();
        prop_assert_eq!(
            reachable_methods(&csr, &arbitrary),
            reachable_methods_oracle(&oracle, &arbitrary)
        );

        // Whole record streams, symbol-for-symbol.
        let (rec_csr, rec_oracle) = record_both_paths(&dex, &roots, &["com/r/C1"]);
        prop_assert_eq!(rec_csr, rec_oracle);
    }

    /// Deep single-inheritance chains with the same method name re-defined
    /// at several depths: the vtable's nearest-definition-wins binding must
    /// match the oracle's explicit superclass walk, from every receiver
    /// depth and for every virtual-ish invoke kind.
    #[test]
    fn deep_override_chains_bind_to_nearest_definition(
        seed in 0u64..100_000,
        depth in 4usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DexBuilder::new();
        let chain: Vec<String> = (0..depth).map(|i| format!("com/d/L{i}")).collect();

        // Callers live outside the chain and invoke `handle` against a
        // random depth with a random virtual-ish kind.
        let mut caller_code = Vec::new();
        for _ in 0..8 {
            let receiver = &chain[rng.gen_range(0..depth)];
            let kind = [InvokeKind::Virtual, InvokeKind::Interface, InvokeKind::Super]
                [rng.gen_range(0..3usize)];
            caller_code.push(Instruction::Invoke {
                kind,
                method: b.intern_method(receiver, "handle", "()V"),
                args: vec![],
            });
        }
        caller_code.push(Instruction::ReturnVoid);
        let caller = MethodDef::new(
            b.intern_method("com/d/Main", "go", "()V"),
            true,
            true,
            caller_code,
        );
        b.define_class("com/d/Main", None, ClassFlags::default(), vec![caller])
            .unwrap();

        // L0 is the root and always defines `handle`; deeper links
        // re-define it with probability 1/3 (overrides at random depths).
        for (i, class) in chain.iter().enumerate() {
            let defines = i == 0 || rng.gen_bool(1.0 / 3.0);
            let methods = if defines {
                vec![MethodDef::new(
                    b.intern_method(class, "handle", "()V"),
                    true,
                    false,
                    vec![Instruction::ReturnVoid],
                )]
            } else {
                vec![]
            };
            let superclass = (i > 0).then(|| chain[i - 1].clone());
            b.define_class(class, superclass.as_deref(), ClassFlags::default(), methods)
                .unwrap();
        }
        let dex = b.build();

        let csr = CallGraph::build(&dex);
        let oracle = HashCallGraph::build(&dex);
        let main = dex.class(dex.type_by_name("com/d/Main").unwrap()).unwrap().methods[0].method;
        let a: HashSet<MethodId> = csr_callees(&csr, main).into_iter().collect();
        let o: HashSet<MethodId> = oracle.callees(main).iter().copied().collect();
        prop_assert_eq!(&a, &o);
        // And every resolved target is the *nearest* definition: walking
        // up from the receiver, the first defining class is the binder.
        for m in &a {
            let def = csr_defining_class(&csr, *m).expect("resolved targets are defined");
            let receiver = dex.method_ref(*m);
            prop_assert!(
                receiver.class == def || dex.superclasses(receiver.class).any(|t| t == def)
            );
        }
        prop_assert_eq!(
            reachable_methods(&csr, &[main]),
            reachable_methods_oracle(&oracle, &[main])
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pipeline results are bit-identical across worker counts. Each worker
    /// reuses one `ReachScratch` across all the apps it claims, so this
    /// also proves traversal state never leaks between apps. 1:250 is 587
    /// apps in ten 64-app claims, so every worker count runs.
    #[test]
    fn records_independent_of_worker_count(
        seed in 0u64..10_000,
        workers in 1usize..8,
    ) {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: 250,
            seed,
            corrupt_fraction: 0.1,
            ..CorpusConfig::default()
        };
        let inputs = Generator::new(&catalog, cfg).generate();
        let base = run_pipeline(
            &inputs,
            &catalog,
            PipelineConfig { workers: 1 },
        );
        let out = run_pipeline(
            &inputs,
            &catalog,
            PipelineConfig { workers },
        );
        prop_assert_eq!(out.stats.workers.len(), workers);
        prop_assert_eq!(out.results().len(), base.results().len());
        for (a, b) in out.results().zip(base.results()) {
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                other => prop_assert!(false, "ok/err mismatch: {:?}", other),
            }
        }
        // Scratch lifecycle: one traversal per graph, every traversal
        // either reused or grew its worker's bitset.
        let s = &out.stats.callgraph;
        prop_assert_eq!(s.bitset_reuses + s.bitset_grows, s.graphs);
        prop_assert!(s.graphs >= out.stats.analyzed as u64);
    }
}
