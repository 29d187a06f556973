//! Provenance-resolver equivalence and dominance.
//!
//! The constant-propagation pass (`wla-static::dataflow`) replaces the
//! paper's linear pending-string heuristic
//! (`wla_oracle::provenance`). Two properties pin the swap:
//!
//! 1. **Equivalence on adjacency-shaped code** — on branch-free programs
//!    where every `const-string` feeds the next invoke through a fresh
//!    register (the shape the heuristic was designed for), both resolvers
//!    produce identical verdicts, instruction for instruction.
//! 2. **Strict dominance on register-shuffled corpora** — the corpus
//!    lowering interleaves decoy constants, move chains, and branch
//!    diamonds around every URL call; there the dataflow pass resolves
//!    every site the heuristic loses.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whatcha_lookin_at::wla_apk::names::WEBVIEW_LOAD_METHOD_MASK;
use whatcha_lookin_at::wla_apk::sdex::{Instruction, InvokeKind, MethodId, Reg};
use whatcha_lookin_at::wla_apk::{Dex, Sapk, SectionTag};
use whatcha_lookin_at::wla_callgraph::{
    entry_points, record_web_calls_with, CallGraph, Provenance, ReachScratch, UrlOrigin,
};
use whatcha_lookin_at::wla_corpus::{CorpusConfig, Generator};
use whatcha_lookin_at::wla_decompile::webview_subclasses_dex_interned;
use whatcha_lookin_at::wla_intern::LocalInterner;
use whatcha_lookin_at::wla_manifest::{wireformat, Manifest};
use whatcha_lookin_at::wla_sdk_index::{LabelCache, SdkIndex};
use whatcha_lookin_at::wla_static::dataflow::method_provenance;
use whatcha_lookin_at::wla_static::{analyze_app_timed_with, AnalysisCtx, DataflowCounters};
use wla_oracle::provenance::{self, pending_strings};

/// Build a branch-free, adjacency-shaped method body: a run of call
/// units, each either "armed" (`const-string rN; nop*; invoke(rN)`) or
/// "bare" (`invoke(rM)` on a register nothing ever writes). Registers
/// are fresh per unit so neither resolver can be confused by reuse.
fn adjacency_program(seed: u64, units: usize) -> (Vec<Instruction>, u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut code = Vec::new();
    let mut next_reg = 0u16;
    for unit in 0..units {
        let reg = Reg(next_reg);
        next_reg += 1;
        let armed = rng.gen_bool(0.6);
        if armed {
            code.push(Instruction::ConstString {
                dst: reg,
                string: unit as u32,
            });
            for _ in 0..rng.gen_range(0..3usize) {
                code.push(Instruction::Nop);
            }
        }
        code.push(Instruction::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId(unit as u32),
            args: vec![reg],
        });
        if rng.gen_bool(0.4) {
            code.push(Instruction::Nop);
        }
    }
    code.push(Instruction::ReturnVoid);
    (code, u32::from(next_reg.max(1)))
}

proptest! {
    /// On the heuristic's home turf the dataflow pass agrees with it
    /// verdict-for-verdict: same invokes, same constants, same unknowns.
    #[test]
    fn dataflow_matches_pending_string_oracle_on_adjacent_code(
        seed in 0u64..512,
        units in 1usize..12,
    ) {
        let (code, registers) = adjacency_program(seed, units);
        let oracle = pending_strings(&code);
        let mut counters = DataflowCounters::default();
        let flow = method_provenance(&code, registers, &mut counters);
        prop_assert_eq!(&flow, &oracle, "seed {} units {}", seed, units);
        prop_assert_eq!(flow.len(), units);
        // Branch-free bodies must take the cheap linear path.
        prop_assert_eq!(counters.linear_methods, counters.methods);
        // And at least verify the armed units really resolved.
        for p in &flow {
            prop_assert!(matches!(p, Provenance::Const(_) | Provenance::Unknown));
        }
    }
}

/// The URL origins of an app's reachable load-method and `launchUrl`
/// sites, the sites its analyzed row carries, with every graph annotated
/// by the pending-string heuristic in place of the pass.
fn heuristic_origins(container: &[u8], catalog: &SdkIndex) -> Vec<UrlOrigin> {
    let apk = Sapk::decode(container).expect("clean container decodes");
    let manifest: Manifest = wireformat::decode(apk.manifest_bytes().unwrap()).unwrap();
    let dexes: Vec<Dex> = apk
        .sections()
        .iter()
        .filter(|s| s.tag == SectionTag::Dex)
        .map(|s| Dex::decode_bytes(s.data.clone()).unwrap())
        .collect();
    let mut lexicon = LocalInterner::new();
    let (mut labels, mut reach) = (LabelCache::new(), ReachScratch::new());
    let subclasses = webview_subclasses_dex_interned(&dexes, &mut lexicon);
    let mut origins = Vec::new();
    for dex in &dexes {
        let mut graph = CallGraph::build(dex);
        provenance::annotate(dex, graph.sites_mut());
        let roots = entry_points(&graph, &manifest);
        let record = record_web_calls_with(
            &graph,
            &roots,
            &subclasses,
            catalog,
            &mut lexicon,
            &mut labels,
            &mut reach,
        );
        let loads = record
            .webview
            .iter()
            .filter(|s| s.reachable && WEBVIEW_LOAD_METHOD_MASK & (1 << s.method_idx) != 0)
            .map(|s| s.origin);
        let launches = record
            .custom_tabs
            .iter()
            .filter(|s| s.reachable && s.is_launch)
            .map(|s| s.origin);
        origins.extend(loads.chain(launches));
    }
    origins
}

/// On the register-shuffled corpus the relationship is strict dominance:
/// the pass resolves every URL-bearing site, the heuristic none of them.
#[test]
fn dataflow_strictly_dominates_oracle_on_shuffled_corpus() {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: 60,
        seed: 90_210,
        ..CorpusConfig::default()
    };
    let corpus = Generator::new(&catalog, cfg).generate();

    let mut total = 0u64;
    let mut flow_resolved = 0u64;
    let mut oracle_resolved = 0u64;
    for g in corpus.iter().filter(|g| !g.corrupted) {
        let mut ctx = AnalysisCtx::new(&catalog);
        let bytes = Bytes::copy_from_slice(&g.bytes);
        let row = analyze_app_timed_with(&g.spec.meta, bytes, &mut ctx)
            .expect("clean container analyzes");
        let analysis = ctx.results.get(row).expect("an analyzed row");
        let origins: Vec<UrlOrigin> = analysis
            .webview_sites
            .iter()
            .filter(|s| s.is_load_method())
            .map(|s| s.origin)
            .chain(
                analysis
                    .ct_sites
                    .iter()
                    .filter(|s| s.is_launch)
                    .map(|s| s.origin),
            )
            .collect();
        let heuristic = heuristic_origins(&g.bytes, &catalog);
        // Both sides read the same sites.
        assert_eq!(heuristic.len(), origins.len(), "{}", g.spec.meta.package);
        for origin in origins {
            total += 1;
            flow_resolved += u64::from(origin == UrlOrigin::Resolved);
        }
        for origin in heuristic {
            oracle_resolved += u64::from(origin == UrlOrigin::Resolved);
        }
    }

    assert!(
        total > 50,
        "corpus too small to be meaningful: {total} sites"
    );
    // ISSUE acceptance: >= 95% resolved under dataflow. (In practice the
    // generated corpus resolves fully; the margin guards future lowering
    // recipes that may add genuinely dynamic URLs.)
    assert!(
        flow_resolved * 100 >= total * 95,
        "dataflow resolved {flow_resolved}/{total}"
    );
    // The shuffle recipe defeats the pending-string heuristic entirely.
    assert_eq!(
        oracle_resolved, 0,
        "heuristic should resolve nothing on shuffled corpora"
    );
}
