//! URL-provenance resolution cost: the intra-procedural constant
//! propagation pass versus the linear pending-string heuristic it
//! replaced (DESIGN.md §6.5), over identical graphs, plus the end-to-end
//! pipeline the pass runs in.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wla_core::wla_apk::{Dex, Sapk, SectionTag};
use wla_core::wla_callgraph::{CallGraph, CallSite};
use wla_core::wla_corpus::{CorpusConfig, GeneratedApp, Generator};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::{dataflow, run_pipeline, DataflowCounters, PipelineConfig};
use wla_oracle::provenance;

fn corpus(scale: u32) -> Vec<GeneratedApp> {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale,
        seed: 4_242,
        corrupt_fraction: 0.0,
        ..CorpusConfig::default()
    };
    Generator::new(&catalog, cfg).generate()
}

fn bench(c: &mut Criterion) {
    let catalog = SdkIndex::paper();
    let inputs = corpus(100);

    // Pre-decoded dexes with their graphs' site lists, so the annotation
    // benches measure resolution alone (sites are `Copy`, the per-iter
    // clone is a memcpy).
    let fixtures: Vec<(Dex, Vec<CallSite>)> = inputs
        .iter()
        .flat_map(|input| {
            let apk = Sapk::decode(&input.bytes).expect("generated app decodes");
            apk.sections()
                .iter()
                .filter(|s| s.tag == SectionTag::Dex)
                .map(|s| {
                    let dex = Dex::decode_bytes(s.data.clone()).unwrap();
                    let sites = CallGraph::build(&dex).sites().to_vec();
                    (dex, sites)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut group = c.benchmark_group("url_provenance");
    group.sample_size(10);
    // Annotation ablation: worklist constant propagation vs the linear
    // pending-string scan, over identical graphs.
    group.bench_function("annotate_dataflow", |b| {
        let mut counters = DataflowCounters::default();
        b.iter(|| {
            for (dex, sites) in &fixtures {
                let mut sites = sites.clone();
                dataflow::annotate(black_box(dex), &mut sites, &mut counters);
                black_box(&sites);
            }
        })
    });
    group.bench_function("annotate_pending_string", |b| {
        b.iter(|| {
            for (dex, sites) in &fixtures {
                let mut sites = sites.clone();
                provenance::annotate(black_box(dex), &mut sites);
                black_box(&sites);
            }
        })
    });
    // The full pipeline, whose dataflow stage is the pass.
    group.bench_function("pipeline_dataflow", |b| {
        b.iter(|| run_pipeline(black_box(&inputs), &catalog, PipelineConfig { workers: 4 }))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
