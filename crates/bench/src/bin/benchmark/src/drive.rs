//! Serial per-app layer drive for the traced run.
//!
//! Re-enacts the per-app pipeline from the outside, one app at a time with
//! one `AnalysisCtx`, calling each layer's public entry point in the order
//! `wla-static`'s `finish_analysis` does — container/manifest/dex decode,
//! WebView-subclass closure, then per dex: call-graph build, dataflow
//! annotation, entry points + reachability + labelling — each inside its
//! own span. The drive's reachable-site total must equal the pipeline's
//! over the same apps, which pins the re-enactment to the real thing.

use crate::trace::Tracer;
use std::time::Instant;
use wla_core::wla_apk::{ApkError, Dex, Sapk, SectionTag, VerifyPreset};
use wla_core::wla_callgraph::{entry_points, record_web_calls_with, CallGraph};
use wla_core::wla_decompile::webview_subclasses_dex_interned;
use wla_core::wla_manifest::{wireformat, Manifest};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::{dataflow, AnalysisCtx, PipelineOutput};

/// Counts and per-app totals from one drive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveReport {
    /// Apps driven.
    pub apps: usize,
    /// Apps whose container, manifest, or dex failed to decode.
    pub decode_failed: u64,
    /// Call-graph edges over every decoded dex.
    pub edges: u64,
    /// Reachable WebView + Custom-Tabs sites recorded.
    pub reachable_sites: u64,
    /// Wall time of each app, microseconds, in input order.
    pub app_us: Vec<f64>,
    /// Share of URL sites the dataflow pass resolved to a constant.
    pub resolved_ratio: f64,
    /// Share of package labels served from the label memo.
    pub label_hit_ratio: f64,
}

/// Container + manifest + dex decode, as the in-memory pipeline does it.
fn decode(bytes: &[u8]) -> Result<(Manifest, Vec<Dex>), ApkError> {
    let apk = Sapk::decode(bytes)?;
    let manifest = wireformat::decode(apk.manifest_bytes()?)?;
    let dexes = apk
        .sections()
        .iter()
        .filter(|s| s.tag == SectionTag::Dex)
        .map(|s| Dex::decode_bytes_with(s.data.clone(), VerifyPreset::All))
        .collect::<Result<Vec<Dex>, ApkError>>()?;
    if dexes.is_empty() {
        return Err(ApkError::MissingSection("dex"));
    }
    Ok((manifest, dexes))
}

/// Drive every app's container bytes through the per-app layers.
pub fn drive<'a>(
    t: &mut Tracer,
    catalog: &SdkIndex,
    apps: impl IntoIterator<Item = &'a [u8]>,
) -> DriveReport {
    let mut ctx = AnalysisCtx::new(catalog);
    let mut report = DriveReport::default();
    for bytes in apps {
        let started = Instant::now();
        t.span("analyze.app", |t| {
            let Ok((manifest, dexes)) = t.span("apk.decode", |_| decode(bytes)) else {
                report.decode_failed += 1;
                return;
            };
            let subclasses = t.span("decompile.subclass", |_| {
                webview_subclasses_dex_interned(&dexes, &mut ctx.lexicon)
            });
            for dex in &dexes {
                let mut graph = t.span("callgraph.build", |_| CallGraph::build_with(dex, true));
                report.edges += graph.edge_count() as u64;
                t.span("dataflow.annotate", |_| {
                    dataflow::annotate(dex, graph.sites_mut(), &mut ctx.dataflow)
                });
                let record = t.span("callgraph.record", |_| {
                    let roots = entry_points(&graph, &manifest);
                    record_web_calls_with(
                        &graph,
                        &roots,
                        &subclasses,
                        ctx.catalog,
                        &mut ctx.lexicon,
                        &mut ctx.labels,
                        &mut ctx.reach,
                    )
                });
                report.reachable_sites += (record.reachable_webview().count()
                    + record.reachable_custom_tabs().count())
                    as u64;
            }
        });
        report.apps += 1;
        report.app_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    report.resolved_ratio = ctx.dataflow.resolved_rate();
    let labels = ctx.labels.hits + ctx.labels.misses;
    report.label_hit_ratio = if labels == 0 {
        0.0
    } else {
        ctx.labels.hits as f64 / labels as f64
    };
    report
}

/// Reachable WebView + Custom-Tabs sites in a pipeline's output — the
/// total the drive must reproduce.
pub fn pipeline_reachable_sites(output: &PipelineOutput) -> u64 {
    output
        .analyzed()
        .map(|a| (a.webview_sites.len() + a.ct_sites.len()) as u64)
        .sum()
}
