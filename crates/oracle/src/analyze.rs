//! One app through the per-app pipeline, for one-off callers: the root
//! tests that analyze a single container.

use wla_apk::ApkError;
use wla_corpus::playstore::AppMeta;
use wla_sdk_index::SdkIndex;
use wla_static::analyze::{analyze_app_timed_with, AnalysisCtx};
use wla_static::ResultTable;

/// Run `wla_static`'s per-app pipeline on raw container bytes, with a
/// private single-use context over the paper catalog, and hand back its
/// one-row [`ResultTable`] (row 0 is the app). Its symbols resolve only
/// against that context, so batch callers reuse an [`AnalysisCtx`] through
/// [`analyze_app_timed_with`] instead.
pub fn analyze_app(meta: &AppMeta, bytes: &[u8]) -> Result<ResultTable, ApkError> {
    let catalog = SdkIndex::paper();
    let mut ctx = AnalysisCtx::new(&catalog);
    analyze_app_timed_with(meta, bytes.to_vec().into(), &mut ctx)?;
    Ok(ctx.results)
}
