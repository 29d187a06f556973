//! Recommendation-impact what-if (§5): how the ecosystem's WebView/CT
//! shares move if SDK classes the paper calls out actually migrate to
//! Custom Tabs.
//!
//! Three scenarios on top of the baseline:
//!   1. sensitive flows migrate (Payments + Authentication + Social — the
//!      paper's explicit recommendation);
//!   2. ad SDKs migrate (the future-work direction via Partial CTs);
//!   3. both.

use wla_core::wla_corpus::{CorpusConfig, EcosystemParams, Generator};
use wla_core::wla_report::{percent, Table};
use wla_core::wla_sdk_index::SdkCategory;
use wla_core::wla_static::{aggregate, run_pipeline, PipelineConfig};

fn run_scenario(study: &wla_core::Study, params: EcosystemParams) -> (f64, f64, f64) {
    let cfg = CorpusConfig {
        scale: study.scale,
        seed: study.seed,
        params,
        ..CorpusConfig::default()
    };
    let apps = Generator::new(&study.catalog, cfg).generate();
    let out = run_pipeline(&apps, &study.catalog, PipelineConfig::default());
    let r = aggregate(&out, &study.catalog, 1);
    let n = r.analyzed as f64;
    (
        r.webview_apps as f64 / n,
        r.ct_apps as f64 / n,
        r.both_apps as f64 / n,
    )
}

fn main() {
    let opts = wla_bench::parse_args();
    let study = wla_bench::study(opts);
    eprintln!("running four scenarios at scale 1:{} …", study.scale);

    let sensitive = [
        SdkCategory::Payments,
        SdkCategory::Authentication,
        SdkCategory::Social,
    ];
    let ads = [SdkCategory::Advertising];
    let everything = [
        SdkCategory::Payments,
        SdkCategory::Authentication,
        SdkCategory::Social,
        SdkCategory::Advertising,
    ];

    let scenarios: Vec<(&str, EcosystemParams)> = vec![
        (
            "Baseline (paper's 2023 ecosystem)",
            EcosystemParams::default(),
        ),
        (
            "Payments+Auth+Social migrate (the paper's recommendation)",
            EcosystemParams::default().simulate_ct_migration(&sensitive, 1.0),
        ),
        (
            "Ad SDKs migrate (Partial-CT future work)",
            EcosystemParams::default().simulate_ct_migration(&ads, 1.0),
        ),
        (
            "Both migrations",
            EcosystemParams::default().simulate_ct_migration(&everything, 1.0),
        ),
    ];

    let mut t = Table::new(
        "What-if: ecosystem shares after CT migrations",
        &["Scenario", "WebView apps", "CT apps", "Both"],
    );
    for (name, params) in scenarios {
        let (wv, ct, both) = run_scenario(&study, params);
        t.row_owned(vec![
            name.to_owned(),
            percent(wv),
            percent(ct),
            percent(both),
        ]);
    }
    println!("{}", t.render());
    println!(
        "baseline reference (paper): WebView 55.7%, CT ~20%, both ~15%.\n\
         WebView share that remains after all migrations is the legitimate\n\
         residue the paper identifies: engagement measurement, dev tools,\n\
         user support, hybrid apps, and first-party content."
    );
}
