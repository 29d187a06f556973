//! Shape regression: every experiment's paper-vs-measured comparison must
//! stay within its agreed band. These are the tests that would catch a
//! calibration regression anywhere in the stack.

use whatcha_lookin_at::wla_dynamic::CrawlConfig;
use whatcha_lookin_at::{experiments, Study};

#[test]
fn static_experiments_hold_shape_at_scale_50() {
    let study = Study::new(50, 0xBEEF);
    let run = study.run_static();

    let t7 = experiments::table7(&study, &run);
    assert!(
        t7.comparison.match_fraction() >= 0.75,
        "table7: {}",
        t7.comparison.to_table().render()
    );

    let t4 = experiments::table4(&study, &run);
    assert!(
        t4.comparison.match_fraction() >= 0.7,
        "table4: {}",
        t4.comparison.to_table().render()
    );

    let f4 = experiments::fig4(&study, &run);
    assert!(
        f4.comparison.match_fraction() >= 0.6,
        "fig4: {}",
        f4.comparison.to_table().render()
    );

    let f3 = experiments::fig3(&study, &run);
    assert!(
        f3.comparison.match_fraction() >= 0.6,
        "fig3: {}",
        f3.comparison.to_table().render()
    );
}

#[test]
fn funnel_experiment_is_exact() {
    let study = Study::new(200, 0xF00D);
    let run = study.run_static();
    let funnel = study.run_funnel(&run);
    let t2 = experiments::table2(&study, &funnel);
    assert_eq!(
        t2.comparison.match_fraction(),
        1.0,
        "{}",
        t2.comparison.to_table().render()
    );
}

#[test]
fn dynamic_experiments_are_exact() {
    let study = Study::new(100, 0xD00D);
    let run = study.run_dynamic();
    for exp in [
        experiments::table6(&run),
        experiments::table8(&run),
        experiments::table9(&run),
    ] {
        assert_eq!(
            exp.comparison.match_fraction(),
            1.0,
            "{}: {}",
            exp.id,
            exp.comparison.to_table().render()
        );
    }
}

#[test]
fn crawl_and_loadtime_experiments_hold() {
    let study = Study::new(100, 0xCAFE);
    let crawl = study.run_crawl_parallel(Some(&["LinkedIn", "Kik"]), CrawlConfig::default());
    let f6 = experiments::fig6(&crawl);
    assert_eq!(
        f6.comparison.match_fraction(),
        1.0,
        "{}",
        f6.comparison.to_table().render()
    );
    let f7 = experiments::fig7();
    assert_eq!(f7.comparison.match_fraction(), 1.0);
}
