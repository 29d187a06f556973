//! # wla-report — tables, figures, and paper-vs-measured comparisons
//!
//! Rendering layer behind every `wla` command: ASCII tables shaped like
//! the paper's, text heatmaps (Figure 4), horizontal bar charts
//! (Figures 6/7), the JSON emitter behind `wla --json`, and comparison
//! tables recording paper value vs measured value with relative error.
//! It depends on no other crate: the run-stats tables are built in
//! `wla-core::stats`, straight from the runners' counter structs, out of
//! these pieces.

#![forbid(unsafe_code)]

pub mod compare;
pub mod figure;
pub mod json;
pub mod table;

pub use compare::{Comparison, ComparisonRow, Verdict};
pub use figure::{bar_chart, heatmap, Series};
pub use table::Table;

/// Format an integer with thousands separators, as the paper prints them.
pub fn thousands(n: u64) -> String {
    let raw = n.to_string();
    let mut out = String::with_capacity(raw.len() + raw.len() / 3);
    for (i, c) in raw.chars().enumerate() {
        if i > 0 && (raw.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format a fraction as a percentage with one decimal.
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(146_558), "146,558");
        assert_eq!(thousands(6_507_222), "6,507,222");
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.557), "55.7%");
        assert_eq!(percent(1.0), "100.0%");
    }
}
