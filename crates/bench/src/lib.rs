//! # wla-bench — experiment harness
//!
//! One `exp_*` binary per table/figure of the paper, each a thin wrapper
//! over [`wla_core::experiments`], plus Criterion benches for the
//! pipeline's hot paths and the ablations DESIGN.md calls out.
//!
//! Every binary accepts `--scale N` (corpus scale divisor, default 100)
//! and `--seed N`, prints the reproduced artifact, and finishes with a
//! paper-vs-measured comparison table. A zero, missing or unparsable
//! value exits 2 with a usage line.

#![forbid(unsafe_code)]

use std::num::NonZeroU32;
use wla_core::cli::flag_value;
use wla_core::experiments::Experiment;
use wla_core::Study;

const USAGE: &str = "usage: exp_* [--scale N] [--seed N]";

/// CLI options shared by the experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Corpus scale divisor.
    pub scale: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 100,
            seed: 0xDA7A_5EED,
        }
    }
}

/// Parse `--scale` / `--seed` from `std::env::args`; a bad value exits 2.
pub fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let parsed = match arg.as_str() {
            "--scale" => {
                flag_value::<NonZeroU32>("--scale", argv.next()).map(|s| opts.scale = s.get())
            }
            "--seed" => flag_value("--seed", argv.next()).map(|s| opts.seed = s),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            _ => Ok(()),
        };
        if let Err(e) = parsed {
            eprintln!("exp: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
    opts
}

/// Build the study for the parsed options.
pub fn study(opts: Options) -> Study {
    Study::new(opts.scale, opts.seed)
}

/// Print one experiment: its artifact(s), then the comparison.
pub fn print_experiment(exp: &Experiment) {
    println!("=== Experiment {} ===\n", exp.id);
    if !exp.table.headers.is_empty() || !exp.table.rows.is_empty() {
        println!("{}", exp.table.render());
    }
    for figure in &exp.figures {
        println!("{figure}");
    }
    println!("{}", exp.comparison.to_table().render());
    println!(
        "shape agreement: {:.0}% of {} compared metrics within tolerance\n",
        exp.comparison.match_fraction() * 100.0,
        exp.comparison.rows.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = Options::default();
        assert_eq!(o.scale, 100);
    }

    #[test]
    fn print_does_not_panic_on_empty() {
        let exp = Experiment {
            id: "empty",
            table: wla_core::wla_report::Table::new("t", &[]),
            comparison: wla_core::wla_report::Comparison::new("empty"),
            figures: vec![],
        };
        print_experiment(&exp);
    }
}
