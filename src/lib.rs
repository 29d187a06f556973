//! # whatcha-lookin-at
//!
//! Umbrella crate for the reproduction of *"Whatcha Lookin' At:
//! Investigating Third-Party Web Content in Popular Android Apps"*
//! (Kuchhal, Ramakrishnan, Li — IMC 2024).
//!
//! Re-exports the public API of [`wla_core`]; see that crate, `README.md`,
//! and `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![forbid(unsafe_code)]

pub use wla_core::*;
