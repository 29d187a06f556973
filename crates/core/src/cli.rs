//! Command-line parsing shared by the `wla` binary and the `exp_*`
//! experiment binaries.

use std::str::FromStr;

/// The value following `flag`. A missing or unparsable value is an error
/// naming the flag, never a silent default; each binary prints it beside
/// its own usage line.
pub fn flag_value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let text = value.ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("invalid value `{text}` for {flag}"))
}
