//! Minimal JSON emission for `wla --json` result snapshots.
//!
//! The only need is *writing* comparisons, so this is a small hand-rolled
//! emitter with no dependency: correct string escaping, stable field
//! order, no parsing.

use crate::compare::Comparison;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Emit a JSON number (finite floats only; NaN/inf become `null`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Integers print without a fraction for stable diffs.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{v:.0}")
        } else {
            format!("{v}")
        }
    } else {
        "null".to_owned()
    }
}

/// A [`Comparison`] as `{experiment, tolerance, rows: [...]}`.
pub fn comparison_json(c: &Comparison) -> String {
    let mut out = format!(
        "{{\"experiment\":\"{}\",\"tolerance\":{},\"rows\":[",
        escape(&c.experiment),
        number(c.tolerance)
    );
    for (i, r) in c.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"metric\":\"{}\",\"paper\":{},\"measured\":{},\"relative_error\":{},\"verdict\":\"{}\"}}",
            escape(&r.metric),
            number(r.paper),
            number(r.measured),
            number(r.relative_error()),
            r.verdict(c.tolerance).symbol()
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced(s: &str) -> bool {
        // Brace/bracket balance outside string literals.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0 && !in_str
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers() {
        assert_eq!(number(5.0), "5");
        assert_eq!(number(0.125), "0.125");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn comparison_emission() {
        let mut c = Comparison::new("table7");
        c.add("Apps using WebViews", 81_720.0, 81_950.0);
        let json = comparison_json(&c);
        assert!(balanced(&json), "{json}");
        assert!(json.contains("\"experiment\":\"table7\""));
        assert!(json.contains("\"paper\":81720"));
        assert!(json.contains("\"verdict\":\"OK\""));
    }

    #[test]
    fn empty_structures() {
        let c = Comparison::new("e");
        assert!(balanced(&comparison_json(&c)));
    }
}
