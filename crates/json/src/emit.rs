//! The JSON writer. Every committed artifact (figure data, golden
//! fixtures, spill-file spec headers, journal fingerprints) predates this
//! crate, so the writer reproduces that format byte for byte:
//!
//! * compact output has no whitespace; pretty output indents by two
//!   spaces, writes `[]`/`{}` for empty containers and ends without a
//!   newline;
//! * floats use the shortest round-trip digits laid out the way the
//!   `ryu` crate lays them out (`800550.0`, `0.00005`, `1e16`,
//!   `1.5e-7`), and non-finite floats are `null`;
//! * strings escape `"` and `\`, use `\b \f \n \r \t` for those controls
//!   and a lowercase `\u00xx` for every other control character.

use std::fmt::Write as _;

use crate::Json;

impl Json {
    /// Compact serialization: no whitespace at all.
    #[must_use]
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false, 0);
        out
    }

    /// Two-space indented serialization with no trailing newline.
    #[must_use]
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true, 0);
        out
    }

    fn write(&self, out: &mut String, pretty: bool, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(true) => out.push_str("true"),
            Self::Bool(false) => out.push_str("false"),
            Self::Number(lexeme) => out.push_str(lexeme),
            Self::String(s) => write_quoted(out, s),
            Self::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    break_line(out, pretty, depth + 1);
                    item.write(out, pretty, depth + 1);
                }
                break_line(out, pretty, depth);
                out.push(']');
            }
            Self::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    break_line(out, pretty, depth + 1);
                    write_quoted(out, key);
                    out.push_str(if pretty { ": " } else { ":" });
                    value.write(out, pretty, depth + 1);
                }
                break_line(out, pretty, depth);
                out.push('}');
            }
        }
    }
}

/// In pretty mode, a newline plus `depth` levels of two-space indent.
fn break_line(out: &mut String, pretty: bool, depth: usize) {
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_quoted(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The shortest round-trip decimal for a finite `value`, laid out as
/// `ryu::Buffer::format_finite` does.
///
/// Rust's `{:e}` gives the same shortest digits; only the layout differs.
/// With `digits` significant digits and the value in
/// `[10^(point-1), 10^point)`:
///
/// * an integer below 10^16 gets a `.0` suffix (`800550.0`);
/// * other values with `-5 < point <= 16` are plain decimals (`12.34`,
///   `0.00005`);
/// * everything else is scientific without a `+` (`1e16`, `1.5e-7`).
#[expect(
    clippy::expect_used,
    reason = "`{:e}` of a finite f64 has an exponent and at most 17 digits"
)]
pub(crate) fn shortest_f64(value: f64) -> String {
    if value == 0.0 {
        return if value.is_sign_negative() {
            "-0.0"
        } else {
            "0.0"
        }
        .to_owned();
    }
    let scientific = format!("{:e}", value.abs());
    let (mantissa, exponent) = scientific
        .split_once('e')
        .expect("`{:e}` always writes an exponent");
    let digits: String = mantissa.chars().filter(char::is_ascii_digit).collect();
    let exponent: isize = exponent.parse().expect("`{:e}` writes a decimal exponent");
    let length = isize::try_from(digits.len()).expect("at most 17 digits");
    let point = exponent + 1;
    let zeros = |n: isize| "0".repeat(n.unsigned_abs());
    let mut out = String::with_capacity(24);
    if value.is_sign_negative() {
        out.push('-');
    }
    if (0..=16).contains(&point) && point >= length {
        out.push_str(&digits);
        out.push_str(&zeros(point - length));
        out.push_str(".0");
    } else if (1..=16).contains(&point) {
        let (whole, fraction) = digits.split_at(point.unsigned_abs());
        let _ = write!(out, "{whole}.{fraction}");
    } else if (-4..=0).contains(&point) {
        let _ = write!(out, "0.{}{digits}", zeros(point));
    } else {
        let (first, rest) = digits.split_at(1);
        out.push_str(first);
        if !rest.is_empty() {
            let _ = write!(out, ".{rest}");
        }
        let _ = write!(out, "e{exponent}");
    }
    out
}
