//! XPath 1.0 value semantics for predicate comparisons.
//!
//! A predicate's right-hand side is a constant: a number (`[year>2000]`) or
//! a string (`[name="First"]`, `[LINE%love]`). The left-hand side always
//! arrives from the stream as a string (attribute value or text content).
//! Following XPath 1.0:
//!
//! * if the constant is a **number**, the stream value is converted to a
//!   number; a failed conversion yields NaN, and NaN makes every
//!   comparison false except `!=`, which is true (IEEE semantics);
//! * if the constant is a **string**, `=`/`!=`/`contains` compare as
//!   strings, while the relational operators `<`/`<=`/`>`/`>=` convert
//!   *both* sides to numbers (XPath 1.0 relational operators are numeric).

use std::fmt;

use crate::ast::CmpOp;

/// A typed constant in a query.
#[derive(Debug, Clone, PartialEq)]
pub enum XPathValue {
    /// Numeric constant; the original spelling is kept for display.
    Number { value: f64, raw: String },
    /// String constant.
    Text(String),
}

impl XPathValue {
    /// A numeric constant with canonical spelling.
    pub fn number(value: f64) -> Self {
        XPathValue::Number {
            value,
            raw: canonical_number(value),
        }
    }

    /// A numeric constant that remembers how it was written (`10.00`).
    pub fn number_raw(value: f64, raw: impl Into<String>) -> Self {
        XPathValue::Number {
            value,
            raw: raw.into(),
        }
    }

    /// A string constant.
    pub fn text(s: impl Into<String>) -> Self {
        XPathValue::Text(s.into())
    }

    /// The value as a number (strings convert per XPath `number()`:
    /// trimmed, else NaN).
    pub fn as_number(&self) -> f64 {
        match self {
            XPathValue::Number { value, .. } => *value,
            XPathValue::Text(s) => str_to_number(s),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> &str {
        match self {
            XPathValue::Number { raw, .. } => raw,
            XPathValue::Text(s) => s,
        }
    }
}

impl fmt::Display for XPathValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XPathValue::Number { raw, .. } => f.write_str(raw),
            XPathValue::Text(s) => write!(f, "\"{s}\""),
        }
    }
}

/// XPath 1.0 `number()` on a string: optional whitespace, an optional
/// `-`, then `Digits ('.' Digits?)? | '.' Digits`, optional whitespace —
/// anything else is NaN. Narrower than `f64::from_str`, which also reads
/// `inf`, `infinity`, `nan`, exponents (`1e3`) and a leading `+`. The one
/// parser predicates, aggregates, the baselines and keyed-step probes
/// share; guards call it once per candidate text, so the usual case — a
/// plain integer of at most 15 digits, exact in an `f64` — is read in the
/// one pass that checks the grammar.
pub fn str_to_number(s: &str) -> f64 {
    let text = s.trim_matches([' ', '\t', '\r', '\n']);
    let digits = text.strip_prefix('-').unwrap_or(text);
    let (mut int, mut any_digit, mut dot) = (0u64, false, false);
    for b in digits.bytes() {
        match b {
            b'0'..=b'9' => {
                any_digit = true;
                int = int.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            }
            b'.' if !dot => dot = true,
            _ => return f64::NAN,
        }
    }
    if !any_digit {
        f64::NAN
    } else if dot || digits.len() > 15 {
        text.parse().unwrap_or(f64::NAN)
    } else if digits.len() < text.len() {
        -(int as f64)
    } else {
        int as f64
    }
}

/// Render a number the way XPath's `string()` would for the common cases:
/// integers without a fractional part, others in shortest `f64` form.
pub fn canonical_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Evaluate `lhs OP rhs` where `lhs` is a raw string from the stream.
pub fn compare(lhs: &str, op: CmpOp, rhs: &XPathValue) -> bool {
    match (op, rhs) {
        (CmpOp::Contains, rhs) => lhs.contains(rhs.as_str()),
        (CmpOp::Eq, XPathValue::Text(s)) => lhs == s,
        (CmpOp::Ne, XPathValue::Text(s)) => lhs != s,
        (CmpOp::Eq, XPathValue::Number { value, .. }) => {
            num_cmp(str_to_number(lhs), CmpOp::Eq, *value)
        }
        (CmpOp::Ne, XPathValue::Number { value, .. }) => {
            num_cmp(str_to_number(lhs), CmpOp::Ne, *value)
        }
        // Relational: always numeric in XPath 1.0.
        (op, rhs) => num_cmp(str_to_number(lhs), op, rhs.as_number()),
    }
}

/// Numeric comparison with XPath 1.0 NaN semantics. `Contains` against
/// numbers compares the canonical spellings (substring on strings).
pub fn num_compare(l: f64, op: CmpOp, r: f64) -> bool {
    match op {
        CmpOp::Lt => l < r,
        CmpOp::Le => l <= r,
        CmpOp::Eq => l == r,
        CmpOp::Ge => l >= r,
        CmpOp::Gt => l > r,
        CmpOp::Ne => l != r,
        CmpOp::Contains => canonical_number(l).contains(&canonical_number(r)),
    }
}

use self::num_compare as num_cmp;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparisons() {
        let n = XPathValue::number(2000.0);
        assert!(compare("2002", CmpOp::Gt, &n));
        assert!(compare(" 2002 ", CmpOp::Gt, &n)); // paper data has padding
        assert!(!compare("1999", CmpOp::Gt, &n));
        assert!(compare("2000", CmpOp::Ge, &n));
        assert!(compare("2000.0", CmpOp::Eq, &n));
        assert!(compare("1999", CmpOp::Ne, &n));
    }

    #[test]
    fn str_to_number_reads_exactly_the_xpath_1_0_number_grammar() {
        for (text, want) in [
            ("1990", 1990.0),
            (" 1990 ", 1990.0),
            ("\t\r\n12.5\n", 12.5),
            ("1990.0", 1990.0),
            ("5.", 5.0),
            (".5", 0.5),
            ("-.5", -0.5),
            ("-3", -3.0),
            ("007", 7.0),
        ] {
            assert_eq!(str_to_number(text), want, "{text:?}");
        }
        assert!(str_to_number("-0").is_sign_negative() && str_to_number("-0") == 0.0);
        // The integer fast path and `f64::from_str` agree where they meet.
        for text in [
            "0",
            "-7",
            "999999999999999",
            "1000000000000000",
            "-12345678901234567890",
        ] {
            assert_eq!(str_to_number(text), text.parse::<f64>().unwrap(), "{text}");
        }
        for text in [
            "",
            " ",
            ".",
            "-",
            "-.",
            "+5",
            "1e3",
            "1E3",
            "inf",
            "-inf",
            "infinity",
            "Infinity",
            "nan",
            "NaN",
            "0x10",
            "1 2",
            "1.2.3",
            "--1",
            "- 1",
            "1-",
            "١٢",
            "\u{a0}5",
            "5\u{2003}",
        ] {
            assert!(str_to_number(text).is_nan(), "{text:?} must be NaN");
        }
    }

    #[test]
    fn str_to_number_matches_the_grammar_spelled_out() {
        // The grammar as the spec writes it, then `f64::from_str`.
        fn reference(s: &str) -> f64 {
            let s = s.trim_matches([' ', '\t', '\r', '\n']);
            let digits = s.strip_prefix('-').unwrap_or(s);
            let (int, frac) = digits.split_once('.').unwrap_or((digits, ""));
            let all_digits = |d: &str| d.bytes().all(|b| b.is_ascii_digit());
            if int.len() + frac.len() == 0 || !all_digits(int) || !all_digits(frac) {
                return f64::NAN;
            }
            s.parse().unwrap_or(f64::NAN)
        }
        const ALPHABET: &[u8] = b"0123456789009..-- \te+x";
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200_000 {
            let len = next() % 20;
            let text: String = (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize] as char)
                .collect();
            let (got, want) = (str_to_number(&text), reference(&text));
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{text:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn nan_semantics() {
        let n = XPathValue::number(10.0);
        assert!(!compare("abc", CmpOp::Lt, &n));
        assert!(!compare("abc", CmpOp::Gt, &n));
        assert!(!compare("abc", CmpOp::Eq, &n));
        assert!(compare("abc", CmpOp::Ne, &n)); // NaN != 10 is true
    }

    #[test]
    fn string_equality_is_exact() {
        let s = XPathValue::text("First");
        assert!(compare("First", CmpOp::Eq, &s));
        assert!(!compare("first", CmpOp::Eq, &s));
        assert!(compare("Second", CmpOp::Ne, &s));
    }

    #[test]
    fn relational_on_string_constant_is_numeric() {
        let s = XPathValue::text("11");
        assert!(compare("10.00", CmpOp::Lt, &s));
        assert!(!compare("12.00", CmpOp::Lt, &s));
        assert!(!compare("abc", CmpOp::Lt, &s)); // NaN
    }

    #[test]
    fn contains_is_substring() {
        let s = XPathValue::text("love");
        assert!(compare("my love is", CmpOp::Contains, &s));
        assert!(!compare("LOVE", CmpOp::Contains, &s));
        // Contains against a number constant uses its spelling.
        let n = XPathValue::number_raw(10.0, "10");
        assert!(compare("costs 10 dollars", CmpOp::Contains, &n));
    }

    #[test]
    fn canonical_number_forms() {
        assert_eq!(canonical_number(2000.0), "2000");
        assert_eq!(canonical_number(10.5), "10.5");
        assert_eq!(canonical_number(-3.0), "-3");
    }

    #[test]
    fn value_accessors() {
        let n = XPathValue::number_raw(10.0, "10.00");
        assert_eq!(n.as_number(), 10.0);
        assert_eq!(n.as_str(), "10.00");
        assert_eq!(n.to_string(), "10.00");
        let t = XPathValue::text("12");
        assert_eq!(t.as_number(), 12.0);
        assert_eq!(t.to_string(), "\"12\"");
        assert!(XPathValue::text("x").as_number().is_nan());
    }
}
