//! Decoding of the five predefined XML entities and numeric character
//! references, and the inverse escaping used by the serializer.

use crate::error::{Error, Result};

/// Decode a single entity *name* (the text between `&` and `;`).
///
/// Supports the five predefined entities (`amp`, `lt`, `gt`, `apos`,
/// `quot`) and decimal/hexadecimal character references (`#65`, `#x41`):
/// digits only, and only code points in the XML 1.0 `Char` production
/// (§4.1 WFC *Legal Character*).
pub fn decode_entity(name: &str, offset: u64) -> Result<char> {
    match name {
        "amp" => Ok('&'),
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            let (digits, radix) = match name.strip_prefix('#') {
                Some(rest) => match rest.strip_prefix(['x', 'X']) {
                    Some(hex) => (hex, 16),
                    None => (rest, 10),
                },
                None => return Err(bad(name, offset)),
            };
            // `from_str_radix` alone would let a sign through.
            if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(bad(name, offset));
            }
            u32::from_str_radix(digits, radix)
                .ok()
                .and_then(char::from_u32)
                .filter(|&c| is_xml_char(c))
                .ok_or_else(|| bad(name, offset))
        }
    }
}

/// XML 1.0 §2.2 `Char`: `#x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD]
/// | [#x10000-#x10FFFF]` (a `char` already excludes the surrogates).
fn is_xml_char(c: char) -> bool {
    matches!(c, '\t' | '\n' | '\r' | ' '..='\u{FFFD}' | '\u{10000}'..)
}

fn bad(name: &str, offset: u64) -> Error {
    Error::BadEntity {
        offset,
        entity: name.to_string(),
    }
}

/// Decode all entity references in `raw`, appending to `out`.
///
/// `offset` is the byte offset of `raw` in the input, used for error
/// positions. Returns an error on malformed references (`&` not followed by
/// a terminated, known entity).
pub fn decode_into(raw: &str, offset: u64, out: &mut String) -> Result<()> {
    let mut rest = raw;
    let mut consumed = 0u64;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        let after = &rest[pos + 1..];
        let semi = after.find(';').ok_or_else(|| Error::BadEntity {
            offset: offset + consumed + pos as u64,
            entity: after.chars().take(12).collect(),
        })?;
        let name = &after[..semi];
        out.push(decode_entity(name, offset + consumed + pos as u64)?);
        let advanced = pos + 1 + semi + 1;
        consumed += advanced as u64;
        rest = &rest[advanced..];
    }
    out.push_str(rest);
    Ok(())
}

/// Escape `text` for use as element character content (escapes `&`, `<`,
/// `>`), appending to `out`.
///
/// A literal CR must become `&#13;`: XML 1.0 §2.11 makes every parser
/// rewrite raw `\r` to `\n`, so only the character reference survives a
/// serialize → reparse round trip.
pub fn escape_text_into(text: &str, out: &mut String) {
    // All four specials are ASCII, so splitting the string at them is
    // UTF-8 safe; clean stretches between specials are appended wholesale
    // at kernel scan speed instead of char by char.
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let rest = &bytes[i..];
        let n = crate::scan::find_byte4(rest, b'&', b'<', b'>', b'\r').unwrap_or(rest.len());
        out.push_str(&text[i..i + n]);
        i += n;
        if i >= bytes.len() {
            break;
        }
        match bytes[i] {
            b'&' => out.push_str("&amp;"),
            b'<' => out.push_str("&lt;"),
            b'>' => out.push_str("&gt;"),
            _ => out.push_str("&#13;"),
        }
        i += 1;
    }
}

/// Escape `value` for use inside a double-quoted attribute value.
///
/// Tab, LF, and CR must be character references: attribute-value
/// normalization (XML 1.0 §3.3.3) turns the literal characters into
/// spaces on reparse, so emitting them raw loses the value.
pub fn escape_attr_into(value: &str, out: &mut String) {
    // The seven specials are ASCII, so cutting at them is UTF-8 safe;
    // the clean run before each is appended wholesale. Attribute values
    // are short, so the scan is a plain byte loop, not a kernel call.
    let mut clean = 0;
    for (i, b) in value.bytes().enumerate() {
        let reference = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\t' => "&#9;",
            b'\n' => "&#10;",
            b'\r' => "&#13;",
            _ => continue,
        };
        out.push_str(&value[clean..i]);
        out.push_str(reference);
        clean = i + 1;
    }
    out.push_str(&value[clean..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(raw: &str) -> String {
        let mut s = String::new();
        decode_into(raw, 0, &mut s).unwrap();
        s
    }

    #[test]
    fn predefined_entities_decode() {
        assert_eq!(
            decode("a &amp; b &lt; c &gt; d &apos;&quot;"),
            "a & b < c > d '\""
        );
    }

    #[test]
    fn numeric_references_decode() {
        assert_eq!(decode("&#65;&#x42;&#x63;"), "ABc");
        assert_eq!(decode("&#x1F600;"), "\u{1F600}");
    }

    #[test]
    fn unknown_entity_is_an_error() {
        let mut s = String::new();
        let err = decode_into("&nbsp;", 10, &mut s).unwrap_err();
        assert!(matches!(err, Error::BadEntity { offset: 10, .. }));
    }

    #[test]
    fn unterminated_entity_is_an_error() {
        let mut s = String::new();
        assert!(decode_into("x &amp y", 0, &mut s).is_err());
    }

    #[test]
    fn bad_codepoint_is_an_error() {
        let mut s = String::new();
        assert!(decode_into("&#xD800;", 0, &mut s).is_err()); // surrogate
        assert!(decode_into("&#99999999;", 0, &mut s).is_err());
    }

    #[test]
    fn char_refs_outside_the_char_production_are_errors() {
        for raw in [
            "&#0;",
            "&#x1;",
            "&#x1F;",
            "&#xFFFE;",
            "&#xFFFF;",
            "&#xD800;",
            "&#x110000;",
        ] {
            let mut s = String::new();
            let err = decode_into(raw, 7, &mut s).unwrap_err();
            assert!(matches!(err, Error::BadEntity { offset: 7, .. }), "{raw}");
        }
        assert_eq!(
            decode("&#9;&#10;&#13;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;"),
            "\t\n\r \u{D7FF}\u{E000}\u{FFFD}\u{10000}"
        );
    }

    #[test]
    fn char_refs_take_digits_only() {
        for raw in [
            "&#+65;", "&#x+41;", "&#-65;", "&#;", "&#x;", "&#6 5;", "&#xG;",
        ] {
            let mut s = String::new();
            assert!(decode_into(raw, 0, &mut s).is_err(), "{raw}");
        }
        assert_eq!(decode("&#65;&#x41;&#X41;&#0065;"), "AAAA");
    }

    #[test]
    fn escape_roundtrips_through_decode() {
        let original = "a<b>&c \"quoted\" 'single'";
        let mut escaped = String::new();
        escape_text_into(original, &mut escaped);
        assert_eq!(decode(&escaped), original);
        let mut attr = String::new();
        escape_attr_into(original, &mut attr);
        assert!(!attr.contains('"') || !attr.contains("\" "));
        assert_eq!(decode(&attr), original);
    }

    #[test]
    fn whitespace_that_normalization_would_destroy_is_referenced() {
        // Text: only CR is at risk (end-of-line normalization).
        let mut s = String::new();
        escape_text_into("a\rb\nc\td", &mut s);
        assert_eq!(s, "a&#13;b\nc\td");
        // Attributes: tab, LF, and CR all normalize to spaces.
        let mut a = String::new();
        escape_attr_into("a\tb\nc\rd", &mut a);
        assert_eq!(a, "a&#9;b&#10;c&#13;d");
        assert_eq!(decode(&a), "a\tb\nc\rd");
    }

    #[test]
    fn error_offset_points_at_the_ampersand() {
        let mut s = String::new();
        let err = decode_into("abc&bogus;x", 100, &mut s).unwrap_err();
        assert_eq!(err.offset(), 103);
    }
}
