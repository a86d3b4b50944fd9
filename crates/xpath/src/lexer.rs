//! Tokenizer for the Fig. 3 query grammar.

use crate::error::{ParseError, ParseResult};

/// A lexical token with its byte offset. Names and literals are lent
/// from the query text: a token is a few words, copied for free, and the
/// parser allocates each string once, where it builds the AST.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub position: usize,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `@`
    At,
    /// `*` used as a node test (wildcard).
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,` — separates function arguments (`contains(text(),"x")`).
    Comma,
    /// A name: tag, attribute, or function identifier.
    Name(&'a str),
    /// A numeric literal; the raw spelling is preserved.
    Number { value: f64, raw: &'a str },
    /// A quoted string literal (quotes removed).
    Str(&'a str),
    /// A comparison operator. `%` and the word `contains` both lex to
    /// `Op("%")` at the parser level via [`crate::ast::CmpOp::Contains`].
    Op(crate::ast::CmpOp),
}

/// Tokenize a query string.
pub fn tokenize(input: &str) -> ParseResult<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        let kind = match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    i += 2;
                    TokenKind::DoubleSlash
                } else {
                    i += 1;
                    TokenKind::Slash
                }
            }
            b'[' => {
                i += 1;
                TokenKind::LBracket
            }
            b']' => {
                i += 1;
                TokenKind::RBracket
            }
            b'@' => {
                i += 1;
                TokenKind::At
            }
            b'*' => {
                i += 1;
                TokenKind::Star
            }
            b'(' => {
                i += 1;
                TokenKind::LParen
            }
            b')' => {
                i += 1;
                TokenKind::RParen
            }
            b',' => {
                i += 1;
                TokenKind::Comma
            }
            b'%' => {
                i += 1;
                TokenKind::Op(crate::ast::CmpOp::Contains)
            }
            b'=' => {
                i += 1;
                // Accept both `=` and `==` (the figures use `==`).
                if bytes.get(i) == Some(&b'=') {
                    i += 1;
                }
                TokenKind::Op(crate::ast::CmpOp::Eq)
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Op(crate::ast::CmpOp::Ne)
                } else {
                    return Err(ParseError::new(start, "expected '=' after '!'"));
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Op(crate::ast::CmpOp::Le)
                } else {
                    i += 1;
                    TokenKind::Op(crate::ast::CmpOp::Lt)
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Op(crate::ast::CmpOp::Ge)
                } else {
                    i += 1;
                    TokenKind::Op(crate::ast::CmpOp::Gt)
                }
            }
            b'"' | b'\'' => {
                let quote = b;
                i += 1;
                let lit_start = i;
                while i < bytes.len() && bytes[i] != quote {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(ParseError::new(start, "unterminated string literal"));
                }
                let s = &input[lit_start..i];
                i += 1;
                TokenKind::Str(s)
            }
            b'0'..=b'9' => lex_number(input, bytes, &mut i, start)?,
            b'.' if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                lex_number(input, bytes, &mut i, start)?
            }
            b'-' if bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                || (bytes.get(i + 1) == Some(&b'.')
                    && bytes.get(i + 2).is_some_and(u8::is_ascii_digit)) =>
            {
                i += 1;
                lex_number(input, bytes, &mut i, start)?
            }
            _ if is_name_start(b) => {
                while i < bytes.len() && is_name_byte(bytes[i]) {
                    i += 1;
                }
                TokenKind::Name(&input[start..i])
            }
            _ => {
                return Err(ParseError::new(
                    start,
                    format!(
                        "unexpected character '{}'",
                        input[start..].chars().next().unwrap()
                    ),
                ))
            }
        };
        tokens.push(Token {
            kind,
            position: start,
        });
    }
    Ok(tokens)
}

/// Lex a numeric literal per XPath 1.0: `Digits ('.' Digits?)? | '.' Digits`.
/// `*i` sits on the first digit (or the leading `.`); any `-` sign was
/// already consumed, and `start` covers it so `raw` keeps the spelling.
/// A second `.` gets a positioned error instead of being swallowed into
/// a string `f64::parse` can only reject generically.
fn lex_number<'a>(
    input: &'a str,
    bytes: &[u8],
    i: &mut usize,
    start: usize,
) -> ParseResult<TokenKind<'a>> {
    let mut seen_dot = false;
    while let Some(&b) = bytes.get(*i) {
        match b {
            b'0'..=b'9' => *i += 1,
            b'.' if !seen_dot => {
                seen_dot = true;
                *i += 1;
            }
            b'.' => {
                return Err(ParseError::new(
                    *i,
                    format!("unexpected second '.' in number '{}'", &input[start..*i]),
                ))
            }
            _ => break,
        }
    }
    let raw = &input[start..*i];
    let value = raw
        .parse::<f64>()
        .map_err(|_| ParseError::new(start, format!("bad number '{raw}'")))?;
    Ok(TokenKind::Number { value, raw })
}

/// The one name rule of the query and rule languages: can `b` start a
/// name? XML 1.0 names and XPath 1.0 NCNames admit non-ASCII letters, so
/// every byte of a multi-byte character counts; the input is a `&str`,
/// so a name never ends inside a character.
pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// Can `b` continue a name? See [`is_name_start`].
pub(crate) fn is_name_byte(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || matches!(b, b'-' | b'.' | b':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;

    fn kinds(q: &str) -> Vec<TokenKind<'_>> {
        tokenize(q).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_full_query() {
        let ks = kinds("//pub[year>2000]//book[author]//name/text()");
        assert_eq!(ks[0], TokenKind::DoubleSlash);
        assert_eq!(ks[1], TokenKind::Name("pub"));
        assert_eq!(ks[2], TokenKind::LBracket);
        assert_eq!(ks[3], TokenKind::Name("year"));
        assert_eq!(ks[4], TokenKind::Op(CmpOp::Gt));
        assert!(matches!(&ks[5], TokenKind::Number { value, .. } if *value == 2000.0));
        assert_eq!(*ks.last().unwrap(), TokenKind::RParen);
    }

    #[test]
    fn lexes_all_operators() {
        let ks = kinds("< <= = == >= > != %");
        assert_eq!(
            ks,
            vec![
                TokenKind::Op(CmpOp::Lt),
                TokenKind::Op(CmpOp::Le),
                TokenKind::Op(CmpOp::Eq),
                TokenKind::Op(CmpOp::Eq),
                TokenKind::Op(CmpOp::Ge),
                TokenKind::Op(CmpOp::Gt),
                TokenKind::Op(CmpOp::Ne),
                TokenKind::Op(CmpOp::Contains),
            ]
        );
    }

    #[test]
    fn number_keeps_raw_spelling() {
        let ks = kinds("10.00");
        assert!(matches!(&ks[0], TokenKind::Number { raw, .. } if *raw == "10.00"));
    }

    #[test]
    fn negative_number() {
        let ks = kinds("[x=-5]");
        assert!(matches!(&ks[3], TokenKind::Number { value, .. } if *value == -5.0));
    }

    #[test]
    fn string_literals_both_quote_styles() {
        assert_eq!(kinds("'abc'")[0], TokenKind::Str("abc"));
        assert_eq!(kinds("\"a b\"")[0], TokenKind::Str("a b"));
    }

    #[test]
    fn names_allow_xml_chars() {
        assert_eq!(
            kinds("ns:tag-name_1.x")[0],
            TokenKind::Name("ns:tag-name_1.x")
        );
    }

    #[test]
    fn names_allow_non_ascii_letters() {
        assert_eq!(kinds("café")[0], TokenKind::Name("café"));
        assert_eq!(kinds("été-2")[0], TokenKind::Name("été-2"));
        assert_eq!(kinds("/r/名前")[3], TokenKind::Name("名前"));
        let ks = kinds("/a[b=\"é\"]");
        assert_eq!(ks[5], TokenKind::Str("é"));
    }

    #[test]
    fn leading_dot_numbers_lex() {
        assert!(
            matches!(&kinds(".5")[0], TokenKind::Number { value, raw } if *value == 0.5 && *raw == ".5")
        );
        assert!(matches!(&kinds("[x=.25]")[3], TokenKind::Number { value, .. } if *value == 0.25));
        assert!(
            matches!(&kinds("[x=-.5]")[3], TokenKind::Number { value, raw } if *value == -0.5 && *raw == "-.5")
        );
    }

    #[test]
    fn trailing_dot_number_lexes() {
        assert!(
            matches!(&kinds("1.")[0], TokenKind::Number { value, raw } if *value == 1.0 && *raw == "1.")
        );
    }

    #[test]
    fn multi_dot_number_is_a_positioned_error() {
        let err = tokenize("1.2.3").unwrap_err();
        assert_eq!(err.position, 3, "error should sit on the second dot");
        assert!(err.message.contains("second '.'"), "got: {}", err.message);
        let err = tokenize("[x=10.0.1]").unwrap_err();
        assert_eq!(err.position, 7);
        assert!(tokenize("-1.2.3").is_err());
    }

    #[test]
    fn bare_dot_is_still_rejected() {
        assert!(tokenize(".").is_err());
        assert!(tokenize("/a[. = 1]").is_err());
    }

    #[test]
    fn errors_on_junk() {
        assert!(tokenize("#").is_err());
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("!x").is_err());
    }

    #[test]
    fn positions_are_recorded() {
        let ts = tokenize("/a[b]").unwrap();
        let positions: Vec<usize> = ts.iter().map(|t| t.position).collect();
        assert_eq!(positions, vec![0, 1, 2, 3, 4]);
    }
}
