//! The `.xfm` transformation rule language.
//!
//! A rules file is a list of lines, each `PATTERN => ACTION…`:
//!
//! ```text
//! # drop prices, rename authors, tag matched books
//! /catalog/book[price>100]        => drop
//! //author                        => rename(creator)
//! /catalog/book[position()=1]     => copy +@featured="yes"
//! //isbn                          => wrap(identifier) -@deprecated
//! ```
//!
//! `PATTERN` is a query in the streaming-safe surface subset (it must
//! select elements — no trailing `/text()` or aggregation). `ACTION` is
//! at most one *shape* action — `copy` (default), `drop`, `rename(tag)`,
//! `wrap(tag)` — plus any number of attribute operations `+@name="value"`
//! and `-@name`. `drop` admits no other action. Rules apply first-match-
//! wins in file order. Blank lines and `#` comments are ignored.
//!
//! [`RuleSet::parse`] rejects non-streamable patterns (reverse axes,
//! `position()`/`last()` on descendant steps) with the spanned
//! [`crate::classify::streamability`] diagnostics mapped to line/column —
//! an error, never a panic.

use std::fmt;

use crate::ast::{Output, Query};
use crate::classify::{streamability, IssueKind};
use crate::parser::parse_query;

/// The shape action of a rule: what becomes of the matched element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// Emit the element unchanged (modulo attribute operations).
    Copy,
    /// Omit the element and its entire subtree from the output.
    Drop,
    /// Emit the element under a different tag name.
    Rename(String),
    /// Emit a new element around the matched element.
    Wrap(String),
}

/// An attribute operation applied to the matched element's begin tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrOp {
    /// `+@name="value"` — set (add or replace) an attribute.
    Set(String, String),
    /// `-@name` — remove an attribute if present.
    Remove(String),
}

/// The full action of a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleAction {
    pub shape: Shape,
    pub attr_ops: Vec<AttrOp>,
}

impl RuleAction {
    /// Apply this action's attribute operations to an attribute list.
    ///
    /// This function *is* the semantics of `+@`/`-@`, shared by the
    /// streaming rewriter and the DOM reference transformer so the two
    /// cannot drift: operations apply in rule order; `+@name="v"` on an
    /// existing attribute replaces its value in place (keeping its
    /// position), on a missing one appends; `-@name` removes if present.
    pub fn apply_attrs(&self, attrs: &[(String, String)]) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = attrs.to_vec();
        for op in &self.attr_ops {
            match op {
                AttrOp::Set(name, value) => match out.iter_mut().find(|(n, _)| n == name) {
                    Some(slot) => slot.1 = value.clone(),
                    None => out.push((name.clone(), value.clone())),
                },
                AttrOp::Remove(name) => out.retain(|(n, _)| n != name),
            }
        }
        out
    }
}

/// One rule: a match pattern plus an action.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub pattern: Query,
    pub action: RuleAction,
    /// 1-based source line, for diagnostics.
    pub line: usize,
}

/// A parsed rules file. Rule order is priority order (first match wins).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    pub rules: Vec<Rule>,
}

/// A spanned error in a rules file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte offset into the line).
    pub col: usize,
    pub message: String,
}

impl RuleError {
    fn new(line: usize, col: usize, message: impl Into<String>) -> Self {
        RuleError {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for RuleError {}

impl RuleSet {
    /// Parse a rules file.
    pub fn parse(text: &str) -> Result<RuleSet, RuleError> {
        let mut rules = Vec::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Byte offset of the trimmed text within the raw line, so
            // columns point into the file as written.
            let indent = raw_line.len() - raw_line.trim_start().len();
            let arrow = find_unquoted(line, "=>").ok_or_else(|| {
                RuleError::new(lineno, indent + 1, "expected `PATTERN => ACTION`")
            })?;
            let pattern_text = line[..arrow].trim_end();
            let action_text = &line[arrow + 2..];
            if pattern_text.is_empty() {
                return Err(RuleError::new(lineno, indent + 1, "rule has no pattern"));
            }

            let pattern = parse_query(pattern_text)
                .map_err(|e| RuleError::new(lineno, indent + e.position + 1, e.message))?;
            if pattern.output != Output::Element {
                return Err(RuleError::new(
                    lineno,
                    indent + 1,
                    format!(
                        "match patterns select elements; remove the trailing `{}`",
                        pattern.output
                    ),
                ));
            }
            let report = streamability(&pattern);
            if let Some(issue) = report
                .issues
                .iter()
                .find(|i| i.kind == IssueKind::NonStreamable)
            {
                return Err(RuleError::new(
                    lineno,
                    indent + issue.span.start + 1,
                    format!("pattern is not streamable: {}", issue.message),
                ));
            }

            let action_col = indent + arrow + 2 + 1;
            let action = parse_action(action_text, lineno, action_col)?;
            rules.push(Rule {
                pattern,
                action,
                line: lineno,
            });
        }
        if rules.is_empty() {
            return Err(RuleError::new(1, 1, "rules file contains no rules"));
        }
        Ok(RuleSet { rules })
    }
}

/// Find the byte offset of `needle` outside quoted strings.
fn find_unquoted(s: &str, needle: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut quote: Option<u8> = None;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match quote {
            Some(q) if b == q => quote = None,
            Some(_) => {}
            None if b == b'"' || b == b'\'' => quote = Some(b),
            // Bytes, not `s[i..]`: `i` may sit inside a multi-byte char.
            None if bytes[i..].starts_with(needle.as_bytes()) => return Some(i),
            None => {}
        }
        i += 1;
    }
    None
}

/// Parse the action list after `=>`.
fn parse_action(text: &str, line: usize, base_col: usize) -> Result<RuleAction, RuleError> {
    let mut shape: Option<Shape> = None;
    let mut attr_ops = Vec::new();
    let mut any = false;
    for (tok, off) in action_tokens(text) {
        any = true;
        let col = base_col + off;
        let err = |msg: String| RuleError::new(line, col, msg);
        let set_shape = |shape: &mut Option<Shape>, s: Shape| {
            if shape.is_some() {
                Err(err(format!("conflicting shape action `{tok}`")))
            } else {
                *shape = Some(s);
                Ok(())
            }
        };
        match tok.as_str() {
            "copy" => set_shape(&mut shape, Shape::Copy)?,
            "drop" => set_shape(&mut shape, Shape::Drop)?,
            _ if tok.starts_with("rename(") || tok.starts_with("wrap(") => {
                let (kind, rest) = tok.split_once('(').expect("checked");
                let name = rest
                    .strip_suffix(')')
                    .ok_or_else(|| RuleError::new(line, col, format!("expected `{kind}(NAME)`")))?;
                check_name(name, line, col)?;
                let s = if kind == "rename" {
                    Shape::Rename(name.to_string())
                } else {
                    Shape::Wrap(name.to_string())
                };
                set_shape(&mut shape, s)?;
            }
            _ if tok.starts_with("+@") => {
                let rest = &tok[2..];
                let (name, value) = rest
                    .split_once('=')
                    .ok_or_else(|| RuleError::new(line, col, "expected `+@name=\"value\"`"))?;
                check_name(name, line, col)?;
                let value = unquote(value)
                    .ok_or_else(|| RuleError::new(line, col, "attribute value must be quoted"))?;
                attr_ops.push(AttrOp::Set(name.to_string(), value));
            }
            _ if tok.starts_with("-@") => {
                let name = &tok[2..];
                check_name(name, line, col)?;
                attr_ops.push(AttrOp::Remove(name.to_string()));
            }
            other => {
                return Err(RuleError::new(
                    line,
                    col,
                    format!(
                        "unknown action `{other}` (expected copy, drop, rename(tag), \
                         wrap(tag), +@name=\"value\", or -@name)"
                    ),
                ))
            }
        }
    }
    if !any {
        return Err(RuleError::new(line, base_col, "rule has no action"));
    }
    let shape = shape.unwrap_or(Shape::Copy);
    if shape == Shape::Drop && !attr_ops.is_empty() {
        return Err(RuleError::new(
            line,
            base_col,
            "`drop` emits nothing; attribute operations make no sense with it",
        ));
    }
    Ok(RuleAction { shape, attr_ops })
}

/// Split the action text on whitespace, keeping quoted spans intact.
/// Returns each token with its byte offset into `text`.
fn action_tokens(text: &str) -> Vec<(String, usize)> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let mut quote: Option<u8> = None;
        while i < bytes.len() {
            let b = bytes[i];
            match quote {
                Some(q) if b == q => quote = None,
                Some(_) => {}
                None if b == b'"' || b == b'\'' => quote = Some(b),
                None if b.is_ascii_whitespace() => break,
                None => {}
            }
            i += 1;
        }
        tokens.push((text[start..i].to_string(), start));
    }
    tokens
}

/// Strip matching quotes from an action value.
fn unquote(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    if bytes.len() >= 2
        && (bytes[0] == b'"' || bytes[0] == b'\'')
        && bytes[bytes.len() - 1] == bytes[0]
    {
        Some(s[1..s.len() - 1].to_string())
    } else {
        None
    }
}

/// Validate an XML name used in `rename`/`wrap`/attribute operations.
fn check_name(name: &str, line: usize, col: usize) -> Result<(), RuleError> {
    let bytes = name.as_bytes();
    let ok = !bytes.is_empty()
        && (bytes[0].is_ascii_alphabetic() || bytes[0] == b'_')
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        && !name.contains("::");
    if ok {
        Ok(())
    } else {
        Err(RuleError::new(
            line,
            col,
            format!("`{name}` is not a valid XML name"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_rules_file() {
        let text = "\
# a comment
/catalog/book[price>100] => drop

//author => rename(creator)
/catalog/book[position()=1] => copy +@featured=\"yes\"
//isbn => wrap(identifier) -@deprecated
//note => +@seen='1'
";
        let rs = RuleSet::parse(text).unwrap();
        assert_eq!(rs.rules.len(), 5);
        assert_eq!(rs.rules[0].action.shape, Shape::Drop);
        assert_eq!(rs.rules[1].action.shape, Shape::Rename("creator".into()));
        assert_eq!(
            rs.rules[2].action.attr_ops,
            vec![AttrOp::Set("featured".into(), "yes".into())]
        );
        assert_eq!(rs.rules[3].action.shape, Shape::Wrap("identifier".into()));
        assert_eq!(
            rs.rules[3].action.attr_ops,
            vec![AttrOp::Remove("deprecated".into())]
        );
        // Attribute ops alone imply copy.
        assert_eq!(rs.rules[4].action.shape, Shape::Copy);
        assert_eq!(rs.rules[4].line, 7);
    }

    #[test]
    fn quoted_values_keep_spaces_and_arrows() {
        let rs = RuleSet::parse("/a => +@note=\"x => y\"").unwrap();
        assert_eq!(
            rs.rules[0].action.attr_ops,
            vec![AttrOp::Set("note".into(), "x => y".into())]
        );
    }

    #[test]
    fn error_positions_are_spanned() {
        // Pattern parse error: column points into the pattern.
        let e = RuleSet::parse("/a[ => copy").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.col >= 4, "col {} should be inside the predicate", e.col);

        // Non-streamable pattern: column points at the offending step.
        let e = RuleSet::parse("  /a/parent::b => copy").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.col, 5); // after two indent bytes + "/a"
        assert!(e.message.contains("not streamable"), "{}", e.message);

        let e = RuleSet::parse("//b[last()] => copy").unwrap_err();
        assert!(e.message.contains("descendant"), "{}", e.message);
    }

    #[test]
    fn rejects_bad_actions() {
        for (bad, needle) in [
            ("/a => ", "no action"),
            ("/a => copy drop", "conflicting"),
            ("/a => drop -@x", "drop"),
            ("/a => explode", "unknown action"),
            ("/a => rename(", "rename(NAME)"),
            ("/a => rename(1x)", "not a valid XML name"),
            ("/a => +@x=unquoted", "quoted"),
            ("/a/text() => copy", "select elements"),
            ("no arrow here", "=>"),
        ] {
            let e = RuleSet::parse(bad).unwrap_err();
            assert!(
                e.message.contains(needle),
                "for `{bad}` expected `{needle}` in: {}",
                e.message
            );
        }
    }

    #[test]
    fn non_ascii_text_is_an_error_or_data_never_a_panic() {
        // The arrow search used to slice the line at every byte offset
        // and panicked inside the two-byte `é`.
        let e = RuleSet::parse("//café => drop").unwrap_err();
        assert_eq!((e.line, e.col), (1, 6), "{e}");
        assert!(e.message.contains("unexpected character 'é'"), "{e}");

        // Where the language takes free text, non-ASCII is just text.
        let rs = RuleSet::parse(
            "# règle: marquer les cafés\n\
             //shop[@name=\"café => thé\"] => +@kind=\"crème\"\n\
             # fin — ☕\n",
        )
        .unwrap();
        assert_eq!(rs.rules.len(), 1);
        assert_eq!(rs.rules[0].line, 2);
        assert_eq!(
            rs.rules[0].action.attr_ops,
            vec![AttrOp::Set("kind".into(), "crème".into())]
        );
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(RuleSet::parse("# only comments\n").is_err());
    }

    #[test]
    fn attr_ops_apply_in_order_preserving_positions() {
        let rs = RuleSet::parse("/a => -@old +@id=\"9\" +@new=\"n\"").unwrap();
        let action = &rs.rules[0].action;
        let attrs = [
            ("id".to_string(), "1".to_string()),
            ("old".to_string(), "x".to_string()),
        ];
        assert_eq!(
            action.apply_attrs(&attrs),
            vec![
                ("id".to_string(), "9".to_string()),
                ("new".to_string(), "n".to_string()),
            ]
        );
    }

    #[test]
    fn position_and_last_on_child_steps_are_accepted() {
        let rs = RuleSet::parse("/a/b[last()] => rename(tail)").unwrap();
        assert_eq!(rs.rules.len(), 1);
    }
}
