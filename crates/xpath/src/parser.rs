//! Recursive-descent parser for the Fig. 3 grammar.
//!
//! `Q ::= N+ [/O]` — one or more location steps, then an optional output
//! expression. The parser is total over the token stream produced by
//! [`crate::lexer::tokenize`]; every query the paper's examples and
//! experiments use parses here.

use crate::ast::{
    AggFunc, Axis, CmpOp, Comparison, FnArg, FnTest, NodeTest, Output, Predicate, Query, Span, Step,
};
use crate::error::{ParseError, ParseResult};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::value::XPathValue;

/// Parse a query string into a [`Query`].
///
/// ```
/// use xsq_xpath::{parse_query, Axis, Output};
///
/// let q = parse_query("//pub[year>2000]//book[author]//name/text()").unwrap();
/// assert_eq!(q.steps.len(), 3);
/// assert_eq!(q.steps[0].axis, Axis::Closure);
/// assert_eq!(q.output, Output::Text);
/// ```
pub fn parse_query(input: &str) -> ParseResult<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    p.query()
}

/// The token cursor. Tokens lend their names and literals from the
/// query text, so handing one over copies a few words; each string is
/// allocated once, in the AST node that keeps it.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    input_len: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&TokenKind<'a>> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind<'a>> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.position)
            .unwrap_or(self.input_len)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.here(), msg)
    }

    fn expect(&mut self, kind: &TokenKind<'a>, what: &str) -> ParseResult<()> {
        match self.next() {
            Some(t) if t.kind == *kind => Ok(()),
            Some(t) => Err(ParseError::new(t.position, format!("expected {what}"))),
            None => Err(ParseError::new(self.input_len, format!("expected {what}"))),
        }
    }

    fn query(&mut self) -> ParseResult<Query> {
        let mut steps = Vec::new();
        let mut output = Output::Element;
        loop {
            let step_start = self.here();
            let axis = match self.peek() {
                Some(TokenKind::Slash) => {
                    self.next();
                    Axis::Child
                }
                Some(TokenKind::DoubleSlash) => {
                    self.next();
                    Axis::Closure
                }
                None if !steps.is_empty() => break,
                _ => return Err(self.err("expected '/' or '//'")),
            };
            // After a slash, either a node test (continuing the path) or
            // the output expression (which terminates the query).
            match self.peek() {
                Some(TokenKind::At) => {
                    if axis == Axis::Closure {
                        return Err(self.err("output expression must follow '/', not '//'"));
                    }
                    self.next();
                    let name = self.name("attribute name")?;
                    output = Output::Attr(name.to_string());
                    self.end_of_query()?;
                    break;
                }
                Some(TokenKind::Name(n))
                    if self.peek2() == Some(&TokenKind::LParen) && output_function(n).is_some() =>
                {
                    if axis == Axis::Closure {
                        return Err(self.err("output expression must follow '/', not '//'"));
                    }
                    let func = output_function(n).expect("checked");
                    self.next();
                    self.expect(&TokenKind::LParen, "'('")?;
                    self.expect(&TokenKind::RParen, "')'")?;
                    output = func;
                    self.end_of_query()?;
                    break;
                }
                Some(TokenKind::Star) => {
                    self.next();
                    let predicate = self.maybe_predicate()?;
                    steps.push(Step {
                        axis,
                        test: NodeTest::Wildcard,
                        predicate,
                        span: Span::new(step_start, self.here()),
                    });
                }
                Some(TokenKind::Name(_)) => {
                    let name_pos = self.here();
                    let name = self.name("tag name")?;
                    // The lexer keeps `:` inside names, so an explicit axis
                    // (`parent::tag`) arrives as a single token; split it.
                    let (axis, test) = if let Some((ax, rest)) = name.split_once("::") {
                        let resolved = resolve_axis(ax, axis).ok_or_else(|| {
                            ParseError::new(name_pos, format!("unsupported axis '{ax}::'"))
                        })?;
                        if axis == Axis::Closure && resolved != Axis::Closure {
                            return Err(ParseError::new(
                                name_pos,
                                format!("reverse axis '{ax}::' cannot follow '//'"),
                            ));
                        }
                        let test = if rest.is_empty() {
                            // `parent::*` — the wildcard lexed separately.
                            match self.peek() {
                                Some(TokenKind::Star) => {
                                    self.next();
                                    NodeTest::Wildcard
                                }
                                _ => {
                                    return Err(
                                        self.err("expected a tag name or '*' after the axis")
                                    )
                                }
                            }
                        } else if rest.contains("::") {
                            return Err(ParseError::new(
                                name_pos,
                                format!("malformed node test '{name}'"),
                            ));
                        } else {
                            NodeTest::Name(rest.to_string())
                        };
                        (resolved, test)
                    } else {
                        (axis, NodeTest::Name(name.to_string()))
                    };
                    let predicate = self.maybe_predicate()?;
                    steps.push(Step {
                        axis,
                        test,
                        predicate,
                        span: Span::new(step_start, self.here()),
                    });
                }
                _ => return Err(self.err("expected a node test or output expression")),
            }
            if self.peek().is_none() {
                break;
            }
        }
        if steps.is_empty() {
            return Err(self.err("query must contain at least one location step"));
        }
        Ok(Query { steps, output })
    }

    fn end_of_query(&mut self) -> ParseResult<()> {
        if let Some(t) = self.tokens.get(self.pos) {
            return Err(ParseError::new(
                t.position,
                "output expression must end the query",
            ));
        }
        Ok(())
    }

    fn name(&mut self, what: &str) -> ParseResult<&'a str> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Name(n),
                ..
            }) => Ok(n),
            Some(t) => Err(ParseError::new(t.position, format!("expected {what}"))),
            None => Err(ParseError::new(self.input_len, format!("expected {what}"))),
        }
    }

    fn maybe_predicate(&mut self) -> ParseResult<Option<Predicate>> {
        if self.peek() != Some(&TokenKind::LBracket) {
            return Ok(None);
        }
        self.next();
        let pred = self.predicate_body()?;
        self.expect(&TokenKind::RBracket, "']'")?;
        Ok(Some(pred))
    }

    /// `F ::= [ FO [OP constant] ]` with
    /// `FO ::= @attr | tag[@attr] | text() | n | position() | last()
    ///       | fn(text()|@attr …)` for the streaming-safe function set.
    fn predicate_body(&mut self) -> ParseResult<Predicate> {
        match self.peek() {
            Some(TokenKind::At) => {
                self.next();
                let name = self.name("attribute name")?.to_string();
                let cmp = self.maybe_comparison()?;
                Ok(Predicate::Attr { name, cmp })
            }
            Some(TokenKind::Name("text")) if self.peek2() == Some(&TokenKind::LParen) => {
                self.next();
                self.expect(&TokenKind::LParen, "'('")?;
                self.expect(&TokenKind::RParen, "')'")?;
                let cmp = self.maybe_comparison()?;
                Ok(Predicate::Text { cmp })
            }
            // `[3]` — positional shorthand for `[position()=3]`.
            Some(TokenKind::Number { .. }) => {
                let rhs = self.constant()?;
                Ok(Predicate::Position {
                    cmp: Comparison { op: CmpOp::Eq, rhs },
                })
            }
            Some(TokenKind::Name(n))
                if self.peek2() == Some(&TokenKind::LParen) && is_predicate_function(n) =>
            {
                self.predicate_function()
            }
            Some(TokenKind::Name(_)) => {
                let child = self.name("child tag")?.to_string();
                match self.peek() {
                    Some(TokenKind::At) => {
                        self.next();
                        let attr = self.name("attribute name")?.to_string();
                        let cmp = self.maybe_comparison()?;
                        Ok(Predicate::ChildAttr { child, attr, cmp })
                    }
                    Some(TokenKind::RBracket) => Ok(Predicate::Child { name: child }),
                    _ => {
                        let cmp = self
                            .maybe_comparison()?
                            .ok_or_else(|| self.err("expected an operator or ']'"))?;
                        Ok(Predicate::ChildText { child, cmp })
                    }
                }
            }
            _ => Err(self.err("expected a predicate")),
        }
    }

    /// Dispatch on a function name at the head of a predicate:
    /// `position()`, `last()`, and the string/number function set.
    fn predicate_function(&mut self) -> ParseResult<Predicate> {
        let name = self.name("function name")?;
        self.expect(&TokenKind::LParen, "'('")?;
        match name {
            "position" => {
                self.expect(&TokenKind::RParen, "')'")?;
                self.position_comparison()
            }
            "last" => {
                self.expect(&TokenKind::RParen, "')'")?;
                if self.peek() == Some(&TokenKind::RBracket) {
                    Ok(Predicate::Last)
                } else {
                    Err(self
                        .err("last() takes no comparison; write [last()] or [position()=last()]"))
                }
            }
            "contains" | "starts-with" => {
                let arg = self.fn_arg()?;
                self.expect(&TokenKind::Comma, "','")?;
                let v = self.constant()?;
                self.expect(&TokenKind::RParen, "')'")?;
                let test = if name == "contains" {
                    FnTest::Contains(v)
                } else {
                    FnTest::StartsWith(v)
                };
                Ok(Predicate::Func { arg, test })
            }
            "string-length" | "number" => {
                let arg = self.fn_arg()?;
                self.expect(&TokenKind::RParen, "')'")?;
                let cmp = self
                    .maybe_comparison()?
                    .ok_or_else(|| self.err(format!("expected a comparison after {name}(…)")))?;
                let test = if name == "string-length" {
                    FnTest::StringLength(cmp)
                } else {
                    FnTest::Number(cmp)
                };
                Ok(Predicate::Func { arg, test })
            }
            _ => unreachable!("guarded by is_predicate_function"),
        }
    }

    /// After `position()`: `OP n` or `= last()`.
    fn position_comparison(&mut self) -> ParseResult<Predicate> {
        let op = match self.peek() {
            Some(TokenKind::Op(op)) => {
                let op = *op;
                self.next();
                op
            }
            _ => return Err(self.err("expected a comparison after position()")),
        };
        match self.peek() {
            Some(TokenKind::Number { .. }) => {
                let rhs = self.constant()?;
                Ok(Predicate::Position {
                    cmp: Comparison { op, rhs },
                })
            }
            Some(TokenKind::Name("last")) if self.peek2() == Some(&TokenKind::LParen) => {
                self.next();
                self.expect(&TokenKind::LParen, "'('")?;
                self.expect(&TokenKind::RParen, "')'")?;
                if op == CmpOp::Eq {
                    Ok(Predicate::Last)
                } else {
                    Err(self.err("only position()=last() is supported"))
                }
            }
            _ => Err(self.err("expected a number or last() after position()")),
        }
    }

    /// The first argument of a predicate function: `text()` or `@attr`.
    fn fn_arg(&mut self) -> ParseResult<FnArg> {
        match self.peek() {
            Some(TokenKind::At) => {
                self.next();
                Ok(FnArg::Attr(self.name("attribute name")?.to_string()))
            }
            Some(TokenKind::Name("text")) if self.peek2() == Some(&TokenKind::LParen) => {
                self.next();
                self.expect(&TokenKind::LParen, "'('")?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(FnArg::Text)
            }
            _ => Err(self.err("expected text() or @attr as the function argument")),
        }
    }

    /// A constant: number, quoted string, or bareword (as in `[LINE%love]`).
    fn constant(&mut self) -> ParseResult<XPathValue> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Number { value, raw },
                ..
            }) => Ok(XPathValue::number_raw(value, raw)),
            Some(Token {
                kind: TokenKind::Str(s),
                ..
            }) => Ok(XPathValue::text(s)),
            Some(Token {
                kind: TokenKind::Name(n),
                ..
            }) => Ok(XPathValue::text(n)),
            Some(t) => Err(ParseError::new(t.position, "expected a constant")),
            None => Err(ParseError::new(self.input_len, "expected a constant")),
        }
    }

    fn maybe_comparison(&mut self) -> ParseResult<Option<Comparison>> {
        let op = match self.peek() {
            Some(TokenKind::Op(op)) => {
                let op = *op;
                self.next();
                op
            }
            Some(TokenKind::Name("contains")) => {
                self.next();
                CmpOp::Contains
            }
            _ => return Ok(None),
        };
        let rhs = self.constant()?;
        Ok(Some(Comparison { op, rhs }))
    }
}

/// Resolve an explicit `axis::` prefix. `child::` keeps the axis implied
/// by the preceding slash; reverse axes replace it.
fn resolve_axis(spelled: &str, slash_axis: Axis) -> Option<Axis> {
    match spelled {
        "child" => Some(slash_axis),
        "parent" => Some(Axis::Parent),
        "ancestor" => Some(Axis::Ancestor),
        "preceding-sibling" => Some(Axis::PrecedingSibling),
        _ => None,
    }
}

/// Function names recognized at the head of a predicate.
fn is_predicate_function(name: &str) -> bool {
    matches!(
        name,
        "position" | "last" | "contains" | "starts-with" | "string-length" | "number"
    )
}

fn output_function(name: &str) -> Option<Output> {
    match name {
        "text" => Some(Output::Text),
        "count" => Some(Output::Aggregate(AggFunc::Count)),
        "sum" => Some(Output::Aggregate(AggFunc::Sum)),
        "avg" => Some(Output::Aggregate(AggFunc::Avg)),
        "min" => Some(Output::Aggregate(AggFunc::Min)),
        "max" => Some(Output::Aggregate(AggFunc::Max)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_headline_query() {
        let q = parse_query("//book[year>2000]/name/text()").unwrap();
        assert_eq!(q.steps.len(), 2);
        assert_eq!(q.steps[0].axis, Axis::Closure);
        assert_eq!(
            q.steps[0].predicate,
            Some(Predicate::ChildText {
                child: "year".into(),
                cmp: Comparison {
                    op: CmpOp::Gt,
                    rhs: XPathValue::number_raw(2000.0, "2000"),
                },
            })
        );
        assert_eq!(q.output, Output::Text);
    }

    #[test]
    fn parses_example_1_query() {
        let q = parse_query("/pub[year=2002]/book[price<11]/author").unwrap();
        assert_eq!(q.steps.len(), 3);
        assert_eq!(q.output, Output::Element);
        assert!(!q.has_closure());
    }

    #[test]
    fn parses_example_2_query() {
        let q = parse_query("//pub[year=2002]//book[author]//name").unwrap();
        assert!(q.has_closure());
        assert_eq!(
            q.steps[1].predicate,
            Some(Predicate::Child {
                name: "author".into()
            })
        );
    }

    #[test]
    fn parses_all_five_predicate_categories() {
        let cases = [
            ("/book[@id]", "Attr exists"),
            ("/book[@id<=10]", "Attr cmp"),
            ("/year[text()=2000]", "Text cmp"),
            ("/book[author]", "Child"),
            ("/pub[book@id<=10]", "ChildAttr cmp"),
            ("/book[year<=2000]", "ChildText"),
        ];
        for (q, what) in cases {
            assert!(parse_query(q).is_ok(), "failed to parse {what}: {q}");
        }
    }

    #[test]
    fn parses_output_expressions() {
        assert_eq!(
            parse_query("/a/b/@id").unwrap().output,
            Output::Attr("id".into())
        );
        assert_eq!(
            parse_query("/a/b/count()").unwrap().output,
            Output::Aggregate(AggFunc::Count)
        );
        assert_eq!(
            parse_query("/a/b/sum()").unwrap().output,
            Output::Aggregate(AggFunc::Sum)
        );
        assert_eq!(parse_query("/a/b").unwrap().output, Output::Element);
    }

    #[test]
    fn element_named_like_a_function_is_a_step() {
        // `text` without parens is an ordinary tag.
        let q = parse_query("/a/text").unwrap();
        assert_eq!(q.steps.len(), 2);
        assert_eq!(q.steps[1].test, NodeTest::Name("text".into()));
    }

    #[test]
    fn contains_via_percent_and_word() {
        let q1 = parse_query("/SPEECH[LINE%love]/SPEAKER/text()").unwrap();
        let q2 = parse_query("/SPEECH[LINE contains 'love']/SPEAKER/text()").unwrap();
        assert_eq!(q1.steps[0].predicate, q2.steps[0].predicate);
    }

    #[test]
    fn wildcard_step() {
        let q = parse_query("/*/name/text()").unwrap();
        assert_eq!(q.steps[0].test, NodeTest::Wildcard);
        assert!(q.has_wildcard());
    }

    #[test]
    fn quoted_string_constants() {
        let q = parse_query("/book[name=\"First\"]").unwrap();
        assert_eq!(
            q.steps[0].predicate,
            Some(Predicate::ChildText {
                child: "name".into(),
                cmp: Comparison {
                    op: CmpOp::Eq,
                    rhs: XPathValue::text("First"),
                },
            })
        );
    }

    #[test]
    fn double_equals_is_accepted() {
        let q = parse_query("/year[text()==2000]").unwrap();
        assert!(matches!(
            q.steps[0].predicate,
            Some(Predicate::Text { cmp: Some(_) })
        ));
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "",
            "book",
            "/",
            "//",
            "/a[",
            "/a[]",
            "/a[@]",
            "/a[b<]",
            "/a/text()/b",
            "/a/@id/b",
            "/a/count()/text()",
            "//@id",
            "//text()",
            "/a[b=]",
            "/a]",
        ] {
            assert!(parse_query(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn display_then_reparse_is_identity() {
        let queries = [
            "/pub[year=2002]/book[price<11]/author",
            "//pub[year>2000]//book[author]//name/text()",
            "/a/*[b%c]/d/@id",
            "/dblp/article/title/text()",
            "//ACT//SPEAKER/count()",
            "/a[@id!=3]/b[text()%x]",
        ];
        for q in queries {
            let parsed = parse_query(q).unwrap();
            let shown = parsed.to_string();
            let reparsed = parse_query(&shown).unwrap();
            assert_eq!(
                parsed, reparsed,
                "roundtrip failed for {q} (shown as {shown})"
            );
        }
    }

    #[test]
    fn steps_carry_source_spans() {
        let text = "/pub[year=2002]/book[price<11]/author/text()";
        let q = parse_query(text).unwrap();
        assert_eq!(q.steps[0].span, Span::new(0, 15));
        assert_eq!(
            &text[q.steps[0].span.start..q.steps[0].span.end],
            "/pub[year=2002]"
        );
        assert_eq!(
            &text[q.steps[1].span.start..q.steps[1].span.end],
            "/book[price<11]"
        );
        assert_eq!(&text[q.steps[2].span.start..q.steps[2].span.end], "/author");
    }

    #[test]
    fn error_positions_point_into_the_query() {
        let err = parse_query("/a[b<]").unwrap_err();
        assert_eq!(err.position, 5); // the ']' where a constant was expected
    }

    #[test]
    fn parses_the_streaming_safe_function_surface() {
        let q = parse_query("/a[contains(text(),\"x\")]").unwrap();
        assert_eq!(
            q.steps[0].predicate,
            Some(Predicate::Func {
                arg: FnArg::Text,
                test: FnTest::Contains(XPathValue::text("x")),
            })
        );
        let q = parse_query("/a[starts-with(@id,'b')]").unwrap();
        assert!(matches!(
            q.steps[0].predicate,
            Some(Predicate::Func {
                arg: FnArg::Attr(_),
                test: FnTest::StartsWith(_),
            })
        ));
        let q = parse_query("/a[string-length(text())>5]").unwrap();
        assert!(matches!(
            q.steps[0].predicate,
            Some(Predicate::Func {
                test: FnTest::StringLength(_),
                ..
            })
        ));
        let q = parse_query("/a[number(@n)<=10]").unwrap();
        assert!(matches!(
            q.steps[0].predicate,
            Some(Predicate::Func {
                test: FnTest::Number(_),
                ..
            })
        ));
    }

    #[test]
    fn parses_position_and_last() {
        let q = parse_query("/a/b[position()=2]").unwrap();
        assert!(matches!(
            q.steps[1].predicate,
            Some(Predicate::Position { .. })
        ));
        // `[2]` is shorthand for `[position()=2]`.
        let q2 = parse_query("/a/b[2]").unwrap();
        assert_eq!(q.steps[1].predicate, q2.steps[1].predicate);
        assert_eq!(
            parse_query("/a/b[last()]").unwrap().steps[1].predicate,
            Some(Predicate::Last)
        );
        assert_eq!(
            parse_query("/a/b[position()=last()]").unwrap().steps[1].predicate,
            Some(Predicate::Last)
        );
        assert!(matches!(
            parse_query("/a/b[position()>=3]").unwrap().steps[1].predicate,
            Some(Predicate::Position {
                cmp: Comparison { op: CmpOp::Ge, .. }
            })
        ));
    }

    #[test]
    fn parses_reverse_axes() {
        let q = parse_query("/a/parent::b").unwrap();
        assert_eq!(q.steps[1].axis, Axis::Parent);
        assert_eq!(q.steps[1].test, NodeTest::Name("b".into()));
        let q = parse_query("/a/ancestor::*").unwrap();
        assert_eq!(q.steps[1].axis, Axis::Ancestor);
        assert_eq!(q.steps[1].test, NodeTest::Wildcard);
        let q = parse_query("/a/preceding-sibling::b").unwrap();
        assert_eq!(q.steps[1].axis, Axis::PrecedingSibling);
        // `child::` keeps the axis implied by the slash.
        assert_eq!(parse_query("/child::a").unwrap().steps[0].axis, Axis::Child);
        assert_eq!(
            parse_query("//child::a").unwrap().steps[0].axis,
            Axis::Closure
        );
        // Namespaced names still lex as plain tags.
        assert_eq!(
            parse_query("/ns:tag").unwrap().steps[0].test,
            NodeTest::Name("ns:tag".into())
        );
    }

    #[test]
    fn rejects_malformed_extended_queries() {
        for bad in [
            "/a[position()]",
            "/a[position()=b]",
            "/a[last()>2]",
            "/a[contains(text())]",
            "/a[contains(b,'x')]",
            "/a[string-length(text())]",
            "/a/following::b",
            "//parent::b",
            "/a/parent::b::c",
            "/a[position()!=last()]",
        ] {
            assert!(parse_query(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn extended_display_reparses_to_identity() {
        for q in [
            "/a[contains(text(),\"x y\")]/b",
            "/a[starts-with(@id,\"b\")]",
            "/a[string-length(text())>5]",
            "/a[number(@n)<=10]/b[position()=2]",
            "/a/b[last()]",
            "/a/parent::b",
            "/a/ancestor::*",
            "/a/preceding-sibling::b[@id]",
        ] {
            let parsed = parse_query(q).unwrap();
            let reparsed = parse_query(&parsed.to_string()).unwrap();
            assert_eq!(parsed, reparsed, "roundtrip failed for {q}");
        }
    }
}
