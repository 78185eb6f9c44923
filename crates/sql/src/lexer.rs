//! A hand-written SQL lexer.
//!
//! Produces a flat [`Token`] stream consumed by the recursive-descent
//! [`parser`](crate::parser). Unquoted identifiers are lower-cased so the
//! rest of the pipeline is case-insensitive; quoted identifiers (`"Name"`)
//! preserve case. Comments (`-- ...` and `/* ... */`) are skipped.

use crate::error::{ParseError, Result};
use crate::token::{Keyword, Span, Token, TokenKind};
use std::cell::Cell;

/// Tokenize `input` into a vector of tokens terminated by [`TokenKind::Eof`].
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Lexer::new(input).run()
}

/// Most tokens a thread keeps room for between parses: about 48 KiB.
const KEPT_TOKENS: usize = 1024;

thread_local! {
    /// The token vector of this thread's last parse, emptied: the next
    /// tokenize fills it instead of allocating one, so a parse allocates
    /// only what its AST keeps.
    static SPARE: Cell<Vec<Token>> = const { Cell::new(Vec::new()) };
}

/// Hand a parse's token vector back for this thread's next tokenize
/// (unless it grew past [`KEPT_TOKENS`]).
pub(crate) fn recycle(mut tokens: Vec<Token>) {
    if tokens.capacity() <= KEPT_TOKENS {
        tokens.clear();
        SPARE.with(|spare| spare.set(tokens));
    }
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        let mut out = SPARE.with(Cell::take);
        out.reserve(src.len() / 4 + 8);
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            out,
        }
    }

    fn run(mut self) -> Result<Vec<Token>> {
        while self.pos < self.bytes.len() {
            self.skip_trivia()?;
            if self.pos >= self.bytes.len() {
                break;
            }
            let start = self.pos;
            let b = self.bytes[self.pos];
            match b {
                b'(' => self.single(TokenKind::LParen),
                b')' => self.single(TokenKind::RParen),
                b',' => self.single(TokenKind::Comma),
                b'.' => {
                    // A dot followed by a digit begins a float like `.5`.
                    if self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit) {
                        self.number()?;
                    } else {
                        self.single(TokenKind::Dot);
                    }
                }
                b';' => self.single(TokenKind::Semicolon),
                b'+' => self.single(TokenKind::Plus),
                b'-' => self.single(TokenKind::Minus),
                b'*' => self.single(TokenKind::Star),
                b'/' => self.single(TokenKind::Slash),
                b'%' => self.single(TokenKind::Percent),
                b'=' => self.single(TokenKind::Eq),
                b'<' => {
                    if self.peek_at(1) == Some(b'=') {
                        self.double(TokenKind::LtEq);
                    } else if self.peek_at(1) == Some(b'>') {
                        self.double(TokenKind::NotEq);
                    } else {
                        self.single(TokenKind::Lt);
                    }
                }
                b'>' => {
                    if self.peek_at(1) == Some(b'=') {
                        self.double(TokenKind::GtEq);
                    } else {
                        self.single(TokenKind::Gt);
                    }
                }
                b'!' => {
                    if self.peek_at(1) == Some(b'=') {
                        self.double(TokenKind::NotEq);
                    } else {
                        return Err(ParseError::lex(start, "unexpected character `!`"));
                    }
                }
                b'\'' => self.quoted(b'\'', TokenKind::String, "unterminated string literal")?,
                b'"' => self.quoted(b'"', TokenKind::Ident, "unterminated quoted identifier")?,
                b'0'..=b'9' => self.number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                other => {
                    return Err(ParseError::lex(
                        start,
                        format!("unexpected character `{}`", other as char),
                    ));
                }
            }
        }
        self.out.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(self.pos, self.pos),
        });
        Ok(self.out)
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn single(&mut self, kind: TokenKind) {
        self.out.push(Token {
            kind,
            span: Span::new(self.pos, self.pos + 1),
        });
        self.pos += 1;
    }

    fn double(&mut self, kind: TokenKind) {
        self.out.push(Token {
            kind,
            span: Span::new(self.pos, self.pos + 2),
        });
        self.pos += 2;
    }

    /// Skip whitespace and both comment styles.
    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
            if self.peek_at(0) == Some(b'-') && self.peek_at(1) == Some(b'-') {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            if self.peek_at(0) == Some(b'/') && self.peek_at(1) == Some(b'*') {
                let start = self.pos;
                self.pos += 2;
                loop {
                    if self.pos + 1 >= self.bytes.len() {
                        return Err(ParseError::lex(start, "unterminated block comment"));
                    }
                    if self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/' {
                        self.pos += 2;
                        break;
                    }
                    self.pos += 1;
                }
                continue;
            }
            return Ok(());
        }
    }

    /// The text between `quote` at `pos` and its closing twin, a doubled
    /// `quote` standing for one: a single-quoted string or a
    /// double-quoted identifier (case preserved). Copied a run at a time:
    /// the quote is ASCII, so every run ends on a character boundary.
    fn quoted(
        &mut self,
        quote: u8,
        kind: fn(String) -> TokenKind,
        unterminated: &str,
    ) -> Result<()> {
        let start = self.pos;
        self.pos += 1;
        let mut value = String::new();
        loop {
            let Some(len) = self.bytes[self.pos..].iter().position(|&b| b == quote) else {
                return Err(ParseError::lex(start, unterminated));
            };
            let close = self.pos + len;
            value.push_str(&self.src[self.pos..close]);
            if self.bytes.get(close + 1) != Some(&quote) {
                self.pos = close + 1;
                break;
            }
            value.push(quote as char);
            self.pos = close + 2;
        }
        self.out.push(Token {
            kind: kind(value),
            span: Span::new(start, self.pos),
        });
        Ok(())
    }

    fn number(&mut self) -> Result<()> {
        let start = self.pos;
        let mut is_float = false;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.peek_at(0) == Some(b'.')
            && self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
        {
            is_float = true;
            self.pos += 1;
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
        } else if self.peek_at(0) == Some(b'.') && self.bytes.get(start) != Some(&b'.') {
            // Trailing dot as in `1.` — treat as float.
            is_float = true;
            self.pos += 1;
        }
        if matches!(self.peek_at(0), Some(b'e') | Some(b'E')) {
            let mut ahead = self.pos + 1;
            if matches!(self.bytes.get(ahead), Some(b'+') | Some(b'-')) {
                ahead += 1;
            }
            if self.bytes.get(ahead).is_some_and(u8::is_ascii_digit) {
                is_float = true;
                self.pos = ahead;
                while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.pos += 1;
                }
            }
        }
        let text = &self.src[start..self.pos];
        let kind = match text.parse::<i64>() {
            Ok(v) if !is_float => TokenKind::Integer(v),
            // Integers too large for i64 degrade to floats, matching the
            // permissiveness of real SQL engines.
            _ => {
                let v = (text.parse::<f64>())
                    .map_err(|e| ParseError::lex(start, format!("bad numeric literal: {e}")))?;
                // Infinity prints as `inf`, which re-parses as a column:
                // the two queries would share one cache key.
                if !v.is_finite() {
                    return Err(ParseError::lex(
                        start,
                        format!("numeric literal `{text}` is not a finite number"),
                    ));
                }
                TokenKind::Float(v)
            }
        };
        self.out.push(Token {
            kind,
            span: Span::new(start, self.pos),
        });
        Ok(())
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        let raw = &self.bytes[start..self.pos];
        // Lower-case a word that could be a keyword on the stack: only an
        // identifier gets a `String`.
        let mut buf = [0u8; Keyword::LONGEST];
        let keyword = buf.get_mut(..raw.len()).and_then(|lower| {
            lower.copy_from_slice(raw);
            lower.make_ascii_lowercase();
            Keyword::from_str_lower(std::str::from_utf8(lower).ok()?)
        });
        let kind = match keyword {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(self.src[start..self.pos].to_ascii_lowercase()),
        };
        self.out.push(Token {
            kind,
            span: Span::new(start, self.pos),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_select() {
        let ks = kinds("SELECT COUNT(*) FROM trips");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Ident("count".into()),
                TokenKind::LParen,
                TokenKind::Star,
                TokenKind::RParen,
                TokenKind::Keyword(Keyword::From),
                TokenKind::Ident("trips".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let ks = kinds("a <= b <> c != d >= e < f > g = h");
        let ops: Vec<_> = ks
            .into_iter()
            .filter(|k| {
                matches!(
                    k,
                    TokenKind::Eq
                        | TokenKind::NotEq
                        | TokenKind::Lt
                        | TokenKind::LtEq
                        | TokenKind::Gt
                        | TokenKind::GtEq
                )
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                TokenKind::LtEq,
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::GtEq,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eq,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("1 2.5 1e3 1.5e-2 .25")[..5],
            [
                TokenKind::Integer(1),
                TokenKind::Float(2.5),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.015),
                TokenKind::Float(0.25),
            ]
        );
    }

    #[test]
    fn huge_integer_degrades_to_float() {
        assert_eq!(kinds("99999999999999999999")[0], TokenKind::Float(1e20));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(kinds("'it''s'")[0], TokenKind::String("it's".to_string()));
    }

    #[test]
    fn doubled_quotes_anywhere_in_a_literal() {
        for (sql, value) in [
            ("''", ""),
            ("''''", "'"),
            ("'''a'", "'a"),
            ("'a'''", "a'"),
            ("'''a'''", "'a'"),
            ("'a''''b'", "a''b"),
            ("'héllo — 日本''語'", "héllo — 日本'語"),
        ] {
            assert_eq!(
                kinds(sql),
                [TokenKind::String(value.into()), TokenKind::Eof],
                "{sql}"
            );
        }
        assert_eq!(
            kinds(r#""Ça ""va"" 日本""#),
            [TokenKind::Ident(r#"Ça "va" 日本"#.into()), TokenKind::Eof]
        );
        assert!(tokenize("'日本''").is_err());
        assert!(tokenize(r#""日本"""#).is_err());
    }

    #[test]
    fn keywords_in_any_case_and_longer_words_as_identifiers() {
        assert_eq!(
            kinds("SeLeCt DISTINCT intersect INTERSECTS selec intersection_count_total"),
            [
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Keyword(Keyword::Distinct),
                TokenKind::Keyword(Keyword::Intersect),
                TokenKind::Ident("intersects".into()),
                TokenKind::Ident("selec".into()),
                TokenKind::Ident("intersection_count_total".into()),
                TokenKind::Eof,
            ]
        );
        assert_eq!(Keyword::LONGEST, "intersect".len());
        // A quoted identifier is never a keyword.
        assert_eq!(kinds(r#""Select""#)[0], TokenKind::Ident("Select".into()));
        assert_eq!(kinds(r#""select""#)[0], TokenKind::Ident("select".into()));
    }

    #[test]
    fn rejects_numbers_that_are_not_finite() {
        let long = "9".repeat(400);
        for sql in ["1e999", "1.5E+400", &long, &format!("{long}.5")] {
            let err = tokenize(sql).expect_err(sql);
            assert!(err.message.contains("not a finite number"), "{sql}: {err}");
            assert_eq!(err.offset, 0);
        }
        assert_eq!(kinds("1e308")[0], TokenKind::Float(1e308));
        assert_eq!(kinds("1e-999")[0], TokenKind::Float(0.0));
    }

    #[test]
    fn lexes_quoted_identifiers_preserving_case() {
        assert_eq!(
            kinds("\"MyTable\"")[0],
            TokenKind::Ident("MyTable".to_string())
        );
    }

    #[test]
    fn unquoted_identifiers_are_lowercased() {
        assert_eq!(kinds("Trips")[0], TokenKind::Ident("trips".to_string()));
    }

    #[test]
    fn skips_line_and_block_comments() {
        let ks = kinds("SELECT -- comment\n 1 /* block\n comment */ + 2");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Integer(1),
                TokenKind::Plus,
                TokenKind::Integer(2),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("SELECT 'oops").is_err());
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        assert!(tokenize("SELECT /* oops").is_err());
    }

    #[test]
    fn rejects_stray_bang() {
        assert!(tokenize("SELECT a ! b").is_err());
    }

    #[test]
    fn spans_cover_source() {
        let toks = tokenize("SELECT ab").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 6));
        assert_eq!(toks[1].span, Span::new(7, 9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The lexer never panics and always terminates on arbitrary input.
        #[test]
        fn lexer_total_on_arbitrary_input(s in "\\PC{0,120}") {
            let _ = tokenize(&s);
        }

        /// Tokenizing valid identifier/number/string soup succeeds and the
        /// spans are monotone and in bounds.
        #[test]
        fn spans_are_monotone(
            parts in proptest::collection::vec(
                prop_oneof![
                    "[a-z]{1,8}".prop_map(|s| s),
                    "[0-9]{1,6}".prop_map(|s| s),
                    Just("'str'".to_string()),
                    Just("<=".to_string()),
                    Just("(".to_string()),
                ],
                0..20,
            )
        ) {
            let src = parts.join(" ");
            let toks = tokenize(&src).unwrap();
            let mut prev_end = 0;
            for t in &toks {
                prop_assert!(t.span.start >= prev_end || t.kind == TokenKind::Eof);
                prop_assert!(t.span.end <= src.len());
                prev_end = t.span.start;
            }
            prop_assert_eq!(&toks.last().unwrap().kind, &TokenKind::Eof);
        }
    }
}
