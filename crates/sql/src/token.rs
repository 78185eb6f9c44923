//! Token definitions produced by the [`lexer`](crate::lexer).

use std::fmt;

/// A lexical token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

/// Byte-offset range of a token in the original SQL text.
///
/// Spans are half-open: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// The kind of a lexical token.
///
/// Keywords are lexed as [`TokenKind::Keyword`]; the parser matches on the
/// [`Keyword`] enum rather than on raw identifier text, so keyword
/// recognition is case-insensitive but exact.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Unquoted identifier (already lower-cased) or quoted identifier
    /// (case preserved).
    Ident(String),
    /// A recognized SQL keyword.
    Keyword(Keyword),
    /// Integer literal, e.g. `42`.
    Integer(i64),
    /// Floating point literal, e.g. `3.5` or `1e-8`.
    Float(f64),
    /// Single-quoted string literal with escapes resolved.
    String(String),
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// End of input sentinel.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Integer(v) => write!(f, "integer `{v}`"),
            TokenKind::Float(v) => write!(f, "float `{v}`"),
            TokenKind::String(s) => write!(f, "string '{s}'"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::NotEq => f.write_str("`<>`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::LtEq => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::GtEq => f.write_str("`>=`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::Percent => f.write_str("`%`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Dot => f.write_str("`.`"),
            TokenKind::Semicolon => f.write_str("`;`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

macro_rules! keywords {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// All SQL keywords recognized by the lexer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Keyword {
            $($variant),+
        }

        impl Keyword {
            /// Length of the longest keyword: a longer word is an identifier.
            pub const LONGEST: usize = {
                let mut longest = 0;
                $(if $text.len() > longest {
                    longest = $text.len();
                })+
                longest
            };

            /// Look up a keyword from (already lower-cased) identifier text.
            pub fn from_str_lower(s: &str) -> Option<Keyword> {
                match s {
                    $($text => Some(Keyword::$variant),)+
                    _ => None,
                }
            }

            /// The canonical (upper-case) spelling used by the printer.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text,)+
                }
            }
        }
    };
}

keywords! {
    Select => "select",
    From => "from",
    Where => "where",
    Group => "group",
    By => "by",
    Having => "having",
    Order => "order",
    Limit => "limit",
    Offset => "offset",
    As => "as",
    On => "on",
    Using => "using",
    Join => "join",
    Inner => "inner",
    Left => "left",
    Right => "right",
    Full => "full",
    Outer => "outer",
    Cross => "cross",
    Union => "union",
    Intersect => "intersect",
    Except => "except",
    Minus => "minus",
    All => "all",
    Distinct => "distinct",
    With => "with",
    And => "and",
    Or => "or",
    Not => "not",
    In => "in",
    Between => "between",
    Like => "like",
    Is => "is",
    Null => "null",
    True => "true",
    False => "false",
    Case => "case",
    When => "when",
    Then => "then",
    Else => "else",
    End => "end",
    Exists => "exists",
    Cast => "cast",
    Asc => "asc",
    Desc => "desc",
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str().to_ascii_uppercase())
    }
}
