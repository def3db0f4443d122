//! SQL tokenizer.

use std::fmt;

/// Lexical / syntactic errors, with a byte offset into the query text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SqlError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl SqlError {
    pub(crate) fn new(message: impl Into<String>, offset: usize) -> SqlError {
        SqlError { message: message.into(), offset }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SqlError {}

/// One token, with its source offset. It borrows the query text.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub offset: usize,
}

/// Token kinds. Keywords are case-insensitive and lexed as [`TokenKind::Word`]
/// then matched by the parser; operators and punctuation get their own
/// variants. Nothing is copied out of the query text: a token is a slice
/// of it, a number or a mark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword, as written.
    Word(&'a str),
    /// Integer literal.
    Number(i64),
    /// String literal: the text between the quotes, each `''` still
    /// doubled (see [`unescape`]).
    Str(&'a str),
    LParen,
    RParen,
    Comma,
    /// `.` — qualified column references (`table.column`).
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// End of input.
    Eof,
}

/// The text of a [`TokenKind::Str`] literal, `''` unescaped: the one
/// allocation a string literal costs.
pub fn unescape(raw: &str) -> String {
    raw.replace("''", "'")
}

/// Tokenize a query string.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, SqlError> {
    let bytes = input.as_bytes();
    // A token and the blank after it take four bytes or more in the
    // statements the workspace sends, so their tokens fit one allocation.
    let mut out = Vec::with_capacity(input.len() / 4 + 2);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        let (kind, len) = match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                continue;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // `--` starts a comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            '(' => (TokenKind::LParen, 1),
            ')' => (TokenKind::RParen, 1),
            ',' => (TokenKind::Comma, 1),
            '.' => (TokenKind::Dot, 1),
            '*' => (TokenKind::Star, 1),
            '+' => (TokenKind::Plus, 1),
            '-' => (TokenKind::Minus, 1),
            '/' => (TokenKind::Slash, 1),
            '%' => (TokenKind::Percent, 1),
            '=' => (TokenKind::Eq, 1),
            '!' if bytes.get(i + 1) == Some(&b'=') => (TokenKind::NotEq, 2),
            '!' => return Err(SqlError::new("expected '=' after '!'", start)),
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => (TokenKind::LtEq, 2),
                Some(&b'>') => (TokenKind::NotEq, 2),
                _ => (TokenKind::Lt, 1),
            },
            '>' if bytes.get(i + 1) == Some(&b'=') => (TokenKind::GtEq, 2),
            '>' => (TokenKind::Gt, 1),
            '\'' => {
                // A quote byte is never part of a multi-byte character, so
                // the literal ends at the first quote that is not doubled.
                let mut j = i + 1;
                loop {
                    match bytes.get(j) {
                        None => return Err(SqlError::new("unterminated string literal", start)),
                        Some(&b'\'') if bytes.get(j + 1) == Some(&b'\'') => j += 2,
                        Some(&b'\'') => break,
                        Some(_) => j += 1,
                    }
                }
                (TokenKind::Str(&input[i + 1..j]), j + 1 - i)
            }
            '0'..='9' => {
                let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                let n: i64 = input[i..i + len]
                    .parse()
                    .map_err(|_| SqlError::new("integer literal out of range", start))?;
                (TokenKind::Number(n), len)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let len = bytes[i..]
                    .iter()
                    .take_while(|&&b| b.is_ascii_alphanumeric() || b == b'_')
                    .count();
                (TokenKind::Word(&input[i..i + len]), len)
            }
            other => {
                return Err(SqlError::new(format!("unexpected character {other:?}"), start));
            }
        };
        out.push(Token { kind, offset: start });
        i += len;
    }
    out.push(Token { kind: TokenKind::Eof, offset: input.len() });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind<'_>> {
        lex(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_and_numbers() {
        let k = kinds("SELECT x FROM t WHERE x >= 10");
        assert_eq!(k[0], TokenKind::Word("SELECT"));
        assert_eq!(k[1], TokenKind::Word("x"));
        assert!(k.contains(&TokenKind::GtEq));
        assert!(k.contains(&TokenKind::Number(10)));
        assert_eq!(*k.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn strings_with_escapes() {
        let k = kinds("'it''s' ''''");
        assert_eq!(k[0], TokenKind::Str("it''s"));
        assert_eq!(unescape("it''s"), "it's");
        assert_eq!(k[1], TokenKind::Str("''"));
        assert_eq!(unescape("''"), "'");
    }

    #[test]
    fn unicode_strings() {
        let k = kinds("'héllo✓'");
        assert_eq!(k[0], TokenKind::Str("héllo✓"));
    }

    #[test]
    fn operators() {
        let k = kinds("= != <> < <= > >= + - * / %");
        assert_eq!(
            k,
            vec![
                TokenKind::Eq,
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::Lt,
                TokenKind::LtEq,
                TokenKind::Gt,
                TokenKind::GtEq,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("SELECT 1 -- trailing comment\n, 2");
        assert!(k.contains(&TokenKind::Number(2)));
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("'unterminated''").is_err());
        assert!(lex("!x").is_err());
        assert!(lex("99999999999999999999999").is_err());
        assert!(lex("@").is_err());
    }

    #[test]
    fn offsets_recorded() {
        let toks = lex("SELECT  x").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 8);
    }
}
