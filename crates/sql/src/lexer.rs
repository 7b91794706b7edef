//! Tokenizer for the ACQ SQL dialect.

use crate::error::ParseError;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword or identifier (keywords are recognised case-insensitively by
    /// the parser; the original spelling is preserved).
    Ident(String),
    /// Numeric literal, with `K`/`M`/`B` suffixes already applied.
    Number(f64),
    /// Single-quoted string literal.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

/// A token with its source offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the token start.
    pub offset: usize,
}

/// Tokenizes `input`.
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            '{' => {
                tokens.push(Token {
                    kind: TokenKind::LBrace,
                    offset: start,
                });
                i += 1;
            }
            '}' => {
                tokens.push(Token {
                    kind: TokenKind::RBrace,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                // A leading-dot float like `.5` or a qualifier dot.
                if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    let (n, len) = lex_number(&input[i..], start)?;
                    tokens.push(Token {
                        kind: TokenKind::Number(n),
                        offset: start,
                    });
                    i += len;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Dot,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                i += 1; // trailing statement terminator is ignored
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '\'' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ParseError::new(start, "unterminated string literal"));
                }
                tokens.push(Token {
                    kind: TokenKind::Str(input[i + 1..j].to_string()),
                    offset: start,
                });
                i = j + 1;
            }
            '0'..='9' => {
                let (n, len) = lex_number(&input[i..], start)?;
                tokens.push(Token {
                    kind: TokenKind::Number(n),
                    offset: start,
                });
                i += len;
            }
            '-' => {
                // Negative numeric literal.
                if i + 1 < bytes.len() && (bytes[i + 1].is_ascii_digit() || bytes[i + 1] == b'.') {
                    let (n, len) = lex_number(&input[i + 1..], start)?;
                    tokens.push(Token {
                        kind: TokenKind::Number(-n),
                        offset: start,
                    });
                    i += 1 + len;
                } else {
                    return Err(ParseError::new(start, "unexpected '-'"));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(input[i..j].to_string()),
                    offset: start,
                });
                i = j;
            }
            other => {
                return Err(ParseError::new(
                    start,
                    format!("unexpected character {other:?}"),
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

/// Lexes a number with optional decimal part, exponent, and `K`/`M`/`B`
/// magnitude suffix (`0.1M` = 100,000 as in the paper's Q2'). Returns the
/// value and consumed byte length.
fn lex_number(s: &str, offset: usize) -> Result<(f64, usize), ParseError> {
    let bytes = s.as_bytes();
    let mut j = 0usize;
    while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
        j += 1;
    }
    // Exponent.
    if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
        let mut k = j + 1;
        if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
            k += 1;
        }
        if k < bytes.len() && bytes[k].is_ascii_digit() {
            j = k;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
        }
    }
    let base: f64 = s[..j]
        .parse()
        .map_err(|_| ParseError::new(offset, format!("invalid number {:?}", &s[..j])))?;
    // Magnitude suffix.
    let mut len = j;
    let mut value = base;
    if j < bytes.len() {
        let suffix = (bytes[j] as char).to_ascii_uppercase();
        let next_is_word = j + 1 < bytes.len()
            && ((bytes[j + 1] as char).is_ascii_alphanumeric() || bytes[j + 1] == b'_');
        if !next_is_word {
            match suffix {
                'K' => {
                    value = base * 1e3;
                    len = j + 1;
                }
                'M' => {
                    value = base * 1e6;
                    len = j + 1;
                }
                'B' => {
                    value = base * 1e9;
                    len = j + 1;
                }
                _ => {}
            }
        }
    }
    // `1e309`, or a suffix that overflows (`1e306M`), reads as infinity:
    // no bound can be refined from it.
    if !value.is_finite() {
        return Err(ParseError::new(offset, "numeric literal out of range"));
    }
    Ok((value, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
        tokenize(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT * FROM t"),
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Star,
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("a <= 1 >= < >"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Le,
                TokenKind::Number(1.0),
                TokenKind::Ge,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn magnitude_suffixes() {
        assert_eq!(kinds("1M"), vec![TokenKind::Number(1e6), TokenKind::Eof]);
        assert_eq!(kinds("0.1M"), vec![TokenKind::Number(1e5), TokenKind::Eof]);
        assert_eq!(
            kinds("25k"),
            vec![TokenKind::Number(25_000.0), TokenKind::Eof]
        );
        assert_eq!(kinds("2B"), vec![TokenKind::Number(2e9), TokenKind::Eof]);
        // A suffix followed by more word characters is part of an identifier
        // boundary problem; `1Max` is not `1M ax`.
        let t = tokenize("1Max").unwrap();
        assert_eq!(t[0].kind, TokenKind::Number(1.0));
        assert_eq!(t[1].kind, TokenKind::Ident("Max".into()));
    }

    #[test]
    fn strings_and_lists() {
        assert_eq!(
            kinds("('Boston', 'New York')"),
            vec![
                TokenKind::LParen,
                TokenKind::Str("Boston".into()),
                TokenKind::Comma,
                TokenKind::Str("New York".into()),
                TokenKind::RParen,
                TokenKind::Eof
            ]
        );
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn qualified_names_and_floats() {
        assert_eq!(
            kinds("a.b 1.5 .5"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Dot,
                TokenKind::Ident("b".into()),
                TokenKind::Number(1.5),
                TokenKind::Number(0.5),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn negative_numbers_and_exponents() {
        assert_eq!(kinds("-2.5"), vec![TokenKind::Number(-2.5), TokenKind::Eof]);
        assert_eq!(
            kinds("1e3"),
            vec![TokenKind::Number(1000.0), TokenKind::Eof]
        );
        assert_eq!(kinds("2E-2"), vec![TokenKind::Number(0.02), TokenKind::Eof]);
    }

    #[test]
    fn out_of_range_literals_are_positioned_errors() {
        // An overflowing exponent, an overflowing suffix, and a negative
        // literal (positioned at its `-`, where its token starts).
        for (sql, offset) in [("age <= 1e309", 7), ("x < 1e306M", 4), ("y > -2e308", 4)] {
            let err = tokenize(sql).unwrap_err();
            assert_eq!(err.offset, offset, "{sql}");
            assert_eq!(err.message, "numeric literal out of range", "{sql}");
        }
        assert_eq!(
            kinds("1.7e308"),
            vec![TokenKind::Number(1.7e308), TokenKind::Eof]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("a @ b").is_err());
        assert!(tokenize("a - b").is_err());
    }

    #[test]
    fn semicolon_ignored() {
        assert_eq!(
            kinds("a;"),
            vec![TokenKind::Ident("a".into()), TokenKind::Eof]
        );
    }
}
