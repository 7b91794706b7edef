//! Parser robustness: no input — valid, mangled, or random — may panic the
//! frontend; it either parses or returns a positioned error.

use proptest::prelude::*;

use acq_sql::{parse, tokenize, TokenKind};

/// Whether every `Number` token the lexer returns for `s` is finite (vacuous
/// when `s` does not lex): an infinite bound would reach the search as a
/// NaN interval.
fn numbers_are_finite(s: &str) -> bool {
    tokenize(s).map_or(true, |tokens| {
        tokens
            .iter()
            .all(|t| !matches!(t.kind, TokenKind::Number(n) if !n.is_finite()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Arbitrary unicode strings never panic the lexer or parser.
    #[test]
    fn arbitrary_strings_never_panic(s in "\\PC{0,200}") {
        prop_assert!(numbers_are_finite(&s), "{s:?}");
        let _ = parse(&s);
    }

    /// Numeric literals of every shape — signs, fractions, exponents up to
    /// three digits either way, magnitude suffixes — lex to finite numbers
    /// or to a positioned error at the literal's first byte, never to an
    /// infinity.
    #[test]
    fn numeric_literals_are_finite_or_rejected(
        negative in any::<bool>(),
        mantissa in "[0-9]{1,4}",
        fraction in prop::sample::select(vec!["", ".", ".5", ".125"]),
        exponent in prop::sample::select(vec![
            None, Some(-400i32), Some(-5), Some(0), Some(3), Some(305), Some(308), Some(309),
            Some(999),
        ]),
        suffix in prop::sample::select(vec!["", "K", "M", "B"]),
    ) {
        let sign = if negative { "-" } else { "" };
        let exp = exponent.map(|e| format!("e{e}")).unwrap_or_default();
        let s = format!("age <= {sign}{mantissa}{fraction}{exp}{suffix}");
        prop_assert!(numbers_are_finite(&s), "{s}");
        if let Err(e) = tokenize(&s) {
            // The literal's token starts at byte 7, at its `-` if it has one.
            prop_assert_eq!(e.offset, 7, "{}", s);
        }
    }

    /// Strings built from the dialect's own vocabulary (keywords, operators,
    /// numbers, names) — much likelier to get deep into the parser — never
    /// panic either, and errors carry an in-bounds offset.
    #[test]
    fn dialect_soup_never_panics(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "SELECT", "FROM", "WHERE", "CONSTRAINT", "NOREFINE", "AND", "IN",
                "COUNT", "SUM", "AVG", "STDDEV", "(", ")", "{", "}", "*", ",",
                "<=", ">=", "<", ">", "=", ".", "users", "age", "t.x", "'str'",
                "1", "2.5", "1M", "0.1K", "1e309", "1e306M", ";",
            ]),
            0..30,
        )
    ) {
        let s = parts.join(" ");
        match parse(&s) {
            Ok(ast) => prop_assert!(!ast.tables.is_empty()),
            Err(e) => prop_assert!(e.offset <= s.len(), "offset {} > len {}", e.offset, s.len()),
        }
    }

    /// Mutating one byte of a valid statement never panics (it may still
    /// parse, e.g. a digit change).
    #[test]
    fn single_byte_mutations_never_panic(pos in 0usize..100, byte in 0u8..128) {
        let base = "SELECT * FROM users CONSTRAINT COUNT(*) = 1M \
                    WHERE 25 <= age <= 35 AND city IN ('Boston') NOREFINE";
        let mut bytes = base.as_bytes().to_vec();
        let idx = pos % bytes.len();
        bytes[idx] = byte;
        if let Ok(s) = String::from_utf8(bytes) {
            let _ = parse(&s);
        }
    }
}
