//! The byte-level codec against the `char`-at-a-time functions it
//! replaced, kept here as reference implementations: on arbitrary text
//! both must give the same output, so files stay byte-identical.

use goofidb::codec::{escape, escape_into, fnv1a, fnv1a_update, unescape, unescape_lenient};
use proptest::prelude::*;

fn reference_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// The database dump's strict reading: an unknown escape is an error.
fn reference_unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(format!(
                    "bad escape `\\{}`",
                    other.map(String::from).unwrap_or_default()
                ))
            }
        }
    }
    Ok(out)
}

/// The journal's lenient reading: an unknown escape passes its character
/// through and a trailing backslash is dropped.
fn reference_unescape_lenient(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn reference_fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Text dense in what the codec must get right: the four escaped bytes,
/// backslashes before both known and unknown escape letters, multi-byte
/// UTF-8 (two, three and four bytes), and long plain runs of `0`/`1`
/// that cross the scanner's eight-byte words.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[a\\\\tnrqx\\t\\n\\ré✓𝄞]{1,3}",
            "[01]{1,40}",
            Just("\\".to_string()),
        ],
        0..24,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #[test]
    fn escape_matches_the_reference(s in text(), prefix in "[a-z]{0,3}") {
        prop_assert_eq!(escape(&s), reference_escape(&s));
        let mut out = prefix.clone();
        escape_into(&mut out, &s);
        prop_assert_eq!(out, prefix + &reference_escape(&s));
    }

    #[test]
    fn both_unescapes_match_their_references(s in text()) {
        // Raw text, not only escape output: unknown escapes, lone and
        // trailing backslashes and escapes before multi-byte characters.
        prop_assert_eq!(
            unescape(&s).map_err(|e| e.to_string()),
            reference_unescape(&s).map_err(|e| format!("execution error: {e}"))
        );
        prop_assert_eq!(unescape_lenient(&s), reference_unescape_lenient(&s));
        let escaped = escape(&s);
        prop_assert_eq!(unescape(&escaped).unwrap(), s.clone());
        prop_assert_eq!(unescape_lenient(&escaped), s);
    }

    #[test]
    fn streamed_fnv1a_matches_the_one_shot_reference(
        s in text(),
        cuts in proptest::collection::vec(0usize..1000, 0..4),
    ) {
        let bytes = s.as_bytes();
        prop_assert_eq!(fnv1a(bytes), reference_fnv1a(bytes));
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut hash = fnv1a(&[]);
        let mut from = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            hash = fnv1a_update(hash, &bytes[from..cut]);
            from = cut;
        }
        prop_assert_eq!(hash, reference_fnv1a(bytes));
    }
}
