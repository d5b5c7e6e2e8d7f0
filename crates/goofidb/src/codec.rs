//! The byte-level text codec shared by every GOOFI text format.
//!
//! Four formats carry arbitrary text inside tab-separated, newline-ended
//! lines: the database dump of this crate, the experiment journal, the
//! golden-run cache and the service's GF1 wire frames. All four use the
//! same escape (`\\`, tab, newline and carriage return become `\\`, `\t`,
//! `\n` and `\r`) and the same checksum (32-bit FNV-1a), and all four go
//! through this module, so their bytes cannot drift apart.
//!
//! The escape characters are ASCII, so every function here works on
//! bytes: runs of plain bytes (any UTF-8, multi-byte or not) are copied
//! whole, and the scan stops only at the four bytes that need work.

use crate::DbError;
use std::convert::Infallible;

/// FNV-1a offset basis: the hash of no bytes, and the seed of
/// [`fnv1a_update`].
pub const FNV1A_INIT: u32 = 0x811c_9dc5;

/// 32-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_update(FNV1A_INIT, bytes)
}

/// Folds `bytes` into a running FNV-1a `hash`, so a checksum over text
/// read in pieces equals [`fnv1a`] of the pieces joined.
pub fn fnv1a_update(hash: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// Appends `s` to `out` with backslash, tab, newline and carriage return
/// escaped.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(at) = find(bytes, run, escape_mask, needs_escape) {
        out.push_str(&s[run..at]);
        out.push_str(match bytes[at] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        run = at + 1;
    }
    out.push_str(&s[run..]);
}

/// `s` with [`escape_into`] applied.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Reverses [`escape`]. An unknown escape or a trailing backslash is an
/// error: the dump this crate writes never contains one.
///
/// # Errors
///
/// [`DbError::Execution`] naming the bad escape.
pub fn unescape(s: &str) -> Result<String, DbError> {
    scan_escapes(s, |_, bad| {
        Err(DbError::Execution(format!(
            "bad escape `\\{}`",
            bad.map(String::from).unwrap_or_default()
        )))
    })
}

/// Reverses [`escape`], passing an unknown escape's character through and
/// dropping a trailing backslash — the journal's tolerant reading.
pub fn unescape_lenient(s: &str) -> String {
    let result: Result<String, Infallible> = scan_escapes(s, |out, bad| {
        out.extend(bad);
        Ok(())
    });
    match result {
        Ok(text) => text,
        Err(never) => match never {},
    }
}

/// The scanner under both unescapes: copies plain runs, decodes the four
/// known escapes, and hands anything else to `unknown` — the character
/// after the backslash, or `None` for a backslash that ends the input.
fn scan_escapes<E>(
    s: &str,
    mut unknown: impl FnMut(&mut String, Option<char>) -> Result<(), E>,
) -> Result<String, E> {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut run = 0;
    while let Some(at) = find(bytes, run, |word| byte_mask(word, b'\\'), |b| b == b'\\') {
        out.push_str(&s[run..at]);
        let decoded = match bytes.get(at + 1) {
            Some(b'\\') => '\\',
            Some(b't') => '\t',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(_) => {
                let c = s[at + 1..].chars().next();
                unknown(&mut out, c)?;
                run = at + 1 + c.map_or(0, char::len_utf8);
                continue;
            }
            None => {
                unknown(&mut out, None)?;
                return Ok(out);
            }
        };
        out.push(decoded);
        run = at + 2;
    }
    out.push_str(&s[run..]);
    Ok(out)
}

fn needs_escape(b: u8) -> bool {
    matches!(b, b'\\' | b'\t' | b'\n' | b'\r')
}

/// [`byte_mask`] for every byte [`needs_escape`] accepts.
fn escape_mask(word: u64) -> u64 {
    byte_mask(word, b'\\')
        | byte_mask(word, b'\t')
        | byte_mask(word, b'\n')
        | byte_mask(word, b'\r')
}

const LANES: u64 = 0x0101_0101_0101_0101;

/// Sets the high bit of the bytes of `word` that equal `byte`. Exact up to
/// the lowest match; a borrow may also mark bytes above it, which the
/// callers never look at.
fn byte_mask(word: u64, byte: u8) -> u64 {
    let diff = word ^ (LANES * u64::from(byte));
    diff.wrapping_sub(LANES) & !diff & (LANES << 7)
}

/// Index of the first byte at or after `from` that `hit` accepts. The scan
/// loads eight bytes at a time (little-endian, so the lowest mask bit is
/// the earliest byte); `mask` must mark a word's accepted bytes as
/// [`byte_mask`] does.
fn find(
    bytes: &[u8],
    from: usize,
    mask: impl Fn(u64) -> u64,
    hit: impl Fn(u8) -> bool,
) -> Option<usize> {
    let mut chunks = bytes[from..].chunks_exact(8);
    let mut at = from;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks of eight bytes"));
        let marked = mask(word);
        if marked != 0 {
            return Some(at + (marked.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let tail = chunks.remainder();
    tail.iter().position(|&b| hit(b)).map(|i| at + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip_and_unknown_escapes_split_the_two_readings() {
        for s in [
            "plain",
            "tab\tnl\ncr\rback\\slash",
            "",
            "trailing\\",
            "é✓\t𝄞",
        ] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
            assert_eq!(unescape_lenient(&escape(s)), s);
        }
        assert_eq!(unescape_lenient("a\\qb\\é\\"), "aqbé");
        assert!(unescape("a\\qb").is_err());
        assert!(unescape("a\\").is_err());
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a_update(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
