//! Lexical preprocessing shared by the panic ratchet and the invariant
//! audit.
//!
//! Full Rust parsing is overkill (and unavailable offline), but naive
//! substring counting would flag `panic!` inside doc comments and string
//! literals. The middle road: [`mask`] blanks out comments and literal
//! contents while preserving byte offsets and newlines, and
//! [`strip_cfg_test`] additionally blanks items annotated `#[cfg(test)]`.
//! Downstream analyses then work on the masked text with simple token
//! scans.

/// Replaces comments, string/char-literal contents, and literal delimiters
/// with spaces. Newlines survive so byte offsets and line numbers stay
/// meaningful. Handles line and (nested) block comments, plain and raw
/// (byte) strings, char literals, and lifetimes.
pub fn mask(src: &str) -> String {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < n {
        match bytes[i] {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                while i < n && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < n {
                    if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => i = mask_string(bytes, &mut out, i),
            b'r' | b'b' if !prev_is_ident(bytes, i) => {
                if let Some(next) = raw_or_byte_string(bytes, i) {
                    i = next_masked(bytes, &mut out, i, next);
                } else {
                    i += 1;
                }
            }
            b'\'' => i = mask_char_or_lifetime(bytes, &mut out, i),
            _ => i += 1,
        }
    }
    // The scan above never splits multi-byte UTF-8 sequences: masking only
    // rewrites regions delimited by ASCII bytes, and any multi-byte
    // character inside such a region is replaced wholesale.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// If `bytes[i..]` starts a raw string (`r"`, `r#"`, `br#"`, …) or byte
/// string (`b"`), returns the exclusive end offset of the whole literal.
fn raw_or_byte_string(bytes: &[u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j >= n {
            return None;
        }
    }
    if bytes[j] == b'"' {
        // b"..." — an escaped (non-raw) byte string.
        return Some(end_of_escaped_string(bytes, j));
    }
    if bytes[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < n && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || bytes[j] != b'"' {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while j < n {
        if bytes[j] == b'"'
            && bytes[j + 1..].len() >= hashes
            && bytes[j + 1..j + 1 + hashes].iter().all(|&b| b == b'#')
        {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(n)
}

/// Exclusive end of an escaped string literal whose opening quote is at
/// `open`.
fn end_of_escaped_string(bytes: &[u8], open: usize) -> usize {
    let n = bytes.len();
    let mut j = open + 1;
    while j < n {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

fn mask_string(bytes: &[u8], out: &mut [u8], i: usize) -> usize {
    next_masked(bytes, out, i, end_of_escaped_string(bytes, i))
}

/// Blanks `out[i..end]` (keeping newlines) and returns `end`.
fn next_masked(bytes: &[u8], out: &mut [u8], i: usize, end: usize) -> usize {
    for (j, b) in bytes.iter().enumerate().take(end.min(bytes.len())).skip(i) {
        if *b != b'\n' {
            out[j] = b' ';
        }
    }
    end
}

/// Distinguishes `'a'` / `'\n'` / `'"'` (masked) from `'static` lifetimes
/// (kept). A char literal holds exactly one (possibly escaped, possibly
/// multi-byte) character before its closing quote; anything else after a
/// lone `'` is a lifetime or loop label.
fn mask_char_or_lifetime(bytes: &[u8], out: &mut [u8], i: usize) -> usize {
    let n = bytes.len();
    if i + 1 >= n || bytes[i + 1] == b'\'' {
        return i + 1;
    }
    if bytes[i + 1] == b'\\' {
        // Escaped char literal: find the closing quote.
        let mut j = i + 2;
        while j < n && bytes[j] != b'\'' {
            j += if bytes[j] == b'\\' { 2 } else { 1 };
        }
        return next_masked(bytes, out, i, (j + 1).min(n));
    }
    // UTF-8 length of the content character from its lead byte.
    let len = match bytes[i + 1] {
        b if b < 0x80 => 1,
        b if b & 0xE0 == 0xC0 => 2,
        b if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    };
    let close = i + 1 + len;
    if close < n && bytes[close] == b'\'' {
        return next_masked(bytes, out, i, close + 1);
    }
    // A lifetime (or `'` in macro position): leave it.
    i + 1
}

/// Blanks every item guarded by a `#[cfg(test)]`-style attribute in
/// *masked* source: the attribute itself, any stacked attributes after it,
/// and the following item up to its closing `}` (or `;` for bodiless
/// items).
pub fn strip_cfg_test(masked: impl AsRef<str>) -> String {
    let masked = masked.as_ref();
    let bytes = masked.as_bytes();
    let n = bytes.len();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < n {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let Some(attr_end) = attribute_end(bytes, i) else {
            i += 1;
            continue;
        };
        let attr: String = masked[i..attr_end]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        if !(attr.contains("cfg(test)") || attr.contains("cfg(all(test")) {
            i = attr_end;
            continue;
        }
        // Blank the attribute, any stacked attributes, and the item.
        let mut j = attr_end;
        loop {
            while j < n && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < n && bytes[j] == b'#' {
                match attribute_end(bytes, j) {
                    Some(e) => j = e,
                    None => break,
                }
            } else {
                break;
            }
        }
        while j < n && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if j < n && bytes[j] == b'{' {
            let mut depth = 0usize;
            while j < n {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        } else if j < n {
            j += 1; // past the `;`
        }
        for (k, b) in bytes.iter().enumerate().take(j).skip(i) {
            if *b != b'\n' {
                out[k] = b' ';
            }
        }
        i = j;
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Exclusive end of the `#[...]` attribute starting at `i`, bracket-matched.
fn attribute_end(bytes: &[u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    let mut j = i + 1;
    if j < n && bytes[j] == b'!' {
        j += 1;
    }
    if j >= n || bytes[j] != b'[' {
        return None;
    }
    let mut depth = 0usize;
    while j < n {
        match bytes[j] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// An identifier token in masked source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ident<'a> {
    /// The identifier text.
    pub text: &'a str,
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

/// Iterates identifier tokens (`[A-Za-z_][A-Za-z0-9_]*`) in masked source.
pub fn idents(masked: &str) -> impl Iterator<Item = Ident<'_>> {
    let bytes = masked.as_bytes();
    let n = bytes.len();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < n {
            let b = bytes[i];
            if b.is_ascii_alphabetic() || b == b'_' {
                let start = i;
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                return Some(Ident {
                    text: &masked[start..i],
                    start,
                    end: i,
                });
            }
            // Skip over multi-byte characters without splitting them.
            i += 1;
            while i < n && bytes[i] & 0xC0 == 0x80 {
                i += 1;
            }
        }
        None
    })
}

/// First non-whitespace byte at or after `i`.
pub fn next_nonspace(masked: &str, i: usize) -> Option<u8> {
    masked.as_bytes()[i..]
        .iter()
        .copied()
        .find(|b| !b.is_ascii_whitespace())
}

/// Last non-whitespace byte strictly before `i`.
pub fn prev_nonspace(masked: &str, i: usize) -> Option<u8> {
    masked.as_bytes()[..i]
        .iter()
        .copied()
        .rev()
        .find(|b| !b.is_ascii_whitespace())
}

/// Product lines of one source file: the lines before its first
/// `#[cfg(test)]` attribute, or all its lines when it has none. A mention
/// of the attribute in a comment or a string does not end the count.
pub fn product_lines(src: &str) -> usize {
    let masked = mask(src);
    match masked.find("#[cfg(test)]") {
        Some(at) => line_of(&masked, at) - 1,
        None => src.lines().count(),
    }
}

/// 1-based line number of byte offset `at`.
pub fn line_of(text: &str, at: usize) -> usize {
    text.as_bytes()[..at.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"panic!\"; // unwrap()\n/* expect( */ real();";
        let m = mask(src);
        assert!(!m.contains("panic"));
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("expect"));
        assert!(m.contains("real()"));
        assert_eq!(m.len(), src.len());
    }

    #[test]
    fn masks_raw_and_byte_strings() {
        let m = mask("let a = r#\"unwrap()\"#; let b = b\"panic!\"; go();");
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("panic"));
        assert!(m.contains("go()"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let m = mask("fn f<'a>(x: &'a str) { let c = 'p'; let d = '\\n'; }");
        assert!(m.contains("'a>"));
        assert!(m.contains("&'a str"));
        assert!(!m.contains("'p'"));
    }

    #[test]
    fn punctuation_char_literals_do_not_derail_string_state() {
        // A `'"'` misread as a lifetime would leave its quote live and
        // invert every string region after it.
        let m = mask("let q = s.trim_matches('\"'); let h = s.split('#'); \"unwrap()\"; live();");
        assert!(!m.contains("unwrap"), "{m}");
        assert!(m.contains("live()"));
        let m2 = mask("let c = 'µ'; after('x');");
        assert!(m2.contains("after"));
        assert!(!m2.contains("µ"));
    }

    #[test]
    fn nested_block_comments() {
        let m = mask("/* outer /* unwrap() */ still */ after");
        assert!(!m.contains("unwrap"));
        assert!(m.contains("after"));
    }

    #[test]
    fn strips_test_modules_and_stacked_attributes() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() { b.unwrap(); } }\nfn live2() {}";
        let s = strip_cfg_test(mask(src));
        assert!(s.contains("live"));
        assert!(s.contains("live2"));
        assert_eq!(s.matches("unwrap").count(), 1);
    }

    #[test]
    fn strips_bodiless_cfg_test_items() {
        let s = strip_cfg_test(mask("#[cfg(test)]\nuse helper::x;\nfn keep() {}"));
        assert!(!s.contains("helper"));
        assert!(s.contains("keep"));
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let s = strip_cfg_test(mask("#[cfg(not(test))]\nfn live() { x.unwrap(); }"));
        assert!(s.contains("unwrap"));
    }

    #[test]
    fn ident_iteration_reports_offsets() {
        let ids: Vec<_> = idents("a.unwrap() + µ_b")
            .map(|i| i.text.to_string())
            .collect();
        assert_eq!(ids, vec!["a", "unwrap", "_b"]);
    }

    #[test]
    fn line_numbers() {
        assert_eq!(line_of("a\nb\nc", 0), 1);
        assert_eq!(line_of("a\nb\nc", 4), 3);
    }
}
