//! The shared brace-aware tokenizer every analysis pass is built on.
//!
//! `decoy-xtask` deliberately has no dependencies, so this is not a real
//! Rust parser — it is the smallest token model that lets the passes reason
//! about *structure* instead of raw text:
//!
//! 1. [`strip`] blanks comments, string/char literals, and raw strings while
//!    preserving every byte position and newline, so spans computed on the
//!    stripped text map 1:1 onto the original file.
//! 2. [`tokenize`] turns the stripped text into a flat stream of
//!    identifiers, lifetimes, and single-byte punctuation, each carrying its
//!    byte span and 1-based line/column.
//! 3. [`functions`] recovers `fn` items (name, `async`-ness, brace-matched
//!    body extent in token indices) so passes can attribute findings and
//!    build call graphs.
//! 4. [`test_mask`] marks lines covered by `#[cfg(test)]` / `#[test]` items
//!    so production-only rules skip test code.
//!
//! Known (documented) approximations: macro bodies are tokenized like
//! ordinary code, and brace-carrying const-generic expressions inside
//! signatures can confuse body detection. All passes treat the model as
//! best-effort and pair it with an escape hatch + suppression baseline.

/// One lexical token over the stripped source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Byte offset of the token start in the (stripped == original) text.
    pub pos: usize,
    /// Byte length.
    pub len: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte offset within the line, plus one).
    pub col: usize,
}

/// What a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier, keyword, or numeric literal (`foo`, `fn`, `42`).
    Ident,
    /// A lifetime (`'a`) — kept distinct so `&'a [u8]` never reads as
    /// indexing and lifetimes never read as char literals.
    Lifetime,
    /// A single punctuation byte (`.`, `(`, `{`, `;`, …).
    Punct(u8),
}

impl Tok {
    /// The token's text, sliced out of the same string it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.pos..self.pos + self.len).unwrap_or_default()
    }

    /// True when the token is the identifier `word`.
    pub fn is_ident(&self, src: &str, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text(src) == word
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replace comments, string literals, and char literals with spaces,
/// preserving every byte position and all newlines. Handles nested block
/// comments, raw strings (`r"..."`, `r#"..."#`, `br#"..."#`), byte strings,
/// escapes, and distinguishes char literals from lifetimes.
pub fn strip(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut [u8], range: std::ops::Range<usize>| {
        for slot in out.get_mut(range).unwrap_or_default() {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };
    let mut i = 0usize;
    while i < b.len() {
        let c = b.get(i).copied().unwrap_or(0);
        let next = b.get(i + 1).copied().unwrap_or(0);
        // line comment
        if c == b'/' && next == b'/' {
            let start = i;
            while i < b.len() && b.get(i) != Some(&b'\n') {
                i += 1;
            }
            blank(&mut out, start..i);
            continue;
        }
        // block comment (nestable)
        if c == b'/' && next == b'*' {
            let start = i;
            let mut depth = 1u32;
            i += 2;
            while i < b.len() && depth > 0 {
                if b.get(i) == Some(&b'/') && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b.get(i) == Some(&b'*') && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, start..i);
            continue;
        }
        // raw / byte string prefixes: r", r#", b", br#", rb is invalid
        let prev_is_ident = i > 0 && b.get(i - 1).copied().is_some_and(is_ident_byte);
        if !prev_is_ident && (c == b'r' || c == b'b') {
            let mut j = i + 1;
            let mut raw = c == b'r';
            if c == b'b' && b.get(j) == Some(&b'r') {
                raw = true;
                j += 1;
            }
            if raw {
                let mut hashes = 0usize;
                while b.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&b'"') {
                    // raw string: scan for `"` + hashes `#`s
                    let start = i;
                    j += 1;
                    loop {
                        match b.get(j) {
                            None => break,
                            Some(&b'"') => {
                                let mut k = j + 1;
                                let mut seen = 0usize;
                                while seen < hashes && b.get(k) == Some(&b'#') {
                                    seen += 1;
                                    k += 1;
                                }
                                if seen == hashes {
                                    j = k;
                                    break;
                                }
                                j += 1;
                            }
                            _ => j += 1,
                        }
                    }
                    blank(&mut out, start..j);
                    i = j;
                    continue;
                }
                // `r#ident` (raw identifier) or bare `r`: leave as-is
                i += 1;
                continue;
            }
            // c == 'b': byte string b"..." or byte char b'...'
            if b.get(i + 1) == Some(&b'"') || b.get(i + 1) == Some(&b'\'') {
                // blank the prefix so `b"x"[..]` cannot read as indexing,
                // then fall through on the quote
                if let Some(slot) = out.get_mut(i) {
                    *slot = b' ';
                }
                i += 1;
                continue;
            }
            i += 1;
            continue;
        }
        // string literal
        if c == b'"' {
            let start = i;
            i += 1;
            while i < b.len() {
                match b.get(i) {
                    Some(&b'\\') => i += 2,
                    Some(&b'"') => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            blank(&mut out, start..i);
            continue;
        }
        // char literal vs lifetime
        if c == b'\'' {
            if next == b'\\' {
                // escaped char literal: consume to closing quote
                let start = i;
                i += 2;
                while i < b.len() && b.get(i) != Some(&b'\'') {
                    if b.get(i) == Some(&b'\\') {
                        i += 1;
                    }
                    i += 1;
                }
                i = (i + 1).min(b.len());
                blank(&mut out, start..i);
                continue;
            }
            // 'x' (possibly multibyte) closed by a quote within 4 bytes
            let mut close = None;
            for k in (i + 2)..(i + 6).min(b.len()) {
                if b.get(k) == Some(&b'\'') {
                    close = Some(k);
                    break;
                }
            }
            // only treat as a char literal when exactly one char sits
            // between the quotes; `'a` in `<'a, 'b>` has no adjacent close
            // (or closes around multiple chars) and stays a lifetime
            if let Some(k) = close {
                let inner = b.get(i + 1..k).unwrap_or_default();
                let one_char = std::str::from_utf8(inner)
                    .map(|s| s.chars().count() == 1)
                    .unwrap_or(false);
                if one_char {
                    blank(&mut out, i..k + 1);
                    i = k + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Tokenize *stripped* source (see [`strip`]) into a flat token stream.
///
/// Idents bundle `[A-Za-z0-9_]+` runs (so numeric literals are `Ident`s
/// too); `'ident` not closed as a char literal (the stripper already blanked
/// those) becomes a [`TokKind::Lifetime`]; every other non-whitespace byte
/// is a single [`TokKind::Punct`].
pub fn tokenize(stripped: &str) -> Vec<Tok> {
    let b = stripped.as_bytes();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut line_start = 0usize;
    let mut i = 0usize;
    while i < b.len() {
        let c = b.get(i).copied().unwrap_or(0);
        if c == b'\n' {
            line += 1;
            i += 1;
            line_start = i;
            continue;
        }
        if c == b' ' || c == b'\t' || c == b'\r' {
            i += 1;
            continue;
        }
        let col = i - line_start + 1;
        if is_ident_byte(c) {
            let start = i;
            while i < b.len() && b.get(i).copied().is_some_and(is_ident_byte) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                pos: start,
                len: i - start,
                line,
                col,
            });
            continue;
        }
        if c == b'\'' && b.get(i + 1).copied().is_some_and(is_ident_byte) {
            // a lifetime: the stripper leaves `'a` intact only when it is
            // not a char literal
            let start = i;
            i += 1;
            while i < b.len() && b.get(i).copied().is_some_and(is_ident_byte) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Lifetime,
                pos: start,
                len: i - start,
                line,
                col,
            });
            continue;
        }
        toks.push(Tok {
            kind: TokKind::Punct(c),
            pos: i,
            len: 1,
            line,
            col,
        });
        i += 1;
    }
    toks
}

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Token index of the name identifier.
    pub name_tok: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `(open, close)` token indices of the body braces; `None` for
    /// bodyless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
}

/// Recover every `fn` item (including nested ones) from `toks`.
///
/// Scanning is linear and does not skip bodies, so nested functions get
/// their own entries; use [`enclosing_fn`] for innermost attribution.
pub fn functions(toks: &[Tok], src: &str) -> Vec<FnItem> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(t) = toks.get(i) else { continue };
        if !t.is_ident(src, "fn") {
            continue;
        }
        let Some(name_t) = toks.get(i + 1) else {
            continue;
        };
        if name_t.kind != TokKind::Ident {
            continue; // `fn(` — a function-pointer type, not an item
        }
        // body: first `{` or `;` after the name
        let mut body = None;
        let mut j = i + 2;
        while let Some(tj) = toks.get(j) {
            match tj.kind {
                TokKind::Punct(b';') => break,
                TokKind::Punct(b'{') => {
                    // brace-match to the close
                    let mut depth = 0i64;
                    let mut kk = j;
                    while let Some(tk) = toks.get(kk) {
                        match tk.kind {
                            TokKind::Punct(b'{') => depth += 1,
                            TokKind::Punct(b'}') => {
                                depth -= 1;
                                if depth == 0 {
                                    body = Some((j, kk));
                                    break;
                                }
                            }
                            _ => {}
                        }
                        kk += 1;
                    }
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        out.push(FnItem {
            name: name_t.text(src).to_string(),
            name_tok: i + 1,
            line: t.line,
            body,
        });
    }
    out
}

/// Index (into `fns`) of the innermost function whose body contains token
/// `tok_idx`, if any.
pub fn enclosing_fn(fns: &[FnItem], tok_idx: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (span, fns index)
    for (fi, f) in fns.iter().enumerate() {
        if let Some((open, close)) = f.body {
            if tok_idx > open && tok_idx < close {
                let span = close - open;
                if best.map(|(s, _)| span < s).unwrap_or(true) {
                    best = Some((span, fi));
                }
            }
        }
    }
    best.map(|(_, fi)| fi)
}

/// Mark lines (0-based) covered by `#[cfg(test)]` or `#[test]` items in
/// *stripped* source.
pub fn test_mask(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        let l = lines.get(i).copied().unwrap_or_default();
        if !(l.contains("#[cfg(test)]") || l.contains("#[test]")) {
            i += 1;
            continue;
        }
        // find the body start: first `{` before a bare `;`
        let mut j = i;
        let mut body = None;
        while j < lines.len() {
            let lj = lines.get(j).copied().unwrap_or_default();
            match (lj.find('{'), lj.find(';')) {
                (Some(b), Some(s)) if s < b => break, // item without body
                (Some(_), _) => {
                    body = Some(j);
                    break;
                }
                (None, Some(_)) => break,
                (None, None) => j += 1,
            }
        }
        let Some(start) = body else {
            i += 1;
            continue;
        };
        let mut depth = 0i64;
        let mut k = start;
        while k < lines.len() {
            for ch in lines.get(k).copied().unwrap_or_default().chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if let Some(slot) = in_test.get_mut(k) {
                *slot = true;
            }
            if depth <= 0 {
                break;
            }
            k += 1;
        }
        for idx in i..start {
            if let Some(slot) = in_test.get_mut(idx) {
                *slot = true;
            }
        }
        i = k + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<String> {
        let stripped = strip(src);
        tokenize(&stripped)
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(&stripped).to_string())
            .collect()
    }

    #[test]
    fn strip_blanks_strings_and_comments() {
        let src = "let x = \"a[0].unwrap()\"; // .unwrap()\nlet y = 1;";
        let s = strip(src);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("let y = 1;"));
        assert_eq!(s.len(), src.len()); // positions preserved
    }

    #[test]
    fn strip_handles_nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let s = strip(src);
        assert!(!s.contains("inner"));
        assert!(!s.contains("still"));
        assert!(s.starts_with('a'));
        assert!(s.ends_with('b'));
    }

    #[test]
    fn strip_handles_raw_and_byte_strings() {
        let s = strip(r##"let a = r#"x.unwrap()"#; let b = b"p[1]"; let c = br#"q[2]"#;"##);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("p[1]"));
        assert!(!s.contains("q[2]"));
    }

    #[test]
    fn strip_handles_raw_strings_with_inner_quotes() {
        let src = "let a = r#\"she said \"hi\" to him\"#; let live = 1;";
        let s = strip(src);
        assert!(!s.contains("said"));
        assert!(s.contains("let live = 1;"));
    }

    #[test]
    fn strip_keeps_lifetimes_but_blanks_chars() {
        let s = strip("fn f<'a>(x: &'a [u8]) -> char { 'x' }");
        assert!(s.contains("'a [u8]"));
        assert!(!s.contains("'x'"));
        let s = strip("let c = '\\n'; let d = '\\'';");
        assert!(!s.contains("\\n"));
    }

    #[test]
    fn strip_keeps_multiple_lifetimes_intact() {
        let src = "fn f<'a, 'b>(x: &'a [u8], y: &'b [u8]) {}";
        assert_eq!(strip(src), src);
    }

    #[test]
    fn tokenize_kinds_and_positions() {
        let stripped = strip("let x = a.b;\ny(z)");
        let toks = tokenize(&stripped);
        let texts: Vec<(&str, TokKind)> =
            toks.iter().map(|t| (t.text(&stripped), t.kind)).collect();
        assert_eq!(
            texts,
            vec![
                ("let", TokKind::Ident),
                ("x", TokKind::Ident),
                ("=", TokKind::Punct(b'=')),
                ("a", TokKind::Ident),
                (".", TokKind::Punct(b'.')),
                ("b", TokKind::Ident),
                (";", TokKind::Punct(b';')),
                ("y", TokKind::Ident),
                ("(", TokKind::Punct(b'(')),
                ("z", TokKind::Ident),
                (")", TokKind::Punct(b')')),
            ]
        );
        let y = toks.iter().find(|t| t.text(&stripped) == "y").unwrap();
        assert_eq!((y.line, y.col), (2, 1));
    }

    #[test]
    fn tokenize_lifetimes_are_distinct() {
        let stripped = strip("fn f<'a>(x: &'a [u8]) {}");
        let toks = tokenize(&stripped);
        let lt: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(&stripped))
            .collect();
        assert_eq!(lt, vec!["'a", "'a"]);
    }

    #[test]
    fn tokenize_char_literals_do_not_become_lifetimes() {
        assert_eq!(words("let c = 'x'; done()"), vec!["let", "c", "done"]);
    }

    #[test]
    fn functions_recovers_names_bodies_and_asyncness() {
        let src = "pub async fn go(x: u8) { inner(); }\nfn plain() -> u8 { 0 }\nfn decl();";
        let stripped = strip(src);
        let toks = tokenize(&stripped);
        let fns = functions(&toks, &stripped);
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "go");
        assert!(fns[0].body.is_some());
        assert_eq!(fns[1].name, "plain");
        assert_eq!(fns[2].name, "decl");
        assert!(fns[2].body.is_none());
    }

    #[test]
    fn functions_brace_matching_skips_nested_blocks() {
        let src = "fn outer() { if x { y(); } loop { break; } }\nfn after() {}";
        let stripped = strip(src);
        let toks = tokenize(&stripped);
        let fns = functions(&toks, &stripped);
        assert_eq!(fns.len(), 2);
        let (open, close) = fns[0].body.unwrap();
        // the close brace of `outer` is the last `}` before `fn after`
        assert!(toks[close].pos > toks[open].pos);
        assert!(toks[close].pos < toks[fns[1].name_tok].pos);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "type F = fn(u8) -> u8;\nfn real() {}";
        let stripped = strip(src);
        let fns = functions(&tokenize(&stripped), &stripped);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "fn outer() { fn inner() { mark(); } }";
        let stripped = strip(src);
        let toks = tokenize(&stripped);
        let fns = functions(&toks, &stripped);
        let mark = toks
            .iter()
            .position(|t| t.is_ident(&stripped, "mark"))
            .unwrap();
        let fi = enclosing_fn(&fns, mark).unwrap();
        assert_eq!(fns[fi].name, "inner");
    }

    #[test]
    fn test_mask_covers_test_modules() {
        let masked = strip(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x(); }\n}\nfn prod2() {}\n",
        );
        let mask = test_mask(&masked);
        assert!(!mask[0]);
        assert!(mask[1] && mask[2] && mask[3] && mask[4]);
        assert!(!mask[5]);
    }
}
