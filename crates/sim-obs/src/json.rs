//! The workspace's one JSON string codec and flat-object field reader.
//!
//! Every JSON emitter in the workspace (trace events, the campaign journal,
//! sim-lint reports, the power baseline) escapes strings with [`escape`];
//! every reader of the flat one-object-per-line formats they produce uses
//! [`str`], [`u64`] and [`bool`]. The readers are deliberately tolerant:
//! malformed, truncated or adversarial input yields `None`, never a panic,
//! and a key smuggled inside an escaped string value is never mistaken for
//! a real field.

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character below U+0020 (the common ones as `\n`,
/// `\t`, `\r`, the rest as `\u00XX`). Non-ASCII text passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. Malformed `\u` escapes are dropped rather than
/// rejected.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// What follows `"key":` in a flat JSON object.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    Some(&line[line.find(&marker)? + marker.len()..])
}

/// The unescaped value of a `"key":"value"` pair in a flat JSON object, or
/// `None` when the key is absent or its string is unterminated.
pub fn str(line: &str, key: &str) -> Option<String> {
    let rest = field(line, key)?.strip_prefix('"')?;
    // Scan for the closing quote, honouring backslash escapes.
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Some(unescape(&rest[..i]));
        }
    }
    None
}

/// The value of a `"key":<digits>` pair in a flat JSON object, or `None`
/// when the key is absent or its value is not a non-negative integer that
/// fits a `u64`.
pub fn u64(line: &str, key: &str) -> Option<u64> {
    let rest = field(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of a `"key":true|false` pair in a flat JSON object.
pub fn bool(line: &str, key: &str) -> Option<bool> {
    let rest = field(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat object shaped like a campaign journal record.
    fn line(seed: u64, detail: &str) -> String {
        format!(
            "{{\"config\":\"dead_beef01234567\",\"seed\":{seed},\"status\":\"ok\",\
             \"scheme\":\"PRA\",\"cycles\":12345,\"dbi\":true,\
             \"detail\":\"{}\",\"repro\":\"pra run --seed {seed}\"}}",
            escape(detail)
        )
    }

    #[test]
    fn roundtrip_covers_control_chars_quotes_backslash_and_non_ascii() {
        let mut text: String = (0u32..0x20).filter_map(char::from_u32).collect();
        text.push_str("\"quoted\" back\\slash / Grüße 日本語 🦀 \u{7f}");
        let escaped = escape(&text);
        assert!(
            escaped.chars().all(|c| (c as u32) >= 0x20),
            "no raw control character may survive: {escaped:?}"
        );
        assert_eq!(unescape(&escaped), text);
        let obj = format!("{{\"k\":\"{escaped}\",\"n\":3}}");
        assert_eq!(str(&obj, "k").as_deref(), Some(text.as_str()));
        assert_eq!(u64(&obj, "n"), Some(3));
    }

    #[test]
    fn readers_find_typed_fields() {
        let l = line(7, "panicked: \"x\"\nsecond line");
        assert_eq!(u64(&l, "seed"), Some(7));
        assert_eq!(str(&l, "status").as_deref(), Some("ok"));
        assert_eq!(
            str(&l, "detail").as_deref(),
            Some("panicked: \"x\"\nsecond line")
        );
        assert_eq!(bool(&l, "dbi"), Some(true));
        assert_eq!(bool(&l, "seed"), None);
        assert_eq!(u64(&l, "missing"), None);
        assert_eq!(str(&l, "seed"), None, "a number is not a string");
    }

    /// A tiny deterministic xorshift generator — no external fuzzing crate,
    /// no wall-clock seed, fully reproducible.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn fuzzed_mutations_never_panic_and_never_misparse() {
        let good = line(1, "");
        let bytes = good.as_bytes();
        let mut rng = Xorshift(0x5eed_cafe_f00d_1234);
        for _ in 0..2_000 {
            let mut mutated = bytes.to_vec();
            match rng.next() % 4 {
                // Truncate at a random point (the kill-mid-write artifact).
                0 => mutated.truncate((rng.next() as usize) % (bytes.len() + 1)),
                // Flip a random byte.
                1 => {
                    let i = (rng.next() as usize) % mutated.len();
                    mutated[i] ^= (rng.next() % 255) as u8 + 1;
                }
                // Insert a random byte.
                2 => {
                    let i = (rng.next() as usize) % (mutated.len() + 1);
                    mutated.insert(i, (rng.next() % 256) as u8);
                }
                // Splice two halves of different records together.
                _ => {
                    let other = line(2, "panicked: \"quoted\"\nsecond line");
                    let cut = (rng.next() as usize) % mutated.len();
                    let other_cut = (rng.next() as usize) % other.len();
                    mutated.truncate(cut);
                    mutated.extend_from_slice(&other.as_bytes()[other_cut..]);
                }
            }
            let text = String::from_utf8_lossy(&mutated);
            // Must never panic; a number that parses must have come from a
            // real `"key":value` pair, not from garbage.
            for key in ["seed", "cycles"] {
                if u64(&text, key).is_some() {
                    assert!(text.contains(&format!("\"{key}\":")), "{text}");
                }
            }
            for key in ["config", "status", "scheme", "detail", "repro"] {
                if let Some(s) = str(&text, key) {
                    assert!(text.contains(&format!("\"{key}\":\"")), "{text}");
                    assert!(s.len() <= text.len());
                }
            }
            if bool(&text, "dbi").is_some() {
                assert!(text.contains("\"dbi\":"), "{text}");
            }
        }
    }

    #[test]
    fn adversarial_input_is_rejected_not_trusted() {
        // Keys smuggled inside string values stay escaped and must not be
        // picked up by the scanner.
        let smuggled = "{\"detail\":\"\\\"config\\\":\\\"0123456789abcdef\\\",\
                        \\\"seed\\\":9,\\\"status\\\":\\\"ok\\\"\",\"repro\":\"x\"}";
        assert_eq!(str(smuggled, "config"), None);
        assert_eq!(u64(smuggled, "seed"), None);
        assert_eq!(str(smuggled, "status"), None);
        // Negative, overflowing and quoted numbers are not u64s.
        for bad in [
            "\"seed\":-5",
            "\"seed\":99999999999999999999999999",
            "\"seed\":\"7\"",
        ] {
            let l = line(1, "").replace("\"seed\":1", bad);
            assert_eq!(u64(&l, "seed"), None, "must reject {bad:?}");
        }
        // Unterminated strings are rejected.
        assert_eq!(str("{\"config\":\"00ff", "config"), None);
        assert_eq!(str("{\"config\":\"00ff\\\"}", "config"), None);
        // NUL bytes, control characters and a dangling escape don't panic.
        assert_eq!(
            str("{\"config\":\"\u{0}\u{1}\"}", "config").as_deref(),
            Some("\u{0}\u{1}")
        );
        assert_eq!(unescape("tail\\"), "tail");
        assert_eq!(unescape("\\ud800x"), "x", "a lone surrogate is dropped");
    }
}
