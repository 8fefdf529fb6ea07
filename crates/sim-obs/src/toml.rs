//! The workspace's one TOML-subset line reader.
//!
//! Fault plans and campaign matrices share one grammar: `key = value`
//! lines, `#` comments, blank lines, and at most one allowed `[section]`
//! header. [`entries`] handles that grammar; each format keeps its own key
//! table and value parsing.

/// Yields `(line number, key, value)` for every `key = value` line of
/// `text`, with `#` comments stripped and key and value trimmed. Blank lines
/// and the header `[section]` are skipped. A different section header, or
/// a line without `=`, yields an error message that starts with
/// `line N: `; line numbers count from 1.
pub fn entries<'a>(
    text: &'a str,
    section: &'a str,
) -> impl Iterator<Item = Result<(usize, &'a str, &'a str), String>> + 'a {
    text.lines().enumerate().filter_map(move |(index, raw)| {
        let lineno = index + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return None;
        }
        if let Some(header) = line.strip_prefix('[') {
            if header.strip_suffix(']') == Some(section) {
                return None;
            }
            return Some(Err(format!(
                "line {lineno}: unknown section {line:?} (only [{section}] is allowed)"
            )));
        }
        Some(match line.split_once('=') {
            Some((key, value)) => Ok((lineno, key.trim(), value.trim())),
            None => Err(format!(
                "line {lineno}: expected `key = value`, got {line:?}"
            )),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::entries;

    #[test]
    fn yields_trimmed_entries_with_line_numbers() {
        let text = "# header comment\n\n[plan]\n seed = 7 # trailing\nname=\"a\"\n";
        let got: Vec<_> = entries(text, "plan").collect();
        assert_eq!(got, vec![Ok((4, "seed", "7")), Ok((5, "name", "\"a\""))]);
    }

    #[test]
    fn rejects_other_sections_and_lines_without_equals() {
        let got: Vec<_> = entries("[other]\njust words\n", "plan").collect();
        assert_eq!(
            got,
            vec![
                Err("line 1: unknown section \"[other]\" (only [plan] is allowed)".to_string()),
                Err("line 2: expected `key = value`, got \"just words\"".to_string()),
            ]
        );
    }
}
