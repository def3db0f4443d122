//! Perimeter HTML/JavaScript filtering (paper §3.5, "client-side support").
//!
//! "W5 could disable JavaScript entirely by filtering it out at the
//! security perimeter." This module is that filter: a single-pass state
//! machine over outgoing HTML that removes `<script>` elements, inline
//! event-handler attributes (`onclick=` and friends) and `javascript:`
//! URLs. It is intentionally conservative: when in doubt, strip.
//!
//! The filter is measured by experiment E10 (throughput and efficacy over a
//! generated corpus).

/// What the sanitizer removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SanitizeStats {
    /// `<script>…</script>` elements removed.
    pub scripts_removed: usize,
    /// `on*=` attributes removed.
    pub handlers_removed: usize,
    /// `javascript:` URLs neutralized.
    pub js_urls_removed: usize,
}

impl SanitizeStats {
    /// Total removals.
    pub fn total(&self) -> usize {
        self.scripts_removed + self.handlers_removed + self.js_urls_removed
    }
}

/// [`sanitize_html`] plus a ledger record: the run is labeled with the
/// secrecy of the response being scrubbed, since removal counts are a
/// function of (possibly secret) document content.
pub fn sanitize_html_labeled(
    input: &str,
    secrecy: &w5_obs::ObsLabel,
) -> (String, SanitizeStats) {
    static SPAN: std::sync::LazyLock<w5_obs::Name> = std::sync::LazyLock::new(|| "platform.sanitize".into());
    let _span = w5_obs::span(&*SPAN, w5_obs::Layer::Platform, secrecy);
    let (out, stats) = sanitize_html(input);
    w5_obs::record(
        secrecy,
        w5_obs::EventKind::SanitizerRun { removed: stats.total() as u64 },
    );
    (out, stats)
}

/// Sanitize an HTML document, returning the cleaned text and statistics.
/// Non-HTML content should bypass this (the gateway filters by content
/// type).
///
/// One pass, linear in the input: every byte is looked at a bounded number
/// of times, and the only allocation is the output buffer.
pub fn sanitize_html(input: &str) -> (String, SanitizeStats) {
    let mut out = String::with_capacity(input.len());
    let mut stats = SanitizeStats::default();
    let bytes = input.as_bytes();
    // A tag that opens after the page's last `>` can never close: it and
    // everything after it are dropped (fail closed). Knowing this once
    // keeps a page of unclosed `<` from being rescanned to its end per `<`.
    let last_gt = input.rfind('>');
    let mut i = 0;

    while i < bytes.len() {
        if bytes[i] != b'<' {
            // Plain text: copy up to the next '<'.
            let next = input[i..].find('<').map_or(bytes.len(), |r| i + r);
            out.push_str(&input[i..next]);
            i = next;
            continue;
        }
        // Script element? Skip to past the matching `</script…>`
        // (case-insensitive); if unterminated, drop the rest of the
        // document — fail closed.
        if has_ci_prefix(&bytes[i..], b"<script") {
            stats.scripts_removed += 1;
            let Some(close) = find_ci(&bytes[i..], b"</script").map(|r| i + r) else { break };
            let Some(gt) = input[close..].find('>') else { break };
            i = close + gt + 1;
            continue;
        }
        if last_gt.is_none_or(|g| g < i) {
            break;
        }
        // A normal tag: copy it, filtering dangerous attributes. If a new
        // `<` opens before this tag closes, the markup is broken in a way
        // attackers exploit (`<div<script>…`): drop the broken fragment
        // and resume at the inner `<` (fail closed). The `>` at `last_gt`
        // bounds the scan.
        let Some(j) = bytes[i + 1..].iter().position(|&b| b == b'<' || b == b'>') else { break };
        let j = i + 1 + j;
        if bytes[j] == b'<' {
            i = j;
            continue;
        }
        clean_tag(&input[i..=j], &mut out, &mut stats);
        i = j + 1;
    }
    (out, stats)
}

fn has_ci_prefix(s: &[u8], prefix: &[u8]) -> bool {
    s.len() >= prefix.len() && s[..prefix.len()].eq_ignore_ascii_case(prefix)
}

fn find_ci(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w.eq_ignore_ascii_case(needle))
}

/// Append one tag to `out`, dropping `on*` attributes and neutralizing
/// `javascript:` URLs. The tag arrives as `<name attr=... >`, with no `<`
/// or `>` inside.
fn clean_tag(tag: &str, out: &mut String, stats: &mut SanitizeStats) {
    let inner = &tag[1..tag.len() - 1];
    // Closing tags and comments pass through.
    if inner.starts_with(['/', '!']) {
        out.push_str(tag);
        return;
    }
    // Peel a self-closing slash off the end before attribute parsing.
    let (inner, self_closing) = match inner.trim_end().strip_suffix('/') {
        Some(peeled) => (peeled, true),
        None => (inner, false),
    };
    let name_end = inner.bytes().position(|b| b.is_ascii_whitespace()).unwrap_or(inner.len());
    // A bare name (`<li>`, `<ul>`) has no attributes to rewrite.
    if !self_closing && name_end == inner.len() {
        out.push_str(tag);
        return;
    }
    out.push('<');
    out.push_str(&inner[..name_end]);
    // Attribute scanning.
    let mut rest = &inner[name_end..];
    loop {
        let trimmed = rest.trim_start();
        if trimmed.is_empty() {
            break;
        }
        let name_len = trimmed
            .bytes()
            .position(|b| b == b'=' || b.is_ascii_whitespace())
            .unwrap_or(trimmed.len());
        let (attr_name, after_name) = trimmed.split_at(name_len);
        let (value, after) = match after_name.trim_start().strip_prefix('=') {
            Some(v) => {
                let (value, after) = split_value(v.trim_start());
                (Some(value), after)
            }
            None => (None, after_name),
        };

        if attr_name.len() > 2 && has_ci_prefix(attr_name.as_bytes(), b"on") {
            stats.handlers_removed += 1;
            // Drop the attribute entirely.
        } else if let Some(v) = value {
            out.push(' ');
            out.push_str(attr_name);
            if is_javascript_url(v) {
                stats.js_urls_removed += 1;
                out.push_str("=\"#\"");
            } else {
                out.push_str("=\"");
                out.push_str(v);
                out.push('"');
            }
        } else if !attr_name.is_empty() {
            out.push(' ');
            out.push_str(attr_name);
        }
        if attr_name.is_empty() {
            // Defensive: avoid an infinite loop on pathological input.
            break;
        }
        rest = after;
    }
    // Preserve self-closing slash.
    if self_closing {
        out.push_str(" /");
    }
    out.push('>');
}

/// Split an attribute value from what follows it: a quoted value runs to
/// its closing quote (or the end of the tag, if there is none), a bare one
/// to the next ASCII whitespace.
fn split_value(v: &str) -> (&str, &str) {
    for quote in ['"', '\''] {
        if let Some(quoted) = v.strip_prefix(quote) {
            return match quoted.find(quote) {
                Some(end) => (&quoted[..end], &quoted[end + 1..]),
                None => (quoted, ""),
            };
        }
    }
    v.split_at(v.bytes().position(|b| b.is_ascii_whitespace()).unwrap_or(v.len()))
}

/// Does the value start with `javascript:`, case-insensitively, once
/// whitespace and control characters are ignored (so `"java\tscript:"`
/// counts)?
fn is_javascript_url(v: &str) -> bool {
    let mut chars = v.trim_start().chars().filter(|c| !c.is_ascii_whitespace() && !c.is_control());
    b"javascript:"
        .iter()
        .all(|&want| chars.next().is_some_and(|c| c.eq_ignore_ascii_case(&char::from(want))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_clean_html() {
        let html = r#"<html><body><h1>Title</h1><p class="x">text</p><a href="/next">go</a></body></html>"#;
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.total(), 0);
        assert!(out.contains("<h1>Title</h1>"));
        assert!(out.contains(r#"href="/next""#));
    }

    #[test]
    fn strips_script_elements() {
        let html = "<p>before</p><script>alert('xss')</script><p>after</p>";
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.scripts_removed, 1);
        assert!(!out.contains("alert"));
        assert!(out.contains("before"));
        assert!(out.contains("after"));
    }

    #[test]
    fn strips_script_case_insensitive() {
        let html = "<ScRiPt src=evil.js></SCRIPT>x";
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.scripts_removed, 1);
        assert!(!out.contains("evil"));
        assert!(out.ends_with('x'));
    }

    #[test]
    fn unterminated_script_fails_closed() {
        let html = "<p>ok</p><script>steal()";
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.scripts_removed, 1);
        assert!(!out.contains("steal"));
        assert!(out.contains("ok"));
    }

    #[test]
    fn strips_event_handlers() {
        let html = r#"<img src="a.jpg" onerror="steal()" onload='x()'><div onclick=go>hi</div>"#;
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.handlers_removed, 3);
        assert!(!out.contains("onerror"));
        assert!(!out.contains("onclick"));
        assert!(out.contains(r#"src="a.jpg""#));
        assert!(out.contains(">hi<"));
    }

    #[test]
    fn neutralizes_javascript_urls() {
        let html = r#"<a href="javascript:steal()">x</a><a href="JaVaScRiPt:y()">z</a>"#;
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.js_urls_removed, 2);
        assert!(!out.to_ascii_lowercase().contains("javascript:"));
        assert!(out.contains(r##"href="#""##));
    }

    #[test]
    fn neutralizes_whitespace_obfuscated_js_urls() {
        let html = "<a href=\"java\tscript:steal()\">x</a>";
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.js_urls_removed, 1);
        assert!(!out.contains("steal"));
    }

    #[test]
    fn keeps_ordinary_on_words() {
        // An attribute merely *containing* "on" must survive.
        let html = r#"<div config="on" month="june">x</div>"#;
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.handlers_removed, 0);
        assert!(out.contains("month"));
    }

    #[test]
    fn closing_tags_and_comments_untouched() {
        let html = "<!-- note --><p>x</p>";
        let (out, stats) = sanitize_html(html);
        assert_eq!(stats.total(), 0);
        assert!(out.contains("<!-- note -->"));
        assert!(out.contains("</p>"));
    }

    #[test]
    fn handles_empty_and_textonly() {
        assert_eq!(sanitize_html("").0, "");
        assert_eq!(sanitize_html("plain text").0, "plain text");
    }

    #[test]
    fn unterminated_tag_dropped() {
        let (out, _) = sanitize_html("<p>ok</p><img src=");
        assert!(out.contains("ok"));
        assert!(!out.contains("img"));
    }

    #[test]
    fn self_closing_preserved() {
        let (out, _) = sanitize_html(r#"<br/><img src="x.png"/>"#);
        assert!(out.contains("<br />") || out.contains("<br/>"), "{out}");
        assert!(out.contains("/>"));
    }
}
