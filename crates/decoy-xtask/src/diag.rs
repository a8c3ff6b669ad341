//! Unified diagnostics: findings, `decoy-lint: allow` escape hatches, the
//! per-file analysis context shared by every pass, and the checked-in
//! suppression baseline that lets a new pass land warn-first.

use std::collections::HashMap;

use decoy_base::json::{self, object, Value};

use crate::tok::{self, Tok};

/// Rules that can be named in a `decoy-lint: allow(..)` comment:
/// `lock-order` belongs to the lock-discipline pass and `alloc-*` to the
/// hot-path allocation pass (bench-freshness findings live in JSON files,
/// which have no comments — they are suppressed through the baseline
/// instead). The panic-freedom wall is clippy's, and its escape is
/// `#[allow(clippy::…, reason = "…")]`.
pub const RULE_NAMES: [&str; 7] = [
    "lock-order",
    "alloc-vec",
    "alloc-to-vec",
    "alloc-clone",
    "alloc-format",
    "alloc-box",
    "alloc-string-from",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte offset within the line).
    pub col: usize,
    /// Rule name (one of [`RULE_NAMES`], or an infrastructure rule such as
    /// `bad-allow`, `hot-path-tag-missing`, `bench-stale`).
    pub rule: &'static str,
    /// Which pass produced it (`locks`, `alloc`, `bench`, or `diag` for a
    /// malformed allow directive).
    pub pass: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Render as `file:line:col: [pass/rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}/{}] {}",
            self.file, self.line, self.col, self.pass, self.rule, self.message
        )
    }
}

/// Parsed allow-comments: line number (1-based) → allowed rules. Malformed
/// allows are returned as findings (rule `bad-allow`, pass `diag`).
pub fn parse_allows(file: &str, src: &str) -> (HashMap<usize, Vec<String>>, Vec<Finding>) {
    let mut map: HashMap<usize, Vec<String>> = HashMap::new();
    let mut bad = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = line.find("decoy-lint:") else {
            continue;
        };
        let directive = line.get(pos..).unwrap_or_default();
        let ok = (|| {
            let after = directive.strip_prefix("decoy-lint:")?.trim_start();
            let after = after.strip_prefix("allow(")?;
            let (rules, rest) = after.split_once(')')?;
            if !rest.contains("--") || rest.split_once("--")?.1.trim().is_empty() {
                return None;
            }
            let mut named = Vec::new();
            for r in rules.split(',') {
                let r = r.trim();
                if !RULE_NAMES.contains(&r) {
                    return None;
                }
                named.push(r.to_string());
            }
            if named.is_empty() {
                return None;
            }
            Some(named)
        })();
        match ok {
            Some(rules) => {
                map.entry(lineno).or_default().extend(rules);
            }
            None => bad.push(Finding {
                file: file.to_string(),
                line: lineno,
                col: pos + 1,
                rule: "bad-allow",
                pass: "diag",
                message: "malformed decoy-lint directive: expected \
                          `decoy-lint: allow(<rule>[, <rule>]) -- <reason>`"
                    .to_string(),
            }),
        }
    }
    (map, bad)
}

/// Everything a pass needs to know about one source file, computed once.
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub rel: String,
    /// Original text.
    pub src: String,
    /// Comment/string-stripped text (same length, same positions).
    pub stripped: String,
    /// Token stream over `stripped`.
    pub toks: Vec<Tok>,
    /// Recovered `fn` items.
    pub fns: Vec<tok::FnItem>,
    /// 0-based line → covered by `#[cfg(test)]`/`#[test]`.
    pub in_test: Vec<bool>,
    /// 1-based line → rules allowed by a `decoy-lint: allow` comment.
    pub allows: HashMap<usize, Vec<String>>,
    /// Malformed allow directives found while parsing.
    pub bad_allows: Vec<Finding>,
}

impl SourceFile {
    /// Analyze `src` (named `rel` in diagnostics) once for all passes.
    pub fn new(rel: &str, src: &str) -> SourceFile {
        let stripped = tok::strip(src);
        let toks = tok::tokenize(&stripped);
        let fns = tok::functions(&toks, &stripped);
        let in_test = tok::test_mask(&stripped);
        let (allows, bad_allows) = parse_allows(rel, src);
        SourceFile {
            rel: rel.to_string(),
            src: src.to_string(),
            stripped,
            toks,
            fns,
            in_test,
            allows,
            bad_allows,
        }
    }

    /// Text of token `i` (empty for out-of-range).
    pub fn text(&self, i: usize) -> &str {
        self.toks
            .get(i)
            .map(|t| t.text(&self.stripped))
            .unwrap_or_default()
    }

    /// True when `rule` is allowed on `lineno` (same or previous line).
    pub fn allowed(&self, lineno: usize, rule: &str) -> bool {
        [lineno, lineno.saturating_sub(1)].iter().any(|n| {
            self.allows
                .get(n)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
        })
    }

    /// True when token `i` sits on a test-masked line.
    pub fn in_test_at(&self, i: usize) -> bool {
        self.toks
            .get(i)
            .and_then(|t| self.in_test.get(t.line.saturating_sub(1)))
            .copied()
            .unwrap_or(false)
    }
}

/// Render findings (and baseline bookkeeping) as the unified JSON report.
pub fn report_json(findings: &[Finding], suppressed: usize, stale_baseline: usize) -> String {
    let listed: Vec<Value> = findings
        .iter()
        .map(|f| {
            object([
                ("file", f.file.as_str().into()),
                ("line", f.line.into()),
                ("col", f.col.into()),
                ("pass", f.pass.into()),
                ("rule", f.rule.into()),
                ("message", f.message.as_str().into()),
            ])
        })
        .collect();
    object([
        ("findings", listed.into()),
        ("count", findings.len().into()),
        ("suppressed_by_baseline", suppressed.into()),
        ("stale_baseline_entries", stale_baseline.into()),
    ])
    .to_string()
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    // writing into a String cannot fail
    let _ = json::quote(&mut out, s);
    out
}

/// The checked-in suppression baseline (`ANALYSIS_BASELINE.json`).
///
/// Entries are keyed `(file, rule, trimmed line text)` with a count, so
/// they survive line-number drift but die with the code they excuse: edit
/// or remove the offending line and the entry goes stale. `analyze`
/// suppresses up to `count` matching findings per key; anything beyond the
/// baseline is a fresh finding and fails CI. Regenerate with
/// `analyze --write-baseline` (and review the diff!).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `(file, rule, line key)` → allowed count.
    pub entries: HashMap<(String, String, String), usize>,
}

impl Baseline {
    /// Parse the baseline file: the `entries` array of a JSON document, as
    /// [`Baseline::render`] writes it. An empty file is an empty baseline.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = HashMap::new();
        if text.trim().is_empty() {
            return Ok(Baseline { entries });
        }
        let doc = json::parse(text.as_bytes()).map_err(|e| e.to_string())?;
        let listed = doc.get("entries").and_then(Value::as_array);
        for (idx, entry) in listed.unwrap_or_default().iter().enumerate() {
            let field = |name: &str| entry.get(name).and_then(Value::as_str).map(str::to_string);
            let count = entry
                .get("count")
                .and_then(Value::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or(1);
            match (field("file"), field("rule"), field("key")) {
                (Some(f), Some(r), Some(k)) => {
                    *entries.entry((f, r, k)).or_insert(0) += count;
                }
                _ => return Err(format!("malformed baseline entry {}", idx + 1)),
            }
        }
        Ok(Baseline { entries })
    }

    /// Total allocation budget this baseline grants the hot path: the sum
    /// of counts across `alloc-*` entries. `analyze --write-baseline`
    /// refuses to regenerate a baseline whose budget is larger than the
    /// committed one, so hot-path allocations can only be burned down.
    pub fn alloc_budget(&self) -> usize {
        self.entries
            .iter()
            .filter(|((_, rule, _), _)| rule.starts_with("alloc-"))
            .map(|(_, count)| count)
            .sum()
    }

    /// Serialize in the format [`Baseline::parse`] reads: sorted, one entry
    /// per line, stable across regenerations. The `alloc_budget` field is
    /// informational (recomputed from entries on parse) but keeps the
    /// hot-path allocation budget visible in diffs.
    pub fn render(&self) -> String {
        let mut sorted: Vec<(&(String, String, String), &usize)> = self.entries.iter().collect();
        sorted.sort();
        let mut out = String::from("{\n  \"comment\": \"decoy-xtask analyze suppression baseline; regenerate with `cargo run -p decoy-xtask -- analyze --write-baseline` and review the diff\",\n");
        out.push_str(&format!(
            "  \"alloc_budget\": {},\n  \"entries\": [\n",
            self.alloc_budget()
        ));
        for (i, ((file, rule, key), count)) in sorted.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\":{},\"rule\":{},\"key\":{},\"count\":{}}}{}\n",
                quoted(file),
                quoted(rule),
                quoted(key),
                count,
                if i + 1 < sorted.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Build a baseline that suppresses exactly `findings` (keyed by the
    /// trimmed text of each finding's line).
    pub fn from_findings<'a>(
        findings: impl IntoIterator<Item = (&'a Finding, &'a str)>,
    ) -> Baseline {
        let mut entries = HashMap::new();
        for (f, key) in findings {
            *entries
                .entry((f.file.clone(), f.rule.to_string(), key.to_string()))
                .or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Split `findings` into (fresh, suppressed_count, stale_entry_count).
    ///
    /// Each finding consumes one unit of its `(file, rule, key)` budget;
    /// findings beyond the budget — and findings with no entry at all — are
    /// fresh. Budget left over after all findings are matched counts as
    /// stale entries (code was fixed; the baseline should be regenerated).
    pub fn apply(
        &self,
        findings: Vec<Finding>,
        key_of: impl Fn(&Finding) -> String,
    ) -> (Vec<Finding>, usize, usize) {
        let mut budget: HashMap<(String, String, String), usize> = self.entries.clone();
        let mut fresh = Vec::new();
        let mut suppressed = 0usize;
        for f in findings {
            let k = (f.file.clone(), f.rule.to_string(), key_of(&f));
            match budget.get_mut(&k) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    suppressed += 1;
                }
                _ => fresh.push(f),
            }
        }
        let stale: usize = budget.values().sum();
        (fresh, suppressed, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, rule: &'static str, line: usize) -> Finding {
        Finding {
            file: file.into(),
            line,
            col: 1,
            rule,
            pass: "alloc",
            message: "m".into(),
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let f = Finding {
            file: "a \"b\".rs".into(),
            line: 3,
            col: 9,
            rule: "lock-order",
            pass: "locks",
            message: "bad\nthing".into(),
        };
        assert_eq!(f.render(), "a \"b\".rs:3:9: [locks/lock-order] bad\nthing");
        let report = json::parse(report_json(&[f], 2, 1).as_bytes()).unwrap();
        let finding = &report["findings"].as_array().unwrap()[0];
        assert_eq!(finding["file"].as_str(), Some("a \"b\".rs"));
        assert_eq!(finding["line"].as_u64(), Some(3));
        assert_eq!(finding["col"].as_u64(), Some(9));
        assert_eq!(finding["pass"].as_str(), Some("locks"));
        assert_eq!(finding["rule"].as_str(), Some("lock-order"));
        assert_eq!(finding["message"].as_str(), Some("bad\nthing"));
        assert_eq!(report["count"].as_u64(), Some(1));
        assert_eq!(report["suppressed_by_baseline"].as_u64(), Some(2));
        assert_eq!(report["stale_baseline_entries"].as_u64(), Some(1));
        assert_eq!(
            report_json(&[], 0, 0),
            "{\"count\":0,\"findings\":[],\"stale_baseline_entries\":0,\"suppressed_by_baseline\":0}"
        );
    }

    #[test]
    fn allows_accept_new_rule_names() {
        let src = "x.lock(); // decoy-lint: allow(lock-order) -- address-ordered acquisition";
        let (map, bad) = parse_allows("t.rs", src);
        assert!(bad.is_empty());
        assert_eq!(map.get(&1).map(Vec::len), Some(1));
        let src = "y(); // decoy-lint: allow(alloc-clone) -- cold path";
        let (map, bad) = parse_allows("t.rs", src);
        assert!(bad.is_empty());
        assert!(map.contains_key(&1));
        // several rules in one directive
        let src = "z(); // decoy-lint: allow(alloc-vec, alloc-clone) -- setup, runs once";
        let (map, bad) = parse_allows("t.rs", src);
        assert!(bad.is_empty());
        assert_eq!(map.get(&1).map(Vec::len), Some(2));
    }

    #[test]
    fn allow_does_not_leak_to_later_lines() {
        let sf = SourceFile::new(
            "t.rs",
            "// decoy-lint: allow(alloc-clone) -- only the next line\nx.clone();\ny.clone();",
        );
        assert!(sf.allowed(2, "alloc-clone"));
        assert!(!sf.allowed(3, "alloc-clone"));
    }

    #[test]
    fn allows_reject_unknown_rules_and_missing_reasons() {
        let (_, bad) = parse_allows("t.rs", "// decoy-lint: allow(everything) -- because");
        assert_eq!(bad.len(), 1);
        let (_, bad) = parse_allows("t.rs", "// decoy-lint: allow(alloc-clone)");
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn baseline_roundtrip_and_budget() {
        let f1 = finding("a.rs", "alloc-clone", 5);
        let f2 = finding("a.rs", "alloc-clone", 9);
        let b = Baseline::from_findings([(&f1, "x.clone();"), (&f2, "x.clone();")]);
        let rendered = b.render();
        let parsed = Baseline::parse(&rendered).unwrap();
        assert_eq!(parsed, b);
        // keys escape and read back exactly
        let odd = Baseline::from_findings([(&f1, "let s = \"\\\t\r\u{1}é\";")]);
        assert_eq!(Baseline::parse(&odd.render()), Ok(odd));
        // the committed baseline is what `render` writes
        let committed = include_str!("../../../ANALYSIS_BASELINE.json");
        assert_eq!(Baseline::parse(committed).unwrap().render(), committed);
        assert_eq!(
            parsed
                .entries
                .get(&("a.rs".into(), "alloc-clone".into(), "x.clone();".into())),
            Some(&2)
        );
        // two findings fit the budget; a third is fresh
        let three = vec![f1.clone(), f2.clone(), finding("a.rs", "alloc-clone", 12)];
        let (fresh, suppressed, stale) = parsed.apply(three, |_| "x.clone();".to_string());
        assert_eq!((fresh.len(), suppressed, stale), (1, 2, 0));
        // only one finding: one stale unit left over
        let (fresh, suppressed, stale) = parsed.apply(vec![f1], |_| "x.clone();".to_string());
        assert_eq!((fresh.len(), suppressed, stale), (0, 1, 1));
    }

    #[test]
    fn alloc_budget_counts_only_alloc_rules() {
        let f1 = finding("a.rs", "alloc-clone", 5);
        let f2 = finding("a.rs", "alloc-vec", 6);
        let f3 = finding("b.rs", "lock-order", 7);
        let b = Baseline::from_findings([(&f1, "k1"), (&f2, "k2"), (&f3, "k3")]);
        assert_eq!(b.alloc_budget(), 2);
        // the rendered field is informational; parse recomputes from entries
        let rendered = b.render();
        assert!(rendered.contains("\"alloc_budget\": 2"));
        assert_eq!(Baseline::parse(&rendered).unwrap().alloc_budget(), 2);
    }

    #[test]
    fn baseline_empty_parse() {
        let b = Baseline::parse("{\n  \"entries\": [\n  ]\n}\n").unwrap();
        assert!(b.entries.is_empty());
        assert_eq!(Baseline::parse(""), Ok(Baseline::default()));
    }

    #[test]
    fn source_file_context() {
        let sf = SourceFile::new(
            "t.rs",
            "fn f() { x.clone(); } // decoy-lint: allow(alloc-clone) -- invariant\n#[cfg(test)]\nmod t { fn g() {} }\n",
        );
        assert!(sf.allowed(1, "alloc-clone"));
        assert!(!sf.allowed(1, "alloc-vec"));
        assert_eq!(sf.fns.len(), 2);
        assert!(!sf.in_test[0]);
        assert!(sf.in_test[2]);
    }
}
