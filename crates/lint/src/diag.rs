//! The shared diagnostic model: severities, sites, rendering.

use std::fmt;

use tvs_exec::json_escape;

/// How serious a finding is.
///
/// `Deny` findings fail CI and trip the `debug_assert`-gated IR checks;
/// `Warn` findings are reported but non-fatal; `Info` carries statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational (structure statistics, counts).
    Info,
    /// Suspicious but tolerated (e.g. dead gates in synthetic profiles).
    Warn,
    /// A violated invariant; the artifact must not be used as-is.
    Deny,
}

impl Severity {
    /// The lowercase keyword used in text and JSON output.
    pub const fn keyword(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Site {
    /// The artifact as a whole.
    Global,
    /// A net (signal) of an IR graph.
    Net(String),
    /// A scan-chain position (0 = scan-in side).
    Chain(usize),
    /// A cycle index of a stitch program (0-based).
    Cycle(usize),
    /// A line of a source file.
    Source {
        /// Workspace-relative path.
        file: String,
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Global => write!(f, "(global)"),
            Site::Net(name) => write!(f, "net {name:?}"),
            Site::Chain(pos) => write!(f, "chain position {pos}"),
            Site::Cycle(i) => write!(f, "cycle {i}"),
            Site::Source { file, line } => write!(f, "{file}:{line}"),
        }
    }
}

/// One finding of either analysis engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`IR004`, `SRC001`, …).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// What the finding points at.
    pub site: Site,
}

impl Diagnostic {
    /// Convenience constructor.
    pub fn new(
        code: &'static str,
        severity: Severity,
        site: Site,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            site,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.site, self.message
        )
    }
}

/// Returns `true` if any diagnostic is deny-level.
pub fn has_deny(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Deny)
}

/// Counts `(deny, warn, info)` diagnostics.
pub fn counts(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Deny => c.0 += 1,
            Severity::Warn => c.1 += 1,
            Severity::Info => c.2 += 1,
        }
    }
    c
}

/// Renders diagnostics as human-readable text, one per line, with a closing
/// summary line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let (deny, warn, info) = counts(diags);
    out.push_str(&format!("{deny} deny, {warn} warn, {info} info\n"));
    out
}

fn site_json(site: &Site) -> String {
    match site {
        Site::Global => r#"{"kind":"global"}"#.to_owned(),
        Site::Net(name) => format!(r#"{{"kind":"net","name":"{}"}}"#, json_escape(name)),
        Site::Chain(pos) => format!(r#"{{"kind":"chain","position":{pos}}}"#),
        Site::Cycle(i) => format!(r#"{{"kind":"cycle","index":{i}}}"#),
        Site::Source { file, line } => format!(
            r#"{{"kind":"source","file":"{}","line":{line}}}"#,
            json_escape(file)
        ),
    }
}

/// Renders diagnostics as a machine-readable JSON document
/// (`{"diagnostics": [...], "counts": {...}}`).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            r#"{{"code":"{}","severity":"{}","site":{},"message":"{}"}}"#,
            d.code,
            d.severity.keyword(),
            site_json(&d.site),
            json_escape(&d.message)
        ));
    }
    let (deny, warn, info) = counts(diags);
    out.push_str(&format!(
        "],\"counts\":{{\"deny\":{deny},\"warn\":{warn},\"info\":{info}}}}}"
    ));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_counts() {
        let d = Diagnostic::new("IR001", Severity::Deny, Site::Net("x".into()), "undriven");
        assert_eq!(d.to_string(), "deny[IR001] net \"x\": undriven");
        let w = Diagnostic::new("IR006", Severity::Warn, Site::Global, "dead");
        assert_eq!(counts(&[d.clone(), w]), (1, 1, 0));
        assert!(has_deny(&[d]));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let d = Diagnostic::new(
            "SRC001",
            Severity::Deny,
            Site::Source {
                file: "a\\b.rs".into(),
                line: 3,
            },
            "say \"no\"",
        );
        let json = render_json(&[d]);
        assert!(json.contains(r#""file":"a\\b.rs""#), "{json}");
        assert!(json.contains(r#"say \"no\""#), "{json}");
        assert!(
            json.contains(r#""counts":{"deny":1,"warn":0,"info":0}"#),
            "{json}"
        );
    }

    #[test]
    fn severity_orders_info_warn_deny() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
    }
}
