//! The run-report layer: a small key/value report the bench bins render
//! instead of hand-rolling their own summary and fingerprint printing.

/// A titled list of `key: value` lines, renderable to the terminal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    title: String,
    lines: Vec<(String, String)>,
}

impl RunReport {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            lines: Vec::new(),
        }
    }

    /// Appends one `key: value` line.
    pub fn push(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.lines.push((key.to_string(), value.to_string()));
        self
    }

    /// Appends a 64-bit fingerprint line in the repo's `{:#018x}` style.
    pub fn push_fingerprint(&mut self, key: &str, fingerprint: u64) -> &mut Self {
        self.push(key, format!("{fingerprint:#018x}"))
    }

    /// The `key: value` lines pushed so far.
    pub fn lines(&self) -> &[(String, String)] {
        &self.lines
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        for (key, value) in &self.lines {
            out.push_str(&format!("  {key}: {value}\n"));
        }
        out
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_rendering() {
        let mut r = RunReport::new("demo");
        r.push("iters", 10).push_fingerprint("fingerprint", 0xABCD);
        let text = r.render();
        assert!(text.starts_with("== demo ==\n"));
        assert!(text.contains("  iters: 10\n"));
        assert!(text.contains("0x000000000000abcd"));
    }
}
