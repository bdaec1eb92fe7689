//! The correctness gate: every simulated result is checked against an
//! expected `chg_serve::fingerprint_report`, and every failure is counted
//! against the operations attempted and listed by cell.

use std::collections::{BTreeMap, HashMap};

/// The pinned fingerprints of the default seed, one `cell fingerprint` pair
/// per line (`#` starts a comment). Regenerate with `--print-pins`.
pub const PINS: &str = include_str!("../pins.txt");

/// Names one simulated result: benchmark workload, algorithm, dataset,
/// `W_min` and runtime, e.g. `sim-pr/PR/WEB/w3/chgraph`.
pub fn cell(bench: &str, algo: &str, dataset: &str, w_min: u32, runtime: &str) -> String {
    format!("{bench}/{algo}/{dataset}/w{w_min}/{runtime}")
}

/// Parses the pin table.
pub fn parse_pins(text: &str) -> Result<HashMap<String, u64>, String> {
    let mut pins = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (cell, fp) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("pins line {}: expected `cell fingerprint`", i + 1))?;
        let fp = u64::from_str_radix(fp.trim(), 16)
            .map_err(|_| format!("pins line {}: bad fingerprint {fp:?}", i + 1))?;
        if pins.insert(cell.to_string(), fp).is_some() {
            return Err(format!("pins line {}: duplicate cell {cell}", i + 1));
        }
    }
    Ok(pins)
}

/// Expected fingerprints plus the tally of checked operations.
#[derive(Default)]
pub struct Checker {
    expected: HashMap<String, u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed (error or mismatch).
    pub failed: u64,
    /// First failure message per failing cell.
    pub failures: BTreeMap<String, String>,
}

impl Checker {
    /// A checker expecting the pinned fingerprints of every cell whose name
    /// starts with `prefix`.
    pub fn pinned(prefix: &str) -> Self {
        let pins = parse_pins(PINS).expect("the compiled-in pin table parses");
        Checker {
            expected: pins.into_iter().filter(|(k, _)| k.starts_with(prefix)).collect(),
            ..Checker::default()
        }
    }

    /// Records `fingerprint` as the expected result of `cell`.
    pub fn expect(&mut self, cell: &str, fingerprint: u64) {
        self.expected.insert(cell.to_string(), fingerprint);
    }

    /// Checks one operation's outcome: `Ok(fingerprint)` of its result, or
    /// the error it failed with. Returns whether it passed.
    pub fn check(&mut self, cell: &str, outcome: Result<u64, String>) -> bool {
        self.attempted += 1;
        let problem = match (outcome, self.expected.get(cell)) {
            (Err(e), _) => e,
            (Ok(_), None) => "no expected fingerprint for this cell".to_string(),
            (Ok(got), Some(&want)) if got != want => {
                format!("fingerprint {got:016x}, expected {want:016x}")
            }
            (Ok(_), Some(_)) => return true,
        };
        self.fail(cell, problem);
        false
    }

    /// Counts one failed operation of `cell`.
    pub fn fail(&mut self, cell: &str, problem: String) {
        self.failed += 1;
        self.failures.entry(cell.to_string()).or_insert(problem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_pins_parse() {
        let pins = parse_pins(PINS).unwrap();
        for prefix in ["sim-pr/", "prep-cold/", "figures-grid/", "serve-mix/"] {
            assert!(pins.keys().any(|k| k.starts_with(prefix)), "no pins for {prefix}");
        }
    }

    #[test]
    fn pin_parse_errors_name_the_line() {
        assert!(parse_pins("# c\na/b 00ff\n").is_ok());
        assert!(parse_pins("a/b\n").unwrap_err().contains("line 1"));
        assert!(parse_pins("a/b zz\n").unwrap_err().contains("bad fingerprint"));
        assert!(parse_pins("a 1\na 2\n").unwrap_err().contains("duplicate"));
    }

    #[test]
    fn failures_are_counted_per_operation_and_listed_per_cell() {
        let mut c = Checker::default();
        c.expect("x", 1);
        c.expect("y", 2);
        assert!(c.check("x", Ok(1)));
        assert!(!c.check("y", Ok(3)));
        assert!(!c.check("y", Ok(3)));
        assert!(!c.check("z", Err("budget exceeded".into())));
        assert_eq!((c.attempted, c.failed), (4, 3));
        assert_eq!(c.failures.len(), 2);
        assert!(c.failures["y"].contains("expected 0000000000000002"));
    }
}
