//! Source-code locations.
//!
//! The paper's Recorder captures the *return address* of the probe call
//! (SPARC register `%i7`) and translates addresses to `file:line` pairs
//! offline, using a source-level debugger plus a small parser (§3.1). We
//! keep the same two-step structure: every call site in a program carries an
//! opaque [`CodeAddr`]; a [`SourceMap`] — built when the program is
//! constructed, standing in for the debugger pass — resolves addresses to
//! [`SourceLoc`]s for the Visualizer.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An opaque code address, as captured by a probe.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct CodeAddr(pub u64);

impl CodeAddr {
    /// The null address: used when a record has no meaningful call site
    /// (e.g. the `start_collect` mark).
    pub const NULL: CodeAddr = CodeAddr(0);

    /// Whether this is the null address.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for CodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A resolved source location.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SourceLoc {
    /// Source file, e.g. `prodcons.c`.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Enclosing function name, e.g. `producer`.
    pub function: String,
}

impl SourceLoc {
    /// A location at `file`:`line` inside `function`.
    pub fn new(file: impl Into<String>, line: u32, function: impl Into<String>) -> SourceLoc {
        SourceLoc { file: file.into(), line, function: function.into() }
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} ({})", self.file, self.line, self.function)
    }
}

/// The address → source-line table produced by the "debugger pass".
///
/// Also resolves the start-routine addresses recorded by `thr_create` to
/// function names, which the Visualizer shows in the event popup.
///
/// The table is copy-on-write: the map is built once (recording, or log
/// parsing) and then cloned into every app, trace, and run result. Those
/// clones are reference-count bumps — a run result carrying a thousand
/// call sites no longer deep-copies a `BTreeMap` of strings per run.
/// Mutation after sharing still works ([`std::sync::Arc::make_mut`]
/// detaches a private copy), it just stops being free.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SourceMap {
    locs: std::sync::Arc<BTreeMap<CodeAddr, SourceLoc>>,
    next_addr: u64,
}

impl SourceMap {
    /// An empty map; interned addresses start at `0x1000`.
    pub fn new() -> SourceMap {
        SourceMap { locs: std::sync::Arc::new(BTreeMap::new()), next_addr: 0x1000 }
    }

    /// Register a call site, returning the pseudo-address a probe at that
    /// site will record. Addresses are handed out densely from `0x1000`,
    /// mimicking text-segment addresses.
    pub fn intern(&mut self, loc: SourceLoc) -> CodeAddr {
        let addr = CodeAddr(self.next_addr);
        self.next_addr += 4; // one SPARC call instruction per site
        std::sync::Arc::make_mut(&mut self.locs).insert(addr, loc);
        addr
    }

    /// Build a map from locations at caller-chosen addresses, as a parsed
    /// log file lists them: the addresses are kept exactly, and where one
    /// repeats, its last entry wins. The next interned address follows
    /// the highest one, saturating at `u64::MAX`.
    pub fn from_entries(entries: Vec<(CodeAddr, SourceLoc)>) -> SourceMap {
        let next_addr = entries.iter().fold(0, |next, (a, _)| next.max(a.0.saturating_add(4)));
        // `BTreeMap`'s bulk build keeps the last of equal keys.
        SourceMap { locs: std::sync::Arc::new(entries.into_iter().collect()), next_addr }
    }

    /// Resolve an address, as the debugger+parser pipeline would.
    pub fn resolve(&self, addr: CodeAddr) -> Option<&SourceLoc> {
        self.locs.get(&addr)
    }

    /// Resolve to the function name only (used for `thr_create` start
    /// routines).
    pub fn function_name(&self, addr: CodeAddr) -> Option<&str> {
        self.locs.get(&addr).map(|l| l.function.as_str())
    }

    /// Number of known call sites.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// Whether the map knows no call sites.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Iterate over `(address, location)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&CodeAddr, &SourceLoc)> {
        self.locs.iter()
    }
}

/// The per-entry build [`SourceMap::from_entries`] replaced, one insert
/// per `# src` line, kept as the reference the text parser's tests
/// check the bulk build against.
#[cfg(test)]
impl SourceMap {
    pub(crate) fn insert_one(&mut self, addr: CodeAddr, loc: SourceLoc) {
        self.next_addr = self.next_addr.max(addr.0.saturating_add(4));
        std::sync::Arc::make_mut(&mut self.locs).insert(addr, loc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_hands_out_distinct_addresses() {
        let mut map = SourceMap::new();
        let a = map.intern(SourceLoc::new("main.c", 10, "main"));
        let b = map.intern(SourceLoc::new("main.c", 11, "main"));
        assert_ne!(a, b);
        assert_eq!(map.resolve(a).unwrap().line, 10);
        assert_eq!(map.resolve(b).unwrap().line, 11);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn unknown_address_resolves_to_none() {
        let map = SourceMap::new();
        assert!(map.resolve(CodeAddr(0xdead)).is_none());
        assert!(map.resolve(CodeAddr::NULL).is_none());
    }

    #[test]
    fn function_name_lookup() {
        let mut map = SourceMap::new();
        let a = map.intern(SourceLoc::new("pc.c", 42, "producer"));
        assert_eq!(map.function_name(a), Some("producer"));
    }

    #[test]
    fn addresses_look_like_text_segment() {
        let mut map = SourceMap::new();
        let a = map.intern(SourceLoc::new("x.c", 1, "f"));
        assert!(a.0 >= 0x1000);
        assert_eq!(a.to_string(), format!("0x{:x}", a.0));
    }

    #[test]
    fn bulk_build_keeps_the_last_repeat_and_saturates_the_next_address() {
        let loc = |line| SourceLoc::new("m.c", line, "f");
        let entries = vec![
            (CodeAddr(0x20), loc(1)),
            (CodeAddr(0x10), loc(2)),
            (CodeAddr(0x20), loc(3)),
            (CodeAddr(0x08), loc(4)),
            (CodeAddr(0x20), loc(5)),
        ];
        let mut one_by_one = SourceMap::default();
        for (a, l) in entries.clone() {
            one_by_one.insert_one(a, l);
        }
        let bulk = SourceMap::from_entries(entries);
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.resolve(CodeAddr(0x20)).map(|l| l.line), Some(5));
        assert_eq!(bulk.next_addr, 0x24);
        assert_eq!(SourceMap::from_entries(Vec::new()), SourceMap::default());

        let top = SourceMap::from_entries(vec![(CodeAddr(u64::MAX), loc(1))]);
        assert_eq!(top.next_addr, u64::MAX);
        assert_eq!(top.len(), 1);
    }
}
