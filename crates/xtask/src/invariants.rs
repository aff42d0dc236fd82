//! The invariant-hook audit.
//!
//! Several core data structures expose a `check_invariants()` method (the
//! trees in `enviro-index`, `WalStore`, `ModelCover`, `AdKmnResult`,
//! `LinearModel`). Defining one is only half the contract — it must also be
//! *called* on mutation paths, gated behind `debug_assertions`, or it rots.
//! This audit enforces the calling half:
//!
//! * every file defining `fn check_invariants` must contain a debug-gated
//!   invocation (a call whose enclosing context mentions `debug_assert` or
//!   `cfg(debug_assertions)`), **or**
//! * the crate must contain a *delegated* invocation — a
//!   `check_invariants()` call placed inside the body of another
//!   `fn check_invariants` (e.g. `ModelCover` validating each
//!   `LinearModel`), which inherits the caller's gating.

use crate::scan;

/// How far back (in bytes of masked source) a call site may be from its
/// `debug_assert`/`cfg(debug_assertions)` gate. Covers multi-line
/// `debug_assert_eq!` formattings without reaching into earlier statements.
const GATE_WINDOW: usize = 200;

/// Per-file facts gathered by [`inspect`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FileFacts {
    /// Lines of `fn check_invariants` definitions.
    pub definitions: Vec<usize>,
    /// The file contains a call under `debug_assert`/`cfg(debug_assertions)`.
    pub has_gated_call: bool,
    /// The file contains a call inside another `fn check_invariants` body.
    pub has_delegated_call: bool,
}

/// Scans one file of *masked, test-stripped* source.
pub fn inspect(masked: &str) -> FileFacts {
    let mut facts = FileFacts::default();
    // Body spans of `fn check_invariants` definitions, for delegation.
    let mut bodies: Vec<(usize, usize)> = Vec::new();
    let mut prev_was_fn = false;
    let idents: Vec<scan::Ident<'_>> = scan::idents(masked).collect();
    for id in &idents {
        if id.text == "check_invariants" && prev_was_fn {
            facts.definitions.push(scan::line_of(masked, id.start));
            if let Some(span) = body_span(masked, id.end) {
                bodies.push(span);
            }
        }
        prev_was_fn = id.text == "fn";
    }
    let mut prev_was_fn = false;
    for id in &idents {
        let is_call = id.text == "check_invariants"
            && !prev_was_fn
            && scan::next_nonspace(masked, id.end) == Some(b'(');
        prev_was_fn = id.text == "fn";
        if !is_call {
            continue;
        }
        let back = &masked[id.start.saturating_sub(GATE_WINDOW)..id.start];
        if back.contains("debug_assert") || back.contains("cfg(debug_assertions)") {
            facts.has_gated_call = true;
        }
        if bodies.iter().any(|&(s, e)| id.start > s && id.start < e) {
            facts.has_delegated_call = true;
        }
    }
    facts
}

/// Byte span of the `{ … }` body following a definition whose name ends at
/// `after`.
fn body_span(masked: &str, after: usize) -> Option<(usize, usize)> {
    let bytes = masked.as_bytes();
    let open = (after..bytes.len()).find(|&i| bytes[i] == b'{')?;
    let mut depth = 0usize;
    for (i, b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
    }
    None
}

/// Audits one crate given `(relative path, masked test-stripped source)`
/// pairs; returns one message per unhooked definition file.
pub fn audit(crate_name: &str, files: &[(String, String)]) -> Vec<String> {
    let facts: Vec<(&String, FileFacts)> = files.iter().map(|(p, src)| (p, inspect(src))).collect();
    let crate_has_delegation = facts.iter().any(|(_, f)| f.has_delegated_call);
    let mut errors = Vec::new();
    for (path, f) in &facts {
        if f.definitions.is_empty() {
            continue;
        }
        let covered = f.has_gated_call || f.has_delegated_call || crate_has_delegation;
        if !covered {
            errors.push(format!(
                "invariants: `{crate_name}`: {path}:{} defines `check_invariants` but the \
                 crate never invokes it under debug_assertions (add e.g. \
                 `debug_assert_eq!(x.check_invariants(), Ok(()));` on the mutation paths)",
                f.definitions[0]
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{mask, strip_cfg_test};

    fn facts(src: &str) -> FileFacts {
        inspect(&strip_cfg_test(mask(src)))
    }

    #[test]
    fn gated_call_in_same_file_passes() {
        let src = r#"
impl Tree {
    pub fn check_invariants(&self) -> Result<(), String> { Ok(()) }
    pub fn insert(&mut self) {
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }
}
"#;
        let f = facts(src);
        assert_eq!(f.definitions.len(), 1);
        assert!(f.has_gated_call);
        assert!(audit("c", &[("t.rs".into(), strip_cfg_test(mask(src)))]).is_empty());
    }

    #[test]
    fn unhooked_definition_fails() {
        let src = "impl T { pub fn check_invariants(&self) -> Result<(), String> { Ok(()) } }";
        let errs = audit("c", &[("t.rs".into(), strip_cfg_test(mask(src)))]);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("t.rs:1"), "{errs:?}");
    }

    #[test]
    fn ungated_call_does_not_count() {
        let src = r#"
impl T {
    pub fn check_invariants(&self) -> Result<(), String> { Ok(()) }
    pub fn touch(&self) { let _ = self.check_invariants(); }
}
"#;
        let f = facts(src);
        assert!(!f.has_gated_call);
        assert_eq!(
            audit("c", &[("t.rs".into(), strip_cfg_test(mask(src)))]).len(),
            1
        );
    }

    #[test]
    fn cfg_debug_assertions_block_counts_as_gated() {
        let src = r#"
impl T {
    pub fn check_invariants(&self) -> Result<(), String> { Ok(()) }
    pub fn touch(&self) {
        #[cfg(debug_assertions)]
        { assert_inv(self.check_invariants()); }
    }
}
"#;
        assert!(facts(src).has_gated_call);
    }

    #[test]
    fn delegation_covers_cross_file_definitions() {
        let parent = r#"
impl Cover {
    pub fn check_invariants(&self) -> Result<(), String> {
        self.model.check_invariants()
    }
    fn assemble(&self) { debug_assert_eq!(self.check_invariants(), Ok(())); }
}
"#;
        let child =
            "impl Model { pub fn check_invariants(&self) -> Result<(), String> { Ok(()) } }";
        let files = vec![
            ("cover.rs".to_string(), strip_cfg_test(mask(parent))),
            ("model.rs".to_string(), strip_cfg_test(mask(child))),
        ];
        assert!(audit("core", &files).is_empty());
    }

    #[test]
    fn definition_inside_cfg_test_is_ignored() {
        let src = "#[cfg(test)]\nmod t { fn check_invariants() {} }";
        assert!(facts(src).definitions.is_empty());
    }
}
