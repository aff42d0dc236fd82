//! Concurrency-discipline lints: the static half of the soundness gate.
//!
//! Four analyses over the [`crate::scan`] lexical toolkit (masked,
//! test-stripped source):
//!
//! 1. **std-sync ratchet** — outside `enviro-schedule` itself, non-test
//!    code must go through the `enviro_schedule::sync` facade; a raw
//!    `std::sync` path bypasses both the deterministic model scheduler and
//!    the debug lock-order tracker.
//! 2. **Atomic-ordering justification** — every
//!    `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` site must carry a
//!    `// ordering:` comment (same line or the contiguous comment block
//!    directly above) saying what the chosen ordering pairs with.
//! 3. **Lock-scope** — a lock guard bound with `let` must not live across
//!    file I/O or an Ad-KMN rebuild (the forbidden-token list below). A
//!    deliberate exception carries `// lock-scope: allow(reason)` at the
//!    offending call.
//! 4. **Lock-order registry** — `crates/xtask/lock-order.toml` declares the
//!    workspace's lock classes and the acquisition edges allowed between
//!    them; the declared graph must be acyclic and closed over declared
//!    names. (Actual nesting is enforced at runtime by the facade's
//!    debug-build order tracker; the registry is the reviewed contract.)

use crate::scan;

/// Crates whose sources may use `std::sync` directly: the facade itself
/// (it *implements* the modeled primitives) and this linter.
const STD_SYNC_EXEMPT: &[&str] = &["enviro-schedule", "xtask"];

/// Atomic-ordering variants that require a justification comment.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Calls a held lock guard must not reach: file I/O (`fs::`, `File::`,
/// `OpenOptions`, `sync_all`) and model rebuilds (`CoverBuilder`), plus the
/// WAL's fsync-backed mutations (`append_batch`, `seal_windows_before`,
/// `seal_with_covers`) and its read of a sealed window's cover frame
/// (`read_cover_frame`, which a cover-cache miss runs).
const FORBIDDEN_UNDER_LOCK: &[&str] = &[
    "OpenOptions",
    "sync_all",
    "CoverBuilder",
    "append_batch",
    "seal_windows_before",
    "seal_with_covers",
    "read_cover_frame",
];

/// One source file as the lint pass sees it.
#[derive(Debug)]
pub struct FileSource {
    /// Path relative to the crate directory.
    pub rel: String,
    /// The file verbatim (comments intact — justifications live here).
    pub raw: String,
    /// Masked + `#[cfg(test)]`-stripped text (what the token scans use).
    pub stripped: String,
}

/// Runs lints 1–3 over one crate's sources.
pub fn check_crate(crate_name: &str, files: &[FileSource]) -> Vec<String> {
    let mut errors = Vec::new();
    for f in files {
        if !STD_SYNC_EXEMPT.contains(&crate_name) {
            errors.extend(std_sync_sites(crate_name, f));
        }
        errors.extend(unjustified_orderings(crate_name, f));
        errors.extend(lock_scope_violations(crate_name, f));
    }
    errors
}

/// Lint 1: `std::sync` paths in non-test code.
fn std_sync_sites(crate_name: &str, f: &FileSource) -> Vec<String> {
    path_pairs(&f.stripped, "std", "sync")
        .into_iter()
        .map(|at| {
            format!(
                "std-sync: {crate_name}/{}:{}: raw `std::sync` bypasses the \
                 `enviro_schedule::sync` facade (and with it the model \
                 scheduler and the lock-order tracker); import from the \
                 facade instead",
                f.rel,
                scan::line_of(&f.stripped, at)
            )
        })
        .collect()
}

/// Byte offsets of every `first :: second` path in masked source.
fn path_pairs(stripped: &str, first: &str, second: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let ids: Vec<scan::Ident<'_>> = scan::idents(stripped).collect();
    for pair in ids.windows(2) {
        if pair[0].text == first
            && pair[1].text == second
            && between_is_path_sep(stripped, pair[0].end, pair[1].start)
        {
            out.push(pair[0].start);
        }
    }
    out
}

/// `true` when `stripped[a..b]` is `::` plus whitespace only.
fn between_is_path_sep(stripped: &str, a: usize, b: usize) -> bool {
    let gap: String = stripped[a..b].split_whitespace().collect();
    gap == "::"
}

/// Lint 2: `Ordering::X` sites without a `// ordering:` justification.
fn unjustified_orderings(crate_name: &str, f: &FileSource) -> Vec<String> {
    let mut errors = Vec::new();
    let ids: Vec<scan::Ident<'_>> = scan::idents(&f.stripped).collect();
    for pair in ids.windows(2) {
        if pair[0].text != "Ordering"
            || !ORDERINGS.contains(&pair[1].text)
            || !between_is_path_sep(&f.stripped, pair[0].end, pair[1].start)
        {
            continue;
        }
        let line = scan::line_of(&f.stripped, pair[0].start);
        if !has_marker(&f.raw, line, "// ordering:") {
            errors.push(format!(
                "atomic-ordering: {crate_name}/{}:{line}: `Ordering::{}` \
                 without a `// ordering:` justification (same line or the \
                 comment block directly above) saying what it pairs with",
                f.rel, pair[1].text
            ));
        }
    }
    errors
}

/// `true` when raw line `line` (1-based) carries `marker` on itself or in
/// the contiguous `//` comment block immediately above it.
fn has_marker(raw: &str, line: usize, marker: &str) -> bool {
    let lines: Vec<&str> = raw.lines().collect();
    if line == 0 || line > lines.len() {
        return false;
    }
    if lines[line - 1].contains(marker) {
        return true;
    }
    for above in lines[..line - 1].iter().rev() {
        let t = above.trim_start();
        if t.starts_with("//") {
            if t.starts_with(marker) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Lint 3: guard bindings whose scope reaches a forbidden token.
fn lock_scope_violations(crate_name: &str, f: &FileSource) -> Vec<String> {
    let mut errors = Vec::new();
    for binding in guard_bindings(&f.stripped) {
        let region = guard_region(&f.stripped, &binding);
        for (offset, token) in forbidden_in(&f.stripped, &region) {
            let line = scan::line_of(&f.stripped, offset);
            if has_marker(&f.raw, line, "// lock-scope: allow") {
                continue;
            }
            errors.push(format!(
                "lock-scope: {crate_name}/{}:{line}: `{token}` reached while \
                 guard `{}` (bound at line {}) is held — I/O and model \
                 rebuilds must not run under a lock; restructure, or mark a \
                 deliberate site with `// lock-scope: allow(reason)`",
                f.rel,
                binding.name,
                scan::line_of(&f.stripped, binding.stmt_end)
            ));
        }
    }
    errors
}

/// A `let <name> = ….lock()/.read()/.write();` binding in masked source.
#[derive(Debug)]
struct GuardBinding {
    name: String,
    /// Offset just past the binding statement's `;`.
    stmt_end: usize,
}

/// Offset of the first non-whitespace byte at or after `i`.
fn next_offset_nonspace(stripped: &str, i: usize) -> Option<usize> {
    stripped.as_bytes()[i..]
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .map(|p| i + p)
}

fn guard_bindings(stripped: &str) -> Vec<GuardBinding> {
    let bytes = stripped.as_bytes();
    let mut out = Vec::new();
    let ids: Vec<scan::Ident<'_>> = scan::idents(stripped).collect();
    for (k, id) in ids.iter().enumerate() {
        if !matches!(id.text, "lock" | "read" | "write") {
            continue;
        }
        // Method call position: `.name()` with an empty argument list.
        if scan::prev_nonspace(stripped, id.start) != Some(b'.') {
            continue;
        }
        let Some(open) = next_offset_nonspace(stripped, id.end) else {
            continue;
        };
        if bytes[open] != b'(' {
            continue;
        }
        let Some(close) = next_offset_nonspace(stripped, open + 1) else {
            continue;
        };
        if bytes[close] != b')' {
            continue; // has arguments: io::Read/Write, not a lock
        }
        // The enclosing statement must be a `let` binding.
        let stmt_start = stripped[..id.start]
            .rfind([';', '{', '}'])
            .map_or(0, |p| p + 1);
        let mut stmt_ids = ids[..k]
            .iter()
            .skip_while(|s| s.start < stmt_start)
            .peekable();
        if stmt_ids.peek().is_none_or(|s| s.text != "let") {
            continue;
        }
        let name = stmt_ids
            .by_ref()
            .find(|s| s.text != "let" && s.text != "mut")
            .map(|s| s.text.to_string());
        let Some(name) = name else { continue };
        let stmt_end = stripped[id.end..]
            .find(';')
            .map_or(stripped.len(), |p| id.end + p + 1);
        out.push(GuardBinding { name, stmt_end });
    }
    out
}

/// The byte range in which `binding`'s guard is live: from the end of its
/// statement to the close of the enclosing block, or to an explicit
/// `drop(<name>)`, whichever comes first.
fn guard_region(stripped: &str, binding: &GuardBinding) -> std::ops::Range<usize> {
    let bytes = stripped.as_bytes();
    let mut depth = 0usize;
    let mut end = stripped.len();
    let mut i = binding.stmt_end;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                if depth == 0 {
                    end = i;
                    break;
                }
                depth -= 1;
            }
            _ => {}
        }
        i += 1;
    }
    let explicit_drop = format!("drop({})", binding.name);
    let in_region = &stripped[binding.stmt_end..end];
    if let Some(p) = in_region
        .find(&explicit_drop)
        .or_else(|| in_region.find(&format!("drop ({})", binding.name)))
    {
        end = binding.stmt_end + p;
    }
    binding.stmt_end..end
}

/// Forbidden tokens inside `region`: the [`FORBIDDEN_UNDER_LOCK`]
/// identifiers plus `fs::` / `File::` path heads.
fn forbidden_in(stripped: &str, region: &std::ops::Range<usize>) -> Vec<(usize, String)> {
    let slice = &stripped[region.clone()];
    let mut out = Vec::new();
    let ids: Vec<scan::Ident<'_>> = scan::idents(slice).collect();
    for (k, id) in ids.iter().enumerate() {
        let hit = if FORBIDDEN_UNDER_LOCK.contains(&id.text) {
            Some(id.text.to_string())
        } else if matches!(id.text, "fs" | "File")
            && ids
                .get(k + 1)
                .is_some_and(|next| between_is_path_sep(slice, id.end, next.start))
        {
            Some(format!("{}::", id.text))
        } else {
            None
        };
        if let Some(token) = hit {
            out.push((region.start + id.start, token));
        }
    }
    out
}

/// Lint 4: parses and validates the declared lock-order registry.
///
/// The format is a deliberately small TOML subset:
/// `[locks]` maps class names to where the lock lives; each `[[order]]`
/// table declares one allowed `before`/`after` acquisition edge.
pub fn check_lock_order(toml: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut locks: Vec<String> = Vec::new();
    let mut edges: Vec<(String, String)> = Vec::new();
    let mut section = String::new();
    let mut pending: Option<(Option<String>, Option<String>, usize)> = None;
    for (ln, raw_line) in toml.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_edge(&mut pending, &mut edges, &mut errors);
            section = line.trim_matches(['[', ']']).to_string();
            if section == "order" {
                pending = Some((None, None, ln + 1));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            errors.push(format!(
                "lock-order.toml:{}: expected `key = value`",
                ln + 1
            ));
            continue;
        };
        let key = key.trim();
        let value = value.trim().trim_matches('"').to_string();
        match (section.as_str(), key) {
            ("locks", name) => locks.push(name.to_string()),
            ("order", "before") => {
                if let Some(p) = pending.as_mut() {
                    p.0 = Some(value);
                }
            }
            ("order", "after") => {
                if let Some(p) = pending.as_mut() {
                    p.1 = Some(value);
                }
            }
            _ => errors.push(format!(
                "lock-order.toml:{}: unexpected `{key}` in section `[{section}]`",
                ln + 1
            )),
        }
    }
    flush_edge(&mut pending, &mut edges, &mut errors);
    for (before, after) in &edges {
        for name in [before, after] {
            if !locks.contains(name) {
                errors.push(format!(
                    "lock-order: edge references `{name}`, which is not \
                     declared under [locks]"
                ));
            }
        }
    }
    if let Some(cycle) = find_cycle(&locks, &edges) {
        errors.push(format!(
            "lock-order: declared edges form a cycle: {} — a consistent \
             global order is impossible; remove or reverse one edge",
            cycle.join(" -> ")
        ));
    }
    errors
}

fn flush_edge(
    pending: &mut Option<(Option<String>, Option<String>, usize)>,
    edges: &mut Vec<(String, String)>,
    errors: &mut Vec<String>,
) {
    if let Some((before, after, ln)) = pending.take() {
        match (before, after) {
            (Some(b), Some(a)) => edges.push((b, a)),
            _ => errors.push(format!(
                "lock-order.toml:{ln}: [[order]] needs both `before` and `after`"
            )),
        }
    }
}

/// DFS cycle detection over the declared edge list; returns one witness
/// cycle as a node path.
fn find_cycle(locks: &[String], edges: &[(String, String)]) -> Option<Vec<String>> {
    fn visit(
        node: &str,
        edges: &[(String, String)],
        path: &mut Vec<String>,
        done: &mut Vec<String>,
    ) -> bool {
        if path.iter().any(|p| p == node) {
            path.push(node.to_string());
            return true;
        }
        if done.iter().any(|d| d == node) {
            return false;
        }
        path.push(node.to_string());
        for (b, a) in edges {
            if b == node && visit(a, edges, path, done) {
                return true;
            }
        }
        path.pop();
        done.push(node.to_string());
        false
    }
    let mut done = Vec::new();
    for start in locks {
        let mut path = Vec::new();
        if visit(start, edges, &mut path, &mut done) {
            // Trim the lead-in so the report starts at the cycle entry.
            let last = path.last().cloned().unwrap_or_default();
            let from = path.iter().position(|p| *p == last).unwrap_or(0);
            return Some(path[from..].to_vec());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;

    fn file(raw: &str) -> FileSource {
        FileSource {
            rel: "src/lib.rs".into(),
            raw: raw.to_string(),
            stripped: scan::strip_cfg_test(scan::mask(raw)),
        }
    }

    // ---- std-sync ratchet ----

    #[test]
    fn raw_std_sync_import_is_flagged() {
        let f = file("use std::sync::Mutex;\nfn f() {}\n");
        let errs = check_crate("enviro-net", &[f]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("std-sync"), "{errs:?}");
    }

    #[test]
    fn facade_import_and_test_code_pass() {
        let f = file(
            "use enviro_schedule::sync::Mutex;\n\
             #[cfg(test)]\nmod tests { use std::sync::Arc; }\n",
        );
        assert_eq!(check_crate("enviro-net", &[f]), Vec::<String>::new());
    }

    #[test]
    fn the_facade_crate_itself_is_exempt() {
        let f = file("pub use std::sync::Arc;\n");
        assert_eq!(check_crate("enviro-schedule", &[f]), Vec::<String>::new());
    }

    #[test]
    fn std_sync_inside_a_string_is_not_flagged() {
        let f = file("fn f() -> &'static str { \"std::sync\" }\n");
        assert_eq!(check_crate("enviro-net", &[f]), Vec::<String>::new());
    }

    // ---- atomic-ordering justification ----

    #[test]
    fn bare_ordering_site_is_flagged() {
        let f = file("fn f(a: &A) { a.x.store(1, Ordering::Release); }\n");
        let errs = check_crate("enviro-net", &[f]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("Ordering::Release"), "{errs:?}");
    }

    #[test]
    fn same_line_and_block_justifications_pass() {
        let f = file(
            "fn f(a: &A) {\n\
             \x20   a.x.store(1, Ordering::Release); // ordering: pairs with load\n\
             \x20   // A longer story,\n\
             \x20   // ordering: Acquire pairs with the store above.\n\
             \x20   a.x.load(Ordering::Acquire);\n\
             }\n",
        );
        assert_eq!(check_crate("enviro-net", &[f]), Vec::<String>::new());
    }

    #[test]
    fn blank_line_breaks_the_justifying_block() {
        let f = file(
            "fn f(a: &A) {\n\
             \x20   // ordering: too far away\n\n\
             \x20   a.x.load(Ordering::SeqCst);\n\
             }\n",
        );
        assert_eq!(check_crate("enviro-net", &[f]).len(), 1);
    }

    #[test]
    fn cmp_ordering_variants_are_ignored() {
        let f = file("fn f(a: i32) -> Ordering { Ordering::Less }\n");
        assert_eq!(check_crate("enviro-net", &[f]), Vec::<String>::new());
    }

    // ---- lock-scope ----

    #[test]
    fn io_under_a_guard_is_flagged() {
        let f = file(
            "fn f(s: &S) {\n\
             \x20   let mut inner = s.inner.lock();\n\
             \x20   inner.wal.append_batch(&t);\n\
             }\n",
        );
        let errs = check_crate("enviro-net", &[f]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("append_batch"), "{errs:?}");
        assert!(errs[0].contains("guard `inner`"), "{errs:?}");
    }

    #[test]
    fn allow_comment_permits_a_deliberate_site() {
        let f = file(
            "fn f(s: &S) {\n\
             \x20   let mut inner = s.inner.lock();\n\
             \x20   // lock-scope: allow(durability) — fsync is the ack.\n\
             \x20   inner.wal.append_batch(&t);\n\
             }\n",
        );
        assert_eq!(check_crate("enviro-net", &[f]), Vec::<String>::new());
    }

    #[test]
    fn a_seal_under_a_guard_needs_its_allow_note() {
        let bare = file(
            "fn f(s: &S) {\n\
             \x20   let mut inner = s.inner.lock();\n\
             \x20   inner.wal.seal_with_covers(seal);\n\
             }\n",
        );
        let errs = check_crate("enviro-net", &[bare]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("seal_with_covers"), "{errs:?}");

        let noted = file(
            "fn f(s: &S) {\n\
             \x20   let mut inner = s.inner.lock();\n\
             \x20   // lock-scope: allow(maintenance) — one worker seals.\n\
             \x20   inner.wal.seal_with_covers(seal);\n\
             }\n",
        );
        assert_eq!(check_crate("enviro-net", &[noted]), Vec::<String>::new());
    }

    #[test]
    fn guard_scope_ends_at_block_close_and_drop() {
        let f = file(
            "fn f(s: &S) {\n\
             \x20   { let inner = s.inner.lock(); inner.touch(); }\n\
             \x20   std::fs::write(\"x\", b\"y\");\n\
             \x20   let g = s.inner.lock();\n\
             \x20   drop(g);\n\
             \x20   CoverBuilder::new(cfg).build(&w);\n\
             }\n",
        );
        assert_eq!(check_crate("enviro-net", &[f]), Vec::<String>::new());
    }

    #[test]
    fn rebuild_under_guard_is_flagged() {
        let f = file(
            "fn f(s: &S) {\n\
             \x20   let g = s.state.write();\n\
             \x20   let c = CoverBuilder::new(cfg).build(&w);\n\
             }\n",
        );
        let errs = check_crate("enviro-meter", &[f]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("CoverBuilder"), "{errs:?}");
    }

    #[test]
    fn reads_with_arguments_are_not_guards() {
        let f = file(
            "fn f(file: &mut F, buf: &mut [u8]) {\n\
             \x20   let n = file.read(buf);\n\
             \x20   std::fs::write(\"x\", b\"y\");\n\
             }\n",
        );
        assert_eq!(check_crate("enviro-storage", &[f]), Vec::<String>::new());
    }

    // ---- lock-order registry ----

    #[test]
    fn acyclic_registry_passes() {
        let toml = "[locks]\n\
                    a = \"crates/x: A\"\n\
                    b = \"crates/x: B\"\n\
                    [[order]]\n\
                    before = \"a\"\n\
                    after = \"b\"\n";
        assert_eq!(check_lock_order(toml), Vec::<String>::new());
    }

    #[test]
    fn cyclic_registry_is_rejected() {
        let toml = "[locks]\n\
                    a = \"A\"\n\
                    b = \"B\"\n\
                    [[order]]\n\
                    before = \"a\"\n\
                    after = \"b\"\n\
                    [[order]]\n\
                    before = \"b\"\n\
                    after = \"a\"\n";
        let errs = check_lock_order(toml);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("cycle"), "{errs:?}");
    }

    #[test]
    fn undeclared_lock_in_an_edge_is_rejected() {
        let toml = "[locks]\na = \"A\"\n[[order]]\nbefore = \"a\"\nafter = \"ghost\"\n";
        let errs = check_lock_order(toml);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("ghost"), "{errs:?}");
    }

    #[test]
    fn incomplete_edge_is_rejected() {
        let toml = "[locks]\na = \"A\"\n[[order]]\nbefore = \"a\"\n";
        assert!(
            check_lock_order(toml)[0].contains("both"),
            "needs both ends"
        );
    }
}
