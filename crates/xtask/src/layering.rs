//! The dependency-DAG check.
//!
//! The workspace layering is declared here as an explicit allow-list: each
//! crate names the workspace crates it may depend on. Anything not listed —
//! a new crate, a new edge — fails the lint until the table is updated,
//! which makes architectural drift a reviewed decision instead of an
//! accident. Only `enviro-*` edges are checked; vendored shim crates
//! (`rand`, `proptest`, …) are infrastructure, not layers.

use crate::manifest::Manifest;

/// Allowed **normal**-dependency edges, bottom layer first.
///
/// Invariants encoded here (see DESIGN.md "Static analysis & code policy"):
/// * `enviro-memsize` and `enviro-schedule` (the concurrency facade
///   everything above may use) are leaves, and `enviro-geo` depends on
///   `enviro-memsize` alone;
/// * `enviro-meter` (core) never depends on `enviro-cli`, `enviro-bench`,
///   or `enviro-net`;
/// * `enviro-net` never depends on `enviro-cli`.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("enviro-schedule", &[]),
    ("enviro-memsize", &[]),
    ("enviro-geo", &["enviro-memsize"]),
    ("enviro-data", &["enviro-memsize", "enviro-geo"]),
    ("enviro-index", &["enviro-memsize", "enviro-geo"]),
    (
        "enviro-storage",
        &[
            "enviro-memsize",
            "enviro-geo",
            "enviro-data",
            "enviro-schedule",
        ],
    ),
    (
        "enviro-meter",
        &[
            "enviro-memsize",
            "enviro-geo",
            "enviro-data",
            "enviro-index",
            "enviro-schedule",
        ],
    ),
    (
        "enviro-net",
        &[
            "enviro-memsize",
            "enviro-geo",
            "enviro-data",
            "enviro-meter",
            "enviro-storage",
            "enviro-schedule",
        ],
    ),
    (
        "enviro-cli",
        &[
            "enviro-geo",
            "enviro-data",
            "enviro-meter",
            "enviro-net",
            "enviro-storage",
            "enviro-schedule",
        ],
    ),
    (
        "enviro-bench",
        &[
            "enviro-memsize",
            "enviro-geo",
            "enviro-data",
            "enviro-index",
            "enviro-storage",
            "enviro-meter",
            "enviro-net",
            "enviro-schedule",
        ],
    ),
    ("xtask", &[]),
];

/// Dev-dependency edges that are forbidden even for tests: depending on a
/// *higher* layer from tests creates a build cycle the allow-list above
/// exists to prevent. (Dev-deps on lower layers — e.g. core's tests using
/// `enviro-storage` — are fine and deliberately not restricted.)
const FORBIDDEN_DEV: &[(&str, &[&str])] = &[
    (
        "enviro-memsize",
        &[
            "enviro-geo",
            "enviro-data",
            "enviro-meter",
            "enviro-net",
            "enviro-cli",
            "enviro-bench",
        ],
    ),
    (
        "enviro-geo",
        &[
            "enviro-data",
            "enviro-meter",
            "enviro-net",
            "enviro-cli",
            "enviro-bench",
        ],
    ),
    (
        "enviro-meter",
        &["enviro-net", "enviro-cli", "enviro-bench"],
    ),
    ("enviro-net", &["enviro-cli", "enviro-bench"]),
];

/// Checks every manifest against the layering table, returning one message
/// per violation (empty means the DAG holds).
pub fn check(manifests: &[Manifest]) -> Vec<String> {
    let mut errors = Vec::new();
    for m in manifests {
        let Some(allowed) = LAYERS.iter().find(|(n, _)| *n == m.name).map(|(_, a)| *a) else {
            errors.push(format!(
                "layering: crate `{}` has no entry in xtask::layering::LAYERS — \
                 place it in the DAG before adding it to the workspace",
                m.name
            ));
            continue;
        };
        for dep in m.deps.iter().filter(|d| d.starts_with("enviro-")) {
            if !allowed.contains(&dep.as_str()) {
                errors.push(format!(
                    "layering: `{}` -> `{}` violates the dependency DAG \
                     (allowed: {:?})",
                    m.name, dep, allowed
                ));
            }
        }
        if let Some(forbidden) = FORBIDDEN_DEV
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, f)| *f)
        {
            for dep in &m.dev_deps {
                if forbidden.contains(&dep.as_str()) {
                    errors.push(format!(
                        "layering: dev-dependency `{}` -> `{}` reaches a higher layer",
                        m.name, dep
                    ));
                }
            }
        }
        if !m.workspace_lints {
            errors.push(format!(
                "lints: crate `{}` does not set `[lints] workspace = true`",
                m.name
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest;

    fn mf(name: &str, deps: &[&str], dev: &[&str]) -> Manifest {
        Manifest {
            name: name.to_string(),
            deps: deps.iter().map(|s| s.to_string()).collect(),
            dev_deps: dev.iter().map(|s| s.to_string()).collect(),
            workspace_lints: true,
        }
    }

    #[test]
    fn clean_workspace_passes() {
        let ms = vec![
            mf("enviro-geo", &["enviro-memsize"], &[]),
            mf(
                "enviro-net",
                &["enviro-geo", "enviro-meter"],
                &["enviro-storage"],
            ),
        ];
        assert_eq!(check(&ms), Vec::<String>::new());
    }

    #[test]
    fn core_depending_on_net_is_a_violation() {
        let ms = vec![mf("enviro-meter", &["enviro-net"], &[])];
        let errs = check(&ms);
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("`enviro-meter` -> `enviro-net`"),
            "{errs:?}"
        );
    }

    #[test]
    fn leaf_gaining_a_dep_is_a_violation() {
        let ms = vec![mf("enviro-memsize", &["enviro-geo"], &[])];
        assert_eq!(check(&ms).len(), 1);
    }

    #[test]
    fn upward_dev_dep_is_a_violation() {
        let ms = vec![mf("enviro-meter", &[], &["enviro-cli"])];
        let errs = check(&ms);
        assert!(errs[0].contains("dev-dependency"), "{errs:?}");
    }

    #[test]
    fn unknown_crate_is_reported() {
        let ms = vec![mf("enviro-newthing", &[], &[])];
        assert!(check(&ms)[0].contains("no entry"));
    }

    #[test]
    fn missing_lints_optin_is_reported() {
        let mut m = mf("enviro-geo", &["enviro-memsize"], &[]);
        m.workspace_lints = false;
        assert!(check(&[m])[0].contains("workspace = true"));
    }

    #[test]
    fn real_manifest_text_roundtrips_through_check() {
        let m = manifest::parse(
            "[package]\nname = \"enviro-cli\"\n[dependencies]\nenviro-meter = {}\n[lints]\nworkspace = true\n",
        );
        assert_eq!(check(&[m]), Vec::<String>::new());
    }
}
