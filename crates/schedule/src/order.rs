//! Runtime lock-order tracking (`debug_assertions` builds only).
//!
//! Every facade lock is classed by its construction site
//! (`#[track_caller]`). Each acquisition records held-class → new-class
//! edges in a process-global graph; if adding an edge closes a cycle, the
//! acquiring thread panics with the cycle, *before* blocking on the real
//! lock — so any ordinary test that merely exercises an inconsistent
//! acquisition order fails loudly instead of deadlocking flakily under the
//! right interleaving.
//!
//! Edges between two locks of the *same* class (e.g. the admission
//! mutexes of two transports, constructed by one line) are not recorded:
//! instance ordering within a class is invisible to a site-keyed graph,
//! and in this workspace no protocol nests two locks of one class. The
//! declared workspace-wide order lives in `crates/xtask/lock-order.toml`;
//! this module is the belt to that suspender — it observes what actually
//! happens.
//!
//! In release builds every entry point compiles to nothing.

#![allow(unused_variables)]

use crate::model::Site;

/// A lock class: the `file:line:column` that constructed the lock.
#[cfg(debug_assertions)]
type Class = (&'static str, u32, u32);

#[cfg(debug_assertions)]
fn class_of(site: Site) -> Class {
    (site.file(), site.line(), site.column())
}

#[cfg(debug_assertions)]
mod imp {
    use super::{class_of, Class};
    use crate::model::Site;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::sync::Mutex as StdMutex;

    thread_local! {
        /// Classes of locks the current thread holds, acquisition order.
        static HELD: RefCell<Vec<Class>> = const { RefCell::new(Vec::new()) };
    }

    /// Observed acquired-while-holding edges, process-wide.
    static EDGES: StdMutex<Option<HashMap<Class, HashSet<Class>>>> = StdMutex::new(None);

    fn fmt_class(c: Class) -> String {
        format!("{}:{}", c.0, c.1)
    }

    /// Depth-first reachability: is `to` reachable from `from`?
    fn reachable(
        edges: &HashMap<Class, HashSet<Class>>,
        from: Class,
        to: Class,
        path: &mut Vec<Class>,
    ) -> bool {
        if from == to {
            path.push(from);
            return true;
        }
        if path.contains(&from) {
            return false;
        }
        path.push(from);
        if let Some(nexts) = edges.get(&from) {
            for &n in nexts {
                if reachable(edges, n, to, path) {
                    return true;
                }
            }
        }
        path.pop();
        false
    }

    pub(super) fn on_acquire(site: Site) {
        let new = class_of(site);
        HELD.with(|held| {
            let held = held.borrow();
            if held.is_empty() {
                return;
            }
            let mut g = EDGES
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let edges = g.get_or_insert_with(HashMap::new);
            for &h in held.iter() {
                if h == new {
                    continue;
                }
                // Adding h -> new closes a cycle iff new already reaches h.
                let mut path = Vec::new();
                if !edges.get(&h).map(|s| s.contains(&new)).unwrap_or(false)
                    && reachable(edges, new, h, &mut path)
                    && !std::thread::panicking()
                {
                    let mut cycle: Vec<String> = path.iter().map(|&c| fmt_class(c)).collect();
                    cycle.push(fmt_class(new));
                    drop(g);
                    panic!(
                        "lock-order cycle: acquiring lock constructed at {} while \
                         holding {} would close the cycle [{}] — declare a consistent \
                         order (see crates/xtask/lock-order.toml)",
                        fmt_class(new),
                        fmt_class(h),
                        cycle.join(" -> "),
                    );
                }
                edges.entry(h).or_default().insert(new);
            }
        });
        HELD.with(|held| held.borrow_mut().push(new));
    }

    pub(super) fn on_release(site: Site) {
        let class = class_of(site);
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&c| c == class) {
                held.remove(pos);
            }
        });
    }
}

/// Records an acquisition of the lock constructed at `site`; panics if the
/// held-set plus this acquisition closes an order cycle. No-op in release.
#[inline]
pub(crate) fn on_acquire(site: Site) {
    #[cfg(debug_assertions)]
    imp::on_acquire(site);
}

/// Records the release of the lock constructed at `site`. No-op in release.
#[inline]
pub(crate) fn on_release(site: Site) {
    #[cfg(debug_assertions)]
    imp::on_release(site);
}
