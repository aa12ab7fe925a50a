//! The hierarchical span-tree profile: completed spans aggregated by
//! full call path (`outer>inner>leaf`), with self-time attribution.
//!
//! This is the only span aggregate a registry keeps. It distinguishes
//! *where* a span ran: `core.level.corrupt` under `core.store.load` is a
//! different row than the same span under a bench loop; per-name call
//! counts are sums over the paths ending in that name
//! ([`ProfileEntry::name`]). Worker threads spawned by `vapp-par` install the
//! spawning thread's span path as a prefix
//! ([`crate::span::with_path_prefix`]), so worker-side spans fold into
//! the caller's subtree and the profile is identical at any thread
//! count (paths and counts exactly; durations are wall-clock).
//!
//! **Self time** is a snapshot-time derivation: a path's total minus
//! the total of its *direct* children, saturating at zero. Saturation
//! matters under parallelism — children that ran concurrently on N
//! workers can accumulate more wall-clock than their parent span's own
//! duration, which simply means the parent's self time is nil.

use std::fmt::Write as _;

use crate::registry::PathStats;

/// One aggregated call path in a snapshot's profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Full `>`-joined call path (e.g. `core.store.load>core.level.corrupt`).
    pub path: String,
    /// Completed instances of this exact path.
    pub count: u64,
    /// Total wall-clock time across instances, nanoseconds.
    pub total_ns: u64,
    /// Total minus direct children's total (saturating), nanoseconds.
    pub self_ns: u64,
    /// Fastest instance, nanoseconds.
    pub min_ns: u64,
    /// Slowest instance, nanoseconds.
    pub max_ns: u64,
}

impl ProfileEntry {
    /// Nesting depth: 1 for a root path.
    pub fn depth(&self) -> usize {
        self.path.matches('>').count() + 1
    }

    /// The leaf span name (last path segment).
    pub fn name(&self) -> &str {
        self.path.rsplit('>').next().unwrap_or(&self.path)
    }

    /// The parent path, if any.
    pub fn parent(&self) -> Option<&str> {
        self.path.rfind('>').map(|i| &self.path[..i])
    }

    /// Builds profile entries (path order, self time computed) from the
    /// registry's path → stats map.
    pub fn from_paths<'a>(
        paths: impl Iterator<Item = (&'a String, &'a PathStats)>,
    ) -> Vec<ProfileEntry> {
        let mut entries: Vec<ProfileEntry> = paths
            .map(|(path, s)| ProfileEntry {
                path: path.clone(),
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.total_ns,
                min_ns: if s.count == 0 { 0 } else { s.min_ns },
                max_ns: s.max_ns,
            })
            .collect();
        compute_self_times(&mut entries);
        entries
    }
}

/// Recomputes every entry's `self_ns` as total minus direct children's
/// total (saturating). Entries must be keyed by unique paths.
pub fn compute_self_times(entries: &mut [ProfileEntry]) {
    let mut child_totals: std::collections::BTreeMap<String, u64> = Default::default();
    for e in entries.iter() {
        if let Some(p) = e.parent() {
            *child_totals.entry(p.to_string()).or_insert(0) += e.total_ns;
        }
    }
    for e in entries.iter_mut() {
        let children = child_totals.get(&e.path).copied().unwrap_or(0);
        e.self_ns = e.total_ns.saturating_sub(children);
    }
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders the profile as an indented tree in path order: call count,
/// total, self, min..max per row.
pub fn render_tree(entries: &[ProfileEntry]) -> String {
    let mut out = String::new();
    if entries.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "{:<56} {:>8} {:>12} {:>12}  min..max",
        "path (tree)", "calls", "total", "self"
    );
    for e in entries {
        let indent = "  ".repeat(e.depth() - 1);
        let _ = writeln!(
            out,
            "{:<56} {:>8} {:>12} {:>12}  {}..{}",
            format!("{indent}{}", e.name()),
            e.count,
            fmt_ns(e.total_ns),
            fmt_ns(e.self_ns),
            fmt_ns(e.min_ns),
            fmt_ns(e.max_ns),
        );
    }
    out
}

/// Renders the top-`limit` paths by self time as a flat table, with
/// each row's share of the summed self time.
pub fn render_self_table(entries: &[ProfileEntry], limit: usize) -> String {
    let mut out = String::new();
    let total_self: u64 = entries.iter().map(|e| e.self_ns).sum();
    if entries.is_empty() || total_self == 0 {
        return out;
    }
    let mut by_self: Vec<&ProfileEntry> = entries.iter().collect();
    by_self.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    let _ = writeln!(
        out,
        "{:<64} {:>8} {:>12} {:>7}",
        "path (by self time)", "calls", "self", "share"
    );
    for e in by_self.iter().take(limit) {
        let _ = writeln!(
            out,
            "{:<64} {:>8} {:>12} {:>6.1}%",
            e.path,
            e.count,
            fmt_ns(e.self_ns),
            100.0 * e.self_ns as f64 / total_self as f64,
        );
    }
    if by_self.len() > limit {
        let _ = writeln!(out, "... ({} more paths)", by_self.len() - limit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &str, count: u64, total_ns: u64) -> ProfileEntry {
        ProfileEntry {
            path: path.into(),
            count,
            total_ns,
            self_ns: total_ns,
            min_ns: total_ns / count.max(1),
            max_ns: total_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut e = vec![
            entry("root", 1, 100),
            entry("root>a", 2, 30),
            entry("root>b", 1, 50),
            entry("root>a>leaf", 4, 25),
        ];
        compute_self_times(&mut e);
        let get = |p: &str| e.iter().find(|x| x.path == p).unwrap().self_ns;
        assert_eq!(get("root"), 20); // 100 − (30 + 50); grandchild not counted
        assert_eq!(get("root>a"), 5); // 30 − 25
        assert_eq!(get("root>b"), 50);
        assert_eq!(get("root>a>leaf"), 25);
    }

    #[test]
    fn parallel_children_saturate_self_time_at_zero() {
        // 4 workers × 40 ns of child wall-clock under a 100 ns parent.
        let mut e = vec![entry("root", 1, 100), entry("root>unit", 4, 160)];
        compute_self_times(&mut e);
        assert_eq!(e[0].self_ns, 0);
    }

    #[test]
    fn depth_name_and_parent_derive_from_the_path() {
        let e = entry("a.x>b.y>c.z", 1, 1);
        assert_eq!(e.depth(), 3);
        assert_eq!(e.name(), "c.z");
        assert_eq!(e.parent(), Some("a.x>b.y"));
        let root = entry("a.x", 1, 1);
        assert_eq!(root.depth(), 1);
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn renders_tree_and_self_table() {
        let mut e = vec![
            entry("root", 1, 2_000_000),
            entry("root>fast", 10, 400_000),
            entry("root>slow", 2, 1_500_000),
        ];
        compute_self_times(&mut e);
        let tree = render_tree(&e);
        assert!(tree.contains("root"));
        assert!(tree.contains("  fast"), "children indent:\n{tree}");
        let table = render_self_table(&e, 2);
        assert!(table.contains("root>slow"));
        assert!(table.contains("more paths"), "limit applies:\n{table}");
    }
}
