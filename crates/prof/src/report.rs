//! Merged profile reports and their two text exports.
//!
//! A [`Report`] is an immutable snapshot of the merged scope tree: nodes in
//! depth-first order with children sorted by scope id, so the same workload
//! renders the same report shape regardless of thread interleaving. Exports:
//!
//! * [`Report::render_tree`] — indented text with inclusive/exclusive
//!   percents, call counts and allocation attribution;
//! * [`Report::folded`] — `a;b;c value` folded stacks (exclusive
//!   nanoseconds) for standard flamegraph tooling.
//!
//! The Perfetto flame layout of a report lives with its one consumer,
//! `profile_report` (`astriflash_bench::profile`), which writes it
//! through the trace crate's single Perfetto writer.

use crate::tree::{Node, NONE};
use crate::Scope;

/// Aggregated counters for one scope, summed over every tree position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeTotals {
    pub calls: u64,
    pub incl_ns: u64,
    pub excl_ns: u64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

/// One node of the merged scope tree, in depth-first report order.
#[derive(Debug, Clone)]
pub struct ReportNode {
    /// `None` only for the synthetic root (unscoped allocations).
    pub scope: Option<Scope>,
    /// Root is 0; instrumented scopes start at depth 1.
    pub depth: usize,
    /// Index of the parent node in [`Report::nodes`] (root points to itself).
    pub parent: usize,
    pub calls: u64,
    pub incl_ns: u64,
    pub excl_ns: u64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

impl ReportNode {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        self.scope.map_or("(unscoped)", Scope::name)
    }
}

/// An immutable, merged profile snapshot. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Depth-first, children ordered by scope id; `nodes[0]` is the root.
    pub nodes: Vec<ReportNode>,
}

impl Report {
    pub(crate) fn from_nodes(raw: &[Node]) -> Report {
        let mut report = Report { nodes: Vec::new() };
        if raw.is_empty() {
            report.nodes.push(ReportNode {
                scope: None,
                depth: 0,
                parent: 0,
                calls: 0,
                incl_ns: 0,
                excl_ns: 0,
                alloc_calls: 0,
                alloc_bytes: 0,
            });
            return report;
        }
        // Depth-first copy with children sorted by scope id so the report
        // order is independent of scope-entry and thread-merge order.
        fn visit(raw: &[Node], idx: u32, depth: usize, parent: usize, out: &mut Vec<ReportNode>) {
            let n = &raw[idx as usize];
            let me = out.len();
            out.push(ReportNode {
                scope: Scope::from_u8(n.scope),
                depth,
                parent,
                calls: n.calls,
                incl_ns: n.incl_ns,
                excl_ns: n.excl_ns,
                alloc_calls: n.alloc_calls,
                alloc_bytes: n.alloc_bytes,
            });
            let mut children: Vec<u32> = Vec::new();
            let mut c = n.first_child;
            while c != NONE {
                children.push(c);
                c = raw[c as usize].next_sibling;
            }
            children.sort_by_key(|&c| raw[c as usize].scope);
            for c in children {
                visit(raw, c, depth + 1, me, out);
            }
        }
        visit(raw, 0, 0, 0, &mut report.nodes);
        report
    }

    /// True when no scope was ever entered.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Total profiled wall time: the summed inclusive time of all top-level
    /// scopes (children of the root).
    pub fn total_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.depth == 1)
            .map(|n| n.incl_ns)
            .sum()
    }

    /// Sums the counters of every tree position of `scope`.
    pub fn totals(&self, scope: Scope) -> ScopeTotals {
        let mut t = ScopeTotals::default();
        for n in &self.nodes {
            if n.scope == Some(scope) {
                t.calls += n.calls;
                t.incl_ns += n.incl_ns;
                t.excl_ns += n.excl_ns;
                t.alloc_calls += n.alloc_calls;
                t.alloc_bytes += n.alloc_bytes;
            }
        }
        t
    }

    /// Renders the indented text tree with inclusive/exclusive percents.
    pub fn render_tree(&self) -> String {
        let total = self.total_ns().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>12} {:>11} {:>6} {:>11} {:>6} {:>9} {:>12}\n",
            "scope", "calls", "incl(ms)", "incl%", "excl(ms)", "excl%", "allocs", "alloc(bytes)"
        ));
        for n in self.nodes.iter().skip(1) {
            let label = format!("{}{}", "  ".repeat(n.depth - 1), n.name());
            out.push_str(&format!(
                "{:<34} {:>12} {:>11.3} {:>6.1} {:>11.3} {:>6.1} {:>9} {:>12}\n",
                label,
                n.calls,
                n.incl_ns as f64 / 1e6,
                100.0 * n.incl_ns as f64 / total,
                n.excl_ns as f64 / 1e6,
                100.0 * n.excl_ns as f64 / total,
                n.alloc_calls,
                n.alloc_bytes,
            ));
        }
        let root = &self.nodes[0];
        if root.alloc_calls > 0 {
            out.push_str(&format!(
                "{:<34} {:>12} {:>11} {:>6} {:>11} {:>6} {:>9} {:>12}\n",
                "(unscoped)", "-", "-", "-", "-", "-", root.alloc_calls, root.alloc_bytes,
            ));
        }
        out
    }

    /// Emits folded stacks (`a;b;c value`, exclusive nanoseconds per line)
    /// consumable by standard flamegraph tooling.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if n.excl_ns == 0 {
                continue;
            }
            out.push_str(&self.path_of(i));
            out.push(' ');
            out.push_str(&n.excl_ns.to_string());
            out.push('\n');
        }
        out
    }

    fn path_of(&self, idx: usize) -> String {
        let mut parts: Vec<&'static str> = Vec::new();
        let mut i = idx;
        while i != 0 {
            parts.push(self.nodes[i].name());
            i = self.nodes[i].parent;
        }
        parts.reverse();
        parts.join(";")
    }
}

#[cfg(test)]
mod tests {
    use crate::{begin, scope, Scope};

    fn sample_report() -> crate::Report {
        let session = begin();
        {
            let _l = scope(Scope::EventLoop);
            {
                let _r = scope(Scope::EvResume);
                let _a = scope(Scope::DoAccess);
            }
            let _p = scope(Scope::EvPageArrived);
        }
        session.finish()
    }

    #[test]
    fn tree_render_includes_every_scope_once_per_position() {
        let report = sample_report();
        let text = report.render_tree();
        for name in ["event_loop", "ev_resume", "do_access", "ev_page_arrived"] {
            assert_eq!(
                text.matches(name).count(),
                1,
                "{name} should appear exactly once in:\n{text}"
            );
        }
        assert!(text.contains("incl%"));
    }

    #[test]
    fn folded_paths_are_rooted_and_semicolon_separated() {
        let report = sample_report();
        let folded = report.folded();
        assert!(
            folded
                .lines()
                .any(|l| l.starts_with("event_loop;ev_resume;do_access ")),
            "missing nested path in:\n{folded}"
        );
        for line in folded.lines() {
            let (path, value) = line.rsplit_once(' ').expect("`path value` shape");
            assert!(path.starts_with("event_loop"));
            assert!(value.parse::<u64>().is_ok());
        }
    }
}
