//! In-memory spans recorded around calls into each layer's public
//! functions, their self-time breakdown, and a Chrome trace-event export
//! (written by hand: the benchmark takes no dependency beyond the stack
//! it measures). Open the exported file in Perfetto or `chrome://tracing`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the span that caused it in the same
/// [`Trace`]; spans of one request share `req`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread, or of a whole run once merged.
pub struct Trace {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`; threads of one
    /// run share the epoch so their spans line up.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Trace {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            tid: self.tid,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Renames an open or closed span, for calls whose layer is only known
    /// once they return (a cache lookup that turned out to be a miss).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, re-basing its parent indices.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration of the spans named `name`, in ns (`None` if absent).
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| (sum + s.dur_ns(), n + 1));
        (n > 0).then(|| sum as f64 / n as f64)
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Index of the root (parentless) ancestor of each span.
    fn roots(&self) -> Vec<usize> {
        let mut roots = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always opened before their children.
            roots.push(s.parent.map_or(i, |p| roots[p]));
        }
        roots
    }

    /// Self time per span name, summed over the trees rooted at spans
    /// named `root`, as a share of those roots' total duration. The root's
    /// own entry is the time no layer accounts for.
    pub fn self_shares(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let roots = self.roots();
        let selfs = self.self_times();
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(Span::dur_ns)
            .sum();
        let mut shares = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[roots[i]].name == root {
                *shares.entry(s.name).or_insert(0.0) += selfs[i] as f64;
            }
        }
        for v in shares.values_mut() {
            *v /= total.max(1) as f64;
        }
        shares
    }

    /// 1 − Σ layer self time ÷ end-to-end time over the trees rooted at
    /// spans named `root`.
    pub fn unaccounted_share(&self, root: &str) -> f64 {
        self.self_shares(root).get(root).copied().unwrap_or(1.0)
    }

    /// The trace as Chrome trace-event JSON (complete `X` events, times in
    /// microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_shares_sum_to_one() {
        let mut t = Trace::new(Instant::now(), 0);
        let root = t.open("request", None, 1);
        t.span("a", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = t.open("b", Some(root), 1);
        t.span("c", Some(b), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.close(b);
        t.close(root);
        let shares = t.self_shares("request");
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{shares:?}");
        assert!(shares["a"] > shares["c"]);
        assert!(t.unaccounted_share("request") < 0.5);
    }

    #[test]
    fn merge_rebases_parents_and_export_is_json_shaped() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch, 0);
        let r = a.open("request", None, 1);
        a.close(r);
        let mut b = Trace::new(epoch, 1);
        let r = b.open("request", None, 2);
        b.span("x", Some(r), 2, || ());
        b.close(r);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let json = a.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"parent\":1,\"req\":2"));
    }
}
