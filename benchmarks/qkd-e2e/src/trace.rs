//! The benchmark's own span recorder. Spans are taken around the calls the
//! benchmark makes into each layer, kept in one vector per thread, and
//! written out as JSON lines when the run ends; nothing inside the program
//! is instrumented by this PR.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; spans of one exchange (or
/// one replayed block, or one intake round) share `trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace: u64,
    pub span: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (requests, epochs, blocks, frames).
    pub count: u64,
}

/// A thread's span log. Span ids carry the thread index in their high bits,
/// so logs merge without coordination.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread `thread`, measuring from `origin`. A disabled log
    /// hands out ids but keeps nothing (the untraced run).
    pub fn new(enabled: bool, origin: Instant, thread: u64) -> Self {
        Self {
            enabled,
            origin,
            next: (thread + 1) << 40,
            spans: Vec::new(),
        }
    }

    /// Whether this log keeps spans (the traced run).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id, so children can name a parent that ends after them.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Records a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        span: u64,
        trace: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                trace,
                span,
                parent,
                layer,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                count,
            });
        }
    }

    /// Records a finished leaf span.
    pub fn leaf(
        &mut self,
        trace: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id();
        self.record(id, trace, parent, layer, name, start, end, 1);
    }
}

/// Totals of one `(layer, name)` span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its direct children cover.
    pub self_ns: u64,
}

/// Sums spans by kind. A span's self time is its duration minus the overlap
/// of its direct children with it (children are clipped to the parent, and
/// the benchmark never runs two children of one parent at the same time).
pub fn totals_by_kind(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), SpanTotals> {
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.span, (s.start_ns, s.end_ns)))
        .collect();
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(&(lo, hi)) = bounds.get(&s.parent) {
            let overlap = s.end_ns.min(hi).saturating_sub(s.start_ns.max(lo));
            *covered.entry(s.parent).or_default() += overlap;
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), SpanTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let children = covered.get(&s.span).copied().unwrap_or(0);
        let kind = out.entry((s.layer, s.name)).or_default();
        kind.spans += 1;
        kind.total_ns += duration;
        kind.self_ns += duration.saturating_sub(children);
    }
    out
}

/// One span per line, as JSON.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{}}}",
            s.trace, s.span, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            span: id,
            parent,
            layer: "api",
            name,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(1, 0, "exchange", 0, 1000),
            span(2, 1, "status", 100, 300),
            span(3, 1, "enc_keys", 300, 600),
            // Runs past its parent: only the part inside counts.
            span(4, 1, "dec_keys", 700, 1200),
            // Grandchild: charged to `status`, not to the exchange.
            span(5, 2, "parse", 150, 200),
        ];
        let totals = totals_by_kind(&spans);
        let exchange = totals[&("api", "exchange")];
        assert_eq!(exchange.total_ns, 1000);
        assert_eq!(exchange.self_ns, 1000 - 200 - 300 - 300);
        assert_eq!(totals[&("api", "status")].self_ns, 200 - 50);
        assert_eq!(totals[&("api", "dec_keys")].self_ns, 500);
        assert_eq!(totals[&("api", "parse")].spans, 1);
    }

    #[test]
    fn a_disabled_log_keeps_nothing_and_ids_do_not_collide() {
        let origin = Instant::now();
        let mut off = SpanLog::new(false, origin, 0);
        let mut on = SpanLog::new(true, origin, 1);
        let later = origin + Duration::from_micros(5);
        off.leaf(1, 0, "api", "status", origin, later);
        on.leaf(1, 0, "api", "status", origin, later);
        assert!(off.spans.is_empty());
        assert_eq!(on.spans.len(), 1);
        assert_eq!(on.spans[0].end_ns, 5_000);
        assert_ne!(off.next_id() >> 40, on.next_id() >> 40);
        let line = to_jsonl(&on.spans);
        assert!(line.starts_with("{\"trace\":1,") && line.ends_with("\"counts\":1}\n"));
    }
}
