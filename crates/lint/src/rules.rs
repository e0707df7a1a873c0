//! The rule passes.
//!
//! Five deny-level rule families (`safety-coverage`, `panic-freedom`,
//! `secret-hygiene`, `lock-order`, `metric-hygiene`) plus one advisory rule
//! (`slice-index`). Per-file rules run over a [`FileModel`]; the
//! secret-hygiene and lock-order rules are global passes over every model
//! at once.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::parse::{FileModel, StructItem};
use crate::{Finding, Rule};

/// Hot-path modules under the panic-freedom gate: the request path of the
/// delivery API, the decode/store loops, the fleet scheduler's ready queue,
/// and the telemetry record path (which every one of those loops now calls
/// into). Everything else may use `unwrap`/`expect` where a panic is a
/// programming error.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/api/src/http.rs",
    "crates/api/src/router.rs",
    "crates/api/src/server.rs",
    "crates/core/src/engine.rs",
    "crates/hetero/src/placement.rs",
    "crates/journal/src/frame.rs",
    "crates/journal/src/journal.rs",
    "crates/journal/src/record.rs",
    "crates/journal/src/replay.rs",
    "crates/ldpc/src/decoder.rs",
    "crates/ldpc/src/simd.rs",
    "crates/manager/src/sched.rs",
    "crates/manager/src/store.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/histogram.rs",
    "crates/privacy/src/toeplitz.rs",
];

/// Types whose values are (or directly wrap) secret key material. Structs
/// named here — plus any struct with a `// SECRET` comment directly above
/// its definition — are held to the secret-hygiene rule.
pub const SECRET_REGISTRY: &[&str] = &[
    "SecretBuf",
    "SecretKey",
    "DeliveredKey",
    "Reservation",
    "LinkStore",
    "ToeplitzHash",
    "Authenticator",
    "ReconcilerScratch",
];

/// Field types that count as *raw* (non-self-zeroizing) key-material
/// carriers. A registered struct may hold these only if it has a Drop impl
/// that scrubs them; `SecretBuf` fields are always fine (it scrubs itself).
const RAW_CARRIERS: &[&str] = &["BitVec"];

/// Comment markers that discharge the safety-coverage rule.
const SAFETY_MARKERS: &[&str] = &["SAFETY:", "Safety:", "# Safety"];

fn finding(rule: Rule, model: &FileModel, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: model.path.clone(),
        line,
        message,
        excerpt: model.line_text(line).to_string(),
    }
}

/// safety-coverage: every `unsafe` keyword must be covered by a `// SAFETY:`
/// comment (or a `# Safety` doc section for `unsafe fn`) directly above it —
/// attribute lines and further comment lines in between are fine, code or
/// blank lines break the association. A trailing comment on the same line
/// also counts.
pub fn safety_coverage(model: &FileModel, out: &mut Vec<Finding>) {
    for (i, tok) in model.tokens.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        // `unsafe` inside an attribute (`#[allow(unsafe_code)]` spells it as
        // an ident too) — attributes are not unsafe sites.
        if model.attr_lines.contains(&tok.line) && !model.code_lines.is_empty() {
            // Attr lines can share a line with code; double-check the next
            // token: a real unsafe site is followed by `fn`/`impl`/`{`/`extern`.
            let next = model.tokens.get(i + 1);
            let real = next.is_some_and(|t| {
                t.is_ident("fn")
                    || t.is_ident("impl")
                    || t.is_ident("extern")
                    || t.is_ident("trait")
                    || t.is_punct('{')
            });
            if !real {
                continue;
            }
        }
        let covered = model.covered_by_comment_above(tok.line, SAFETY_MARKERS)
            || model
                .comment_on(tok.line)
                .is_some_and(|c| SAFETY_MARKERS.iter().any(|m| c.text.contains(m)));
        if !covered {
            let what = match model.tokens.get(i + 1) {
                Some(t) if t.is_ident("fn") => "unsafe fn",
                Some(t) if t.is_ident("impl") => "unsafe impl",
                _ => "unsafe block",
            };
            out.push(finding(
                Rule::SafetyCoverage,
                model,
                tok.line,
                format!("{what} without a `// SAFETY:` comment directly above"),
            ));
        }
    }
}

/// True when `model.path` is one of the hot-path modules.
pub fn is_hot_path(model: &FileModel) -> bool {
    HOT_PATH_FILES.iter().any(|f| model.path.ends_with(f))
}

/// panic-freedom: no `.unwrap()` / `.expect(` / `panic!` / `todo!` /
/// `unimplemented!` / `unreachable!` in hot-path modules outside test code.
pub fn panic_freedom(model: &FileModel, out: &mut Vec<Finding>) {
    if !is_hot_path(model) {
        return;
    }
    let toks = &model.tokens;
    for i in 0..toks.len() {
        if model.token_in_test[i] {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(...)` — require the preceding dot so fn
        // definitions named `unwrap` (none today) are not flagged.
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(finding(
                Rule::PanicFreedom,
                model,
                t.line,
                format!(
                    "`.{}()` on the hot path; return a typed error instead",
                    t.text
                ),
            ));
            continue;
        }
        // Panicking macros.
        if matches!(
            t.text.as_str(),
            "panic" | "todo" | "unimplemented" | "unreachable"
        ) && t.kind == crate::lexer::TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(finding(
                Rule::PanicFreedom,
                model,
                t.line,
                format!(
                    "`{}!` on the hot path; return a typed error instead",
                    t.text
                ),
            ));
        }
    }
}

/// slice-index (advisory): `expr[...]` indexing in hot-path modules can
/// panic on out-of-bounds. Full-range `[..]` and test code are skipped.
/// This rule is warn-level by default: the decode loops index heavily with
/// locally-proven bounds, and those sites are acknowledged in the baseline
/// rather than rewritten into `get()` chains.
pub fn slice_index(model: &FileModel, out: &mut Vec<Finding>) {
    if !is_hot_path(model) {
        return;
    }
    let toks = &model.tokens;
    let mut reported_lines: HashSet<u32> = HashSet::new();
    for i in 1..toks.len() {
        if model.token_in_test[i] {
            continue;
        }
        if !toks[i].is_punct('[') {
            continue;
        }
        // Indexing only: previous token ends an expression.
        let prev = &toks[i - 1];
        let is_index = (prev.kind == crate::lexer::TokenKind::Ident
            && !matches!(
                prev.text.as_str(),
                "mut" | "ref" | "return" | "in" | "as" | "let" | "else" | "match" | "box"
            ))
            || prev.is_punct(')')
            || prev.is_punct(']');
        if !is_index || model.attr_lines.contains(&toks[i].line) {
            continue;
        }
        // Skip full-range `[..]`.
        if toks.get(i + 1).is_some_and(|a| a.is_punct('.'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct('.'))
            && toks.get(i + 3).is_some_and(|c| c.is_punct(']'))
        {
            continue;
        }
        // One diagnostic per line keeps dense kernels readable.
        if reported_lines.insert(toks[i].line) {
            out.push(finding(
                Rule::SliceIndex,
                model,
                toks[i].line,
                "slice indexing on the hot path can panic; prefer `get`/iterators or acknowledge in the baseline".to_string(),
            ));
        }
    }
}

/// Method calls that expose raw key material out of its zeroizing wrapper.
const SECRET_EXPOSERS: &[&str] = &["expose", "expose_mut", "take_bits"];

/// Calls and macros whose arguments end up in telemetry output: metric
/// labels, span fields and the ring-buffer event log.
const OBS_SINK_CALLS: &[&str] = &["record_event", "counter", "gauge", "histogram"];
const OBS_SINK_MACROS: &[&str] = &["event", "span"];

/// metric-hygiene: a line that exposes raw key material
/// (`.expose()` / `.expose_mut()` / `.take_bits()`) must not also feed a
/// telemetry sink (`event!` / `span!` / `record_event(` / `counter(` /
/// `gauge(` / `histogram(`). Telemetry is exported unauthenticated over
/// `/metrics`, so only redacted forms (lengths, `SecretBuf` fingerprints)
/// may reach it. Line granularity keeps the rule cheap and predictable;
/// laundering through a local binding is out of scope for a lexical pass.
pub fn metric_hygiene(model: &FileModel, out: &mut Vec<Finding>) {
    let toks = &model.tokens;
    let mut exposed_lines: HashSet<u32> = HashSet::new();
    let mut sink_lines: HashSet<u32> = HashSet::new();
    for i in 0..toks.len() {
        if model.token_in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        if SECRET_EXPOSERS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            exposed_lines.insert(t.line);
        }
        if OBS_SINK_CALLS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            sink_lines.insert(t.line);
        }
        if OBS_SINK_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            sink_lines.insert(t.line);
        }
    }
    let mut lines: Vec<u32> = exposed_lines.intersection(&sink_lines).copied().collect();
    lines.sort_unstable();
    for line in lines {
        out.push(finding(
            Rule::MetricHygiene,
            model,
            line,
            "exposed key material on a telemetry-sink line; record a length or `SecretBuf` fingerprint instead".to_string(),
        ));
    }
}

/// secret-hygiene (global): registered or `// SECRET`-annotated structs must
/// not derive `Debug`/`Serialize` (a redacting manual impl is required
/// instead), and may hold raw carrier fields (`BitVec`) only when a Drop
/// impl exists to scrub them.
pub fn secret_hygiene(models: &[FileModel], out: &mut Vec<Finding>) {
    let drop_impls: HashSet<&str> = models
        .iter()
        .flat_map(|m| m.drop_impls.iter().map(String::as_str))
        .collect();
    for model in models {
        for s in &model.structs {
            if s.in_test {
                continue;
            }
            let registered = SECRET_REGISTRY.contains(&s.name.as_str()) || s.secret_annotated;
            if !registered {
                continue;
            }
            check_secret_struct(model, s, &drop_impls, out);
        }
    }
}

fn check_secret_struct(
    model: &FileModel,
    s: &StructItem,
    drop_impls: &HashSet<&str>,
    out: &mut Vec<Finding>,
) {
    for bad in ["Debug", "Serialize"] {
        if s.derives.iter().any(|d| d == bad) {
            out.push(finding(
                Rule::SecretHygiene,
                model,
                s.line,
                format!(
                    "secret type `{}` derives `{bad}`; write a redacting impl (length/fingerprint, never bytes)",
                    s.name
                ),
            ));
        }
    }
    let raw_fields: Vec<&str> = s
        .fields
        .iter()
        .filter(|f| {
            RAW_CARRIERS.iter().any(|c| {
                f.ty.split(|ch: char| !ch.is_alphanumeric() && ch != '_')
                    .any(|w| w == *c)
            })
        })
        .map(|f| f.name.as_str())
        .collect();
    if !raw_fields.is_empty() && !drop_impls.contains(s.name.as_str()) {
        out.push(finding(
            Rule::SecretHygiene,
            model,
            s.line,
            format!(
                "secret type `{}` holds raw key material ({}) but has no zeroizing `Drop` impl; wrap in `SecretBuf` or scrub on drop",
                s.name,
                raw_fields.join(", ")
            ),
        ));
    }
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
struct Acquire {
    lock: String,
    file: String,
    line: u32,
}

/// lock-order (global): builds a lexical lock-acquisition graph — intra-
/// function "A held while B acquired" edges plus cross-function edges via a
/// simple-name call graph — and flags cycles. Lock identity is
/// `file-stem::receiver` so unrelated same-named fields in different files
/// do not alias. Guards are modelled as held until their enclosing brace
/// closes (an over-approximation: early `drop()` is invisible), and
/// re-acquisition of the *same* lock is not reported (temporary guards make
/// it too noisy to gate on).
pub fn lock_order(models: &[FileModel], out: &mut Vec<Finding>) {
    // Per function: ordered edge list and flat acquisition set.
    #[derive(Default)]
    struct FnLocks {
        edges: Vec<(String, Acquire)>,
        acquired: BTreeSet<String>,
        calls: Vec<(Vec<String>, String, u32, String)>, // (held, callee, line, file)
    }
    let mut fn_locks: HashMap<String, FnLocks> = HashMap::new();
    let fn_names: HashSet<&str> = models
        .iter()
        .flat_map(|m| m.fns.iter().filter(|f| !f.in_test).map(|f| f.name.as_str()))
        .collect();

    for model in models {
        let stem = file_stem(&model.path);
        for f in &model.fns {
            if f.in_test {
                continue;
            }
            let entry = fn_locks.entry(f.name.clone()).or_default();
            let (open, close) = f.body;
            let toks = &model.tokens;
            let mut depth = 0usize;
            // Held locks: (identity, depth acquired at).
            let mut held: Vec<(String, usize)> = Vec::new();
            let mut i = open;
            while i <= close.min(toks.len().saturating_sub(1)) {
                let t = &toks[i];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                    held.retain(|(_, d)| *d <= depth);
                } else if t.is_punct('.')
                    && toks.get(i + 1).is_some_and(|m| {
                        m.is_ident("lock") || m.is_ident("read") || m.is_ident("write")
                    })
                    && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
                    && toks.get(i + 3).is_some_and(|p| p.is_punct(')'))
                {
                    // Receiver: the ident just before the dot.
                    if i > open {
                        let r = &toks[i - 1];
                        if r.kind == crate::lexer::TokenKind::Ident && !r.is_ident("self") {
                            let id = format!("{stem}::{}", r.text);
                            let acq = Acquire {
                                lock: id.clone(),
                                file: model.path.clone(),
                                line: t.line,
                            };
                            for (h, _) in &held {
                                if *h != id {
                                    entry.edges.push((h.clone(), acq.clone()));
                                }
                            }
                            entry.acquired.insert(id.clone());
                            held.push((id, depth));
                            i += 4;
                            continue;
                        }
                    }
                } else if t.kind == crate::lexer::TokenKind::Ident
                    && fn_names.contains(t.text.as_str())
                    && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
                    && t.text != f.name
                    && !held.is_empty()
                {
                    entry.calls.push((
                        held.iter().map(|(h, _)| h.clone()).collect(),
                        t.text.clone(),
                        t.line,
                        model.path.clone(),
                    ));
                }
                i += 1;
            }
        }
    }

    // Transitive lock sets per function (fixpoint over the call graph).
    let mut transitive: HashMap<String, BTreeSet<String>> = fn_locks
        .iter()
        .map(|(name, fl)| (name.clone(), fl.acquired.clone()))
        .collect();
    loop {
        let mut changed = false;
        let names: Vec<String> = transitive.keys().cloned().collect();
        for name in &names {
            let callees: Vec<String> = fn_locks
                .get(name)
                .map(|fl| fl.calls.iter().map(|(_, c, _, _)| c.clone()).collect())
                .unwrap_or_default();
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in callees {
                if let Some(set) = transitive.get(&callee) {
                    add.extend(set.iter().cloned());
                }
            }
            if let Some(own) = transitive.get_mut(name) {
                let before = own.len();
                own.extend(add);
                changed |= own.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Global edge graph with one sample site per edge.
    let mut graph: BTreeMap<String, BTreeMap<String, (String, u32)>> = BTreeMap::new();
    for fl in fn_locks.values() {
        for (held, acq) in &fl.edges {
            graph
                .entry(held.clone())
                .or_default()
                .entry(acq.lock.clone())
                .or_insert((acq.file.clone(), acq.line));
        }
        for (held_set, callee, line, file) in &fl.calls {
            if let Some(locks) = transitive.get(callee) {
                for h in held_set {
                    for l in locks {
                        if l != h {
                            graph
                                .entry(h.clone())
                                .or_default()
                                .entry(l.clone())
                                .or_insert((file.clone(), *line));
                        }
                    }
                }
            }
        }
    }

    // Cycle detection: iterative DFS with colouring; report each cycle once.
    let mut colour: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white 1 grey 2 black
    let mut reported: BTreeSet<String> = BTreeSet::new();
    let nodes: Vec<&String> = graph.keys().collect();
    for start in nodes {
        if colour.get(start.as_str()).copied().unwrap_or(0) != 0 {
            continue;
        }
        // (node, next-neighbour cursor)
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(
            start.as_str(),
            graph
                .get(start.as_str())
                .map(|m| m.keys().map(String::as_str).collect())
                .unwrap_or_default(),
        )];
        colour.insert(start.as_str(), 1);
        let mut path: Vec<&str> = vec![start.as_str()];
        while let Some((node, neighbours)) = stack.last_mut() {
            if let Some(next) = neighbours.pop() {
                match colour.get(next).copied().unwrap_or(0) {
                    0 => {
                        colour.insert(next, 1);
                        path.push(next);
                        let nn = graph
                            .get(next)
                            .map(|m| m.keys().map(String::as_str).collect())
                            .unwrap_or_default();
                        stack.push((next, nn));
                    }
                    1 => {
                        // Found a cycle: slice the current path from `next`.
                        let pos = path.iter().position(|p| *p == next).unwrap_or(0);
                        let mut cycle: Vec<&str> = path[pos..].to_vec();
                        cycle.push(next);
                        // Canonical key so each cycle reports once.
                        let mut sorted: Vec<&str> = cycle.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        let key = sorted.join("|");
                        if reported.insert(key) {
                            let (file, line) = graph
                                .get(*node)
                                .and_then(|m| m.get(next))
                                .cloned()
                                .unwrap_or_default();
                            out.push(Finding {
                                rule: Rule::LockOrder,
                                file,
                                line,
                                message: format!(
                                    "lock-order cycle: {} — acquire these locks in one global order",
                                    cycle.join(" -> ")
                                ),
                                excerpt: String::new(),
                            });
                        }
                    }
                    _ => {}
                }
            } else {
                colour.insert(node, 2);
                stack.pop();
                path.pop();
            }
        }
    }
}

fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

/// Runs every rule over `models`, returning findings sorted by file/line.
pub fn run_all(models: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in models {
        safety_coverage(m, &mut out);
        panic_freedom(m, &mut out);
        slice_index(m, &mut out);
        metric_hygiene(m, &mut out);
    }
    secret_hygiene(models, &mut out);
    lock_order(models, &mut out);
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    out
}
