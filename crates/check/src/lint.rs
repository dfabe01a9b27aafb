//! The protocol lint pass: four rules over the workspace's protocol crates.
//!
//! This is a deliberately hand-rolled line/token scanner — no syn, no
//! proc-macro machinery — because the build environment is offline and the
//! rules only need token-level precision:
//!
//! * **L1** — no `.unwrap()` / `.expect(` / `panic!(` in protocol crates
//!   (`core`, `cluster`, `storage`, `net`). A replica must degrade by
//!   returning typed errors, not by tearing down the process mid-protocol.
//! * **L2** — no wildcard `_ =>` match arms in those same crates. Message
//!   and RPC dispatch must be exhaustive so that adding a `Message` variant
//!   forces every handler to be revisited.
//! * **L3** — no wall-clock reads (`Instant::now`, `SystemTime::now`),
//!   `thread::sleep` or environment reads (`env::var`, `env::var_os`) in
//!   the deterministic paths (`core`, `obs`, `sim`, `types`) or scattered
//!   through `net` (whose single sanctioned wall-clock boundary is
//!   `nbr-net::clock`, each use justified inline). Time enters the sans-I/O
//!   engine only as explicit [`nbr_types::Time`] values — probe timestamps
//!   included, which is what keeps traces replayable and the sim
//!   bit-identical across runs — and the environment is an input the same
//!   way: what a run does is set by its configuration, not by a variable
//!   read mid-protocol.
//! * **L4** — no unchecked `+` / `-` directly on the raw `.0` of
//!   `LogIndex` / `Term`-like newtypes in `core`, `cluster`, `storage`.
//!   Use the sanctioned wrappers (`next()`, `prev()`, `plus()`, `diff()`)
//!   in `nbr-types::ids`, which centralize the overflow story.
//! * **L5** — no thread waits behind another thread's socket write: no
//!   blocking transport write (`write_all`, `write_frames`, `write_within`,
//!   `flush`) while a `.lock()` guard is live, in `cluster` and `net`. A
//!   writer takes what it writes to *out* of the lock — a connection's
//!   write half out of a `Mutex<Option<…>>` in one statement — writes with
//!   no guard held and puts it back; a thread that finds it gone does
//!   something else (queues, or leaves its bytes for the writer) instead of
//!   waiting on the lock while a slow peer stalls the write. A guard is
//!   live from a `let g = m.lock();` (or an `if let`/`while let` over a
//!   locked value) until its block closes or an explicit `drop(g)`; a plain
//!   `let` that goes on past `.lock()` keeps only what it took, and the
//!   guard dies at the end of that statement.
//! * **L6** — no lock-order cycles in `cluster` and `net`. Every
//!   `.lock()` reached while another guard is live contributes a
//!   `held → acquired` edge to one workspace-wide acquisition graph (lock
//!   identity is the locked field/binding name; an element of an indexed
//!   collection — `lanes[g].lock()` — is identified as `lanes[_]`, one
//!   conservative identity per collection); a cycle in that graph is a deadlock
//!   waiting for the right thread interleaving, so every edge on a cycle
//!   is reported at its acquisition site. Nested acquisition in one global
//!   order is fine — only cycles are flagged.
//!
//! A finding can be suppressed per line with a trailing
//! `// check:allow(L1): justification` comment. The justification is
//! mandatory: a suppression without one is itself a violation. A
//! justified allow whose rule can no longer fire on that line (the rule
//! does not apply to the crate, the line sits in a `#[cfg(test)]` module,
//! or the pattern is simply gone) is *stale* and is itself reported, so
//! escape hatches cannot outlive the code they excused.
//!
//! `#[cfg(test)]` modules are skipped entirely (tests may unwrap freely),
//! as are comments and string literals.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File path, relative to the workspace root where possible.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`L1`..`L5`, or `SUPPRESS` for malformed allow directives).
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Which crates each rule applies to (directory name under `crates/`).
const L1_SCOPE: &[&str] = &["core", "cluster", "storage", "net"];
const L2_SCOPE: &[&str] = &["core", "cluster", "storage", "net"];
const L3_SCOPE: &[&str] = &["core", "obs", "sim", "types", "net"];
const L4_SCOPE: &[&str] = &["core", "cluster", "storage", "net"];
const L5_SCOPE: &[&str] = &["cluster", "net"];
const L6_SCOPE: &[&str] = &["cluster", "net"];

const KNOWN_RULES: &[&str] = &["L1", "L2", "L3", "L4", "L5", "L6"];

/// Newtype field-name suffixes whose raw `.0` arithmetic L4 flags.
const L4_SUFFIXES: &[&str] = &["index", "idx", "term"];

/// Blocking transport-write calls L5 refuses under a held lock guard.
const L5_WRITES: &[&str] = &[".write_all(", "write_frames(", "write_within(", ".flush()"];

/// Lint every `.rs` file under `crates/*/src` below `root`.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let crates_dir = root.join("crates");
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries.flatten() {
        let crate_name = entry.file_name().to_string_lossy().into_owned();
        if crate_name == "check" {
            continue; // the linter itself: its docs/tests spell out directives
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &crate_name, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    let mut sources: Vec<(String, String, String)> = Vec::new();
    for (crate_name, path) in files {
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        out.extend(lint_source(&crate_name, &rel, &text));
        sources.push((crate_name, rel, text));
    }
    // L6 spans files: the acquisition graph is workspace-wide.
    let refs: Vec<(&str, &str, &str)> =
        sources.iter().map(|(c, f, t)| (c.as_str(), f.as_str(), t.as_str())).collect();
    out.extend(lint_lock_order(&refs));
    Ok(out)
}

fn collect_rs_files(
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((crate_name.to_string(), path));
        }
    }
    Ok(())
}

/// A parsed `// check:allow(ID): justification` directive.
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    justified: bool,
    known: bool,
}

/// Lint a single source text. `crate_name` selects which rules apply.
pub fn lint_source(crate_name: &str, file: &str, text: &str) -> Vec<Violation> {
    let raw_lines: Vec<&str> = text.lines().collect();
    let blanked = blank_comments_and_strings(text);
    let blanked_lines: Vec<&str> = blanked.lines().collect();
    let test_lines = cfg_test_lines(&blanked);

    let l1 = L1_SCOPE.contains(&crate_name);
    let l2 = L2_SCOPE.contains(&crate_name);
    let l3 = L3_SCOPE.contains(&crate_name);
    let l4 = L4_SCOPE.contains(&crate_name);
    let l5 = L5_SCOPE.contains(&crate_name);

    // L5 tracks guard lifetimes across lines, so it runs as a pre-pass;
    // findings land on the write line and honor that line's allows.
    let l5_hits: Vec<(usize, String)> =
        if l5 { lock_held_writes(&blanked_lines) } else { Vec::new() };

    let mut out = Vec::new();
    for (i, raw) in raw_lines.iter().enumerate() {
        let lineno = i + 1;
        let allows = parse_allows(raw);
        for a in &allows {
            if !a.known {
                out.push(Violation {
                    file: file.to_string(),
                    line: lineno,
                    rule: "SUPPRESS",
                    msg: format!("unknown rule id in check:allow({})", a.rule),
                });
            } else if !a.justified {
                out.push(Violation {
                    file: file.to_string(),
                    line: lineno,
                    rule: "SUPPRESS",
                    msg: format!(
                        "check:allow({}) requires a justification: `// check:allow({}): why`",
                        a.rule, a.rule
                    ),
                });
            }
        }
        let in_test = test_lines.get(i).copied().unwrap_or(false);
        // Raw findings for this line, before suppression — also the ground
        // truth the stale-allow check compares directives against.
        let mut raw_findings: Vec<(&'static str, String)> = Vec::new();
        let code = blanked_lines.get(i).copied().unwrap_or("");
        if !in_test {
            let mut push = |rule: &'static str, msg: String| raw_findings.push((rule, msg));
            if l1 {
                if code.contains(".unwrap()") {
                    push("L1", "`.unwrap()` in protocol code; return a typed error".into());
                }
                if code.contains(".expect(") {
                    push("L1", "`.expect(...)` in protocol code; return a typed error".into());
                }
                if code.contains("panic!(") {
                    push("L1", "`panic!` in protocol code; return a typed error".into());
                }
            }
            if l2 && has_wildcard_arm(code) {
                push("L2", "wildcard `_ =>` arm; dispatch matches must be exhaustive".into());
            }
            if l3 {
                for pat in ["Instant::now", "SystemTime::now", "thread::sleep"] {
                    if code.contains(pat) {
                        push(
                            "L3",
                            format!(
                                "`{pat}` in a deterministic path; time must come from the harness"
                            ),
                        );
                    }
                }
                if code.contains("env::var") {
                    push(
                        "L3",
                        "`env::var` in a deterministic path; settings must come from the harness"
                            .into(),
                    );
                }
            }
            if l4 {
                if let Some(ident) = unchecked_newtype_arith(code) {
                    push(
                        "L4",
                        format!(
                            "raw `+`/`-` on `{ident}.0`; use the LogIndex/Term wrappers (next/prev/plus/diff)"
                        ),
                    );
                }
            }
            for (_, guard) in l5_hits.iter().filter(|(at, _)| *at == i) {
                push(
                    "L5",
                    format!(
                        "blocking transport write while `.lock()` guard `{guard}` is live; drop the guard before I/O"
                    ),
                );
            }
        }
        let mut used: Vec<&str> = Vec::new();
        for (rule, msg) in raw_findings {
            if allows.iter().any(|a| a.rule == rule && a.justified) {
                used.push(rule);
            } else {
                out.push(Violation { file: file.to_string(), line: lineno, rule, msg });
            }
        }
        // A justified allow that excuses nothing is stale: the code it
        // covered is gone, the crate left the rule's scope, or the line
        // moved into a #[cfg(test)] module. L6 allows are checked by the
        // workspace-wide lock-order pass instead.
        for a in &allows {
            if a.known && a.justified && a.rule != "L6" && !used.contains(&a.rule.as_str()) {
                out.push(Violation {
                    file: file.to_string(),
                    line: lineno,
                    rule: "SUPPRESS",
                    msg: format!(
                        "stale check:allow({}): no {} finding on this line; drop the directive",
                        a.rule, a.rule
                    ),
                });
            }
        }
    }
    out
}

/// One `held → acquired` lock-acquisition edge, at its acquisition site.
#[derive(Debug, Clone)]
struct LockEdge {
    held: String,
    acquired: String,
    file: String,
    line: usize,
    allowed: bool,
}

/// L6: build the workspace-wide lock-acquisition graph and flag every edge
/// that sits on a cycle. Also reports stale `check:allow(L6)` directives
/// (lines that contribute no nested acquisition, or crates out of scope).
fn lint_lock_order(files: &[(&str, &str, &str)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for &(crate_name, file, text) in files {
        let in_scope = L6_SCOPE.contains(&crate_name);
        let raw_lines: Vec<&str> = text.lines().collect();
        let blanked = blank_comments_and_strings(text);
        let blanked_lines: Vec<&str> = blanked.lines().collect();
        let test_lines = cfg_test_lines(&blanked);
        let file_edges =
            if in_scope { lock_acquisition_edges(&blanked_lines, &test_lines) } else { Vec::new() };
        for (i, raw) in raw_lines.iter().enumerate() {
            let has_edge = file_edges.iter().any(|&(at, _, _)| at == i);
            for a in parse_allows(raw) {
                if a.rule == "L6" && a.justified && a.known && !has_edge {
                    out.push(Violation {
                        file: file.to_string(),
                        line: i + 1,
                        rule: "SUPPRESS",
                        msg: if in_scope {
                            "stale check:allow(L6): no nested lock acquisition on this line; \
                             drop the directive"
                                .into()
                        } else {
                            format!(
                                "stale check:allow(L6): crate `{crate_name}` is outside L6 scope"
                            )
                        },
                    });
                }
            }
        }
        for (i, held, acquired) in file_edges {
            let allowed = raw_lines
                .get(i)
                .map(|raw| parse_allows(raw).iter().any(|a| a.rule == "L6" && a.justified))
                .unwrap_or(false);
            edges.push(LockEdge { held, acquired, file: file.to_string(), line: i + 1, allowed });
        }
    }
    // Cycle detection over lock names: an edge is a violation iff both its
    // endpoints sit in one strongly connected component (including the
    // self-loop case of re-acquiring a lock already held).
    let cyclic = cyclic_lock_names(&edges);
    for e in &edges {
        let on_cycle = e.held == e.acquired
            || cyclic.iter().any(|scc| scc.contains(&e.held) && scc.contains(&e.acquired));
        if on_cycle && !e.allowed {
            out.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: "L6",
                msg: if e.held == e.acquired {
                    format!("lock `{}` re-acquired while already held (self-deadlock)", e.acquired)
                } else {
                    format!(
                        "lock-order cycle: `{}` acquired while `{}` is held, but the reverse \
                         order also exists; pick one global order",
                        e.acquired, e.held
                    )
                },
            });
        }
    }
    out
}

/// Scan one file for nested lock acquisitions: returns
/// `(line index, held lock name, acquired lock name)` per edge. Guard
/// tracking mirrors [`lock_held_writes`]: `let`-bound guards live until
/// their block closes or an explicit `drop(guard)`; bare `.lock()`
/// temporaries emit edges but are never held past their own statement.
fn lock_acquisition_edges(
    blanked_lines: &[&str],
    test_lines: &[bool],
) -> Vec<(usize, String, String)> {
    let mut depth: i32 = 0;
    // (binding ident, lock name, binding depth)
    let mut guards: Vec<(String, String, i32)> = Vec::new();
    let mut out = Vec::new();
    for (i, line) in blanked_lines.iter().enumerate() {
        if test_lines.get(i).copied().unwrap_or(false) {
            // cfg(test) bodies still contribute to brace depth so guard
            // scopes stay aligned, but no guards or edges come from them.
            for ch in line.bytes() {
                match ch {
                    b'{' => depth += 1,
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            guards.retain(|&(_, _, d)| depth >= d);
            continue;
        }
        if let Some(pos) = line.find("drop(") {
            let arg = line[pos + "drop(".len()..]
                .split(')')
                .next()
                .unwrap_or("")
                .trim()
                .trim_start_matches("&mut ")
                .trim_start_matches('&');
            guards.retain(|(g, _, _)| g != arg);
        }
        let binding = guard_binding(line);
        let mut first_on_line = true;
        let mut from = 0usize;
        while let Some(pos) = line[from..].find(".lock()") {
            let at = from + pos;
            from = at + ".lock()".len();
            let Some(name) = lock_name_before(line, at) else { continue };
            for (_, held, _) in &guards {
                out.push((i, held.clone(), name.clone()));
            }
            // Only the first acquisition can be the `let`-bound one; later
            // `.lock()`s on the same line are temporaries.
            if first_on_line {
                if let Some(b) = &binding {
                    guards.push((b.clone(), name, depth));
                }
            }
            first_on_line = false;
        }
        for ch in line.bytes() {
            match ch {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|&(_, _, d)| depth >= d);
    }
    out
}

/// The lock's identity: the last path segment before `.lock()` — a field
/// name like `routes` in `self.routes.lock()`, skipping balanced trailing
/// groups for accessor styles like `self.route_for(id).lock()` and indexed
/// per-instance locks like `self.lanes[g].queue.lock()` /
/// `queues[to as usize].lock()`. An indexed acquisition is identified as
/// `name[_]`: every element of one collection shares a single conservative
/// identity, so an `a[i] → a[j]` nesting still reads as a self-cycle.
fn lock_name_before(line: &str, lock_at: usize) -> Option<String> {
    let b = line.as_bytes();
    let mut j = lock_at;
    let mut indexed = false;
    // Walk back over any run of balanced `(...)` / `[...]` groups between
    // the identifier and `.lock()`.
    while j > 0 && (b[j - 1] == b')' || b[j - 1] == b']') {
        let (open, close) = if b[j - 1] == b')' { (b'(', b')') } else { (b'[', b']') };
        if close == b']' {
            indexed = true;
        }
        let mut depth = 0;
        while j > 0 {
            j -= 1;
            let c = b[j];
            if c == close {
                depth += 1;
            } else if c == open {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    let end = j;
    let mut start = end;
    while start > 0 && (b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
        start -= 1;
    }
    if start == end {
        return None;
    }
    let name = &line[start..end];
    Some(if indexed { format!("{name}[_]") } else { name.to_string() })
}

/// Strongly connected components (size ≥ 2) of the lock-name graph.
fn cyclic_lock_names(edges: &[LockEdge]) -> Vec<Vec<String>> {
    use std::collections::BTreeMap;
    let mut names: Vec<String> = Vec::new();
    let mut id_of: BTreeMap<&str, usize> = BTreeMap::new();
    for e in edges {
        for n in [&e.held, &e.acquired] {
            if !id_of.contains_key(n.as_str()) {
                id_of.insert(n.as_str(), names.len());
                names.push(n.clone());
            }
        }
    }
    let n = names.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        adj[id_of[e.held.as_str()]].push(id_of[e.acquired.as_str()]);
    }
    // Iterative Tarjan, mirroring the model checker's liveness pass.
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut scc_stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut sccs = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        scc_stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if let Some(&w) = adj[v].get(*pos) {
                *pos += 1;
                if index[w] == UNSET {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    scc_stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut members = Vec::new();
                    while let Some(w) = scc_stack.pop() {
                        on_stack[w] = false;
                        members.push(names[w].clone());
                        if w == v {
                            break;
                        }
                    }
                    if members.len() >= 2 {
                        sccs.push(members);
                    }
                }
            }
        }
    }
    sccs
}

/// L5 scanner: walk blanked source lines tracking live `.lock()` guards
/// ([`guard_binding`]) by brace depth; report `(line index, guard name)` for
/// every blocking write reached while at least one guard is still in scope.
/// A guard dies when its binding block closes or an explicit `drop(guard)`
/// runs. Single-expression locks drop at end of statement and are never
/// tracked.
fn lock_held_writes(blanked_lines: &[&str]) -> Vec<(usize, String)> {
    let mut depth: i32 = 0;
    let mut guards: Vec<(String, i32)> = Vec::new();
    let mut out = Vec::new();
    for (i, line) in blanked_lines.iter().enumerate() {
        // Explicit early release.
        if let Some(pos) = line.find("drop(") {
            let arg = line[pos + "drop(".len()..]
                .split(')')
                .next()
                .unwrap_or("")
                .trim()
                .trim_start_matches("&mut ")
                .trim_start_matches('&');
            guards.retain(|(g, _)| g != arg);
        }
        if !guards.is_empty() {
            for pat in L5_WRITES {
                if line.contains(pat) {
                    if let Some((g, _)) = guards.last() {
                        out.push((i, g.clone()));
                    }
                    break;
                }
            }
        }
        if line.contains(".lock()") {
            if let Some(g) = guard_binding(line) {
                guards.push((g, depth));
            }
        }
        for ch in line.bytes() {
            match ch {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        // A guard bound at depth d lives while the surrounding block does.
        guards.retain(|&(_, d)| depth >= d);
    }
    out
}

/// The name a line holds a live `.lock()` guard under, if any: the guard
/// itself (`let g = m.lock();`), or a binding an `if let`/`while let`
/// scrutinee borrows from it (its temporaries live through the block), or a
/// reference that extends the guard's life (`let r = &m.lock().field;`). A
/// plain `let` that goes on past `.lock()` and ends the statement on the
/// line (`let s = m.lock().take();`) binds what the guard yielded: the guard
/// is a temporary and dies at the `;`.
fn guard_binding(line: &str) -> Option<String> {
    let ident = let_binding_ident(line)?;
    let code = line.trim_start();
    if let (Some(init), Some(at)) = (code.strip_prefix("let "), code.find(".lock()")) {
        let rest = code[at + ".lock()".len()..].trim_end();
        let by_ref = init.split_once('=').is_some_and(|(_, e)| e.trim_start().starts_with('&'));
        if rest != ";" && rest.ends_with(';') && !by_ref {
            return None;
        }
    }
    Some(ident)
}

/// Identifier bound by a `let [mut] <ident> = ...` (or `if/while let
/// Ok(<ident>)`-style) line, if any.
fn let_binding_ident(line: &str) -> Option<String> {
    let at = line.find("let ")?;
    let rest = line[at + 4..].trim_start();
    // Peel pattern wrappers like `Ok(mut g)` / `Some(g)`.
    let rest = match rest.split_once('(') {
        Some((head, inner)) if head.chars().all(|c| c.is_alphanumeric() || c == '_') => inner,
        _ => rest,
    };
    let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest.trim_start());
    let ident: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if ident.is_empty() || ident == "_" {
        None
    } else {
        Some(ident)
    }
}

/// Replace comment and string-literal contents with spaces, preserving line
/// structure, so token scans cannot match inside them. Handles nested block
/// comments, escapes, raw strings (`r"…"`, `r#"…"#`), and char literals
/// (without tripping over lifetimes like `'a`).
fn blank_comments_and_strings(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nesting).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            out.push(b' ');
            out.push(b' ');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"…" / r#"…"# (also br…).
        if (c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r')) && !prev_is_ident(&out)
        {
            let start = if c == b'b' { i + 1 } else { i };
            let mut j = start + 1;
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                out.resize(out.len() + (j - i + 1), b' ');
                i = j + 1;
                // Scan to `"` followed by `hashes` *`#`.
                'raw: while i < b.len() {
                    if b[i] == b'"' {
                        let mut k = i + 1;
                        let mut seen = 0;
                        while k < b.len() && b[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            out.resize(out.len() + (k - i), b' ');
                            i = k;
                            break 'raw;
                        }
                    }
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
                continue;
            }
        }
        // Ordinary string (also byte string b"…").
        if c == b'"' {
            out.push(b' ');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                } else {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal; 'a (no closing
        // quote within a couple of chars) is a lifetime and passes through.
        if c == b'\'' {
            let lit_end = if i + 2 < b.len() && b[i + 1] == b'\\' {
                // escape: find the closing quote within a few bytes
                (i + 2..(i + 6).min(b.len())).find(|&k| b[k] == b'\'')
            } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                Some(i + 2)
            } else {
                None
            };
            if let Some(end) = lit_end {
                out.resize(out.len() + (end - i + 1), b' ');
                i = end + 1;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn prev_is_ident(out: &[u8]) -> bool {
    out.last().is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
}

/// Per-line flags: true when the line falls inside a `#[cfg(test)]` item
/// (brace-matched from the attribute). Expects blanked text.
fn cfg_test_lines(blanked: &str) -> Vec<bool> {
    let lines: Vec<&str> = blanked.lines().collect();
    let mut flags = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].contains("#[cfg(test)]") {
            // Find the opening brace of the item, then brace-match.
            let mut depth: i32 = 0;
            let mut opened = false;
            let mut j = i;
            'item: while j < lines.len() {
                flags[j] = true;
                for ch in lines[j].bytes() {
                    match ch {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        b';' if !opened && depth == 0 => break 'item, // braceless item
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

/// Parse every `check:allow(ID)` directive on a raw source line.
fn parse_allows(raw: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("check:allow(") {
        rest = &rest[pos + "check:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        rest = &rest[close + 1..];
        let justified = rest
            .strip_prefix(':')
            .map(|j| {
                let j = j.trim();
                !j.is_empty() && j.trim_start_matches(|c: char| !c.is_alphanumeric()).len() > 2
            })
            .unwrap_or(false);
        let known = KNOWN_RULES.contains(&rule.as_str());
        out.push(Allow { rule, justified, known });
    }
    out
}

/// A *bare* wildcard arm: `_` token (at start of line, after whitespace, or
/// after `|`) followed by `=>`. Tuple positions like `(_, x) =>` and bound
/// wildcards like `Some(_) =>` are not flagged.
fn has_wildcard_arm(code: &str) -> bool {
    let b = code.as_bytes();
    for i in 0..b.len() {
        if b[i] != b'_' {
            continue;
        }
        // `_` must be a standalone token.
        if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
            continue;
        }
        if i + 1 < b.len() && (b[i + 1].is_ascii_alphanumeric() || b[i + 1] == b'_') {
            continue;
        }
        let before_ok = match code[..i].trim_end().as_bytes().last() {
            None => true,
            Some(b'|') => true,
            Some(_) => false,
        };
        if !before_ok {
            continue;
        }
        let after = code[i + 1..].trim_start();
        if after.starts_with("=>") {
            return true;
        }
    }
    false
}

/// Detect `ident.0 +` / `ident.0 -` (or `meth().0 ±`) where the identifier
/// suffix marks a LogIndex/Term newtype. Returns the offending identifier.
fn unchecked_newtype_arith(code: &str) -> Option<String> {
    let b = code.as_bytes();
    let mut i = 0;
    while let Some(pos) = code[i..].find(".0") {
        let at = i + pos;
        i = at + 2;
        // `.0` must be a field access, not part of a float or `.01`.
        if code[at + 2..].bytes().next().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'.') {
            // `.0.to_be_bytes()` is a further method call, not arithmetic —
            // the immediate next char being `.` or alnum means no operator.
            if !code[at + 2..].trim_start().starts_with(['+', '-']) {
                continue;
            }
        }
        // Operator directly after?
        let after = code[at + 2..].trim_start();
        let op_after = after.starts_with('+') && !after.starts_with("+=")
            || after.starts_with('-') && !after.starts_with("-=");
        if !op_after {
            continue;
        }
        // Walk back to the identifier (skipping one balanced () group for
        // method calls like `last_index().0`).
        let mut j = at;
        if j > 0 && b[j - 1] == b')' {
            let mut depth = 0;
            while j > 0 {
                j -= 1;
                match b[j] {
                    b')' => depth += 1,
                    b'(' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let end = j;
        let mut start = end;
        while start > 0 && (b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
            start -= 1;
        }
        if start == end {
            continue;
        }
        let ident = &code[start..end];
        let lower = ident.to_ascii_lowercase();
        if L4_SUFFIXES.iter().any(|s| lower.ends_with(s)) {
            return Some(ident.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(crate_name: &str, src: &str) -> Vec<&'static str> {
        lint_source(crate_name, "t.rs", src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn l1_flags_unwrap_expect_panic() {
        assert_eq!(rules("core", "let x = y.unwrap();"), vec!["L1"]);
        assert_eq!(rules("core", "let x = y.expect(\"boom\");"), vec!["L1"]);
        assert_eq!(rules("storage", "panic!(\"no\");"), vec!["L1"]);
    }

    #[test]
    fn l1_ignores_unwrap_or_and_out_of_scope_crates() {
        assert!(rules("core", "let x = y.unwrap_or(0);").is_empty());
        assert!(rules("core", "let x = y.unwrap_or_else(f);").is_empty());
        assert!(rules("sim", "let x = y.unwrap();").is_empty(), "sim is not in L1 scope");
    }

    #[test]
    fn l1_skips_strings_comments_tests() {
        assert!(rules("core", "// calls .unwrap() internally").is_empty());
        assert!(rules("core", "let s = \"x.unwrap()\";").is_empty());
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); }\n}\n";
        assert!(rules("core", src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_still_linted() {
        let src =
            "#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); }\n}\nfn g() { y.unwrap(); }\n";
        let v = lint_source("core", "t.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn l2_flags_bare_wildcard_only() {
        assert_eq!(rules("core", "    _ => {}"), vec!["L2"]);
        assert_eq!(rules("cluster", "    Foo | _ => {}"), vec!["L2"]);
        assert!(rules("core", "    Some(_) => {}").is_empty());
        assert!(rules("core", "    (_, x) => {}").is_empty());
        assert!(rules("core", "    map(|_| x)").is_empty());
        assert!(rules("sim", "    _ => {}").is_empty(), "sim is not in L2 scope");
    }

    #[test]
    fn l3_flags_wall_clock_in_deterministic_paths() {
        assert_eq!(rules("core", "let t = Instant::now();"), vec!["L3"]);
        assert_eq!(rules("sim", "std::thread::sleep(d);"), vec!["L3"]);
        assert!(
            rules("cluster", "let t = Instant::now();").is_empty(),
            "cluster runs real threads"
        );
    }

    #[test]
    fn l3_flags_environment_reads_in_deterministic_paths() {
        assert_eq!(rules("core", r#"if std::env::var_os("X").is_some() {}"#), vec!["L3"]);
        assert_eq!(rules("types", r#"let v = env::var("X");"#), vec!["L3"]);
        assert!(rules("core", r#"// std::env::var_os("X")"#).is_empty(), "comments are skipped");
        assert!(rules("cli", r#"let v = std::env::var("X");"#).is_empty(), "cli reads its env");
    }

    #[test]
    fn l4_flags_raw_newtype_arithmetic() {
        assert_eq!(rules("core", "let n = idx.0 + 1;"), vec!["L4"]);
        assert_eq!(rules("storage", "let n = last_index().0 - 1;"), vec!["L4"]);
        assert_eq!(rules("core", "let n = some_term.0 + 2;"), vec!["L4"]);
        assert!(rules("core", "let n = idx.0;").is_empty());
        assert!(rules("core", "let b = idx.0.to_be_bytes();").is_empty());
        assert!(rules("core", "let n = count.0 + 1;").is_empty(), "non-newtype suffix");
        assert!(rules("types", "Term(self.0 + 1)").is_empty(), "ids.rs hosts the wrappers");
    }

    #[test]
    fn l5_flags_write_under_held_lock_guard() {
        let src =
            "fn f() {\n  let mut routes = self.routes.lock();\n  stream.write_all(&buf);\n}\n";
        assert_eq!(rules("net", src), vec!["L5"]);
        let helper = "fn f() {\n  let g = m.lock();\n  write_frames(sh, stream, &batch, buf);\n}\n";
        assert_eq!(rules("cluster", helper), vec!["L5"]);
    }

    #[test]
    fn l5_write_with_the_half_taken_out_of_the_lock_is_clean() {
        // The write half leaves the lock in one statement; the write runs
        // with no guard live, and the half goes back in another.
        let take = "fn f() {\n  let taken = self.wire.lock().stream.take();\n  \
                    write_within(&mut s, &buf);\n  self.wire.lock().stream = Some(s);\n}\n";
        assert!(rules("net", take).is_empty(), "{:?}", rules("net", take));
        let cloned = "fn f() {\n  let s = m.lock().get(&k).cloned();\n  s.write_all(&buf);\n}\n";
        assert!(rules("net", cloned).is_empty());
    }

    #[test]
    fn l5_guard_held_across_a_write_still_fails() {
        let held = "fn f() {\n  let mut w = self.wire.lock();\n  \
                    w.stream.as_mut().map(|s| s.write_all(&buf));\n}\n";
        assert_eq!(rules("net", held), vec!["L5"]);
        let scrutinee = "fn f() {\n  if let Some(s) = self.wire.lock().stream.as_mut() {\n    \
                         s.write_all(&buf);\n  }\n}\n";
        assert_eq!(rules("net", scrutinee), vec!["L5"]);
        let extended =
            "fn f() {\n  let s = &mut self.wire.lock().stream;\n  write_within(s, &buf);\n}\n";
        assert_eq!(rules("cluster", extended), vec!["L5"]);
    }

    #[test]
    fn l5_released_guard_is_clean() {
        let dropped = "fn f() {\n  let g = m.lock();\n  drop(g);\n  stream.write_all(&buf);\n}\n";
        assert!(rules("net", dropped).is_empty());
        let scoped = "fn f() {\n  {\n    let g = m.lock();\n  }\n  stream.write_all(&buf);\n}\n";
        assert!(rules("net", scoped).is_empty());
        let no_guard = "fn f() {\n  stream.write_all(&buf);\n}\n";
        assert!(rules("net", no_guard).is_empty());
        let nonblocking = "fn f() {\n  let g = m.lock();\n  g.try_send(frame);\n}\n";
        assert!(rules("net", nonblocking).is_empty(), "try_send is non-blocking");
        let src = "fn f() {\n  let g = m.lock();\n  stream.write_all(&buf);\n}\n";
        assert!(rules("core", src).is_empty(), "core is not in L5 scope");
    }

    #[test]
    fn suppression_needs_justification() {
        let ok = "let x = y.unwrap(); // check:allow(L1): harness startup, abort is correct";
        assert!(rules("core", ok).is_empty());
        let bare = "let x = y.unwrap(); // check:allow(L1)";
        assert_eq!(rules("core", bare), vec!["SUPPRESS", "L1"]);
        let empty = "let x = y.unwrap(); // check:allow(L1):";
        assert_eq!(rules("core", empty), vec!["SUPPRESS", "L1"]);
    }

    #[test]
    fn suppression_unknown_rule_flagged() {
        let src = "let x = 1; // check:allow(L9): whatever reason";
        assert_eq!(rules("core", src), vec!["SUPPRESS"]);
    }

    #[test]
    fn suppression_is_per_rule() {
        // An L1 allow does not silence an L2 finding on the same line.
        let src = "_ => y.unwrap(), // check:allow(L1): legacy shim pending rewrite";
        assert_eq!(rules("core", src), vec!["L2"]);
    }

    #[test]
    fn stale_allow_is_flagged() {
        // The unwrap is gone but the directive lingers.
        let gone = "let x = y.clone(); // check:allow(L1): used to unwrap here";
        let v = lint_source("core", "t.rs", gone);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "SUPPRESS");
        assert!(v[0].msg.contains("stale"), "{}", v[0].msg);
        // Out-of-scope crate: L1 does not run in sim, so the allow is dead.
        let scope = "let x = y.unwrap(); // check:allow(L1): sim is allowed to die";
        assert_eq!(rules("sim", scope), vec!["SUPPRESS"]);
        // Inside #[cfg(test)] the rules are off; the allow excuses nothing.
        let test_mod =
            "#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); // check:allow(L1): why\n  }\n}\n";
        assert_eq!(rules("core", test_mod), vec!["SUPPRESS"]);
        // A live allow is not stale.
        let live = "let x = y.unwrap(); // check:allow(L1): startup, abort is correct";
        assert!(rules("core", live).is_empty());
    }

    fn l6(files: &[(&str, &str)]) -> Vec<Violation> {
        let with_names: Vec<(&str, &str, &str)> =
            files.iter().map(|&(c, t)| (c, "t.rs", t)).collect();
        lint_lock_order(&with_names)
    }

    #[test]
    fn l6_flags_lock_order_cycle() {
        // One function takes a → b, another b → a: classic ABBA deadlock.
        let src = "fn f() {\n  let g = self.routes.lock();\n  let h = self.peers.lock();\n}\n\
                   fn g() {\n  let h = self.peers.lock();\n  let g = self.routes.lock();\n}\n";
        let v = l6(&[("net", src)]);
        assert_eq!(v.iter().filter(|v| v.rule == "L6").count(), 2, "{v:?}");
        assert!(v[0].msg.contains("cycle"), "{}", v[0].msg);
    }

    #[test]
    fn l6_cycle_across_crates_is_found() {
        // The graph is workspace-wide: cluster takes routes → peers, net
        // takes peers → routes.
        let a = "fn f() {\n  let g = self.routes.lock();\n  let h = self.peers.lock();\n}\n";
        let b = "fn g() {\n  let h = self.peers.lock();\n  let g = self.routes.lock();\n}\n";
        let v = l6(&[("cluster", a), ("net", b)]);
        assert_eq!(v.iter().filter(|v| v.rule == "L6").count(), 2, "{v:?}");
    }

    #[test]
    fn l6_nested_in_one_global_order_is_clean() {
        let src = "fn f() {\n  let g = self.routes.lock();\n  let h = self.peers.lock();\n}\n\
                   fn g() {\n  let g = self.routes.lock();\n  let h = self.peers.lock();\n}\n";
        assert!(l6(&[("net", src)]).is_empty());
    }

    #[test]
    fn l6_self_reacquire_is_flagged() {
        let src = "fn f() {\n  let g = self.routes.lock();\n  self.routes.lock().clear();\n}\n";
        let v = l6(&[("net", src)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("self-deadlock"), "{}", v[0].msg);
    }

    #[test]
    fn l6_indexed_locks_share_one_identity() {
        // Two elements of one collection: `lanes[a]` then `lanes[b]` is a
        // self-cycle on the collection's conservative identity `lanes[_]`.
        let src = "fn f() {\n  let g = self.lanes[a].lock();\n  self.lanes[b].lock().push(x);\n}\n";
        let v = l6(&[("net", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("lanes[_]"), "{}", v[0].msg);
        // Indexed vs plain field locks still order cleanly.
        let ordered =
            "fn f() {\n  let g = self.routes.lock();\n  let h = queues[to as usize].lock();\n}\n\
                       fn g() {\n  let g = self.routes.lock();\n  let h = queues[i].lock();\n}\n";
        assert!(l6(&[("net", ordered)]).is_empty());
        // And participate in cross-function cycles under one name.
        let abba = "fn f() {\n  let g = self.routes.lock();\n  let h = queues[i].lock();\n}\n\
                    fn g() {\n  let h = queues[j].lock();\n  let g = self.routes.lock();\n}\n";
        let v = l6(&[("net", abba)]);
        assert_eq!(v.iter().filter(|v| v.rule == "L6").count(), 2, "{v:?}");
    }

    #[test]
    fn l6_released_guard_breaks_the_edge() {
        let dropped = "fn f() {\n  let g = self.routes.lock();\n  drop(g);\n  \
                       let h = self.peers.lock();\n}\n\
                       fn g() {\n  let h = self.peers.lock();\n  let g = self.routes.lock();\n}\n";
        assert!(l6(&[("net", dropped)]).is_empty(), "dropped guard holds no order");
        let scoped = "fn f() {\n  {\n    let g = self.routes.lock();\n  }\n  \
                      let h = self.peers.lock();\n}\n\
                      fn g() {\n  let h = self.peers.lock();\n  let g = self.routes.lock();\n}\n";
        assert!(l6(&[("net", scoped)]).is_empty(), "closed block releases the guard");
    }

    #[test]
    fn l6_allow_and_stale_allow() {
        let allowed = "fn f() {\n  let g = self.routes.lock();\n  \
                       let h = self.peers.lock(); // check:allow(L6): init order, single-threaded\n}\n\
                       fn g() {\n  let h = self.peers.lock();\n  let g = self.routes.lock();\n}\n";
        let v = l6(&[("net", allowed)]);
        // The allowed edge is silenced; the reverse edge still reports.
        assert_eq!(v.iter().filter(|v| v.rule == "L6").count(), 1, "{v:?}");
        let stale = "fn f() {\n  let x = 1; // check:allow(L6): nothing locked here\n}\n";
        let v = l6(&[("net", stale)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("stale check:allow(L6)"), "{}", v[0].msg);
        let wrong_crate =
            "fn f() {\n  let g = a.lock();\n  let h = b.lock(); // check:allow(L6): why\n}\n";
        let v = l6(&[("core", wrong_crate)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("outside L6 scope"), "{}", v[0].msg);
    }

    #[test]
    fn l6_ignores_cfg_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() {\n    let g = a.lock();\n    \
                   let h = b.lock();\n  }\n  fn g() {\n    let h = b.lock();\n    \
                   let g = a.lock();\n  }\n}\n";
        assert!(l6(&[("net", src)]).is_empty());
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        assert!(rules("core", r##"let s = r#"x.unwrap()"#;"##).is_empty());
        assert!(rules("core", "let c = '_'; let arrow = '='; // _ =>").is_empty());
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "/*\n x.unwrap()\n _ =>\n*/\nfn ok() {}\n";
        assert!(rules("core", src).is_empty());
    }
}
