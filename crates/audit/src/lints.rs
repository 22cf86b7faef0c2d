//! The lint passes: DET-001/002/003, ALLOC-001, PANIC-001, LINT-001.
//!
//! Every pass operates on the token stream produced by [`crate::lexer`], so
//! lint keywords inside string literals, char literals, doc examples and
//! comments can never fire.  Passes share three pieces of per-file context:
//!
//! * the **significant** token sequence (comments stripped),
//! * the set of lines covered by `#[cfg(test)]` / `#[test]` items
//!   (test-scope exemption — tests may use hash containers and `unwrap`),
//! * the `audit:allow` annotation map parsed from comments.
//!
//! The annotation grammar is `// audit:allow(<key>): <reason>` where `<key>`
//! is a lint id (`DET-001`) or its short alias (`hash`, `clock`, `thread`,
//! `alloc`, `panic`, `lint`).  An annotation exempts its own line and the
//! line directly below it; the reason is mandatory.

use crate::lexer::{Tok, TokKind};
use crate::manifest::HotPath;
use crate::report::{Lint, Violation};
use std::collections::{BTreeMap, BTreeSet};

/// Which passes apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// DET-001: engine crates (`core`, `sim`, `baselines`, `topology`).
    pub det_hash: bool,
    /// DET-002: every data-plane crate (the measurement harness exempt).
    pub det_clock: bool,
    /// DET-003: everywhere except `lgfi_sim::shard`, the sanctioned spawn site,
    /// and the measurement harness.
    pub det_thread: bool,
    /// PANIC-001: library targets only (no bins, benches, tests, examples, no
    /// measurement harness).
    pub panic: bool,
    /// LINT-001 `#[allow]`-needs-a-comment check: all source.
    pub allow_comment: bool,
}

/// Derive the applicable passes from a workspace-relative path (always `/`
/// separated).  This encodes the contract boundaries of the workspace:
/// engine crates carry the determinism guarantees, `crates/bench`,
/// `crates/criterion` and the end-to-end benchmark `perfbench/` are the
/// measurement harness (reading clocks and spawning the concurrent reader are
/// their job), and `crates/sim/src/shard.rs` is the one sanctioned
/// thread-spawn site (the launch-order-merge contract lives there).
pub fn classify(rel: &str) -> FileScope {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or(""); // root facade files have no crate prefix
    let harness = matches!(crate_name, "bench" | "criterion") || rel.starts_with("perfbench/");
    let engine = matches!(crate_name, "core" | "sim" | "baselines" | "topology");
    let in_src = rel.contains("/src/") || rel.starts_with("src/");
    let in_bin = rel.contains("/src/bin/");
    let library = in_src && !in_bin;
    FileScope {
        det_hash: engine && in_src,
        det_clock: !harness && in_src,
        det_thread: !harness && in_src && rel != "crates/sim/src/shard.rs",
        panic: library && !harness,
        allow_comment: true,
    }
}

/// A parsed `audit:allow` annotation.
#[derive(Debug, Clone)]
struct Allow {
    lint: Lint,
}

/// Per-file scan state shared by all passes.
pub struct FileScan<'a> {
    rel: &'a str,
    toks: &'a [Tok],
    /// Indices into `toks` of non-comment tokens.
    sig: Vec<usize>,
    /// Lines containing any comment token (LINT-001 adjacency check).
    comment_lines: BTreeSet<u32>,
    /// Line → annotations found on that line.
    allows: BTreeMap<u32, Vec<Allow>>,
    /// Lines inside `#[cfg(test)]` / `#[test]` items.
    test_lines: BTreeSet<u32>,
    /// Malformed annotations discovered while parsing comments.
    grammar_errors: Vec<(u32, String)>,
}

impl<'a> FileScan<'a> {
    /// Build the scan context for one tokenized file.
    pub fn new(rel: &'a str, toks: &'a [Tok]) -> Self {
        let mut sig = Vec::with_capacity(toks.len());
        let mut comment_lines = BTreeSet::new();
        let mut allows: BTreeMap<u32, Vec<Allow>> = BTreeMap::new();
        let mut grammar_errors = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            match tok.kind {
                TokKind::LineComment | TokKind::BlockComment => {
                    comment_lines.insert(tok.line);
                    // Doc comments (`///`, `//!`, `/** … */`, `/*! … */`) are
                    // documentation — they may *discuss* the annotation
                    // grammar without carrying annotations.  Only plain code
                    // comments are parsed for `audit:allow`.
                    let is_doc = tok.text.starts_with('/')
                        || tok.text.starts_with('!')
                        || (tok.kind == TokKind::BlockComment && tok.text.starts_with('*'));
                    if !is_doc {
                        match parse_allow(&tok.text) {
                            Ok(Some(allow)) => allows.entry(tok.line).or_default().push(allow),
                            Ok(None) => {}
                            Err(msg) => grammar_errors.push((tok.line, msg)),
                        }
                    }
                }
                _ => sig.push(i),
            }
        }
        let test_lines = find_test_lines(toks, &sig);
        Self {
            rel,
            toks,
            sig,
            comment_lines,
            allows,
            test_lines,
            grammar_errors,
        }
    }

    fn kind(&self, si: usize) -> Option<TokKind> {
        self.sig.get(si).map(|&i| self.toks[i].kind)
    }

    fn text(&self, si: usize) -> &str {
        self.sig.get(si).map_or("", |&i| self.toks[i].text.as_str())
    }

    fn line(&self, si: usize) -> u32 {
        self.sig.get(si).map_or(0, |&i| self.toks[i].line)
    }

    fn is_punct(&self, si: usize, c: char) -> bool {
        self.kind(si) == Some(TokKind::Punct) && self.text(si) == c.to_string().as_str()
    }

    fn is_ident(&self, si: usize, word: &str) -> bool {
        self.kind(si) == Some(TokKind::Ident) && self.text(si) == word
    }

    /// Match `segs` starting at significant index `si`; `"::"` in `segs`
    /// matches two consecutive `:` punct tokens.
    fn matches_path(&self, si: usize, segs: &[&str]) -> bool {
        let mut at = si;
        for seg in segs {
            if *seg == "::" {
                if !(self.is_punct(at, ':') && self.is_punct(at + 1, ':')) {
                    return false;
                }
                at += 2;
            } else {
                if !self.is_ident(at, seg) {
                    return false;
                }
                at += 1;
            }
        }
        true
    }

    fn in_test_scope(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// Is there an `audit:allow` for `lint` covering `line`?  Annotations
    /// cover their own line (trailing comments) and the next line (comment
    /// directly above the flagged code).
    fn allowed(&self, lint: Lint, line: u32) -> bool {
        for probe in [line, line.saturating_sub(1)] {
            if let Some(found) = self.allows.get(&probe) {
                if found.iter().any(|a| a.lint == lint) {
                    return true;
                }
            }
        }
        false
    }

    fn emit(&self, out: &mut Vec<Violation>, lint: Lint, line: u32, message: String) {
        if self.in_test_scope(line) && lint != Lint::Lint001 {
            return; // test scope exemption: tests may panic and hash freely
        }
        if self.allowed(lint, line) {
            return;
        }
        out.push(Violation {
            lint,
            file: self.rel.to_string(),
            line,
            message,
        });
    }

    /// Run every pass enabled by `scope` plus the manifest-driven ALLOC-001
    /// entries that target this file.
    pub fn run(&self, scope: FileScope, hotpaths: &[HotPath]) -> Vec<Violation> {
        let mut out = Vec::new();
        for &(line, ref msg) in &self.grammar_errors {
            out.push(Violation {
                lint: Lint::Lint001,
                file: self.rel.to_string(),
                line,
                message: msg.clone(),
            });
        }
        if scope.det_hash {
            self.det_001(&mut out);
        }
        if scope.det_clock {
            self.det_002(&mut out);
        }
        if scope.det_thread {
            self.det_003(&mut out);
        }
        if scope.panic {
            self.panic_001(&mut out);
        }
        if scope.allow_comment {
            self.lint_001_allows(&mut out);
        }
        for hp in hotpaths.iter().filter(|hp| hp.file == self.rel) {
            self.alloc_001(hp, &mut out);
        }
        out
    }

    /// DET-001: hash-order containers in engine crates.  Iteration order of
    /// `HashMap`/`HashSet` is nondeterministic, which breaks the
    /// launch-order-merge contract; since receiver types cannot be resolved
    /// lexically, the lint bans the containers outright — engine code uses
    /// `BTreeMap`/`BTreeSet` or sorted-key iteration instead.
    fn det_001(&self, out: &mut Vec<Violation>) {
        for si in 0..self.sig.len() {
            let word = self.text(si);
            if self.kind(si) == Some(TokKind::Ident)
                && matches!(word, "HashMap" | "HashSet" | "hash_map" | "hash_set")
            {
                self.emit(
                    out,
                    Lint::Det001,
                    self.line(si),
                    format!(
                        "`{word}` in an engine crate: hash iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or sorted keys"
                    ),
                );
            }
        }
    }

    /// DET-002: wall-clock and per-thread identity reads in data-plane code.
    fn det_002(&self, out: &mut Vec<Violation>) {
        for si in 0..self.sig.len() {
            let hit = if self.matches_path(si, &["Instant", "::", "now"]) {
                Some("Instant::now")
            } else if self.matches_path(si, &["SystemTime", "::", "now"]) {
                Some("SystemTime::now")
            } else if self.matches_path(si, &["thread", "::", "current"]) {
                Some("thread::current")
            } else if self.is_ident(si, "RandomState") {
                Some("RandomState")
            } else {
                None
            };
            if let Some(what) = hit {
                self.emit(
                    out,
                    Lint::Det002,
                    self.line(si),
                    format!(
                        "`{what}` in data-plane code: results must be a pure \
                         function of the fault plan and the LGFI_* knobs"
                    ),
                );
            }
        }
    }

    /// DET-003: thread spawns outside `lgfi_sim::shard`.
    fn det_003(&self, out: &mut Vec<Violation>) {
        for si in 0..self.sig.len() {
            let hit = if self.matches_path(si, &["thread", "::", "spawn"]) {
                Some("thread::spawn")
            } else if self.matches_path(si, &["thread", "::", "scope"]) {
                Some("thread::scope")
            } else {
                None
            };
            if let Some(what) = hit {
                self.emit(
                    out,
                    Lint::Det003,
                    self.line(si),
                    format!(
                        "`{what}` outside lgfi_sim::shard: parallelism must go \
                         through the sharding layer that owns the \
                         launch-order-merge contract"
                    ),
                );
            }
        }
    }

    /// PANIC-001: panics in library code without a justification annotation.
    fn panic_001(&self, out: &mut Vec<Violation>) {
        for si in 0..self.sig.len() {
            let word = self.text(si);
            let hit = if matches!(word, "unwrap" | "expect") && self.is_punct(si + 1, '(') {
                Some(format!(".{word}()"))
            } else if matches!(word, "panic" | "unreachable" | "todo" | "unimplemented")
                && self.kind(si) == Some(TokKind::Ident)
                && self.is_punct(si + 1, '!')
            {
                Some(format!("{word}!"))
            } else {
                None
            };
            if let Some(what) = hit {
                if self.kind(si) != Some(TokKind::Ident) {
                    continue;
                }
                self.emit(
                    out,
                    Lint::Panic001,
                    self.line(si),
                    format!(
                        "`{what}` in library code: return a Result or add \
                         `// audit:allow(panic): <why this cannot fail>`"
                    ),
                );
            }
        }
    }

    /// ALLOC-001: allocation calls inside manifest-registered hot paths.
    fn alloc_001(&self, hp: &HotPath, out: &mut Vec<Violation>) {
        for fn_name in &hp.fns {
            let mut found = false;
            for (start, end) in self.fn_bodies(fn_name) {
                found = true;
                self.scan_alloc_body(fn_name, start, end, out);
            }
            if !found {
                // A renamed or deleted hot-path function silently un-guards
                // the contract, so a stale manifest entry is itself an error.
                out.push(Violation {
                    lint: Lint::Alloc001,
                    file: self.rel.to_string(),
                    line: 1,
                    message: format!(
                        "hotpaths.toml lists fn `{fn_name}` but no such \
                         function exists in this file (stale manifest entry)"
                    ),
                });
            }
        }
    }

    /// Locate every `fn <name>` body in the file, as significant-index ranges
    /// covering the `{ … }` block (trait declarations without bodies are
    /// skipped).
    fn fn_bodies(&self, name: &str) -> Vec<(usize, usize)> {
        let mut bodies = Vec::new();
        let mut si = 0;
        while si + 1 < self.sig.len() {
            if self.is_ident(si, "fn") && self.is_ident(si + 1, name) {
                let mut at = si + 2;
                let mut depth = 0i32;
                // Walk the signature until the opening `{` at depth 0.
                while at < self.sig.len() {
                    let t = self.text(at);
                    match t {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        ";" if depth == 0 => {
                            at = usize::MAX; // bodyless trait declaration
                            break;
                        }
                        _ => {}
                    }
                    at += 1;
                }
                if at != usize::MAX && at < self.sig.len() {
                    let open = at;
                    let mut brace = 0i32;
                    while at < self.sig.len() {
                        match self.text(at) {
                            "{" => brace += 1,
                            "}" => {
                                brace -= 1;
                                if brace == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        at += 1;
                    }
                    bodies.push((open, at.min(self.sig.len().saturating_sub(1))));
                    si = at;
                }
            }
            si += 1;
        }
        bodies
    }

    fn scan_alloc_body(&self, fn_name: &str, start: usize, end: usize, out: &mut Vec<Violation>) {
        const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "clone", "to_string", "to_owned"];
        const ALLOC_MACROS: &[&str] = &["vec", "format"];
        const ALLOC_PATHS: &[&[&str]] = &[
            &["Vec", "::", "new"],
            &["Box", "::", "new"],
            &["String", "::", "new"],
            &["String", "::", "from"],
            &["Rc", "::", "new"],
            &["Arc", "::", "new"],
        ];
        for si in start..=end.min(self.sig.len().saturating_sub(1)) {
            if self.kind(si) != Some(TokKind::Ident) {
                continue;
            }
            let word = self.text(si);
            let hit = if ALLOC_METHODS.contains(&word)
                && (self.is_punct(si + 1, '(') || self.is_punct(si + 1, ':'))
            {
                Some(format!(".{word}()"))
            } else if ALLOC_MACROS.contains(&word) && self.is_punct(si + 1, '!') {
                Some(format!("{word}!"))
            } else {
                ALLOC_PATHS
                    .iter()
                    .find(|segs| self.matches_path(si, segs))
                    .map(|segs| segs.concat())
            };
            if let Some(what) = hit {
                self.emit(
                    out,
                    Lint::Alloc001,
                    self.line(si),
                    format!(
                        "`{what}` inside zero-allocation hot path `{fn_name}`: \
                         recycle a buffer or add `// audit:allow(alloc): <why>`"
                    ),
                );
            }
        }
    }

    /// LINT-001 (source half): every `#[allow(…)]` / `#![allow(…)]` must have
    /// a comment on the same line or the line above explaining the waiver.
    fn lint_001_allows(&self, out: &mut Vec<Violation>) {
        for si in 0..self.sig.len() {
            if !self.is_punct(si, '#') {
                continue;
            }
            let mut at = si + 1;
            if self.is_punct(at, '!') {
                at += 1;
            }
            if !self.is_punct(at, '[') || !self.is_ident(at + 1, "allow") {
                continue;
            }
            let line = self.line(si);
            let commented =
                self.comment_lines.contains(&line) || self.comment_lines.contains(&(line - 1));
            if !commented && !self.allowed(Lint::Lint001, line) {
                out.push(Violation {
                    lint: Lint::Lint001,
                    file: self.rel.to_string(),
                    line,
                    message: "`#[allow(…)]` without an adjacent comment \
                              explaining the waiver"
                        .to_string(),
                });
            }
        }
    }
}

/// Parse an `audit:allow(<key>): <reason>` annotation out of a comment body.
/// `Ok(None)` when the comment carries no annotation at all.
fn parse_allow(comment: &str) -> Result<Option<Allow>, String> {
    let Some(at) = comment.find("audit:allow") else {
        return Ok(None);
    };
    let rest = &comment[at + "audit:allow".len()..];
    let Some(inner) = rest.strip_prefix('(') else {
        // `audit:allow` without `(…)` is prose about the grammar, not an
        // annotation attempt; only a parenthesised key engages parsing.
        return Ok(None);
    };
    let Some(close) = inner.find(')') else {
        return Err("malformed annotation: missing `)` in `audit:allow(<key>)`".to_string());
    };
    let key = inner[..close].trim();
    let Some(lint) = Lint::from_key(key) else {
        return Err(format!(
            "unknown audit:allow key `{key}` (expected a lint id like DET-001 \
             or an alias: hash, clock, thread, alloc, panic, lint)"
        ));
    };
    let tail = inner[close + 1..].trim_start();
    let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Err(format!(
            "annotation `audit:allow({key})` is missing its mandatory reason \
             (`audit:allow({key}): <why>`)"
        ));
    }
    Ok(Some(Allow { lint }))
}

/// Compute the set of source lines covered by test-scoped items: any item
/// (fn, mod, use, impl, …) annotated `#[test]` or `#[cfg(test)]` (including
/// `cfg(any(test, …))`; `cfg(not(test))` is **not** test scope), extended to
/// the item's full `{ … }` body or terminating `;`.
fn find_test_lines(toks: &[Tok], sig: &[usize]) -> BTreeSet<u32> {
    let text = |si: usize| -> &str { sig.get(si).map_or("", |&i| toks[i].text.as_str()) };
    let line = |si: usize| -> u32 { sig.get(si).map_or(0, |&i| toks[i].line) };
    let is_punct = |si: usize, c: char| -> bool {
        sig.get(si)
            .is_some_and(|&i| toks[i].kind == TokKind::Punct && toks[i].text == c.to_string())
    };

    let mut lines = BTreeSet::new();
    let mut si = 0;
    while si < sig.len() {
        if !is_punct(si, '#') {
            si += 1;
            continue;
        }
        let attr_start_line = line(si);
        let mut at = si + 1;
        if is_punct(at, '!') {
            at += 1;
        }
        if !is_punct(at, '[') {
            si += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut depth = 0i32;
        let mut has_test = false;
        let mut has_not = false;
        while at < sig.len() {
            match text(at) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            }
            at += 1;
        }
        let attr_end = at;
        if !has_test || has_not {
            si = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut item = attr_end + 1;
        while is_punct(item, '#') {
            let mut d = 0i32;
            let mut j = item + 1;
            if is_punct(j, '!') {
                j += 1;
            }
            while j < sig.len() {
                match text(j) {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            item = j + 1;
        }
        // Find the item's extent: first `;` at depth 0 (e.g. a test-gated
        // `use`), or the matching `}` of its first depth-0 `{`.
        let mut j = item;
        let mut depth = 0i32;
        let mut end = item;
        while j < sig.len() {
            match text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => {
                    end = j;
                    break;
                }
                "{" if depth == 0 => {
                    let mut brace = 0i32;
                    while j < sig.len() {
                        match text(j) {
                            "{" => brace += 1,
                            "}" => {
                                brace -= 1;
                                if brace == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    end = j.min(sig.len().saturating_sub(1));
                    break;
                }
                _ => {}
            }
            end = j;
            j += 1;
        }
        for l in attr_start_line..=line(end) {
            lines.insert(l);
        }
        si = end + 1;
    }
    lines
}
