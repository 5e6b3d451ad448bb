//! Fact extraction: from a token stream to per-function concurrency
//! facts — lock fields, guard acquisitions with their live extents,
//! outgoing calls, panic sites, blocking sites.
//!
//! The extractor is deliberately conservative in both directions and the
//! README documents its limits: guards are modeled as
//! *let-bound* (live until the enclosing block closes or an explicit
//! `drop(name)`) or *temporaries* (live until the end of the statement,
//! extended through a single trailing brace group so `match` scrutinees
//! and `if let` temporaries are covered, matching Rust 2021 semantics).
//! Test code (`#[cfg(test)]` items, `tests/`, `benches/` directories) is
//! excluded entirely.

use crate::config::Config;
use crate::lexer::{lex, Suppression, Tok, Token};
use std::collections::{HashMap, HashSet};

/// What kind of synchronization primitive a struct field holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
    OnceLock,
    Condvar,
}

impl LockKind {
    pub fn name(&self) -> &'static str {
        match self {
            LockKind::Mutex => "Mutex",
            LockKind::RwLock => "RwLock",
            LockKind::OnceLock => "OnceLock",
            LockKind::Condvar => "Condvar",
        }
    }
}

/// A struct field of lock type; identity is `Struct.field`.
#[derive(Debug, Clone)]
pub struct LockField {
    pub id: String,
    pub kind: LockKind,
    pub file: String,
    pub line: u32,
}

/// One guard acquisition inside a function body, with the token range
/// over which the guard is considered live.
#[derive(Debug, Clone)]
pub struct Acquire {
    pub lock: String,
    pub method: String,
    pub line: u32,
    /// Token index of the acquisition (`.` of `.lock()` etc).
    pub start: usize,
    /// Exclusive token index where the guard dies.
    pub end: usize,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(...)`
    Free(String),
    /// `recv.foo(...)`
    Method(String),
    /// `Type::foo(...)` — last two path segments.
    Qualified(String, String),
}

impl Callee {
    pub fn name(&self) -> &str {
        match self {
            Callee::Free(n) | Callee::Method(n) | Callee::Qualified(_, n) => n,
        }
    }
}

/// An outgoing call site.
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: Callee,
    pub line: u32,
    pub idx: usize,
}

/// A panic-capable site (`unwrap`, `expect`, `panic!`, ...).
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub what: String,
    pub line: u32,
}

/// A call whose name is on the configured blocking list.
#[derive(Debug, Clone)]
pub struct BlockSite {
    pub what: String,
    pub line: u32,
}

/// Everything the rules need to know about one function.
#[derive(Debug, Clone)]
pub struct FuncFacts {
    pub name: String,
    /// `Some(Type)` when defined inside `impl Type` (or `impl Trait for Type`).
    pub impl_of: Option<String>,
    pub file: String,
    pub line: u32,
    pub acquires: Vec<Acquire>,
    pub calls: Vec<Call>,
    pub panics: Vec<PanicSite>,
    pub blocking: Vec<BlockSite>,
}

impl FuncFacts {
    /// Display name: `Type::method` or plain `fn` name.
    pub fn display(&self) -> String {
        match &self.impl_of {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

/// Facts for one source file.
#[derive(Debug)]
pub struct FileFacts {
    pub path: String,
    pub locks: Vec<LockField>,
    pub funcs: Vec<FuncFacts>,
    pub suppressions: Vec<Suppression>,
}

/// Workspace-wide lock-field registry, used to resolve receivers.
#[derive(Debug, Default)]
pub struct LockRegistry {
    pub locks: Vec<LockField>,
    by_struct_field: HashMap<(String, String), usize>,
    by_field: HashMap<String, Vec<usize>>,
}

impl LockRegistry {
    pub fn add(&mut self, strukt: &str, field: &str, lock: LockField) {
        let idx = self.locks.len();
        self.by_struct_field
            .insert((strukt.to_string(), field.to_string()), idx);
        self.by_field
            .entry(field.to_string())
            .or_default()
            .push(idx);
        self.locks.push(lock);
    }

    /// Resolve a `recv.field.method()` receiver to a lock field. Prefers
    /// the current `impl` type when the receiver is `self.field`; falls
    /// back to a workspace-unique field name.
    fn resolve(&self, impl_hint: Option<&str>, is_self: bool, field: &str) -> Option<&LockField> {
        if is_self {
            if let Some(s) = impl_hint {
                if let Some(&i) = self
                    .by_struct_field
                    .get(&(s.to_string(), field.to_string()))
                {
                    return Some(&self.locks[i]);
                }
            }
        }
        match self.by_field.get(field).map(Vec::as_slice) {
            Some([one]) => Some(&self.locks[*one]),
            _ => None,
        }
    }
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "let", "fn", "impl", "struct", "enum", "trait", "pub", "use", "mod", "where", "unsafe",
    "ref", "mut", "dyn", "true", "false", "Some", "None", "Ok", "Err", "self", "Self", "super",
    "crate", "const", "static", "type",
];

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while"];

/// Phase A: collect lock-typed struct fields from one file.
pub fn collect_locks(tokens: &[Token], file: &str, reg: &mut LockRegistry) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() == Some("struct") {
            if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                // Scan to the struct body `{` (or `;` / `(` for unit and
                // tuple structs, which cannot carry named lock fields).
                let mut j = i + 2;
                let mut angle = 0i32;
                while j < tokens.len() {
                    match &tokens[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct('{') if angle == 0 => break,
                        Tok::Punct(';') | Tok::Punct('(') if angle == 0 => {
                            j = tokens.len();
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < tokens.len() {
                    collect_struct_fields(tokens, j, name, file, reg);
                }
            }
        }
        i += 1;
    }
}

/// Parse `field: Type` pairs in a struct body starting at its `{`.
fn collect_struct_fields(
    tokens: &[Token],
    open: usize,
    strukt: &str,
    file: &str,
    reg: &mut LockRegistry,
) {
    let close = match matching_brace(tokens, open) {
        Some(c) => c,
        None => return,
    };
    let mut i = open + 1;
    while i < close {
        // Skip attributes and visibility.
        if tokens[i].is_punct('#') {
            i = skip_attr(tokens, i);
            continue;
        }
        if tokens[i].ident() == Some("pub") {
            i += 1;
            if i < close && tokens[i].is_punct('(') {
                i = matching_paren(tokens, i).map_or(close, |p| p + 1);
            }
            continue;
        }
        // Field: `name : <type tokens> ,`
        let (name, nline) = match (&tokens[i].tok, tokens[i].line) {
            (Tok::Ident(n), l) => (n.clone(), l),
            _ => {
                i += 1;
                continue;
            }
        };
        if !matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':'))) {
            i += 1;
            continue;
        }
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut kind: Option<LockKind> = None;
        while j < close {
            match &tokens[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle -= 1,
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct(',') if angle <= 0 && paren == 0 => break,
                Tok::Ident(t) if kind.is_none() => {
                    kind = match t.as_str() {
                        "Mutex" if next_is(tokens, j + 1, '<') => Some(LockKind::Mutex),
                        "RwLock" if next_is(tokens, j + 1, '<') => Some(LockKind::RwLock),
                        "OnceLock" if next_is(tokens, j + 1, '<') => Some(LockKind::OnceLock),
                        "Condvar" => Some(LockKind::Condvar),
                        _ => None,
                    };
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(kind) = kind {
            reg.add(
                strukt,
                &name,
                LockField {
                    id: format!("{strukt}.{name}"),
                    kind,
                    file: file.to_string(),
                    line: nline,
                },
            );
        }
        i = j + 1;
    }
}

fn next_is(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    matching(tokens, open, '{', '}')
}

fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    matching(tokens, open, '(', ')')
}

fn matching(tokens: &[Token], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Skip an attribute `#[...]` / `#![...]`, returning the index after it.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if j < tokens.len() && tokens[j].is_punct('!') {
        j += 1;
    }
    if j < tokens.len() && tokens[j].is_punct('[') {
        if let Some(close) = matching(tokens, j, '[', ']') {
            return close + 1;
        }
    }
    j
}

/// True when the tokens from `i` (just past an attribute) start an item
/// — another attribute, or an item keyword after an optional
/// visibility — rather than a field or a variant.
fn attr_target_is_item(tokens: &[Token], i: usize) -> bool {
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "mod", "struct", "enum", "impl", "trait", "const", "static", "use", "type", "async",
        "unsafe", "extern",
    ];
    let mut j = i;
    if tokens.get(j).and_then(Token::ident) == Some("pub") {
        j += 1;
        if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
            j = matching_paren(tokens, j).map_or(tokens.len(), |close| close + 1);
        }
    }
    match tokens.get(j) {
        Some(t) if t.is_punct('#') => true,
        Some(t) => t.ident().is_some_and(|w| ITEM_KEYWORDS.contains(&w)),
        None => false,
    }
}

/// True when the attribute starting at `#` index `i` contains `cfg ( test )`.
fn attr_is_cfg_test(tokens: &[Token], i: usize) -> bool {
    let end = skip_attr(tokens, i);
    let mut k = i;
    while k + 3 < end {
        if tokens[k].ident() == Some("cfg")
            && tokens[k + 1].is_punct('(')
            && tokens[k + 2].ident() == Some("test")
        {
            return true;
        }
        k += 1;
    }
    false
}

/// Phase B: extract per-function facts from one file.
pub fn extract_functions(
    tokens: &[Token],
    file: &str,
    reg: &LockRegistry,
    cfg: &Config,
) -> Vec<FuncFacts> {
    let depths = brace_depths(tokens);
    let mut funcs = Vec::new();
    let mut impl_stack: Vec<(u32, String)> = Vec::new();
    let mut cfg_test = false;
    let mut i = 0;
    while i < tokens.len() {
        // Maintain the impl-context stack.
        while let Some((d, _)) = impl_stack.last() {
            if depths[i] <= *d {
                impl_stack.pop();
            } else {
                break;
            }
        }
        match &tokens[i].tok {
            Tok::Punct('#') if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == '[' || *p == '!') =>
            {
                if attr_is_cfg_test(tokens, i) {
                    cfg_test = true;
                }
                i = skip_attr(tokens, i);
                // On a struct field or an enum variant the attribute
                // covers that alone; it must not carry over to the next
                // item (say, the struct's `impl`) and hide it.
                if cfg_test && !attr_target_is_item(tokens, i) {
                    cfg_test = false;
                }
            }
            Tok::Ident(w) if w == "impl" && !cfg_test => {
                if let Some((name, body_open)) = parse_impl_header(tokens, i) {
                    impl_stack.push((depths[body_open], name));
                    i = body_open + 1;
                } else {
                    i += 1;
                }
            }
            Tok::Ident(w) if w == "fn" => {
                let fname = tokens.get(i + 1).and_then(Token::ident).map(str::to_string);
                let fline = tokens[i].line;
                // Find the body `{` (or `;` for a bodyless trait decl).
                let mut j = i + 2;
                let mut angle = 0i32;
                let mut body = None;
                while j < tokens.len() {
                    match &tokens[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct('-') if next_is(tokens, j + 1, '>') => j += 1,
                        Tok::Punct('(') => {
                            j = matching_paren(tokens, j).unwrap_or(tokens.len());
                        }
                        Tok::Punct('{') if angle <= 0 => {
                            body = Some(j);
                            break;
                        }
                        Tok::Punct(';') if angle <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                match (fname, body) {
                    (Some(name), Some(open)) => {
                        let close = matching_brace(tokens, open).unwrap_or(tokens.len() - 1);
                        if !cfg_test {
                            let impl_of = impl_stack.last().map(|(_, n)| n.clone());
                            funcs.push(extract_body(
                                tokens, &depths, open, close, name, impl_of, file, fline, reg, cfg,
                            ));
                        }
                        i = close + 1;
                    }
                    _ => i = j + 1,
                }
                cfg_test = false;
            }
            Tok::Ident(w) if w == "mod" && cfg_test => {
                // `#[cfg(test)] mod t { ... }` — skip the whole module.
                let mut j = i + 1;
                while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct('{') {
                    i = matching_brace(tokens, j).map_or(tokens.len(), |c| c + 1);
                } else {
                    i = j + 1;
                }
                cfg_test = false;
            }
            Tok::Ident(w)
                if cfg_test
                    && matches!(
                        w.as_str(),
                        "struct" | "enum" | "impl" | "trait" | "const" | "static" | "use" | "type"
                    ) =>
            {
                // Any other cfg(test) item: skip to its end.
                let mut j = i + 1;
                while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct('{') {
                    i = matching_brace(tokens, j).map_or(tokens.len(), |c| c + 1);
                } else {
                    i = j + 1;
                }
                cfg_test = false;
            }
            _ => {
                i += 1;
            }
        }
    }
    funcs
}

/// Parse `impl ... {`, returning the implemented type name and the index
/// of the body `{`. For `impl Trait for Type`, returns `Type`.
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('-') if next_is(tokens, j + 1, '>') => j += 1,
            Tok::Punct('{') if angle <= 0 => {
                return last_ident.map(|n| (n, j));
            }
            Tok::Punct(';') if angle <= 0 => return None,
            Tok::Ident(w) if angle == 0 => match w.as_str() {
                "for" => last_ident = None,
                "where" => {
                    // Type name is fixed; scan on to the `{`.
                    let mut k = j + 1;
                    let mut a = 0i32;
                    while k < tokens.len() {
                        match &tokens[k].tok {
                            Tok::Punct('<') => a += 1,
                            Tok::Punct('>') => a -= 1,
                            Tok::Punct('-') if next_is(tokens, k + 1, '>') => k += 1,
                            Tok::Punct('{') if a <= 0 => {
                                return last_ident.map(|n| (n, k));
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    return None;
                }
                _ => last_ident = Some(w.clone()),
            },
            _ => {}
        }
        j += 1;
    }
    None
}

/// Depth-before-token for every token (number of unmatched `{`).
fn brace_depths(tokens: &[Token]) -> Vec<u32> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut d = 0u32;
    for t in tokens {
        if t.is_punct('}') {
            d = d.saturating_sub(1);
        }
        out.push(if t.is_punct('}') { d + 1 } else { d });
        if t.is_punct('{') {
            d += 1;
        }
    }
    // Convention: depths[i] for `{` is the depth *before* it opens, for
    // `}` the depth *inside* the block it closes.
    out
}

#[allow(clippy::too_many_arguments)]
fn extract_body(
    tokens: &[Token],
    depths: &[u32],
    open: usize,
    close: usize,
    name: String,
    impl_of: Option<String>,
    file: &str,
    line: u32,
    reg: &LockRegistry,
    cfg: &Config,
) -> FuncFacts {
    let mut f = FuncFacts {
        name,
        impl_of,
        file: file.to_string(),
        line,
        acquires: Vec::new(),
        calls: Vec::new(),
        panics: Vec::new(),
        blocking: Vec::new(),
    };
    let mut exempt_panics: HashSet<usize> = HashSet::new();
    let ignore: HashSet<&str> = cfg.ignore_methods.iter().map(String::as_str).collect();
    let blocking: HashSet<&str> = cfg.blocking.iter().map(String::as_str).collect();

    let mut j = open + 1;
    while j < close {
        match &tokens[j].tok {
            // Method call or acquisition: `. name (`
            Tok::Punct('.')
                if matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::Ident(_)))
                    && next_is(tokens, j + 2, '(') =>
            {
                let m = tokens[j + 1].ident().unwrap_or("").to_string();
                let mline = tokens[j + 1].line;
                let zero_arg = next_is(tokens, j + 3, ')');
                let recv = receiver_field(tokens, j);
                let is_acquire =
                    (ACQUIRE_METHODS.contains(&m.as_str()) && zero_arg) || m == "get_or_init";
                if is_acquire {
                    if let Some((is_self, field)) = &recv {
                        if let Some(lock) = reg.resolve(f.impl_of.as_deref(), *is_self, field) {
                            if lock.kind != LockKind::Condvar {
                                let end = if m == "get_or_init" {
                                    matching_paren(tokens, j + 2).map_or(close, |p| p + 1)
                                } else {
                                    guard_extent(tokens, depths, j, close)
                                };
                                f.acquires.push(Acquire {
                                    lock: lock.id.clone(),
                                    method: m.clone(),
                                    line: mline,
                                    start: j,
                                    end,
                                });
                                // Poison propagation is sanctioned: a
                                // `.expect()`/`.unwrap()` chained directly
                                // on the acquisition is exempt.
                                mark_chained_panic_exempt(tokens, j + 2, &mut exempt_panics);
                            }
                        }
                    }
                }
                // Condvar waits: `self.cv.wait(g)` — blocking, and the
                // chained poison-expect is exempt like a lock's.
                if CONDVAR_WAITS.contains(&m.as_str()) {
                    if let Some((is_self, field)) = &recv {
                        if let Some(lock) = reg.resolve(f.impl_of.as_deref(), *is_self, field) {
                            if lock.kind == LockKind::Condvar {
                                mark_chained_panic_exempt(tokens, j + 2, &mut exempt_panics);
                            }
                        }
                    }
                }
                if PANIC_METHODS.contains(&m.as_str()) && !exempt_panics.contains(&j) {
                    f.panics.push(PanicSite {
                        what: format!(".{m}()"),
                        line: mline,
                    });
                }
                if blocking.contains(m.as_str()) {
                    f.blocking.push(BlockSite {
                        what: format!(".{m}()"),
                        line: mline,
                    });
                }
                if !is_acquire
                    && !ignore.contains(m.as_str())
                    && !PANIC_METHODS.contains(&m.as_str())
                {
                    f.calls.push(Call {
                        callee: Callee::Method(m),
                        line: mline,
                        idx: j,
                    });
                }
                j += 2;
            }
            // Free / qualified call or macro: `name (` / `name !`
            Tok::Ident(w) if !KEYWORDS.contains(&w.as_str()) => {
                let wline = tokens[j].line;
                if next_is(tokens, j + 1, '!') && PANIC_MACROS.contains(&w.as_str()) {
                    f.panics.push(PanicSite {
                        what: format!("{w}!"),
                        line: wline,
                    });
                } else if next_is(tokens, j + 1, '(') && !prev_is(tokens, j, '.') {
                    let qualified =
                        prev_is(tokens, j, ':') && j >= 2 && tokens[j - 2].is_punct(':');
                    let callee = if qualified {
                        let ty = (j >= 3)
                            .then(|| tokens[j - 3].ident().map(str::to_string))
                            .flatten();
                        match ty {
                            Some(ty) => Callee::Qualified(ty, w.clone()),
                            None => Callee::Free(w.clone()),
                        }
                    } else {
                        Callee::Free(w.clone())
                    };
                    if blocking.contains(w.as_str()) {
                        f.blocking.push(BlockSite {
                            what: format!("{w}()"),
                            line: wline,
                        });
                    }
                    if !ignore.contains(w.as_str()) {
                        f.calls.push(Call {
                            callee,
                            line: wline,
                            idx: j,
                        });
                    }
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    f
}

fn prev_is(tokens: &[Token], i: usize, c: char) -> bool {
    i > 0 && tokens[i - 1].is_punct(c)
}

/// Resolve the receiver of `. method (` at dot index `j`: returns
/// `(receiver_is_self, field_name)` for `<expr>.field.method()` shapes.
fn receiver_field(tokens: &[Token], j: usize) -> Option<(bool, String)> {
    // tokens[j-1] must be the field ident, tokens[j-2] a `.`.
    let field = tokens.get(j.checked_sub(1)?)?.ident()?;
    if !prev_is(tokens, j - 1, '.') {
        return None;
    }
    let is_self = j >= 3 && tokens[j - 3].ident() == Some("self");
    Some((is_self, field.to_string()))
}

/// If the call whose argument list opens at `open_paren` is directly
/// chained into `.expect(` / `.unwrap(`, mark that panic site exempt.
fn mark_chained_panic_exempt(tokens: &[Token], open_paren: usize, exempt: &mut HashSet<usize>) {
    if let Some(cp) = matching_paren(tokens, open_paren) {
        if next_is(tokens, cp + 1, '.') {
            if let Some(m) = tokens.get(cp + 2).and_then(Token::ident) {
                if PANIC_METHODS.contains(&m) && next_is(tokens, cp + 3, '(') {
                    exempt.insert(cp + 1);
                }
            }
        }
    }
}

/// Compute the guard-live extent for an acquisition at dot index `j`.
fn guard_extent(tokens: &[Token], depths: &[u32], j: usize, body_close: usize) -> usize {
    let d = depths[j];
    // Find the statement start: walk back to the nearest `;` / `{` / `}`.
    let mut s = j;
    while s > 0 {
        match &tokens[s - 1].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            _ => s -= 1,
        }
    }
    let is_let = tokens.get(s).and_then(Token::ident) == Some("let");
    // A `let` statement only binds the *guard* when the acquisition
    // chain (plus an optional `.expect(...)`/`.unwrap()`) is the whole
    // initializer: `let g = self.m.lock().expect("...");`. Statements
    // like `let v = *self.m.read().expect("...")` or
    // `let n = self.m.read().expect("...").len();` bind a value copied
    // out of a temporary guard that dies at the statement end.
    let binds_guard = is_let && {
        // Receiver chain start: walk `a.b.c` back from the field ident.
        let mut r = j - 1;
        while r >= 2 && tokens[r - 1].is_punct('.') && tokens[r - 2].ident().is_some() {
            r -= 2;
        }
        let direct_init = r >= 1 && tokens[r - 1].is_punct('=');
        // Acquisition chain end: past `(args)` and chained expect/unwrap.
        let mut e = matching_paren(tokens, j + 2).map(|p| p + 1);
        while let Some(k) = e {
            match (
                tokens.get(k).map(|t| t.is_punct('.')),
                tokens.get(k + 1).and_then(Token::ident),
                tokens.get(k + 2).map(|t| t.is_punct('(')),
            ) {
                (Some(true), Some(m), Some(true)) if PANIC_METHODS.contains(&m) => {
                    e = matching_paren(tokens, k + 2).map(|p| p + 1);
                }
                _ => break,
            }
        }
        direct_init && e.map(|k| next_is(tokens, k, ';')).unwrap_or(false)
    };
    if binds_guard {
        // Bound name (for `drop(name)` detection): `let [mut] name ...`.
        let mut ni = s + 1;
        if tokens.get(ni).and_then(Token::ident) == Some("mut") {
            ni += 1;
        }
        let bound = tokens
            .get(ni)
            .and_then(Token::ident)
            .filter(|_| next_is(tokens, ni + 1, ':') || next_is(tokens, ni + 1, '='))
            .map(str::to_string);
        let mut k = j + 1;
        while k < body_close {
            if tokens[k].is_punct('}') && depths[k] <= d {
                return k;
            }
            if let Some(b) = &bound {
                if tokens[k].ident() == Some("drop")
                    && next_is(tokens, k + 1, '(')
                    && tokens.get(k + 2).and_then(Token::ident) == Some(b.as_str())
                    && next_is(tokens, k + 3, ')')
                {
                    return k;
                }
            }
            k += 1;
        }
        body_close
    } else {
        // Temporary: live to the end of the statement, extended through
        // trailing brace groups at this depth (match bodies, if-let
        // bodies and their `else` arms — Rust 2021 temporary scopes).
        let mut k = j + 1;
        let mut entered_group = false;
        while k < body_close {
            match &tokens[k].tok {
                Tok::Punct(';') if depths[k] == d => return k,
                Tok::Punct('}') if depths[k] <= d => return k,
                Tok::Punct('{') if depths[k] == d => entered_group = true,
                Tok::Punct('}') if depths[k] == d + 1 && entered_group => {
                    // End of the trailing group — unless an `else` chain
                    // continues the same statement.
                    if tokens.get(k + 1).and_then(Token::ident) == Some("else") {
                        k += 1;
                        continue;
                    }
                    return k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        body_close
    }
}

/// Lex + extract a batch of sources (phase A then phase B).
pub fn extract_all(sources: &[(String, String)], cfg: &Config) -> (LockRegistry, Vec<FileFacts>) {
    let mut reg = LockRegistry::default();
    let lexed: Vec<_> = sources.iter().map(|(_, src)| lex(src)).collect();
    for ((path, _), lx) in sources.iter().zip(&lexed) {
        collect_locks(&lx.tokens, path, &mut reg);
    }
    let mut files = Vec::new();
    for ((path, _), lx) in sources.iter().zip(&lexed) {
        let funcs = extract_functions(&lx.tokens, path, &reg, cfg);
        files.push(FileFacts {
            path: path.clone(),
            locks: reg
                .locks
                .iter()
                .filter(|l| &l.file == path)
                .cloned()
                .collect(),
            funcs,
            suppressions: lx.suppressions.clone(),
        });
    }
    (reg, files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts_of(src: &str) -> (LockRegistry, Vec<FileFacts>) {
        extract_all(
            &[("test.rs".to_string(), src.to_string())],
            &Config::default(),
        )
    }

    #[test]
    fn finds_lock_fields() {
        let (reg, _) = facts_of(
            "struct S { a: std::sync::Mutex<u32>, b: RwLock<Vec<u8>>, \
             c: Arc<OnceLock<String>>, d: Condvar, e: usize }",
        );
        let ids: Vec<_> = reg.locks.iter().map(|l| l.id.as_str()).collect();
        assert_eq!(ids, vec!["S.a", "S.b", "S.c", "S.d"]);
        assert_eq!(reg.locks[0].kind, LockKind::Mutex);
        assert_eq!(reg.locks[3].kind, LockKind::Condvar);
    }

    #[test]
    fn let_guard_extends_to_block_close_and_drop() {
        let src = r#"
struct S { m: Mutex<u32> }
impl S {
    fn f(&self) {
        let g = self.m.lock().expect("poisoned");
        helper();
        drop(g);
        after();
    }
}
fn helper() {}
fn after() {}
"#;
        let (_, files) = facts_of(src);
        let f = &files[0].funcs[0];
        assert_eq!(f.acquires.len(), 1);
        let a = &f.acquires[0];
        let helper = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "helper")
            .unwrap();
        let after = f.calls.iter().find(|c| c.callee.name() == "after").unwrap();
        assert!(
            helper.idx > a.start && helper.idx < a.end,
            "helper under guard"
        );
        assert!(after.idx > a.end, "after must be past drop(g)");
        // Chained poison-expect is exempt.
        assert!(
            f.panics.is_empty(),
            "poison expect must be exempt: {:?}",
            f.panics
        );
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let src = r#"
struct S { m: RwLock<u32> }
impl S {
    fn f(&self) -> u32 {
        let v = *self.m.read().expect("poisoned");
        helper();
        v
    }
}
fn helper() {}
"#;
        let (_, files) = facts_of(src);
        let f = &files[0].funcs[0];
        let a = &f.acquires[0];
        let helper = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "helper")
            .unwrap();
        // `let v = *...read()...;` — the guard is a temporary inside the
        // let initializer; it dies at the `;`, before helper().
        assert!(
            helper.idx > a.end,
            "helper must not be under the temporary guard"
        );
    }

    #[test]
    fn if_let_temporary_extends_through_body() {
        let src = r#"
struct S { m: RwLock<Option<u32>> }
impl S {
    fn f(&self) {
        if let Some(v) = self.m.read().expect("p").as_ref() {
            inside();
        }
        outside();
    }
}
fn inside() {}
fn outside() {}
"#;
        let (_, files) = facts_of(src);
        let f = &files[0].funcs[0];
        let a = &f.acquires[0];
        let inside = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "inside")
            .unwrap();
        let outside = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "outside")
            .unwrap();
        assert!(
            inside.idx < a.end,
            "if-let body is under the scrutinee temporary"
        );
        assert!(outside.idx >= a.end, "past the if-let the guard is dead");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = r#"
fn real() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn fake() { y.unwrap(); }
}
"#;
        let (_, files) = facts_of(src);
        assert_eq!(files[0].funcs.len(), 1);
        assert_eq!(files[0].funcs[0].name, "real");
    }

    #[test]
    fn io_write_with_args_is_not_an_acquisition() {
        let src = r#"
struct S { sock: TcpStream, m: RwLock<u32> }
impl S {
    fn f(&mut self, buf: &[u8]) {
        self.sock.write(buf).ok();
        let g = self.m.write().expect("p");
    }
}
"#;
        let (_, files) = facts_of(src);
        let f = &files[0].funcs[0];
        assert_eq!(f.acquires.len(), 1);
        assert_eq!(f.acquires[0].lock, "S.m");
    }

    #[test]
    fn impl_trait_for_type_attributes_methods_to_type() {
        let src = r#"
struct Foo { m: Mutex<u32> }
impl Clone for Foo {
    fn clone(&self) -> Foo { let g = self.m.lock().unwrap(); Foo::new() }
}
"#;
        let (_, files) = facts_of(src);
        let f = &files[0].funcs[0];
        assert_eq!(f.impl_of.as_deref(), Some("Foo"));
        assert_eq!(f.acquires.len(), 1);
    }

    #[test]
    fn panic_macros_and_methods_are_recorded() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    if x.is_none() { panic!("boom"); }
    x.unwrap()
}
"#;
        let (_, files) = facts_of(src);
        let f = &files[0].funcs[0];
        let whats: Vec<_> = f.panics.iter().map(|p| p.what.as_str()).collect();
        assert!(whats.contains(&"panic!"));
        assert!(whats.contains(&".unwrap()"));
    }

    #[test]
    fn blocking_calls_are_recorded() {
        let src = "fn f() { std::thread::sleep(d); rx.recv(); }";
        let (_, files) = facts_of(src);
        let f = &files[0].funcs[0];
        let whats: Vec<_> = f.blocking.iter().map(|b| b.what.as_str()).collect();
        assert!(whats.contains(&"sleep()"));
        assert!(whats.contains(&".recv()"));
    }

    #[test]
    fn get_or_init_holds_for_closure_extent() {
        let src = r#"
struct S { cell: OnceLock<u32> }
impl S {
    fn f(&self) -> u32 {
        let v = *self.cell.get_or_init(|| build());
        after();
        v
    }
}
fn build() -> u32 { 1 }
fn after() {}
"#;
        let (_, files) = facts_of(src);
        let f = &files[0].funcs[0];
        assert_eq!(f.acquires.len(), 1);
        let a = &f.acquires[0];
        let build = f.calls.iter().find(|c| c.callee.name() == "build").unwrap();
        let after = f.calls.iter().find(|c| c.callee.name() == "after").unwrap();
        assert!(build.idx < a.end, "closure body is inside the init extent");
        assert!(after.idx > a.end);
    }
}
