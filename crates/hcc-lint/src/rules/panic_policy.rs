//! Rule `panic-policy`: no panics on server-connection and worker-task paths.
//!
//! A panic in a connection handler kills that client; a panic in a worker
//! task is caught by `catch_unwind` but fails the whole job. Both paths must
//! surface errors as values. This rule bans, outside `#[cfg(test)]`:
//!
//! - `.unwrap()` and `.expect(...)` calls,
//! - slice/array indexing `expr[...]` (which panics out of bounds).
//!
//! Indexing that is in-bounds by construction gets a waiver whose reason
//! states the invariant — turning implicit assumptions into reviewed,
//! documented ones. Type-position brackets (`[u8; 32]`, `Vec<[f64; 4]>`) and
//! attribute brackets are not flagged: only brackets that *follow a value*
//! (an identifier, `)`, or `]`) index into it.

use crate::lexer::TokKind;
use crate::rules::Finding;
use crate::syntax::SourceFile;

/// Server-connection, worker-task and budget-ledger path files.
const SCOPED_FILES: [&str; 8] = [
    "crates/hcc-engine/src/server.rs",
    "crates/hcc-engine/src/reactor.rs",
    "crates/hcc-engine/src/protocol.rs",
    "crates/hcc-engine/src/engine.rs",
    "crates/hcc-engine/src/ledger.rs",
    "crates/hcc-engine/src/scheduler.rs",
    "crates/hcc-engine/src/telemetry.rs",
    "crates/hcc-engine/src/locks.rs",
];

/// Crates whose entire `src/` tree is on a panic-policy path. The durable
/// store sits under every acknowledged mutation: a panic there takes down
/// the connection *and* can leave the WAL mid-record.
const SCOPED_CRATES: [&str; 1] = ["crates/hcc-store/src/"];

/// Keywords that may directly precede `[` without forming an index
/// expression (`return [..]`, `match x {..}[..]` is not real code, etc.).
const NON_VALUE_KEYWORDS: [&str; 12] = [
    "let", "in", "return", "if", "else", "match", "mut", "ref", "move", "box", "as", "where",
];

/// True when `rel` is on a panic-policy path.
pub fn in_scope(rel: &str) -> bool {
    SCOPED_FILES.contains(&rel) || SCOPED_CRATES.iter().any(|p| rel.starts_with(p))
}

/// Run the rule over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.rel) {
        return;
    }
    for (i, tok) in file.code() {
        // `.unwrap()` / `.expect(` method calls.
        if (tok.is_ident("unwrap") || tok.is_ident("expect"))
            && file.prev_code(i).is_some_and(|p| p.is_punct('.'))
            && file.next_code(i).is_some_and(|n| n.is_punct('('))
        {
            out.push(Finding {
                rule: "panic-policy",
                path: file.rel.clone(),
                line: tok.line,
                message: format!(
                    "`.{}()` can panic on a server/worker path; return a typed error \
                     (or waive with the invariant that rules the panic out)",
                    tok.text
                ),
            });
            continue;
        }
        // Index expressions: `[` directly after a value-producing token.
        if tok.is_punct('[') {
            let Some(prev) = file.prev_code(i) else {
                continue;
            };
            let indexes_value = match prev.kind {
                TokKind::Ident => !NON_VALUE_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                _ => false,
            };
            if indexes_value {
                out.push(Finding {
                    rule: "panic-policy",
                    path: file.rel.clone(),
                    line: tok.line,
                    message: "slice index can panic on a server/worker path; use `get`/\
                              `get_mut` (or waive with the invariant that bounds it)"
                        .to_string(),
                });
            }
        }
    }
}
