//! Delimiter matching and the `fn`-signature model.
//!
//! The flat token stream is precise enough for "this token follows
//! that one" but not for function signatures. This module adds the
//! missing layer without pulling in `syn` (the vendor tree has none):
//! [`partners`] pairs every `(`/`[`/`{` with its closing delimiter, and
//! [`FileModel::parse`] resolves every `fn` signature on top — name,
//! visibility and parsed parameter list — through `impl` and `mod`
//! nesting.
//!
//! The model is deliberately shallow: it resolves exactly the
//! signatures `unit-hygiene` reads, and it is tolerant — unbalanced
//! delimiters close at end-of-file instead of failing, so a half-edited
//! file still lints.

use crate::lexer::{Lexed, TokKind, Token};

/// One delimiter family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delim {
    Paren,
    Bracket,
    Brace,
}

impl Delim {
    fn of_open(text: &str) -> Option<Delim> {
        Some(match text {
            "(" => Delim::Paren,
            "[" => Delim::Bracket,
            "{" => Delim::Brace,
            _ => return None,
        })
    }

    fn of_close(text: &str) -> Option<Delim> {
        Some(match text {
            ")" => Delim::Paren,
            "]" => Delim::Bracket,
            "}" => Delim::Brace,
            _ => return None,
        })
    }
}

/// Builds the partner table for `tokens`: `partner[open] == close` and
/// `partner[close] == open` for every matched delimiter pair,
/// `partner[i] == i` everywhere else. The table is tolerant: a closer
/// with no opener of its family is dropped, a closer also closes any
/// unclosed groups of other families inside it (which stay unpaired),
/// and groups still open at end-of-file stay unpaired.
pub fn partners(tokens: &[Token]) -> Vec<usize> {
    let mut partner: Vec<usize> = (0..tokens.len()).collect();
    let mut stack: Vec<(Delim, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        if let Some(d) = Delim::of_open(&t.text) {
            stack.push((d, i));
        } else if let Some(d) = Delim::of_close(&t.text) {
            if let Some(pos) = stack.iter().rposition(|&(open_d, _)| open_d == d) {
                let open = stack[pos].1;
                stack.truncate(pos);
                partner[open] = i;
                partner[i] = open;
            }
        }
    }
    partner
}

/// A half-open token index range `[start, end)`.
pub type Range = (usize, usize);

/// One parsed function parameter.
#[derive(Debug)]
pub struct Param {
    /// The binding name (`self` for receivers; tuple patterns are
    /// skipped).
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token range of the type, after the `:`.
    pub ty: Range,
}

/// One parsed `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// Token index of the name (for test-region checks).
    pub name_idx: usize,
    /// Whether the signature carries `pub` (any visibility scope).
    pub is_pub: bool,
    /// Parsed parameters, in order.
    pub params: Vec<Param>,
}

/// The `fn` signatures of one lexed file.
#[derive(Debug)]
pub struct FileModel<'a> {
    /// The underlying token stream.
    pub tokens: &'a [Token],
    /// Every function in the file, `impl`/`mod` nesting flattened.
    pub functions: Vec<FnItem>,
}

impl<'a> FileModel<'a> {
    /// Parses the `fn` signatures of `lexed`.
    pub fn parse(lexed: &'a Lexed) -> FileModel<'a> {
        let tokens = &lexed.tokens;
        let partner = partners(tokens);
        let mut functions = Vec::new();
        parse_items(tokens, &partner, 0, tokens.len(), &mut functions);
        FileModel { tokens, functions }
    }
}

/// Parses one item level: the token range `[start, end)` must sit at a
/// single nesting depth (the whole file, a `mod` body, an `impl`
/// body). Function bodies are *not* descended into — statements are
/// not items.
fn parse_items(
    tokens: &[Token],
    partner: &[usize],
    start: usize,
    end: usize,
    out: &mut Vec<FnItem>,
) {
    let mut i = start;
    while i < end.min(tokens.len()) {
        let t = &tokens[i];
        // Skip attributes wholesale.
        if t.is_punct("#") && tokens.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            i = partner[i + 1].max(i + 1) + 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            if partner[i] > i {
                i = partner[i]; // stray group at item level (e.g. macro body)
            }
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" => {
                if let Some(open) = named_block(tokens, partner, i, end) {
                    let close = partner[open];
                    parse_items(tokens, partner, open + 1, close, out);
                    i = close + 1;
                } else {
                    i = skip_to_semi(tokens, partner, i, end);
                }
            }
            "impl" => {
                if let Some(open) = next_brace(tokens, partner, i + 1, end) {
                    let close = partner[open];
                    parse_items(tokens, partner, open + 1, close, out);
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            "fn" => {
                let (item, next) = parse_fn(tokens, partner, i, end);
                if let Some(f) = item {
                    out.push(f);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
}

/// `mod name {`: returns the brace index.
fn named_block(tokens: &[Token], partner: &[usize], kw: usize, end: usize) -> Option<usize> {
    if tokens.get(kw + 1)?.kind != TokKind::Ident {
        return None;
    }
    let open = kw + 2;
    if open < end && tokens.get(open).is_some_and(|t| t.is_punct("{")) && partner[open] > open {
        Some(open)
    } else {
        None
    }
}

fn skip_to_semi(tokens: &[Token], partner: &[usize], mut i: usize, end: usize) -> usize {
    while i < end.min(tokens.len()) {
        if tokens[i].is_punct(";") {
            return i + 1;
        }
        if partner[i] > i {
            i = partner[i];
        }
        i += 1;
    }
    i
}

/// First `{` group at the current level in `[from, end)`.
fn next_brace(tokens: &[Token], partner: &[usize], mut i: usize, end: usize) -> Option<usize> {
    while i < end.min(tokens.len()) {
        if tokens[i].is_punct("{") && partner[i] > i {
            return Some(i);
        }
        if tokens[i].is_punct(";") {
            return None;
        }
        if partner[i] > i {
            i = partner[i];
        }
        i += 1;
    }
    None
}

/// Parses `fn name <generics?> (params) -> ret? { body }?` starting at
/// the `fn` keyword. Returns the item and the resume index.
fn parse_fn(tokens: &[Token], partner: &[usize], kw: usize, end: usize) -> (Option<FnItem>, usize) {
    let Some(name_tok) = tokens.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
        return (None, kw + 1);
    };
    let is_pub = fn_is_pub(tokens, partner, kw);
    let mut j = kw + 2;
    // Skip generic parameters (angle-depth walk; `(` groups inside,
    // e.g. `Fn(u32) -> u64` bounds, are skipped via the partner table).
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while j < end.min(tokens.len()) {
            match tokens[j].text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {
                    if partner[j] > j {
                        j = partner[j];
                    }
                }
            }
            j += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("(")) || partner[j] <= j {
        return (None, kw + 2);
    }
    let params = parse_params(tokens, partner, j + 1, partner[j]);
    let after_params = partner[j] + 1;
    // Resume after the body — the next `{` group before any `;` at this
    // level — or after the `;` of a bodyless trait method.
    let resume = match next_brace(tokens, partner, after_params, end) {
        Some(open) => partner[open] + 1,
        None => skip_to_semi(tokens, partner, after_params, end),
    };
    (
        Some(FnItem {
            name: name_tok.text.clone(),
            name_idx: kw + 1,
            is_pub,
            params,
        }),
        resume,
    )
}

/// Whether the tokens before the `fn` keyword carry a `pub` modifier.
fn fn_is_pub(tokens: &[Token], partner: &[usize], kw: usize) -> bool {
    let mut b = kw;
    while b > 0 {
        b -= 1;
        let t = &tokens[b];
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern")
        {
            continue;
        }
        if t.kind == TokKind::Str {
            continue; // extern "C"
        }
        if t.is_punct(")") && partner[b] < b {
            b = partner[b];
            continue; // pub(crate) scope parens
        }
        return t.is_ident("pub");
    }
    false
}

/// Splits a parameter range on top-level commas (angle depth tracked —
/// `Map<K, V>` must not split) and resolves `name: Type` per segment.
fn parse_params(tokens: &[Token], partner: &[usize], start: usize, end: usize) -> Vec<Param> {
    let mut params = Vec::new();
    let mut seg_start = start;
    let mut angle = 0i32;
    let mut i = start;
    while i <= end.min(tokens.len()) {
        let at_end = i == end.min(tokens.len());
        if !at_end {
            let t = &tokens[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                }
                if partner[i] > i {
                    i = partner[i];
                    i += 1;
                    continue;
                }
            }
        }
        if at_end || (tokens[i].is_punct(",") && angle <= 0) {
            if let Some(p) = parse_param(tokens, partner, seg_start, i) {
                params.push(p);
            }
            seg_start = i + 1;
            if at_end {
                break;
            }
        }
        i += 1;
    }
    params
}

fn parse_param(tokens: &[Token], partner: &[usize], start: usize, end: usize) -> Option<Param> {
    // Receivers: `self`, `&self`, `&mut self`, `&'a self`.
    let idents: Vec<usize> = (start..end.min(tokens.len()))
        .filter(|&i| tokens[i].kind == TokKind::Ident)
        .collect();
    if idents.iter().any(|&i| tokens[i].is_ident("self")) {
        let i = *idents.iter().find(|&&i| tokens[i].is_ident("self"))?;
        return Some(Param {
            name: "self".to_string(),
            line: tokens[i].line,
            ty: (end, end),
        });
    }
    // First top-level `:` splits pattern from type (`::` is one token).
    let mut colon = None;
    let mut i = start;
    while i < end.min(tokens.len()) {
        if tokens[i].is_punct(":") {
            colon = Some(i);
            break;
        }
        if partner[i] > i {
            i = partner[i];
        }
        i += 1;
    }
    let colon = colon?;
    let name_tok = (start..colon)
        .rev()
        .map(|i| &tokens[i])
        .find(|t| t.kind == TokKind::Ident && t.text != "mut")?;
    Some(Param {
        name: name_tok.text.clone(),
        line: name_tok.line,
        ty: (colon + 1, end),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn partner_table_pairs_delimiters() {
        let lexed = lex("fn f(a: u32) { g([1, 2]); }");
        let partner = partners(&lexed.tokens);
        for (i, t) in lexed.tokens.iter().enumerate() {
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                assert!(partner[i] > i, "opener {i} unpaired");
                assert_eq!(partner[partner[i]], i);
            }
        }
    }

    #[test]
    fn unbalanced_input_does_not_panic() {
        for src in ["fn f( {", "}}}", "fn f) { ]"] {
            let lexed = lex(src);
            let partner = partners(&lexed.tokens);
            assert_eq!(partner.len(), lexed.tokens.len());
            let _ = FileModel::parse(&lexed);
        }
    }

    #[test]
    fn fn_signature_resolves_params_and_generics() {
        let lexed = lex(
            "impl X { pub fn go<F: Fn(u32) -> u64>(&mut self, dist: f64, m: Map<K, V>) -> u64 { 0 } }",
        );
        let model = FileModel::parse(&lexed);
        assert_eq!(model.functions.len(), 1);
        let f = &model.functions[0];
        assert_eq!(f.name, "go");
        assert!(f.is_pub);
        let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["self", "dist", "m"]);
    }
}
