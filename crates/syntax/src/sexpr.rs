//! S-expression reader.
//!
//! A small, standalone reader producing [`Sexpr`] trees with source
//! positions. The mini-Scheme parser in [`crate::scheme`] consumes these.
//!
//! Supported syntax: lists `( … )` and `[ … ]`, integers, `#t`/`#f`,
//! string literals with escapes, symbols, quote (`'x` reads as
//! `(quote x)`), and `;` line comments.
//!
//! Lists and quotes nest at most [`MAX_NESTING`] levels deep. The
//! reader, the desugarer and the CPS converter all recurse once per
//! level, so deeper input is rejected here with a [`ReadError`] instead
//! of overflowing the stack further down the pipeline.
//!
//! # Examples
//!
//! ```
//! use cfa_syntax::sexpr::{parse_all, Sexpr};
//!
//! let forms = parse_all("(+ 1 2) ; a comment\n(f x)").unwrap();
//! assert_eq!(forms.len(), 2);
//! assert!(matches!(forms[0], Sexpr::List(_, _)));
//! ```

use std::fmt;

/// The deepest nesting of lists and quotes the reader accepts.
///
/// About four times the deepest program in the workloads suite, the
/// paper's worst-case family (depth 130 at n = 64) and the generated
/// corpora. Low enough that desugaring and CPS conversion of a form
/// this deep fit an 8 MiB main-thread stack with at least 1.5×
/// headroom even in a debug build; the costliest shapes, nested quotes
/// and nested `list` calls, first overflow between 800 and 900 levels
/// there.
pub const MAX_NESTING: usize = 512;

/// A line/column source position (1-based).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parsed S-expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Sexpr {
    /// A symbol such as `lambda` or `x`.
    Symbol(Pos, String),
    /// An integer literal.
    Int(Pos, i64),
    /// A boolean literal (`#t` / `#f`).
    Bool(Pos, bool),
    /// A string literal.
    Str(Pos, String),
    /// A parenthesized list.
    List(Pos, Vec<Sexpr>),
}

impl Sexpr {
    /// The source position where this expression starts.
    pub fn pos(&self) -> Pos {
        match self {
            Sexpr::Symbol(p, _)
            | Sexpr::Int(p, _)
            | Sexpr::Bool(p, _)
            | Sexpr::Str(p, _)
            | Sexpr::List(p, _) => *p,
        }
    }

    /// Returns the symbol name if this is a symbol.
    pub fn as_symbol(&self) -> Option<&str> {
        match self {
            Sexpr::Symbol(_, s) => Some(s),
            _ => None,
        }
    }

    /// Returns the elements if this is a list.
    pub fn as_list(&self) -> Option<&[Sexpr]> {
        match self {
            Sexpr::List(_, items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Sexpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sexpr::Symbol(_, s) => write!(f, "{s}"),
            Sexpr::Int(_, n) => write!(f, "{n}"),
            Sexpr::Bool(_, b) => write!(f, "#{}", if *b { "t" } else { "f" }),
            Sexpr::Str(_, s) => write!(f, "{s:?}"),
            Sexpr::List(_, items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An error produced while reading S-expressions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReadError {
    /// Where the error occurred.
    pub pos: Pos,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "read error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ReadError {}

struct Reader<'a> {
    src: &'a [u8],
    at: usize,
    line: u32,
    col: u32,
    /// Lists and quotes open around the current read position.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str) -> Self {
        Reader {
            src: src.as_bytes(),
            at: 0,
            line: 1,
            col: 1,
            depth: 0,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn error(&self, message: impl Into<String>) -> ReadError {
        ReadError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.at).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.at += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn read(&mut self) -> Result<Sexpr, ReadError> {
        self.skip_trivia();
        let pos = self.pos();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'(' | b'[' | b'\'') => {
                if self.depth == MAX_NESTING {
                    return Err(self.error(format!("input nests deeper than {MAX_NESTING} levels")));
                }
                self.depth += 1;
                let form = self.read_nested(pos);
                self.depth -= 1;
                form
            }
            Some(b')') | Some(b']') => Err(self.error("unexpected closing delimiter")),
            Some(b'"') => self.read_string(pos),
            Some(b'#') => self.read_hash(pos),
            _ => self.read_atom(pos),
        }
    }

    /// Reads the list or quoted form opening at `pos` (one nesting
    /// level, already counted by [`Reader::read`]).
    fn read_nested(&mut self, pos: Pos) -> Result<Sexpr, ReadError> {
        match self.bump() {
            Some(b'\'') => {
                let quoted = self.read()?;
                Ok(Sexpr::List(
                    pos,
                    vec![Sexpr::Symbol(pos, "quote".to_owned()), quoted],
                ))
            }
            open => {
                let close = if open == Some(b'(') { b')' } else { b']' };
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    match self.peek() {
                        None => return Err(self.error(format!("unclosed list starting at {pos}"))),
                        Some(c) if c == close => {
                            self.bump();
                            return Ok(Sexpr::List(pos, items));
                        }
                        Some(b')') | Some(b']') => {
                            return Err(self.error("mismatched closing delimiter"))
                        }
                        _ => items.push(self.read()?),
                    }
                }
            }
        }
    }

    fn read_string(&mut self, pos: Pos) -> Result<Sexpr, ReadError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string literal")),
                Some(b'"') => return Ok(Sexpr::Str(pos, out)),
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    Some(other) => {
                        return Err(
                            self.error(format!("unknown string escape '\\{}'", other as char))
                        )
                    }
                    None => return Err(self.error("unterminated string escape")),
                },
                Some(c) => out.push(c as char),
            }
        }
    }

    fn read_hash(&mut self, pos: Pos) -> Result<Sexpr, ReadError> {
        self.bump(); // '#'
        match self.bump() {
            Some(b't') => Ok(Sexpr::Bool(pos, true)),
            Some(b'f') => Ok(Sexpr::Bool(pos, false)),
            Some(other) => Err(self.error(format!("unknown '#' syntax '#{}'", other as char))),
            None => Err(self.error("unexpected end of input after '#'")),
        }
    }

    fn read_atom(&mut self, pos: Pos) -> Result<Sexpr, ReadError> {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() || matches!(c, b'(' | b')' | b'[' | b']' | b';' | b'"') {
                break;
            }
            text.push(c as char);
            self.bump();
        }
        if text.is_empty() {
            return Err(self.error("expected an atom"));
        }
        // A token is an integer iff it parses as one. `-` alone or `1+` are symbols.
        if text
            .chars()
            .next()
            .map(|c| c.is_ascii_digit())
            .unwrap_or(false)
            || (text.len() > 1
                && (text.starts_with('-') || text.starts_with('+'))
                && text[1..].chars().all(|c| c.is_ascii_digit()))
        {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Sexpr::Int(pos, n));
            }
        }
        Ok(Sexpr::Symbol(pos, text))
    }
}

/// Reads a single S-expression from `src`, requiring that nothing but
/// trivia follows it.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed input or trailing junk.
pub fn parse_one(src: &str) -> Result<Sexpr, ReadError> {
    let mut r = Reader::new(src);
    let e = r.read()?;
    r.skip_trivia();
    if r.peek().is_some() {
        return Err(r.error("trailing input after expression"));
    }
    Ok(e)
}

/// Reads all S-expressions from `src`.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed input.
pub fn parse_all(src: &str) -> Result<Vec<Sexpr>, ReadError> {
    let mut r = Reader::new(src);
    let mut out = Vec::new();
    loop {
        r.skip_trivia();
        if r.peek().is_none() {
            return Ok(out);
        }
        out.push(r.read()?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_atoms() {
        assert_eq!(
            parse_one("42").unwrap(),
            Sexpr::Int(Pos { line: 1, col: 1 }, 42)
        );
        assert_eq!(
            parse_one("-17").unwrap(),
            Sexpr::Int(Pos { line: 1, col: 1 }, -17)
        );
        assert!(matches!(parse_one("#t").unwrap(), Sexpr::Bool(_, true)));
        assert!(matches!(parse_one("#f").unwrap(), Sexpr::Bool(_, false)));
        assert!(matches!(parse_one("foo-bar?").unwrap(), Sexpr::Symbol(_, s) if s == "foo-bar?"));
        // `-` and `+` alone are symbols, not numbers.
        assert!(matches!(parse_one("-").unwrap(), Sexpr::Symbol(_, s) if s == "-"));
        assert!(matches!(parse_one("+").unwrap(), Sexpr::Symbol(_, s) if s == "+"));
    }

    #[test]
    fn reads_strings_with_escapes() {
        let e = parse_one(r#""a\nb\"c""#).unwrap();
        assert!(matches!(e, Sexpr::Str(_, s) if s == "a\nb\"c"));
    }

    #[test]
    fn reads_nested_lists() {
        let e = parse_one("(a (b c) [d])").unwrap();
        let items = e.as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_symbol(), Some("a"));
        assert_eq!(items[1].as_list().unwrap().len(), 2);
        assert_eq!(items[2].as_list().unwrap().len(), 1);
    }

    #[test]
    fn quote_expands() {
        let e = parse_one("'x").unwrap();
        let items = e.as_list().unwrap();
        assert_eq!(items[0].as_symbol(), Some("quote"));
        assert_eq!(items[1].as_symbol(), Some("x"));
    }

    #[test]
    fn comments_are_skipped() {
        let forms = parse_all("; hello\n(f) ; mid\n(g)").unwrap();
        assert_eq!(forms.len(), 2);
    }

    #[test]
    fn positions_are_tracked() {
        let forms = parse_all("(a)\n  (b)").unwrap();
        assert_eq!(forms[1].pos(), Pos { line: 2, col: 3 });
    }

    #[test]
    fn errors_on_unclosed_list() {
        assert!(parse_one("(a (b)").is_err());
    }

    #[test]
    fn errors_on_stray_close() {
        assert!(parse_one(")").is_err());
        assert!(parse_one("(a])").is_err());
    }

    #[test]
    fn errors_on_trailing_junk() {
        assert!(parse_one("(a) b").is_err());
    }

    #[test]
    fn nesting_up_to_the_limit_reads() {
        let n = MAX_NESTING;
        let src = format!("{}1{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_one(&src).is_ok());
        let quotes = format!("{}x", "'".repeat(n));
        assert!(parse_one(&quotes).is_ok());
        // Depth counts open forms, not forms read: a long list of
        // short lists stays two levels deep.
        assert!(parse_one(&format!("({})", "(a) ".repeat(10 * n))).is_ok());
    }

    #[test]
    fn nesting_past_the_limit_is_a_read_error() {
        let n = MAX_NESTING + 1;
        for src in [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}1{}", "[".repeat(n), "]".repeat(n)),
            format!("{}x", "'".repeat(n)),
            // Lists and quotes count toward one shared depth.
            format!("{}'{}", "(".repeat(n - 1), ")".repeat(n - 1)),
            // Unterminated input is rejected at the limit, not read on.
            "(".repeat(100_000),
        ] {
            let err = parse_all(&src).unwrap_err();
            assert!(
                err.message.contains(&format!("deeper than {MAX_NESTING}")),
                "{err}"
            );
        }
    }

    #[test]
    fn display_round_trips() {
        let src = "(lambda (x) (+ x 1))";
        let e = parse_one(src).unwrap();
        let printed = e.to_string();
        assert_eq!(parse_one(&printed).unwrap().to_string(), printed);
    }
}
