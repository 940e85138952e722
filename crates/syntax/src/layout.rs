//! The offside (layout) rule: turns indentation into virtual braces and
//! semicolons, so the parser only ever sees explicitly delimited blocks.
//!
//! This is a simplified version of the Haskell report's algorithm `L`,
//! adequate for the corpus in this repository:
//!
//! * after a layout keyword (`where`, `let`, `of`, `do`) that is not
//!   followed by `{`, an implicit block opens at the column of the next
//!   token;
//! * the first token of a line at the block's column emits a virtual `;`,
//!   a lesser column closes the block;
//! * `in` closes the nearest implicit block (so `let x = 1 in x` works on
//!   one line);
//! * closing brackets `)`/`]` and `,` close implicit blocks opened inside
//!   the bracket (so `(case x of True -> 1; False -> 2)` works inline);
//! * a block that would open at or left of the enclosing block's column is
//!   empty.
//!
//! Unlike the full report algorithm there is no parse-error(t) rule, so a
//! construct like `if c then do a else b` (no newline, no parens) needs
//! explicit parentheses around the `do` block.

use std::fmt;
use std::rc::Rc;

use crate::lexer::Lexer;
use crate::parser::SyntaxError;
use crate::token::{Pos, Spanned, Tok};

/// An error produced during layout processing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LayoutError {
    pub pos: Pos,
    pub message: String,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layout error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LayoutError {}

/// One open context of the layout algorithm.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Ctx {
    /// An explicit `{ ... }` block.
    Explicit,
    /// An open `(` or `[`.
    Bracket,
    /// An implicit layout block at the given column; the flag records
    /// whether a `let` opened it (only those are closed by `in`).
    Implicit(u32, bool),
}

/// Lexes `src` and applies the layout algorithm as the tokens come,
/// appending them to `out` (which ends with [`Tok::Eof`]) and the decoded
/// string literals to `strs`. `stack` is the layout's context stack,
/// passed in empty so its buffer can be reused.
///
/// A lexical error anywhere in the source is reported in preference to a
/// layout error, as if the whole source were lexed first.
///
/// # Errors
///
/// The first lexical error, or else the first layout error (mismatched
/// explicit braces or brackets).
pub(crate) fn tokenize(
    src: &str,
    strs: &mut Vec<Rc<str>>,
    out: &mut Vec<Spanned>,
    stack: &mut Vec<Ctx>,
) -> Result<(), SyntaxError> {
    // Tokens average more than two source bytes each; a denser source
    // grows the buffer.
    out.reserve(src.len() / 2 + 16);
    let mut lexer = Lexer::new(src, strs);
    let mut layout = Layout::new(out, stack);
    let mut deferred = None;
    while let Some(t) = lexer.next_token()? {
        if deferred.is_none() {
            deferred = layout.push(t).err();
        }
    }
    match deferred {
        Some(e) => Err(e.into()),
        None => Ok(layout.finish()?),
    }
}

/// The layout algorithm over a stream of tokens, inserting
/// [`Tok::VLBrace`], [`Tok::VRBrace`] and [`Tok::VSemi`].
struct Layout<'a> {
    out: &'a mut Vec<Spanned>,
    stack: &'a mut Vec<Ctx>,
    /// When a layout keyword was just seen: Some(is_let).
    expecting_block: Option<bool>,
    last_line: u32,
    /// The position of the latest token, where the final closings go;
    /// `None` before the first token.
    end_pos: Option<Pos>,
}

impl<'a> Layout<'a> {
    fn new(out: &'a mut Vec<Spanned>, stack: &'a mut Vec<Ctx>) -> Layout<'a> {
        Layout {
            out,
            stack,
            expecting_block: None,
            last_line: 0,
            end_pos: None,
        }
    }

    fn emit(&mut self, tok: Tok, pos: Pos) {
        self.out.push(Spanned { tok, pos });
    }

    fn push(&mut self, t: Spanned) -> Result<(), LayoutError> {
        if self.end_pos.is_none() {
            // The whole module is an implicit block at the first token's
            // column.
            self.stack.push(Ctx::Implicit(t.pos.col, false));
            self.last_line = t.pos.line;
        }
        self.end_pos = Some(t.pos);
        if let Some(is_let) = self.expecting_block.take() {
            if t.tok == Tok::LBrace {
                self.stack.push(Ctx::Explicit);
                self.out.push(t);
                return Ok(());
            }
            // An implicit block must be strictly more indented than the
            // enclosing implicit block; otherwise it is empty.
            let enclosing = self.stack.iter().rev().find_map(|c| match c {
                Ctx::Implicit(n, _) => Some(*n),
                _ => None,
            });
            if enclosing.is_some_and(|n| t.pos.col <= n) {
                self.emit(Tok::VLBrace, t.pos);
                self.emit(Tok::VRBrace, t.pos);
                // Fall through: `t` is then subject to the normal line rule.
            } else {
                self.emit(Tok::VLBrace, t.pos);
                self.stack.push(Ctx::Implicit(t.pos.col, is_let));
                self.last_line = t.pos.line;
                return self.structural(t);
            }
        }

        if t.pos.line > self.last_line {
            self.last_line = t.pos.line;
            loop {
                match self.stack.last() {
                    Some(Ctx::Implicit(n, _)) if t.pos.col < *n => {
                        self.emit(Tok::VRBrace, t.pos);
                        self.stack.pop();
                    }
                    Some(Ctx::Implicit(n, _)) if t.pos.col == *n => {
                        self.emit(Tok::VSemi, t.pos);
                        break;
                    }
                    _ => break,
                }
            }
        }

        self.structural(t)
    }

    /// Closes every open context at the end of input and appends
    /// [`Tok::Eof`].
    fn finish(self) -> Result<(), LayoutError> {
        let end_pos = self.end_pos.unwrap_or_default();
        if self.expecting_block.is_some() {
            // A layout keyword at end of input opens an empty block.
            self.out.push(Spanned {
                tok: Tok::VLBrace,
                pos: end_pos,
            });
            self.out.push(Spanned {
                tok: Tok::VRBrace,
                pos: end_pos,
            });
        }
        while let Some(ctx) = self.stack.pop() {
            match ctx {
                // The bottom context is the whole-module block, which was
                // opened silently (no VLBrace), so it closes silently too.
                Ctx::Implicit(_, _) if !self.stack.is_empty() => self.out.push(Spanned {
                    tok: Tok::VRBrace,
                    pos: end_pos,
                }),
                Ctx::Implicit(_, _) => {}
                Ctx::Explicit => {
                    return Err(LayoutError {
                        pos: end_pos,
                        message: "unclosed '{'".into(),
                    })
                }
                Ctx::Bracket => {
                    return Err(LayoutError {
                        pos: end_pos,
                        message: "unclosed '(' or '['".into(),
                    })
                }
            }
        }
        self.out.push(Spanned {
            tok: Tok::Eof,
            pos: end_pos,
        });
        Ok(())
    }

    /// Emits `t`, maintaining the context stack for brackets, explicit
    /// braces, `in`, and `,`/closing-bracket implicit closure.
    fn structural(&mut self, t: Spanned) -> Result<(), LayoutError> {
        match t.tok {
            Tok::Where | Tok::Let | Tok::Of | Tok::Do => {
                self.expecting_block = Some(t.tok == Tok::Let);
            }
            Tok::In => {
                // `in` closes the implicit block of the matching `let` only.
                if let Some(Ctx::Implicit(_, true)) = self.stack.last() {
                    self.emit(Tok::VRBrace, t.pos);
                    self.stack.pop();
                }
            }
            Tok::LParen | Tok::LBracket => self.stack.push(Ctx::Bracket),
            Tok::RParen | Tok::RBracket => {
                while let Some(Ctx::Implicit(_, _)) = self.stack.last() {
                    self.emit(Tok::VRBrace, t.pos);
                    self.stack.pop();
                }
                if self.stack.last() != Some(&Ctx::Bracket) {
                    return Err(LayoutError {
                        pos: t.pos,
                        message: format!("unmatched '{}'", t.tok.show(&[])),
                    });
                }
                self.stack.pop();
            }
            // Close implicit blocks opened inside the nearest bracket, so
            // `(do ..., e)` and `[case x of ..., e]` parse.
            Tok::Comma if self.stack.contains(&Ctx::Bracket) => {
                while let Some(Ctx::Implicit(_, _)) = self.stack.last() {
                    self.emit(Tok::VRBrace, t.pos);
                    self.stack.pop();
                }
            }
            Tok::LBrace => self.stack.push(Ctx::Explicit),
            Tok::RBrace => {
                if self.stack.last() != Some(&Ctx::Explicit) {
                    return Err(LayoutError {
                        pos: t.pos,
                        message: "unmatched '}'".into(),
                    });
                }
                self.stack.pop();
            }
            _ => {}
        }
        self.out.push(t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(src: &str) -> Result<Vec<Tok>, SyntaxError> {
        let mut out = Vec::new();
        tokenize(src, &mut Vec::new(), &mut out, &mut Vec::new())?;
        Ok(out.into_iter().map(|s| s.tok).collect())
    }

    fn run(src: &str) -> Vec<Tok> {
        layout(src).expect("layout")
    }

    fn count(ts: &[Tok], t: &Tok) -> usize {
        ts.iter().filter(|x| *x == t).count()
    }

    #[test]
    fn top_level_declarations_get_semicolons() {
        let ts = run("x = 1\ny = 2\nz = 3");
        assert_eq!(count(&ts, &Tok::VSemi), 2);
    }

    #[test]
    fn continuation_lines_do_not_break_declarations() {
        let ts = run("x = 1 +\n      2\ny = 3");
        assert_eq!(count(&ts, &Tok::VSemi), 1);
    }

    #[test]
    fn let_in_on_one_line() {
        let ts = run("v = let x = 1 in x");
        // The `let` block opens and is closed by `in`.
        let open = ts.iter().position(|t| *t == Tok::VLBrace).expect("opens");
        let close = ts.iter().position(|t| *t == Tok::VRBrace).expect("closes");
        let in_pos = ts.iter().position(|t| *t == Tok::In).expect("in");
        assert!(open < close && close < in_pos);
    }

    #[test]
    fn case_block_closed_by_paren() {
        let ts = run("v = (case b of True -> 1) + 2");
        let close = ts.iter().position(|t| *t == Tok::VRBrace).expect("closes");
        let rparen = ts.iter().position(|t| *t == Tok::RParen).expect("rparen");
        assert!(close < rparen);
    }

    #[test]
    fn indented_case_alternatives_get_semicolons() {
        let ts = run("f x = case x of\n        True -> 1\n        False -> 2");
        assert_eq!(count(&ts, &Tok::VSemi), 1);
        assert_eq!(count(&ts, &Tok::VLBrace), 1);
    }

    #[test]
    fn where_block_attaches_to_declaration() {
        let ts = run("loop = f True\n  where f x = f (not x)");
        assert_eq!(count(&ts, &Tok::VLBrace), 1);
        // Dedenting back to column 1 closes both where-block and module line.
        let ts2 = run("loop = f True\n  where f x = f (not x)\nmain = loop");
        assert_eq!(count(&ts2, &Tok::VSemi), 1);
    }

    #[test]
    fn explicit_braces_disable_layout() {
        let ts = run("f x = case x of { True -> 1; False -> 2 }");
        assert_eq!(count(&ts, &Tok::VLBrace), 0);
        assert_eq!(count(&ts, &Tok::LBrace), 1);
    }

    #[test]
    fn do_block_with_bind_statements() {
        let ts = run("main = do\n  c <- getChar\n  putChar c");
        assert_eq!(count(&ts, &Tok::VSemi), 1);
        assert_eq!(count(&ts, &Tok::VLBrace), 1);
    }

    #[test]
    fn empty_where_block_when_not_indented() {
        // `where` followed by a dedented token opens an empty block.
        let ts = run("f = 1 where\ng = 2");
        assert_eq!(count(&ts, &Tok::VLBrace), 1);
        assert!(count(&ts, &Tok::VRBrace) >= 1);
    }

    #[test]
    fn mismatched_brackets_error() {
        assert!(layout("f = (1").is_err());
        assert!(layout("f = 1)").is_err());
        assert!(layout("f = }").is_err());
        // A lexical error later in the source wins over a layout error.
        assert!(matches!(layout("f = 1) + '"), Err(SyntaxError::Lex(_))));
    }

    #[test]
    fn comma_closes_inline_do_block_inside_tuple() {
        let ts = run("p = (do putChar c, 3)");
        let comma = ts.iter().position(|t| *t == Tok::Comma).expect("comma");
        let close = ts.iter().position(|t| *t == Tok::VRBrace).expect("closes");
        assert!(close < comma);
    }

    #[test]
    fn a_dedent_below_the_first_column_closes_the_module_block_once() {
        let ts = run("  x = 1\ny = 2");
        assert_eq!(count(&ts, &Tok::VRBrace), 1);
        assert_eq!(count(&ts, &Tok::VSemi), 0);
    }

    #[test]
    fn eof_closes_all_implicit_blocks() {
        let ts = run("f = case x of\n      True -> 1");
        assert_eq!(*ts.last().expect("nonempty"), Tok::Eof);
        // The case block closes; the silent module block does not emit.
        assert_eq!(count(&ts, &Tok::VRBrace), 1);
    }
}
