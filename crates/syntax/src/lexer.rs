//! The lexer: source text → positioned tokens.
//!
//! Comments (`-- line` and `{- block -}`, nesting) are stripped here; the
//! layout algorithm in [`crate::layout`] consumes the tokens one at a time
//! as the lexer makes them.
//!
//! The lexer holds the symbol interner's lock for its whole run, so a
//! source's names are interned under one lock, and it decodes each string
//! literal once, into the `Rc<str>` the desugared core will share.

use std::fmt;
use std::rc::Rc;

use crate::symbol::Names;
use crate::token::{Fixity, Pos, Spanned, Tok};

/// An error produced while lexing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    pub pos: Pos,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
    names: Names,
    /// The decoded string literals, indexed by [`Tok::Str`].
    strs: &'a mut Vec<Rc<str>>,
}

const SYMBOL_CHARS: &[u8] = b"!#$%&*+./<=>?@^|-~:";

fn is_symbol_char(c: u8) -> bool {
    SYMBOL_CHARS.contains(&c)
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'\''
}

/// True for a UTF-8 byte that continues a character rather than starting
/// one.
fn is_continuation(c: u8) -> bool {
    c & 0xC0 == 0x80
}

impl<'a> Lexer<'a> {
    /// A lexer over `src` that appends the string literals it decodes to
    /// `strs`. It locks the symbol interner until it is dropped.
    pub(crate) fn new(src: &'a str, strs: &'a mut Vec<Rc<str>>) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
            names: Names::lock(),
            strs,
        }
    }

    fn here(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn byte_at(&self, i: usize) -> Option<u8> {
        self.src.as_bytes().get(i).copied()
    }

    fn peek(&self) -> Option<u8> {
        self.byte_at(self.pos)
    }

    fn peek2(&self) -> Option<u8> {
        self.byte_at(self.pos + 1)
    }

    /// Consumes one byte. Columns count characters: a UTF-8
    /// continuation byte does not start a column.
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if !is_continuation(c) {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            pos: self.here(),
            message: message.into(),
        }
    }

    /// Skips whitespace and comments. Returns an error on an unterminated
    /// block comment.
    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c == b' ' || c == b'\t' || c == b'\r' || c == b'\n' => {
                    self.bump();
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    // A line comment, unless `--` begins a longer operator
                    // like `-->`; Haskell has the same rule.
                    let mut look = self.pos + 2;
                    while self.byte_at(look) == Some(b'-') {
                        look += 1;
                    }
                    if self.byte_at(look).is_some_and(is_symbol_char) {
                        return Ok(());
                    }
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'{') if self.peek2() == Some(b'-') => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'{'), Some(b'-')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some(b'-'), Some(b'}')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(LexError {
                                    pos: start,
                                    message: "unterminated block comment".into(),
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_int(&mut self) -> Result<Tok, LexError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        text.parse::<i64>()
            .map(Tok::Int)
            .map_err(|_| self.error(format!("integer literal out of range: {text}")))
    }

    fn lex_escape(&mut self) -> Result<char, LexError> {
        match self.bump() {
            Some(b'n') => Ok('\n'),
            Some(b't') => Ok('\t'),
            Some(b'r') => Ok('\r'),
            Some(b'\\') => Ok('\\'),
            Some(b'\'') => Ok('\''),
            Some(b'"') => Ok('"'),
            Some(b'0') => Ok('\0'),
            Some(c) => Err(self.error(format!("unknown escape '\\{}'", c as char))),
            None => Err(self.error("unterminated escape")),
        }
    }

    fn lex_char(&mut self) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let c = match self.bump() {
            Some(b'\\') => self.lex_escape()?,
            Some(b'\'') => return Err(self.error("empty character literal")),
            Some(c) if c.is_ascii() => c as char,
            Some(_) => {
                // A non-ASCII lead byte: the literal is the whole UTF-8
                // scalar it starts, one column wide.
                let c = self.src[self.pos - 1..]
                    .chars()
                    .next()
                    .expect("UTF-8 source");
                self.pos += c.len_utf8() - 1;
                c
            }
            None => return Err(self.error("unterminated character literal")),
        };
        match self.bump() {
            Some(b'\'') => Ok(Tok::Char(c)),
            _ => Err(self.error("character literal must contain exactly one character")),
        }
    }

    fn lex_string(&mut self) -> Result<Tok, LexError> {
        let start = self.here();
        self.bump(); // opening quote

        // Quote, backslash and newline are ASCII, so the run between two of
        // them is whole UTF-8 and is copied as a `str`. A literal without
        // escapes is one run: its own spelling, in one allocation.
        let mut out = String::new();
        let text: Rc<str> = loop {
            let run = self.pos;
            let n = self.src.as_bytes()[run..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c == b'\n')
                .unwrap_or(self.src.len() - run);
            self.pos += n;
            let chunk = &self.src[run..self.pos];
            self.col += chunk.chars().count() as u32;
            match self.bump() {
                // Every escape pushes a char, so an empty `out` means none.
                Some(b'"') if out.is_empty() => break Rc::from(chunk),
                Some(b'"') => {
                    out.push_str(chunk);
                    break Rc::from(out);
                }
                Some(b'\\') => {
                    out.push_str(chunk);
                    out.push(self.lex_escape()?);
                }
                _ => {
                    return Err(LexError {
                        pos: start,
                        message: "unterminated string literal".into(),
                    })
                }
            }
        };
        let id = u32::try_from(self.strs.len()).expect("fewer than 2^32 string literals");
        self.strs.push(text);
        Ok(Tok::Str(id))
    }

    fn lex_word(&mut self) -> Tok {
        let start = self.pos;
        while self.peek().is_some_and(is_ident_continue) {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        match text {
            "data" => Tok::Data,
            "let" => Tok::Let,
            "in" => Tok::In,
            "case" => Tok::Case,
            "of" => Tok::Of,
            "where" => Tok::Where,
            "do" => Tok::Do,
            "if" => Tok::If,
            "then" => Tok::Then,
            "else" => Tok::Else,
            "_" => Tok::Underscore,
            _ if text.as_bytes()[0].is_ascii_uppercase() => Tok::Upper(self.names.intern(text)),
            _ => Tok::Lower(self.names.intern(text)),
        }
    }

    fn lex_operator(&mut self) -> Tok {
        let start = self.pos;
        while self.peek().is_some_and(is_symbol_char) {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        match text {
            "->" => Tok::Arrow,
            "<-" => Tok::BackArrow,
            "=" => Tok::Equals,
            "|" => Tok::Pipe,
            "::" => Tok::DoubleColon,
            _ => Tok::Op(self.names.intern(text), Fixity::of(text)),
        }
    }

    /// The next token, or `None` at the end of the source.
    pub(crate) fn next_token(&mut self) -> Result<Option<Spanned>, LexError> {
        self.skip_trivia()?;
        let pos = self.here();
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b'`' => {
                self.bump();
                Tok::Backtick
            }
            b'\\' => {
                self.bump();
                Tok::Backslash
            }
            b'\'' => self.lex_char()?,
            b'"' => self.lex_string()?,
            c if c.is_ascii_digit() => self.lex_int()?,
            c if is_ident_start(c) => self.lex_word(),
            c if is_symbol_char(c) => self.lex_operator(),
            c => return Err(self.error(format!("unexpected character {:?}", c as char))),
        };
        Ok(Some(Spanned { tok, pos }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::Symbol;

    /// Lexes all of `src`, with the decoded string literals.
    fn lex(src: &str) -> Result<(Vec<Spanned>, Vec<Rc<str>>), LexError> {
        let mut strs = Vec::new();
        let mut out = Vec::new();
        let mut lexer = Lexer::new(src, &mut strs);
        while let Some(t) = lexer.next_token()? {
            out.push(t);
        }
        drop(lexer);
        Ok((out, strs))
    }

    fn op(s: &str) -> Tok {
        Tok::Op(Symbol::intern(s), Fixity::of(s))
    }

    fn toks(src: &str) -> Vec<Tok> {
        lex(src)
            .expect("lexes")
            .0
            .into_iter()
            .map(|s| s.tok)
            .collect()
    }

    fn strs(src: &str) -> Vec<String> {
        let (_, strs) = lex(src).expect("lexes");
        strs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn lexes_the_paper_headline_expression() {
        // getException ((1/0) + error "Urk")
        let ts = toks(r#"getException ((1/0) + error "Urk")"#);
        assert_eq!(
            ts,
            vec![
                Tok::Lower(Symbol::intern("getException")),
                Tok::LParen,
                Tok::LParen,
                Tok::Int(1),
                op("/"),
                Tok::Int(0),
                Tok::RParen,
                op("+"),
                Tok::Lower(Symbol::intern("error")),
                Tok::Str(0),
                Tok::RParen,
            ]
        );
        assert_eq!(strs(r#"error "Urk""#), vec!["Urk"]);
    }

    #[test]
    fn distinguishes_keywords_and_identifiers() {
        assert_eq!(
            toks("case cases of ofx"),
            vec![
                Tok::Case,
                Tok::Lower(Symbol::intern("cases")),
                Tok::Of,
                Tok::Lower(Symbol::intern("ofx")),
            ]
        );
    }

    #[test]
    fn multi_char_operators_lex_greedily() {
        assert_eq!(
            toks("x >>= f >> g"),
            vec![
                Tok::Lower(Symbol::intern("x")),
                op(">>="),
                Tok::Lower(Symbol::intern("f")),
                op(">>"),
                Tok::Lower(Symbol::intern("g")),
            ]
        );
        assert_eq!(
            toks("a -> b"),
            vec![
                Tok::Lower(Symbol::intern("a")),
                Tok::Arrow,
                Tok::Lower(Symbol::intern("b")),
            ]
        );
    }

    #[test]
    fn comments_are_stripped_including_nested_blocks() {
        let src = "x -- a line comment\n{- outer {- inner -} still outer -} y";
        assert_eq!(
            toks(src),
            vec![
                Tok::Lower(Symbol::intern("x")),
                Tok::Lower(Symbol::intern("y"))
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        assert!(lex("{- oops").is_err());
    }

    #[test]
    fn char_and_string_escapes() {
        assert_eq!(toks(r"'\n'"), vec![Tok::Char('\n')]);
        assert_eq!(toks("'é' 'λ'"), vec![Tok::Char('é'), Tok::Char('λ')]);
        assert_eq!(toks(r#""a\tb""#), vec![Tok::Str(0)]);
        assert_eq!(
            strs(r#""a\tb" "plain" "é" "λ\n→""#),
            vec!["a\tb", "plain", "é", "λ\n→"]
        );
        assert!(lex(r"'ab'").is_err());
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let (ts, _) = lex("x\n  y").expect("lexes");
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // Non-ASCII text in a string, a char literal or a block comment
        // moves the next token as far as ASCII text of the same length.
        for (src, ascii) in [
            ("\"éé\" y", "\"ee\" y"),
            ("\"λ\\n→\" y", "\"l\\n-\" y"),
            ("'é' y", "'e' y"),
            ("{- ünïcode -} y", "{- unicode -} y"),
            ("x -- wörld\ny", "x -- world\ny"),
        ] {
            let last = |src: &str| lex(src).expect("lexes").0.last().expect("a token").pos;
            assert_eq!(last(src), last(ascii), "{src}");
        }
        let (ts, _) = lex("{- ünïcode -} y").expect("lexes");
        assert_eq!(ts[0].pos, Pos { line: 1, col: 15 });
    }

    #[test]
    fn integer_overflow_is_reported() {
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn primes_allowed_in_identifiers() {
        assert_eq!(
            toks("f' x'"),
            vec![
                Tok::Lower(Symbol::intern("f'")),
                Tok::Lower(Symbol::intern("x'")),
            ]
        );
    }
}
