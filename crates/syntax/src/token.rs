//! Tokens produced by the lexer and consumed (after layout processing) by
//! the parser.
//!
//! A token is `Copy`: a name is an interned [`Symbol`] and a string
//! literal is an index into the table of literals the lexer decoded, so
//! the parser reads tokens out of one buffer by position and never clones
//! one.

use std::fmt;
use std::rc::Rc;

use crate::Symbol;

/// A lexical token.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// An identifier starting with an upper-case letter (constructor or type
    /// constructor).
    Upper(Symbol),
    /// An identifier starting with a lower-case letter (variable or type
    /// variable).
    Lower(Symbol),
    /// An integer literal.
    Int(i64),
    /// A character literal.
    Char(char),
    /// A string literal: its index in the table of decoded literals the
    /// lexer fills (the parse's [`crate::ast::StrId`] table).
    Str(u32),
    /// A symbolic operator such as `+` or `>>=`, with the fixity the lexer
    /// found for its spelling (`None` for operators that are not binary
    /// operators, such as `..`).
    Op(Symbol, Option<Fixity>),

    // Keywords.
    Data,
    Let,
    In,
    Case,
    Of,
    Where,
    Do,
    If,
    Then,
    Else,

    // Punctuation.
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Backslash,
    Arrow,
    BackArrow,
    Equals,
    Pipe,
    DoubleColon,
    Underscore,
    Backtick,

    // Virtual tokens inserted by the layout algorithm.
    VLBrace,
    VRBrace,
    VSemi,

    /// End of input.
    Eof,
}

impl Tok {
    /// The token as diagnostics spell it; `strs` holds the decoded string
    /// literals a [`Tok::Str`] indexes.
    pub fn show(self, strs: &[Rc<str>]) -> impl fmt::Display + '_ {
        Shown { tok: self, strs }
    }
}

struct Shown<'a> {
    tok: Tok,
    strs: &'a [Rc<str>],
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tok {
            Tok::Upper(s) | Tok::Lower(s) => write!(f, "{s}"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Char(c) => write!(f, "{c:?}"),
            Tok::Str(i) => write!(f, "{:?}", &*self.strs[i as usize]),
            Tok::Op(s, _) => write!(f, "{s}"),
            Tok::Data => f.write_str("data"),
            Tok::Let => f.write_str("let"),
            Tok::In => f.write_str("in"),
            Tok::Case => f.write_str("case"),
            Tok::Of => f.write_str("of"),
            Tok::Where => f.write_str("where"),
            Tok::Do => f.write_str("do"),
            Tok::If => f.write_str("if"),
            Tok::Then => f.write_str("then"),
            Tok::Else => f.write_str("else"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::LBracket => f.write_str("["),
            Tok::RBracket => f.write_str("]"),
            Tok::LBrace => f.write_str("{"),
            Tok::RBrace => f.write_str("}"),
            Tok::Comma => f.write_str(","),
            Tok::Semi => f.write_str(";"),
            Tok::Backslash => f.write_str("\\"),
            Tok::Arrow => f.write_str("->"),
            Tok::BackArrow => f.write_str("<-"),
            Tok::Equals => f.write_str("="),
            Tok::Pipe => f.write_str("|"),
            Tok::DoubleColon => f.write_str("::"),
            Tok::Underscore => f.write_str("_"),
            Tok::Backtick => f.write_str("`"),
            Tok::VLBrace => f.write_str("{<layout>"),
            Tok::VRBrace => f.write_str("}<layout>"),
            Tok::VSemi => f.write_str(";<layout>"),
            Tok::Eof => f.write_str("<end of input>"),
        }
    }
}

/// A binary operator's fixity.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Fixity {
    /// Binding power: 9 binds tightest, 0 loosest.
    pub prec: u8,
    /// Whether the operator associates to the right.
    pub right: bool,
}

impl Fixity {
    /// The fixity of an operator spelling, or `None` if it is not a binary
    /// operator of the language.
    pub(crate) fn of(op: &str) -> Option<Fixity> {
        let (prec, right) = match op {
            "." => (9, true),
            "*" | "/" | "%" => (7, false),
            "+" | "-" => (6, false),
            ":" | "++" => (5, true),
            "==" | "/=" | "<" | "<=" | ">" | ">=" => (4, false),
            "&&" => (3, true),
            "||" => (2, true),
            ">>" | ">>=" => (1, false),
            "$" => (0, true),
            _ => return None,
        };
        Some(Fixity { prec, right })
    }
}

/// A source position (1-based line and column).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, PartialOrd, Ord, Hash)]
pub struct Pos {
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A token together with its source position.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Spanned {
    pub tok: Tok,
    pub pos: Pos,
}
