//! # urk-syntax
//!
//! The front end of **Urk**, the lazy functional language built to
//! reproduce *"A Semantics for Imprecise Exceptions"* (Peyton Jones, Reid,
//! Hoare, Marlow, Henderson — PLDI 1999).
//!
//! The crate provides:
//!
//! * a lexer, offside-rule layout processor, and recursive-descent parser
//!   for a Haskell-flavoured surface syntax rich enough to transcribe every
//!   example in the paper ([`parse_program`], [`parse_expr_src`]);
//! * the surface AST ([`ast`]), built per parse into one arena, and the
//!   core language of the paper's Figure 1 ([`core`]);
//! * a desugarer and pattern-match compiler lowering surface programs onto
//!   the core ([`desugar_program`], [`desugar_expr`]);
//! * the shared [`Exception`] vocabulary (§3.1's `data Exception`), and
//! * the constructor environment ([`DataEnv`]) with the built-in types the
//!   design depends on (`Bool`, lists, `ExVal`, `Exception`, and the `IO`
//!   constructors of §4.4).
//!
//! # Examples
//!
//! Parse and desugar the paper's headline expression:
//!
//! ```
//! use urk_syntax::{parse_expr_src, desugar_expr, DataEnv, core::Expr};
//!
//! let env = DataEnv::new();
//! let surface = parse_expr_src(r#"(1/0) + error "Urk""#)?;
//! // `error` is a Prelude function; in a bare environment we can write the
//! // raise form directly:
//! let surface2 = parse_expr_src(r#"(1/0) + raise (UserError "Urk")"#)?;
//! let core = desugar_expr(&surface2, &env)?;
//! assert_eq!(urk_syntax::pretty(&core), r#"1 / 0 + raise (UserError "Urk")"#);
//! # drop(surface);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod core;
pub mod dataenv;
pub mod desugar;
pub mod exception;
pub mod fingerprint;
pub mod layout;
pub mod lexer;
pub mod matchc;
pub mod parser;
pub mod pretty;
pub mod symbol;
pub mod token;

pub use crate::dataenv::{ConInfo, DataEnv, DataEnvError, TypeInfo};
pub use crate::desugar::{desugar_expr, desugar_program};
pub use crate::exception::Exception;
pub use crate::fingerprint::{expr_canonical_bytes, expr_fingerprint, fnv1a};
pub use crate::matchc::{potential_match_failures, DesugarError};
pub use crate::parser::{parse_expr_src, parse_program, ParseError, SyntaxError, NESTING_BUDGET};
pub use crate::pretty::{pretty, pretty_exception_set};
pub use crate::symbol::{Hint, Known, Symbol};
