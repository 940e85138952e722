//! Types, type schemes, and pretty-printing.

use std::fmt;

use urk_syntax::{Known, Symbol};

/// A unification variable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TyVar(pub u32);

/// A monotype.
#[derive(Clone, PartialEq, Debug)]
pub enum Type {
    /// A unification (or quantified) variable.
    Var(TyVar),
    /// A rigid skolem constant, used when checking user signatures.
    Skolem(u32),
    Int,
    Char,
    Str,
    /// `a -> b`.
    Fun(Box<Type>, Box<Type>),
    /// An applied type constructor: `Bool`, `List a`, `IO a`, `ExVal a`, ...
    Con(Symbol, Vec<Type>),
}

impl Type {
    /// `a -> b` as a convenience constructor.
    pub fn fun(a: Type, b: Type) -> Type {
        Type::Fun(Box::new(a), Box::new(b))
    }

    /// A nullary type constructor.
    pub fn con0(name: impl Into<Symbol>) -> Type {
        Type::Con(name.into(), vec![])
    }

    /// `Bool`.
    pub fn bool() -> Type {
        Type::con0(Known::Bool)
    }

    /// `Exception`.
    pub fn exception() -> Type {
        Type::con0(Known::Exception)
    }

    /// `IO t`.
    pub fn io(t: Type) -> Type {
        Type::Con(Known::Io.symbol(), vec![t])
    }

    /// `List t`.
    pub fn list(t: Type) -> Type {
        Type::Con(Known::List.symbol(), vec![t])
    }

    /// `ExVal t`.
    pub fn exval(t: Type) -> Type {
        Type::Con(Known::ExVal.symbol(), vec![t])
    }

    /// True if the type mentions any skolem constant.
    pub fn has_skolem(&self) -> bool {
        match self {
            Type::Skolem(_) => true,
            Type::Var(_) | Type::Int | Type::Char | Type::Str => false,
            Type::Fun(a, b) => a.has_skolem() || b.has_skolem(),
            Type::Con(_, args) => args.iter().any(Type::has_skolem),
        }
    }
}

/// A polytype `forall vars. ty`.
#[derive(Clone, PartialEq, Debug)]
pub struct Scheme {
    pub vars: Vec<TyVar>,
    pub ty: Type,
}

fn var_name(index: usize) -> String {
    let letter = (b'a' + (index % 26) as u8) as char;
    let suffix = index / 26;
    if suffix == 0 {
        letter.to_string()
    } else {
        format!("{letter}{suffix}")
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Collect variables in first-appearance order for stable letters.
        let mut order = Vec::new();
        collect_order(self, &mut order);
        fmt_ty(self, &order, 0, f)
    }
}

fn collect_order(t: &Type, order: &mut Vec<TyVar>) {
    match t {
        Type::Var(v) if !order.contains(v) => order.push(*v),
        Type::Fun(a, b) => {
            collect_order(a, order);
            collect_order(b, order);
        }
        Type::Con(_, args) => args.iter().for_each(|a| collect_order(a, order)),
        _ => {}
    }
}

fn fmt_ty(t: &Type, order: &[TyVar], prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t {
        Type::Var(v) => {
            let idx = order.iter().position(|x| x == v).unwrap_or(0);
            write!(f, "{}", var_name(idx))
        }
        Type::Skolem(n) => write!(f, "!{n}"),
        Type::Int => f.write_str("Int"),
        Type::Char => f.write_str("Char"),
        Type::Str => f.write_str("Str"),
        Type::Fun(a, b) => {
            if prec > 0 {
                f.write_str("(")?;
            }
            fmt_ty(a, order, 1, f)?;
            f.write_str(" -> ")?;
            fmt_ty(b, order, 0, f)?;
            if prec > 0 {
                f.write_str(")")?;
            }
            Ok(())
        }
        Type::Con(name, args) => {
            if Known::List.is(*name) && args.len() == 1 {
                f.write_str("[")?;
                fmt_ty(&args[0], order, 0, f)?;
                return f.write_str("]");
            }
            if args.is_empty() {
                return write!(f, "{name}");
            }
            if prec > 1 {
                f.write_str("(")?;
            }
            write!(f, "{name}")?;
            for a in args {
                f.write_str(" ")?;
                fmt_ty(a, order, 2, f)?;
            }
            if prec > 1 {
                f.write_str(")")?;
            }
            Ok(())
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.ty.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_stable_letters() {
        let a = Type::Var(TyVar(42));
        let b = Type::Var(TyVar(7));
        let t = Type::fun(a.clone(), Type::fun(b, a));
        assert_eq!(t.to_string(), "a -> b -> a");
    }

    #[test]
    fn display_lists_and_applications() {
        let t = Type::fun(Type::list(Type::Int), Type::io(Type::exval(Type::Int)));
        assert_eq!(t.to_string(), "[Int] -> IO (ExVal Int)");
    }

    #[test]
    fn function_arguments_are_parenthesised() {
        let t = Type::fun(Type::fun(Type::Int, Type::Int), Type::Int);
        assert_eq!(t.to_string(), "(Int -> Int) -> Int");
    }

    #[test]
    fn skolems_are_detected() {
        let t = Type::fun(Type::Var(TyVar(1)), Type::Skolem(0));
        assert!(t.has_skolem());
        assert!(!Type::Int.has_skolem());
    }
}
