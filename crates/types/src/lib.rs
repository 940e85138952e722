//! # urk-types
//!
//! Hindley–Milner type inference for the Urk core language, including the
//! paper's typed primitives (`raise :: Exception -> a`,
//! `getException :: a -> IO (ExVal a)`, `mapException`, `seq`) and checking
//! of user type signatures by skolemization.
//!
//! # Examples
//!
//! ```
//! use urk_syntax::{parse_expr_src, desugar_expr, DataEnv};
//! use urk_types::{infer_expr, Type};
//! use std::collections::HashMap;
//!
//! let env = DataEnv::new();
//! let e = desugar_expr(&parse_expr_src("1 + 2")?, &env)?;
//! let t = infer_expr(&e, &env, &HashMap::new()).expect("types");
//! assert_eq!(t, Type::Int);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod infer;
pub mod ty;

pub use infer::{infer_bindings, infer_expr, infer_program, TypeError};
pub use ty::{Scheme, TyVar, Type};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};

    fn ty_of(src: &str) -> Result<Type, TypeError> {
        let env = DataEnv::new();
        let e = desugar_expr(&parse_expr_src(src).expect("parses"), &env).expect("desugars");
        infer_expr(&e, &env, &HashMap::new())
    }

    fn ty_str(src: &str) -> String {
        ty_of(src).expect("types").to_string()
    }

    fn program_types(src: &str) -> Result<HashMap<String, String>, TypeError> {
        let mut env = DataEnv::new();
        let prog =
            desugar_program(&parse_program(src).expect("parses"), &mut env).expect("desugars");
        let schemes = infer_program(&prog, &env)?;
        Ok(schemes
            .into_iter()
            .map(|(k, v)| (k.as_str(), v.ty.to_string()))
            .collect())
    }

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(ty_str("1 + 2 * 3"), "Int");
        assert_eq!(ty_str("'a'"), "Char");
        assert_eq!(ty_str("\"hi\""), "Str");
        assert_eq!(ty_str("1 < 2"), "Bool");
    }

    #[test]
    fn lambda_and_application() {
        assert_eq!(ty_str(r"\x -> x"), "a -> a");
        assert_eq!(ty_str(r"(\x -> x + 1) 3"), "Int");
        assert_eq!(ty_str(r"\f x -> f (f x)"), "(a -> a) -> a -> a");
    }

    #[test]
    fn raise_is_polymorphic_in_its_result() {
        // §3.1: raise :: Exception -> a, so a raise can sit anywhere.
        assert_eq!(ty_str("1 + raise DivideByZero"), "Int");
        assert_eq!(ty_str(r#"raise (UserError "Urk")"#), "a");
        // And the argument must be an Exception:
        assert!(ty_of("raise 3").is_err());
    }

    #[test]
    fn get_exception_has_the_io_type_of_section_3_5() {
        // getException :: a -> IO (ExVal a)
        assert_eq!(ty_str("getException (1 + 2)"), "IO (ExVal Int)");
        assert_eq!(ty_str(r"\x -> getException x"), "a -> IO (ExVal a)");
    }

    #[test]
    fn map_exception_is_pure() {
        // §5.4: mapException :: (Exception -> Exception) -> a -> a
        assert_eq!(
            ty_str(r#"mapException (\x -> UserError "Urk") (1 / 0)"#),
            "Int"
        );
    }

    #[test]
    fn io_bind_types_check() {
        assert_eq!(ty_str(r"getChar >>= \c -> putChar c"), "IO Unit");
        assert_eq!(ty_str("do { c <- getChar; return c }"), "IO Char");
        // Mis-typed continuation:
        assert!(ty_of(r"getChar >>= \c -> c + 1").is_err());
    }

    #[test]
    fn occurs_check_fires() {
        assert!(ty_of(r"\x -> x x").is_err());
    }

    #[test]
    fn let_polymorphism() {
        assert_eq!(
            ty_str(r"let id = \x -> x in (id 1, id 'c')"),
            "Pair Int Char"
        );
    }

    #[test]
    fn let_generalizes_only_what_the_environment_does_not_mention() {
        // `y`'s type is the lambda-bound `x`'s: it stays monomorphic.
        assert!(ty_of(r"\x -> let y = x in (y 1, y 'c')").is_err());
        // `f` mentions `x` but quantifies its own argument.
        assert_eq!(
            ty_str(r"\x -> let f = \z -> (x, z) in (f 1, f 'c')"),
            "a -> Pair (Pair a Int) (Pair a Char)"
        );
        // A variable unified with an outer one inside the rhs stays
        // monomorphic too (levels are lowered on binding).
        assert!(ty_of(r"\x -> let g = \z -> seq (x z) z in (g 1, g 'c')").is_err());
        assert_eq!(
            ty_str(r"let k = \a -> let h = \b -> a in h in (k 1 'c', k 'c' 1)"),
            "Pair Int Char"
        );
    }

    #[test]
    fn case_alternatives_must_agree() {
        assert!(ty_of("case True of { True -> 1; False -> 'c' }").is_err());
        assert_eq!(ty_str("case True of { True -> 1; False -> 2 }"), "Int");
    }

    #[test]
    fn case_binders_are_typed_from_the_constructor() {
        assert_eq!(
            ty_str("case Just 3 of { Just n -> n + 1; Nothing -> 0 }"),
            "Int"
        );
        // Scrutinising an Int list as a Maybe fails.
        assert!(ty_of("case [1] of { Just n -> n; Nothing -> 0 }").is_err());
    }

    #[test]
    fn recursive_program_types() {
        let tys = program_types("len [] = 0\nlen (x:xs) = 1 + len xs").expect("types");
        assert_eq!(tys["len"], "[a] -> Int");
    }

    #[test]
    fn mutual_recursion() {
        let tys = program_types(
            "isEven n = if n == 0 then True else isOdd (n - 1)\n\
             isOdd n = if n == 0 then False else isEven (n - 1)",
        )
        .expect("types");
        assert_eq!(tys["isEven"], "Int -> Bool");
        assert_eq!(tys["isOdd"], "Int -> Bool");
    }

    #[test]
    fn signatures_accepted_and_rejected() {
        // Matching signature.
        assert!(program_types("f :: Int -> Int\nf x = x + 0").is_ok());
        // Restricting signature (more specific than inferred) is accepted.
        assert!(program_types("g :: Int -> Int\ng x = x").is_ok());
        // Over-general signature must be rejected.
        assert!(program_types("h :: a -> b\nh x = x").is_err());
        // Flatly wrong signature.
        assert!(program_types("k :: Int -> Bool\nk x = x + 1").is_err());
    }

    #[test]
    fn exceptions_are_ordinary_data() {
        // Exception is scrutinable like any algebraic type (§3.1).
        assert_eq!(
            ty_str("case DivideByZero of { DivideByZero -> 0; UserError s -> strLen s; _ -> 1 }"),
            "Int"
        );
    }

    #[test]
    fn exval_scrutiny_types() {
        assert_eq!(ty_str("case OK 3 of { OK v -> v; Bad e -> 0 }"), "Int");
    }

    #[test]
    fn unbound_variable_is_reported() {
        let err = ty_of("zorp + 1").expect_err("should fail");
        assert!(err.0.contains("zorp"));
    }

    #[test]
    fn user_data_declarations_are_typed() {
        let tys = program_types(
            "data Tree a = Leaf | Node (Tree a) a (Tree a)\n\
             depth Leaf = 0\n\
             depth (Node l x r) = 1 + max2 (depth l) (depth r)\n\
             max2 a b = if a < b then b else a",
        )
        .expect("types");
        assert_eq!(tys["depth"], "Tree a -> Int");
    }

    #[test]
    fn seq_is_polymorphic() {
        assert_eq!(ty_str("seq (1/0) 'x'"), "Char");
    }

    #[test]
    fn unsafe_is_exception_types() {
        assert_eq!(ty_str("unsafeIsException (1/0)"), "Bool");
    }
}
