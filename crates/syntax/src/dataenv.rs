//! The data-type environment: every constructor and type constructor in
//! scope, including the built-in types the paper's design depends on
//! (`Bool`, lists, `Exception`, `ExVal`, and the `IO` constructors of
//! §4.4's "IO as an algebraic data type" presentation).

use std::collections::HashMap;
use std::fmt;

use crate::ast::{ConDecl, DataDecl, SType};
use crate::Symbol;

/// Information about one data constructor.
#[derive(Clone, Debug)]
pub struct ConInfo {
    pub name: Symbol,
    /// The type constructor this belongs to (e.g. `List` for `Cons`).
    pub ty_name: Symbol,
    /// Position among the type's constructors.
    pub tag: usize,
    /// Type parameters of the owning type, in order.
    pub ty_params: Vec<Symbol>,
    /// Argument types (may mention `ty_params`).
    pub arg_types: Vec<SType>,
    /// True for the `IO` constructors (`Return`, `Bind`, ...), which the
    /// type checker treats as primitives because `Bind`'s type is
    /// existential (§4.4 presents `IO` as a data type *semantically*).
    pub io_primitive: bool,
}

impl ConInfo {
    pub fn arity(&self) -> usize {
        self.arg_types.len()
    }
}

/// Information about one type constructor.
#[derive(Clone, Debug)]
pub struct TypeInfo {
    pub name: Symbol,
    pub params: Vec<Symbol>,
    /// Constructors in declaration order (empty for primitive types).
    pub constructors: Vec<Symbol>,
}

/// An error arising while extending the environment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataEnvError(pub String);

impl fmt::Display for DataEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "data declaration error: {}", self.0)
    }
}

impl std::error::Error for DataEnvError {}

/// All constructors and types in scope.
#[derive(Clone, Debug)]
pub struct DataEnv {
    types: HashMap<Symbol, TypeInfo>,
    cons: HashMap<Symbol, ConInfo>,
}

fn tvar(s: &str) -> SType {
    SType::Var(Symbol::intern(s))
}

fn tcon(s: &str, args: Vec<SType>) -> SType {
    SType::Con(Symbol::intern(s), args)
}

impl Default for DataEnv {
    fn default() -> Self {
        DataEnv::new()
    }
}

impl DataEnv {
    /// An environment containing the built-in types.
    pub fn new() -> DataEnv {
        let mut env = DataEnv {
            types: HashMap::new(),
            cons: HashMap::new(),
        };

        // Primitive types with no user-visible constructors. MVar is the
        // §4.4 concurrency extension's communication cell; its contents
        // are managed by the scheduler, not by pattern matching.
        for prim in ["Int", "Char", "Str"] {
            let name = Symbol::intern(prim);
            env.types.insert(
                name,
                TypeInfo {
                    name,
                    params: vec![],
                    constructors: vec![],
                },
            );
        }

        env.builtin("Unit", &[], &[("Unit", vec![])], false);
        env.builtin("Bool", &[], &[("False", vec![]), ("True", vec![])], false);
        env.builtin(
            "List",
            &["a"],
            &[
                ("Nil", vec![]),
                ("Cons", vec![tvar("a"), tcon("List", vec![tvar("a")])]),
            ],
            false,
        );
        env.builtin(
            "Maybe",
            &["a"],
            &[("Nothing", vec![]), ("Just", vec![tvar("a")])],
            false,
        );
        env.builtin(
            "Pair",
            &["a", "b"],
            &[("Pair", vec![tvar("a"), tvar("b")])],
            false,
        );
        env.builtin(
            "Triple",
            &["a", "b", "c"],
            &[("Triple", vec![tvar("a"), tvar("b"), tvar("c")])],
            false,
        );
        // data ExVal a = OK a | Bad Exception          (§3.1)
        env.builtin(
            "ExVal",
            &["a"],
            &[
                ("OK", vec![tvar("a")]),
                ("Bad", vec![tcon("Exception", vec![])]),
            ],
            false,
        );
        // data Exception = DivideByZero | ...          (§3.1, §4.1, §5.1)
        env.builtin(
            "Exception",
            &[],
            &[
                ("DivideByZero", vec![]),
                ("Overflow", vec![]),
                ("UserError", vec![tcon("Str", vec![])]),
                ("PatternMatchFail", vec![tcon("Str", vec![])]),
                ("NonTermination", vec![]),
                ("Interrupt", vec![]),
                ("Timeout", vec![]),
                ("StackOverflow", vec![]),
                ("HeapOverflow", vec![]),
                ("BlockedIndefinitely", vec![]),
            ],
            false,
        );
        // "From a semantic point of view we regard IO as an algebraic data
        // type with constructors return, >>=, putChar, getChar,
        // getException." (§4.4). The evaluators treat these as constructor
        // values; the type checker types them as primitives.
        env.builtin(
            "IO",
            &["a"],
            &[
                ("Return", vec![tvar("a")]),
                // The real argument types of Bind are existential; these
                // entries record arity only (io_primitive = true).
                ("Bind", vec![tvar("a"), tvar("a")]),
                ("GetChar", vec![]),
                ("PutChar", vec![tcon("Char", vec![])]),
                ("PutStr", vec![tcon("Str", vec![])]),
                ("GetException", vec![tvar("a")]),
                // §4.4 notes the LTS presentation "scales to other
                // extensions, such as adding concurrency": Fork spawns a
                // thread performing its argument, Yield cedes the
                // scheduler.
                ("Fork", vec![tvar("a")]),
                ("Yield", vec![]),
                ("NewMVar", vec![tvar("a")]),
                ("NewEmptyMVar", vec![]),
                ("TakeMVar", vec![tvar("a")]),
                ("PutMVar", vec![tvar("a"), tvar("a")]),
                (
                    "ThrowTo",
                    vec![tcon("Int", vec![]), tcon("Exception", vec![])],
                ),
            ],
            true,
        );
        // The MVar type constructor (opaque; one parameter).
        {
            let name = Symbol::intern("MVar");
            env.types.insert(
                name,
                TypeInfo {
                    name,
                    params: vec![Symbol::intern("a")],
                    constructors: vec![],
                },
            );
        }
        env
    }

    fn builtin(&mut self, ty: &str, params: &[&str], cons: &[(&str, Vec<SType>)], io: bool) {
        let decl = DataDecl {
            name: Symbol::intern(ty),
            params: params.iter().map(|p| Symbol::intern(p)).collect(),
            constructors: cons
                .iter()
                .map(|(n, args)| ConDecl {
                    name: Symbol::intern(n),
                    args: args.clone(),
                })
                .collect(),
            pos: Default::default(),
        };
        self.add_data_inner(&decl, io)
            .expect("builtins are well-formed");
    }

    /// Adds a user `data` declaration.
    ///
    /// # Errors
    ///
    /// Rejects duplicate type names, duplicate constructor names (anywhere
    /// in scope), and unbound type variables in constructor fields.
    pub fn add_data(&mut self, decl: &DataDecl) -> Result<(), DataEnvError> {
        self.add_data_inner(decl, false)
    }

    fn add_data_inner(&mut self, decl: &DataDecl, io: bool) -> Result<(), DataEnvError> {
        if self.types.contains_key(&decl.name) {
            return Err(DataEnvError(format!("duplicate type '{}'", decl.name)));
        }
        for c in &decl.constructors {
            if self.cons.contains_key(&c.name) {
                return Err(DataEnvError(format!("duplicate constructor '{}'", c.name)));
            }
            for ty in &c.args {
                check_tyvars(ty, &decl.params)?;
            }
        }
        self.types.insert(
            decl.name,
            TypeInfo {
                name: decl.name,
                params: decl.params.clone(),
                constructors: decl.constructors.iter().map(|c| c.name).collect(),
            },
        );
        for (tag, c) in decl.constructors.iter().enumerate() {
            self.cons.insert(
                c.name,
                ConInfo {
                    name: c.name,
                    ty_name: decl.name,
                    tag,
                    ty_params: decl.params.clone(),
                    arg_types: c.args.clone(),
                    io_primitive: io,
                },
            );
        }
        Ok(())
    }

    /// Looks up a data constructor.
    pub fn con(&self, name: Symbol) -> Option<&ConInfo> {
        self.cons.get(&name)
    }

    /// The sibling constructors of `con`'s type, in declaration order.
    pub fn siblings(&self, con: Symbol) -> Option<&[Symbol]> {
        let info = self.cons.get(&con)?;
        self.types
            .get(&info.ty_name)
            .map(|t| t.constructors.as_slice())
    }
}

fn check_tyvars(ty: &SType, params: &[Symbol]) -> Result<(), DataEnvError> {
    match ty {
        SType::Var(v) => {
            if params.contains(v) {
                Ok(())
            } else {
                Err(DataEnvError(format!("unbound type variable '{v}'")))
            }
        }
        SType::Con(_, args) | SType::Tuple(args) => {
            args.iter().try_for_each(|t| check_tyvars(t, params))
        }
        SType::Fun(a, b) => {
            check_tyvars(a, params)?;
            check_tyvars(b, params)
        }
        SType::List(t) => check_tyvars(t, params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_present() {
        let env = DataEnv::new();
        assert_eq!(env.con(Symbol::intern("Cons")).expect("Cons").arity(), 2);
        assert_eq!(env.con(Symbol::intern("True")).expect("True").arity(), 0);
        assert_eq!(env.con(Symbol::intern("Bad")).expect("Bad").arity(), 1);
        assert_eq!(
            env.con(Symbol::intern("UserError"))
                .expect("UserError")
                .arity(),
            1
        );
        assert!(
            env.con(Symbol::intern("Return"))
                .expect("Return")
                .io_primitive
        );
        let bools = env.siblings(Symbol::intern("True")).expect("Bool");
        assert_eq!(bools.len(), 2);
        assert_eq!(bools[0].as_str(), "False");
    }

    #[test]
    fn user_declarations_extend_the_environment() {
        let mut env = DataEnv::new();
        let decl = DataDecl {
            name: Symbol::intern("Tree"),
            params: vec![Symbol::intern("a")],
            constructors: vec![
                ConDecl {
                    name: Symbol::intern("Leaf"),
                    args: vec![],
                },
                ConDecl {
                    name: Symbol::intern("Node"),
                    args: vec![
                        tcon("Tree", vec![tvar("a")]),
                        tvar("a"),
                        tcon("Tree", vec![tvar("a")]),
                    ],
                },
            ],
            pos: Default::default(),
        };
        env.add_data(&decl).expect("valid");
        assert_eq!(env.con(Symbol::intern("Node")).expect("Node").arity(), 3);
        assert_eq!(env.con(Symbol::intern("Node")).expect("Node").tag, 1);
    }

    #[test]
    fn duplicate_and_unbound_are_rejected() {
        let mut env = DataEnv::new();
        let dup = DataDecl {
            name: Symbol::intern("Bool2"),
            params: vec![],
            constructors: vec![ConDecl {
                name: Symbol::intern("True"), // clashes with builtin
                args: vec![],
            }],
            pos: Default::default(),
        };
        assert!(env.add_data(&dup).is_err());

        let unbound = DataDecl {
            name: Symbol::intern("Box"),
            params: vec![],
            constructors: vec![ConDecl {
                name: Symbol::intern("MkBox"),
                args: vec![tvar("a")],
            }],
            pos: Default::default(),
        };
        assert!(env.add_data(&unbound).is_err());
    }
}
