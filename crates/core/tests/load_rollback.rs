//! `Session::load` is transactional: a load that fails at any stage adds
//! no binding, signature, scheme or `data` declaration, so a corrected
//! load afterwards succeeds.

use urk::{Error, Session};

fn type_error(s: &mut Session, src: &str) -> String {
    match s.load(src) {
        Err(Error::Type(e)) => e.0,
        other => panic!("`{src}` should fail to type-check, got {other:?}"),
    }
}

#[test]
fn an_ill_typed_load_leaves_the_session_as_it_was() {
    let mut s = Session::new();
    let before = s.program().binds.len();
    assert_eq!(
        type_error(&mut s, "bad = 1 + 'c'"),
        "cannot unify Int with Char"
    );
    assert_eq!(s.program().binds.len(), before);
    assert_eq!(s.type_of_binding("bad"), None);
    s.load("good = 2")
        .expect("a well-typed load after a failed one");
    assert_eq!(s.type_of_binding("good").as_deref(), Some("Int"));
    s.load("bad = 3")
        .expect("the failed name was never defined");
    assert_eq!(s.eval("good + bad").expect("evaluates").rendered, "5");
}

#[test]
fn a_corrected_data_declaration_reloads() {
    let mut s = Session::new();
    type_error(
        &mut s,
        "data T = A | B\nbadT = case A of { A -> 1; B -> True }",
    );
    assert!(s.data().con(urk_syntax::Symbol::intern("A")).is_none());
    s.load("data T = A | B\ngoodT = case A of { A -> 1; B -> 2 }")
        .expect("the corrected declaration is not a duplicate");
    assert_eq!(s.eval("goodT").expect("evaluates").rendered, "1");
}

#[test]
fn a_failed_signature_check_rolls_back() {
    let mut s = Session::new();
    let err = type_error(&mut s, "f :: Int -> Bool\nf x = x + 1");
    assert!(err.starts_with("signature for 'f'"), "{err}");
    assert!(s.program().sigs.iter().all(|(n, _)| n.as_str() != "f"));
    s.load("f :: Int -> Int\nf x = x + 1")
        .expect("the corrected signature loads");
    assert_eq!(s.type_of_binding("f").as_deref(), Some("Int -> Int"));
}

#[test]
fn a_duplicate_definition_keeps_its_data_declaration_out() {
    let mut s = Session::new();
    match s.load("data U = U1\nmap f xs = xs") {
        Err(Error::DuplicateDefinition(n)) => assert_eq!(n, "map"),
        other => panic!("expected a duplicate definition, got {other:?}"),
    }
    s.load("data U = U1\nuseU = case U1 of { U1 -> 7 }")
        .expect("U was not declared by the failed load");
    assert_eq!(s.eval("useU").expect("evaluates").rendered, "7");
}
