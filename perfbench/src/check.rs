//! Answer checking against references the machine did not produce.
//!
//! A kernel's reference is its hand-written expected rendering. A
//! generated query's reference is its denotation (§4 of the paper): a
//! value must render identically, and a raised exception must be a
//! member of the denoted exception set. References are computed before
//! any timed region starts.

use urk::Session;

/// Render depth shared by the machine and the denotational reference.
pub const RENDER_DEPTH: u32 = 32;

/// What a correct answer looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A value with exactly this rendering.
    Value(String),
    /// A raise whose exception, displayed, is one of these.
    Raise(Vec<String>),
}

impl Expect {
    /// Whether an answer (its rendering and, if it raised, its
    /// exception's display form) matches this reference.
    pub fn accepts(&self, rendered: &str, exception: Option<&str>) -> bool {
        match (self, exception) {
            (Expect::Value(v), None) => rendered == v,
            (Expect::Raise(set), Some(e)) => set.iter().any(|m| m == e),
            _ => false,
        }
    }

    /// A deliberately wrong reference, for the self-test.
    fn wrong(&self) -> Expect {
        match self {
            Expect::Value(v) => Expect::Value(format!("{v}0")),
            Expect::Raise(_) => Expect::Raise(vec!["NoSuchException".to_string()]),
        }
    }
}

/// The denotational reference for a query. Refuses queries whose answer
/// the check could not pin down: a denotation of ⊥ (every exception is a
/// member), or a value with an exceptional component inside it.
pub fn oracle(session: &Session, src: &str) -> Result<Expect, String> {
    let set = session.exception_set(src).map_err(|e| e.to_string())?;
    match set {
        Some(set) => match set.members() {
            Some(members) if !members.is_empty() => Ok(Expect::Raise(
                members.iter().map(ToString::to_string).collect(),
            )),
            _ => Err(format!("`{src}` denotes bottom")),
        },
        None => {
            let shown = session
                .denot_show(src, RENDER_DEPTH)
                .map_err(|e| e.to_string())?;
            if shown.contains("Bad {") || shown.contains("...") {
                return Err(format!("`{src}` has a partial or truncated value"));
            }
            Ok(Expect::Value(shown))
        }
    }
}

/// Shows that the check fires: it accepts `answer` against the true
/// reference and rejects it against a deliberately wrong one.
pub fn self_test(expect: &Expect, rendered: &str, exception: Option<&str>) -> bool {
    let fired = !expect.wrong().accepts(rendered, exception);
    println!(
        "self-test: answer check {} a wrong reference",
        if fired { "rejected" } else { "ACCEPTED" }
    );
    expect.accepts(rendered, exception) && fired
}
