//! Seeded input generators. The same seed gives the same inputs; the
//! program under test only ever sees the generated sources.
//!
//! Shapes that change cost a lot (nesting depth, raising, request class)
//! are stratified by index rather than drawn at random, so the mix is the
//! same for every seed and only the contents vary.

use crate::check::Expect;

/// A small deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_0B5E_55ED)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

// ---------------------------------------------------------------------
// frontend: well-typed surface queries over the Prelude
// ---------------------------------------------------------------------

/// Every `RAISE_EVERY`-th frontend query is built to raise.
const RAISE_EVERY: usize = 5;
/// Every `DEEP_EVERY`-th frontend query (offset 3) nests deeply.
const DEEP_EVERY: usize = 10;
/// The deepest nesting a deep query reaches.
const MAX_NEST: usize = 12;

/// The `i`-th frontend query.
pub fn frontend_query(rng: &mut Rng, i: usize) -> String {
    if i.is_multiple_of(RAISE_EVERY) {
        return raising(rng);
    }
    if i % DEEP_EVERY == 3 {
        // Depths 3..=12 in turn, alternating between the two shapes.
        let stratum = i / DEEP_EVERY;
        return deep(
            rng,
            3 + stratum % (MAX_NEST - 2),
            (stratum / (MAX_NEST - 2)).is_multiple_of(2),
        );
    }
    let mut g = ExprGen::new(rng);
    match g.rng.below(20) {
        0..=11 => g.int(3),
        12..=16 => format!("take 12 ({})", g.list(2)),
        _ => g.boolean(2),
    }
}

/// A query that raises at the top: an ordinary expression combined
/// strictly with one of the paper's imprecise-exception shapes.
fn raising(rng: &mut Rng) -> String {
    let mut g = ExprGen::new(rng);
    let base = g.int(2);
    let word = *g.rng.pick(&["Urk", "boom", "oops", "bad"]);
    let (a, b, c) = (g.rng.range(0, 9), g.rng.range(0, 9), g.rng.range(0, 9));
    let raiser = match g.rng.below(6) {
        0 => format!("(1 / 0) + error \"{word}\""),
        1 => "head []".to_string(),
        2 => format!("if forceList (zipWith (+) [1, 2, {a}] [{b}, {c}]) then 0 else 1"),
        3 => format!("let z = {a} in z / (z - z)"),
        4 => format!("error \"{word}\" + head []"),
        _ => format!("length [{a}, 1 / 0] * ({b} / 0)"),
    };
    match g.rng.below(3) {
        0 => format!("{base} + ({raiser})"),
        1 => format!("({raiser}) * {}", c + 1),
        _ => format!("let r = {raiser} in ({base}) - r"),
    }
}

/// A deeply nested query: a left-nested parenthesised operator chain, or
/// sections applied inside one another.
fn deep(rng: &mut Rng, depth: usize, parens: bool) -> String {
    let mut s = rng.range(1, 9).to_string();
    for _ in 0..depth {
        let k = rng.range(1, 9);
        s = if parens {
            format!("({s} {} {k})", rng.pick(&["+", "-"]))
        } else {
            match rng.below(3) {
                0 => format!("(+ {k}) ({s})"),
                1 => format!("({k} +) ({s})"),
                _ => format!("(* 2) ({s})"),
            }
        };
    }
    s
}

/// The deepest parenthesis nesting in a source string.
pub fn nesting(src: &str) -> usize {
    let (mut depth, mut max) = (0usize, 0usize);
    for ch in src.chars() {
        match ch {
            '(' => {
                depth += 1;
                max = max.max(depth);
            }
            ')' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    max
}

/// Random well-typed expressions over the Prelude: `Int`, `[Int]` and
/// `Bool` results built from lets, lambdas, `case`, list literals,
/// sections and operator chains.
struct ExprGen<'a> {
    rng: &'a mut Rng,
    vars: Vec<String>,
    fresh: u32,
}

impl<'a> ExprGen<'a> {
    fn new(rng: &'a mut Rng) -> ExprGen<'a> {
        ExprGen {
            rng,
            vars: Vec::new(),
            fresh: 0,
        }
    }

    fn fresh(&mut self) -> String {
        self.fresh += 1;
        format!("v{}", self.fresh)
    }

    fn leaf(&mut self) -> String {
        if !self.vars.is_empty() && self.rng.below(2) == 0 {
            let v = self.rng.pick(&self.vars).clone();
            return v;
        }
        self.rng.range(0, 99).to_string()
    }

    /// An `Int` expression in argument position.
    fn atom(&mut self, d: u32) -> String {
        if d == 0 || self.rng.below(3) == 0 {
            self.leaf()
        } else {
            format!("({})", self.int(d))
        }
    }

    /// Generates `body` with a fresh `Int` variable in scope.
    fn bind(&mut self, d: u32) -> (String, String) {
        let x = self.fresh();
        self.vars.push(x.clone());
        let body = self.int(d);
        self.vars.pop();
        (x, body)
    }

    fn int(&mut self, d: u32) -> String {
        if d == 0 {
            return self.leaf();
        }
        let e = d - 1;
        match self.rng.below(11) {
            0 => {
                let mut s = self.atom(e);
                for _ in 0..1 + self.rng.below(3) {
                    s = match self.rng.below(4) {
                        0 => format!("{s} + {}", self.atom(e)),
                        1 => format!("{s} - {}", self.atom(e)),
                        2 => format!("{s} * {}", self.rng.range(2, 9)),
                        _ => format!("{s} / {}", self.rng.range(1, 9)),
                    };
                }
                s
            }
            1 => {
                let rhs = self.int(e);
                let (x, body) = self.bind(e);
                format!("let {x} = {rhs} in {body}")
            }
            2 => {
                let arg = self.atom(e);
                let (x, body) = self.bind(e);
                format!("(\\{x} -> {body}) {arg}")
            }
            3 => {
                let scrut = self.int(e);
                let zero = self.int(e);
                let (x, body) = self.bind(e);
                format!("case {scrut} of {{ 0 -> {zero}; {x} -> {body} }}")
            }
            4 => format!(
                "if {} < {} then {} else {}",
                self.atom(e),
                self.atom(e),
                self.int(e),
                self.int(e)
            ),
            5 => match self.rng.below(4) {
                0 => format!("sum ({})", self.list(e)),
                1 => format!("length ({})", self.list(e)),
                2 => format!("foldr (+) {} ({})", self.leaf(), self.list(e)),
                _ => format!("foldl (\\a b -> a + b * 2) 0 ({})", self.list(e)),
            },
            6 => {
                let k = self.rng.range(1, 20);
                let arg = self.atom(e);
                match self.rng.below(4) {
                    0 => format!("(+ {k}) {arg}"),
                    1 => format!("({k} +) {arg}"),
                    2 => format!("(* {}) {arg}", k % 5 + 2),
                    _ => format!("({k} -) {arg}"),
                }
            }
            7 => match self.rng.below(3) {
                0 => format!("max {} {}", self.atom(e), self.atom(e)),
                1 => format!("min {} {}", self.atom(e), self.atom(e)),
                _ => format!("abs ({})", self.int(e)),
            },
            8 => format!("head ({} : {})", self.atom(e), self.list_atom(e)),
            9 => format!(
                "fromMaybe {} (lookup {} (zip [1, 2, 3] [{}, {}, {}]))",
                self.leaf(),
                self.rng.range(0, 4),
                self.leaf(),
                self.leaf(),
                self.leaf()
            ),
            _ => format!("length (filter {} ({}))", self.pred(), self.list(e)),
        }
    }

    fn list_atom(&mut self, d: u32) -> String {
        format!("({})", self.list(d))
    }

    fn list_literal(&mut self, d: u32) -> String {
        let n = self.rng.range(1, 6);
        let items: Vec<String> = (0..n).map(|_| self.atom(d.saturating_sub(1))).collect();
        format!("[{}]", items.join(", "))
    }

    /// A `[Int]` expression of at most 12 elements.
    fn list(&mut self, d: u32) -> String {
        if d == 0 {
            return self.list_literal(0);
        }
        let e = d - 1;
        match self.rng.below(8) {
            0 | 1 => self.list_literal(d),
            2 => format!("map {} ({})", self.fun(), self.list(e)),
            3 => format!("filter {} ({})", self.pred(), self.list(e)),
            4 => format!("{} ({})", self.rng.pick(&["reverse", "sort"]), self.list(e)),
            5 => format!("take {} ({})", self.rng.range(1, 6), self.list(e)),
            6 => {
                let lo = self.rng.range(0, 5);
                format!("[{lo} .. {}]", lo + self.rng.range(0, 7))
            }
            _ => {
                let xs = self.fresh();
                let l = self.list(e);
                format!("let {xs} = {l} in zipWith (+) {xs} (reverse {xs})")
            }
        }
    }

    fn fun(&mut self) -> String {
        let k = self.rng.range(1, 9);
        match self.rng.below(5) {
            0 => format!("(+ {k})"),
            1 => format!("(* {k})"),
            2 => format!("({k} *)"),
            3 => format!("(\\y -> y * 2 + {k})"),
            _ => format!("(\\y -> y - {k})"),
        }
    }

    fn pred(&mut self) -> String {
        let k = self.rng.range(1, 30);
        match self.rng.below(5) {
            0 => "even".to_string(),
            1 => "odd".to_string(),
            2 => format!("(> {k})"),
            3 => format!("(< {k})"),
            _ => "(\\y -> y % 3 == 0)".to_string(),
        }
    }

    fn boolean(&mut self, d: u32) -> String {
        let e = d.saturating_sub(1);
        match self.rng.below(5) {
            0 => format!("even ({})", self.int(d)),
            1 => format!("elem {} ({})", self.atom(e), self.list(e)),
            2 => format!("null ({})", self.list(e)),
            3 => format!("all {} ({})", self.pred(), self.list(e)),
            _ => format!(
                "{} < {} && {}",
                self.atom(e),
                self.atom(e),
                if d > 1 {
                    self.boolean(e)
                } else {
                    "True".to_string()
                }
            ),
        }
    }
}

// ---------------------------------------------------------------------
// serve: a request mix of hot, unique and raising expressions
// ---------------------------------------------------------------------

/// The size of `serve`'s hot set.
const HOT_SET: usize = 64;
/// Each block of ten requests holds three hot, six unique and one
/// raiser. Misses are then a clear majority, so the median request is a
/// miss; near an even split the median jumps between the hit (~0.3 ms)
/// and miss (~1.5 ms) latencies from run to run.
const BLOCK: [Class; 10] = [
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Unique,
    Class::Unique,
    Class::Unique,
    Class::Unique,
    Class::Unique,
    Class::Unique,
    Class::Raise,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// One of the hot set: a cache hit after first use.
    Hot,
    /// A compute expression no earlier request repeats: a cache miss.
    Unique,
    /// A pure imprecise-exception raiser (also unique).
    Raise,
}

/// One serve request. `expect` is `None` for raisers until the
/// denotational reference fills it in.
#[derive(Clone, Debug)]
pub struct ServeReq {
    pub src: String,
    pub class: Class,
    pub expect: Option<Expect>,
}

/// The first `n` requests of the seeded stream. `tag_base` keeps unique
/// expressions unique across streams generated in one process.
pub fn serve_stream(seed: u64, n: usize, tag_base: u64) -> Vec<ServeReq> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
    let mut hot: Vec<(String, i64)> = Vec::with_capacity(HOT_SET);
    while hot.len() < HOT_SET {
        let h = hot_expr(&mut rng, hot.len());
        if !hot.iter().any(|(s, _)| *s == h.0) {
            hot.push(h);
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut block = BLOCK;
    for i in 0..n {
        if i % BLOCK.len() == 0 {
            rng.shuffle(&mut block);
        }
        let tag = tag_base + i as u64;
        let class = block[i % BLOCK.len()];
        let (src, expect) = match class {
            Class::Hot => {
                let (s, v) = rng.pick(&hot).clone();
                (s, Some(Expect::Value(v.to_string())))
            }
            Class::Unique => {
                let (s, v) = unique_expr(&mut rng, tag);
                (s, Some(Expect::Value(v.to_string())))
            }
            Class::Raise => (raiser_expr(&mut rng, tag), None),
        };
        out.push(ServeReq { src, class, expect });
    }
    out
}

/// A hot-set expression and its value.
fn hot_expr(rng: &mut Rng, k: usize) -> (String, i64) {
    match k % 4 {
        0 => {
            let n = rng.range(20, 200);
            (format!("sum [1 .. {n}]"), n * (n + 1) / 2)
        }
        1 => {
            let (n, k) = (rng.range(5, 12), rng.range(0, 9));
            (format!("fib {n} + {k}"), fib(n) + k)
        }
        2 => {
            let n = rng.range(10, 100);
            (format!("length (filter even [1 .. {n}])"), n / 2)
        }
        _ => {
            let n = rng.range(50, 500);
            (format!("sumTo {n} 0"), n * (n + 1) / 2)
        }
    }
}

/// A unique compute expression (roughly 0.1–1 ms of machine time) and
/// its value.
fn unique_expr(rng: &mut Rng, tag: u64) -> (String, i64) {
    let t = tag as i64;
    match rng.below(5) {
        0 => {
            let n = rng.range(200, 2000);
            (format!("sumTo {n} 0 + {t}"), n * (n + 1) / 2 + t)
        }
        1 => {
            let n = rng.range(10, 14);
            (format!("fib {n} + {t}"), fib(n) + t)
        }
        2 => {
            let n = rng.range(100, 400);
            (format!("countPrimes 2 {n} 0 + {t}"), prime_count(n) + t)
        }
        3 => {
            let n = rng.range(20, 60);
            (format!("checksum {n} + {t}"), checksum(n) + t)
        }
        _ => {
            let n = rng.range(100, 500);
            (format!("pipe {n} + {t}"), pipe(n) + t)
        }
    }
}

/// A unique pure raiser; its reference is its denotation.
fn raiser_expr(rng: &mut Rng, tag: u64) -> String {
    match rng.below(4) {
        0 => format!("({tag} / 0) + error \"r{tag}\""),
        1 => format!("{tag} + head []"),
        2 => format!("forceList (zipWith (+) [1, {tag}] [1])"),
        _ => format!("error \"e{tag}\" * (1 / 0)"),
    }
}

// Hand-written references for the kernels' closed forms.

pub fn fib(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Primes in `2..=n`.
pub fn prime_count(n: i64) -> i64 {
    (2..=n)
        .filter(|&p| (2..).take_while(|d| d * d <= p).all(|d| p % d != 0))
        .count() as i64
}

/// `checksum n`: the sum of `k * 37 % 101` for `k` in `1..=n` (sorting
/// does not change a sum).
pub fn checksum(n: i64) -> i64 {
    (1..=n).map(|k| k * 37 % 101).sum()
}

/// `pipe n`: three times the even numbers up to `n`, summed.
pub fn pipe(n: i64) -> i64 {
    (1..=n).filter(|y| y % 2 == 0).map(|y| 3 * y).sum()
}
