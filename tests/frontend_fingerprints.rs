//! A refactor guard for the front end.
//!
//! Parse and desugar must keep producing the same Core, up to the names
//! of generated binders. This file pins `expr_fingerprint` (alpha-invariant
//! and independent of the interner) of the Core made for every Prelude
//! binding, for every binding of every `corpus/*.urk` program and for the
//! queries the front end's allocation gate counts. The table was recorded
//! on the front end whose parser cloned tokens and boxed surface nodes; a
//! change to the lexer, the layout pass, the parser, the surface tree or
//! the desugarer that alters any Core shows up as a changed line.

use std::fs;
use std::path::PathBuf;

use urk_syntax::DataEnv;
use urk_syntax::{desugar_expr, desugar_program, expr_fingerprint, parse_expr_src, parse_program};

#[path = "common/frontend_queries.rs"]
mod frontend_queries;

/// `(what, fingerprint)` in the order [`fingerprints`] walks them.
const GOLDEN: &[(&str, u64)] = &[
    ("prelude:id", 0x9b91ba8aa6dd0bc2),
    ("prelude:const", 0x9f0a56649dc08345),
    ("prelude:flip", 0x652ee0d90a2b567d),
    ("prelude:not", 0x4e5cb69ed4346f69),
    ("prelude:otherwise", 0xbc6d90431e59b61d),
    ("prelude:fst", 0xc0247c3923cfa0f6),
    ("prelude:snd", 0xdf1f43422ebeeb17),
    ("prelude:error", 0xa5b5824f713d58b8),
    ("prelude:loop", 0x542425baa409715f),
    ("prelude:head", 0x47c0d9da72fd0cd0),
    ("prelude:tail", 0x518220a65bdcecb5),
    ("prelude:null", 0xef2267345dc67590),
    ("prelude:length", 0xafb9a4ec8ec2eff5),
    ("prelude:append", 0x03d1af94631f2da7),
    ("prelude:map", 0x75e5ae6b8903d74c),
    ("prelude:filter", 0x5311565a674afa45),
    ("prelude:foldr", 0x29dbe494ce7f0d14),
    ("prelude:foldl", 0xaf6bbb70e0440e0a),
    ("prelude:reverse", 0x8639b03266a1366f),
    ("prelude:concat", 0x236248e5b348cc37),
    ("prelude:concatMap", 0x38d5a1a979a0f618),
    ("prelude:take", 0x264881f45d530056),
    ("prelude:drop", 0x0ba38cdd3e681274),
    ("prelude:replicate", 0x5bbd84832ee04167),
    ("prelude:iterate", 0xc7cd88cdd71be1f4),
    ("prelude:repeat", 0x84b2a4f05ec24ce6),
    ("prelude:zipWith", 0xfa5190830576150e),
    ("prelude:zip", 0x3140a0adac28a620),
    ("prelude:sum", 0x8da2b013cf4bfae7),
    ("prelude:product", 0xf859bc21bd491b07),
    ("prelude:max", 0xed70deddaa11510b),
    ("prelude:min", 0x6e1f22c70000e8c9),
    ("prelude:abs", 0x7766d37324c81c80),
    ("prelude:even", 0x12ef0f3e3002fa6c),
    ("prelude:odd", 0x8e3eb23dd251c812),
    ("prelude:elem", 0x03711e9507daadff),
    ("prelude:enumFromTo", 0xe67550309b8ee44c),
    ("prelude:lookup", 0x546c084df906bc2c),
    ("prelude:fromMaybe", 0x2e27b53815fef33d),
    ("prelude:maybe", 0xdf4bf7c5de540b82),
    ("prelude:insert", 0xbbe8bd520e558b59),
    ("prelude:sort", 0xe80ddc21cc7fb417),
    ("prelude:all", 0x91d3323c6f549fd4),
    ("prelude:any", 0x813d67fd87be2946),
    ("prelude:forceList", 0xb3f421bafdfbdc0e),
    ("prelude:concatStr", 0x1dd69cf0b82cd5c7),
    ("prelude:unwordsInt", 0x1e0d2e176be6cdf7),
    ("prelude:modifyMVar", 0xd5120638a4fe40ad),
    ("prelude:readMVar", 0x657e1f3100d6106a),
    ("prelude:killThread", 0xfbbca81a71f4a420),
    ("cg-00b2b0c282e34911.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-00b2b0c282e34911.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-00b2b0c282e34911.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-00b2b0c282e34911.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-00b2b0c282e34911.urk:counterexample", 0x00b2b0c282e34911),
    ("cg-0173e1d233f0da7e.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-0173e1d233f0da7e.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-0173e1d233f0da7e.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-0173e1d233f0da7e.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-0173e1d233f0da7e.urk:counterexample", 0x0173e1d233f0da7e),
    ("cg-035fe475533096c7.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-035fe475533096c7.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-035fe475533096c7.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-035fe475533096c7.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-035fe475533096c7.urk:counterexample", 0x035fe475533096c7),
    ("cg-0564eb74d29b3964.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-0564eb74d29b3964.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-0564eb74d29b3964.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-0564eb74d29b3964.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-0564eb74d29b3964.urk:counterexample", 0x0564eb74d29b3964),
    ("cg-066ede6299215d7c.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-066ede6299215d7c.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-066ede6299215d7c.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-066ede6299215d7c.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-066ede6299215d7c.urk:counterexample", 0x066ede6299215d7c),
    ("cg-0c69fd17ceaee009.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-0c69fd17ceaee009.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-0c69fd17ceaee009.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-0c69fd17ceaee009.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-0c69fd17ceaee009.urk:counterexample", 0x0c69fd17ceaee009),
    ("cg-17803c68810d1b61.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-17803c68810d1b61.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-17803c68810d1b61.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-17803c68810d1b61.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-17803c68810d1b61.urk:counterexample", 0x17803c68810d1b61),
    ("cg-1d0244c2e67fbea0.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-1d0244c2e67fbea0.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-1d0244c2e67fbea0.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-1d0244c2e67fbea0.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-1d0244c2e67fbea0.urk:counterexample", 0x1d0244c2e67fbea0),
    ("cg-1d9b6ea69019092b.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-1d9b6ea69019092b.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-1d9b6ea69019092b.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-1d9b6ea69019092b.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-1d9b6ea69019092b.urk:counterexample", 0x1d9b6ea69019092b),
    ("cg-21f7668f5eeccdfc.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-21f7668f5eeccdfc.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-21f7668f5eeccdfc.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-21f7668f5eeccdfc.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-21f7668f5eeccdfc.urk:counterexample", 0x21f7668f5eeccdfc),
    ("cg-26578e35831f9a59.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-26578e35831f9a59.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-26578e35831f9a59.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-26578e35831f9a59.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-26578e35831f9a59.urk:counterexample", 0x26578e35831f9a59),
    ("cg-282a1f121e653ef8.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-282a1f121e653ef8.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-282a1f121e653ef8.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-282a1f121e653ef8.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-282a1f121e653ef8.urk:counterexample", 0x282a1f121e653ef8),
    ("cg-2fb72595f2c28b1b.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-2fb72595f2c28b1b.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-2fb72595f2c28b1b.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-2fb72595f2c28b1b.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-2fb72595f2c28b1b.urk:counterexample", 0x2fb72595f2c28b1b),
    ("cg-3037d2082ccbeab2.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-3037d2082ccbeab2.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-3037d2082ccbeab2.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-3037d2082ccbeab2.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-3037d2082ccbeab2.urk:counterexample", 0x3037d2082ccbeab2),
    ("cg-36356338a1fcd5f0.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-36356338a1fcd5f0.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-36356338a1fcd5f0.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-36356338a1fcd5f0.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-36356338a1fcd5f0.urk:counterexample", 0x36356338a1fcd5f0),
    ("cg-3a1419c4656a4a5c.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-3a1419c4656a4a5c.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-3a1419c4656a4a5c.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-3a1419c4656a4a5c.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-3a1419c4656a4a5c.urk:counterexample", 0x3a1419c4656a4a5c),
    ("cg-3db96d05f4382271.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-3db96d05f4382271.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-3db96d05f4382271.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-3db96d05f4382271.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-3db96d05f4382271.urk:counterexample", 0x3db96d05f4382271),
    ("cg-47eb1c2cd2bf490e.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-47eb1c2cd2bf490e.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-47eb1c2cd2bf490e.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-47eb1c2cd2bf490e.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-47eb1c2cd2bf490e.urk:counterexample", 0x47eb1c2cd2bf490e),
    ("cg-6660a5888ffb4ee6.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-6660a5888ffb4ee6.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-6660a5888ffb4ee6.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-6660a5888ffb4ee6.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-6660a5888ffb4ee6.urk:counterexample", 0x6660a5888ffb4ee6),
    ("cg-666ae8349c0a7e93.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-666ae8349c0a7e93.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-666ae8349c0a7e93.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-666ae8349c0a7e93.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-666ae8349c0a7e93.urk:counterexample", 0x666ae8349c0a7e93),
    ("cg-776429adc72e9100.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-776429adc72e9100.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-776429adc72e9100.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-776429adc72e9100.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-776429adc72e9100.urk:counterexample", 0x776429adc72e9100),
    ("cg-854b10551bd6914f.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-854b10551bd6914f.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-854b10551bd6914f.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-854b10551bd6914f.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-854b10551bd6914f.urk:counterexample", 0x854b10551bd6914f),
    ("cg-8b60bc8ebf1a454b.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-8b60bc8ebf1a454b.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-8b60bc8ebf1a454b.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-8b60bc8ebf1a454b.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-8b60bc8ebf1a454b.urk:counterexample", 0x8b60bc8ebf1a454b),
    ("cg-91aa546a2524bed1.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-91aa546a2524bed1.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-91aa546a2524bed1.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-91aa546a2524bed1.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-91aa546a2524bed1.urk:counterexample", 0x91aa546a2524bed1),
    ("cg-9bae3c115609a7e3.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-9bae3c115609a7e3.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-9bae3c115609a7e3.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-9bae3c115609a7e3.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-9bae3c115609a7e3.urk:counterexample", 0x9bae3c115609a7e3),
    ("cg-b25b0eb7e98bdae8.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-b25b0eb7e98bdae8.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-b25b0eb7e98bdae8.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-b25b0eb7e98bdae8.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-b25b0eb7e98bdae8.urk:counterexample", 0xb25b0eb7e98bdae8),
    ("cg-c6986e366b55d55f.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-c6986e366b55d55f.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-c6986e366b55d55f.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-c6986e366b55d55f.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-c6986e366b55d55f.urk:counterexample", 0xc6986e366b55d55f),
    ("cg-c804dc331908f0b2.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-c804dc331908f0b2.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-c804dc331908f0b2.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-c804dc331908f0b2.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-c804dc331908f0b2.urk:counterexample", 0xc804dc331908f0b2),
    ("cg-ce80da1bac1c1716.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-ce80da1bac1c1716.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-ce80da1bac1c1716.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-ce80da1bac1c1716.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-ce80da1bac1c1716.urk:counterexample", 0xce80da1bac1c1716),
    ("cg-de5da28847294744.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-de5da28847294744.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-de5da28847294744.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-de5da28847294744.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-de5da28847294744.urk:counterexample", 0xde5da28847294744),
    ("cg-e4efa4b1c6ec1fc2.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-e4efa4b1c6ec1fc2.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-e4efa4b1c6ec1fc2.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-e4efa4b1c6ec1fc2.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-e4efa4b1c6ec1fc2.urk:counterexample", 0xe4efa4b1c6ec1fc2),
    ("cg-fb2dabbe919a8391.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-fb2dabbe919a8391.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-fb2dabbe919a8391.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-fb2dabbe919a8391.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-fb2dabbe919a8391.urk:counterexample", 0xfb2dabbe919a8391),
    ("cg-fc1f3cca1508dd8a.urk:fzsum", 0xbf96e0689b9848be),
    ("cg-fc1f3cca1508dd8a.urk:fzdiv", 0xdd6ec0314c6cc8e4),
    ("cg-fc1f3cca1508dd8a.urk:fzpick", 0xd577d01e5020ba40),
    ("cg-fc1f3cca1508dd8a.urk:fztwice", 0xc13ffb241edc2510),
    ("cg-fc1f3cca1508dd8a.urk:counterexample", 0xfc1f3cca1508dd8a),
    ("query:0", 0x2ff386e5b0506a87),
    ("query:1", 0x8613bd60d961c52b),
    ("query:2", 0xfdc9927ad17d1189),
    ("query:3", 0x0f7a33dd20989c2d),
    ("query:4", 0x34832270e02b0ff5),
    ("query:5", 0x21356ef49c497309),
    ("query:6", 0x8854594907a451ba),
    ("query:7", 0xb74782ddcd0d304c),
    ("query:8", 0x3212780b5142cc05),
    ("query:9", 0x2fabd64010d545af),
    ("query:10", 0xff4c76d9f2e936c8),
    ("query:11", 0xc6e9b0714d50cdde),
    ("query:12", 0x0158f68bbf899b82),
    ("query:13", 0x33375cc67148ce53),
    ("query:14", 0x8b67b39cafcba7fc),
    ("query:15", 0x2f33553fb7be496e),
    ("query:16", 0x7a2c4644ce4dec45),
    ("query:17", 0x099df75c900939ab),
    ("query:18", 0xb1a5abcca1ece26c),
    ("query:19", 0x1842898e2079d8f8),
];

/// Every pinned fingerprint, labelled `prelude:NAME`, `FILE:NAME` or
/// `query:N`.
fn fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut data = DataEnv::new();
    let prelude = parse_program(urk::prelude_source()).expect("the Prelude parses");
    let prog = desugar_program(&prelude, &mut data).expect("the Prelude desugars");
    for (name, rhs) in &prog.binds {
        out.push((format!("prelude:{name}"), expr_fingerprint(rhs)));
    }

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .collect();
    paths.sort();
    for path in paths {
        let src = fs::read_to_string(&path).expect("read case");
        let file = path.file_name().expect("a file name").to_string_lossy();
        let mut data = data.clone();
        let surface = parse_program(&src).expect("a corpus case parses");
        let prog = desugar_program(&surface, &mut data).expect("a corpus case desugars");
        for (name, rhs) in &prog.binds {
            out.push((format!("{file}:{name}"), expr_fingerprint(rhs)));
        }
    }

    for (i, q) in frontend_queries::QUERIES.iter().enumerate() {
        let surface = parse_expr_src(q).expect("a query parses");
        let core = desugar_expr(&surface, &data).expect("a query desugars");
        out.push((format!("query:{i}"), expr_fingerprint(&core)));
    }
    out
}

#[test]
fn front_end_core_matches_the_pinned_fingerprints() {
    let got = fingerprints();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    if got != want {
        let mut table = String::new();
        for (k, v) in &got {
            table.push_str(&format!("    ({k:?}, {v:#018x}),\n"));
        }
        let changed: Vec<&str> = got
            .iter()
            .filter(|g| !want.contains(g))
            .map(|(k, _)| k.as_str())
            .collect();
        panic!(
            "{} of {} fingerprints differ from the golden table (first: {:?}); \
             the table this front end makes:\n{table}",
            changed.len(),
            got.len(),
            changed.first()
        );
    }
}
