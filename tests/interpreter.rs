//! Tests for the script interpreter (the `rdfcube` console).

use rdfcube::interp::{InterpError, Interpreter};

/// The paper's running example as a console script.
const SCRIPT: &str = r#"
# Figure 1 world
loadstr <user1> rdf:type <Person> ; <age> 28 ; <city> "Madrid" . \
        <user3> rdf:type <Person> ; <age> 35 ; <city> "NY" . \
        <user4> rdf:type <Person> ; <age> 35 ; <city> "NY" . \
        <user1> <posted> <p1>, <p2>, <p3> . \
        <p1> <on> <s1> . <p2> <on> <s1> . <p3> <on> <s2> . \
        <user3> <posted> <p4> . <p4> <on> <s2> . \
        <user4> <posted> <p5> . <p5> <on> <s3> .
saturate
node Blogger n(?x) :- ?x rdf:type Person
node Age n(?a) :- ?x age ?a
node City n(?c) :- ?x city ?c
node BlogPost n(?p) :- ?x posted ?p
node Site n(?s) :- ?p on ?s
edge hasAge Blogger Age e(?x, ?a) :- ?x age ?a
edge livesIn Blogger City e(?x, ?c) :- ?x city ?c
edge wrotePost Blogger BlogPost e(?x, ?p) :- ?x posted ?p
edge postedOn BlogPost Site e(?p, ?s) :- ?p on ?s
materialize
cube Q1 count c(?x, ?dage, ?dcity) :- ?x rdf:type Blogger, ?x hasAge ?dage, ?x livesIn ?dcity \
    | m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?p, ?p postedOn ?v
slice Q2 from Q1 dage 35
dice Q3 from Q1 dage 20..30
drillout Q4 from Q1 dage
drillin Q5 from Q4 dage
show Q1
pres Q1
stats
"#;

#[test]
fn paper_example_script_end_to_end() {
    let mut interp = Interpreter::new();
    let out = interp
        .run_script(SCRIPT)
        .map_err(|(l, e)| format!("line {l}: {e}"))
        .unwrap();
    assert!(out.contains("loaded 19 triples"), "out: {out}");
    assert!(out.contains("cube Q1: 2 cells materialized"), "out: {out}");
    assert!(
        out.contains("cube Q2: 1 cells via selection over ans(Q)"),
        "out: {out}"
    );
    assert!(
        out.contains("cube Q3: 1 cells via selection over ans(Q)"),
        "out: {out}"
    );
    assert!(
        out.contains("cube Q4: 2 cells via Algorithm 1"),
        "out: {out}"
    );
    assert!(
        out.contains("cube Q5: 2 cells via Algorithm 2"),
        "out: {out}"
    );
    // Example 2's answer in the rendered table.
    assert!(out.contains("Madrid"));
    assert!(out.contains("| 3"), "count 3 for (28, Madrid): {out}");
    assert!(out.contains("pres(Q1): 5 rows"), "out: {out}");
    assert!(out.contains("2 cubes materialized") || out.contains("5 cubes materialized"));
}

#[test]
fn instance_shortcut_skips_the_lens() {
    let mut interp = Interpreter::new();
    let out = interp
        .run_script(
            "loadstr <a> rdf:type <C> ; <dim> <x> ; <val> 3 .\n\
             instance\n\
             cube Q count c(?f, ?d) :- ?f rdf:type C, ?f dim ?d | m(?f, ?v) :- ?f val ?v\n\
             show Q\n",
        )
        .unwrap();
    assert!(out.contains("cube Q: 1 cells"));
}

#[test]
fn errors_carry_line_numbers() {
    let mut interp = Interpreter::new();
    let err = interp
        .run_script("loadstr <a> <b> <c> .\nfrobnicate\n")
        .unwrap_err();
    assert_eq!(err.0, 2);
    assert!(matches!(err.1, InterpError::Usage(_)));
}

#[test]
fn state_errors() {
    let mut interp = Interpreter::new();
    assert!(matches!(
        interp.exec("saturate"),
        Err(InterpError::State(_))
    ));
    assert!(matches!(
        interp.exec("materialize"),
        Err(InterpError::State(_))
    ));
    assert!(matches!(
        interp.exec("cube Q count c(?x) :- ?x p ?x | m(?x,?v) :- ?x q ?v"),
        Err(InterpError::State(_))
    ));
    interp.exec("loadstr <a> <p> <b> .").unwrap();
    interp.exec("instance").unwrap();
    assert!(matches!(
        interp.exec("show nope"),
        Err(InterpError::UnknownCube(_))
    ));
    assert!(matches!(
        interp.exec("cube Q wat c | m"),
        Err(InterpError::Usage(_))
    ));
    assert!(matches!(
        interp.exec("slice A from B"),
        Err(InterpError::Usage(_))
    ));
}

#[test]
fn dice_value_lists_and_help() {
    let mut interp = Interpreter::new();
    interp
        .run_script(
            "loadstr <a> rdf:type <C> ; <dim> \"x\" ; <val> 3 . \
                     <b> rdf:type <C> ; <dim> \"y\" ; <val> 4 .\n\
             instance\n\
             cube Q sum c(?f, ?d) :- ?f rdf:type C, ?f dim ?d | m(?f, ?v) :- ?f val ?v\n",
        )
        .unwrap();
    let out = interp.exec("dice Q2 from Q \"x\"").err();
    // dim name missing → usage error
    assert!(out.is_some());
    let out = interp.exec("dice Q2 from Q d \"x\",\"z\"").unwrap();
    assert!(out.contains("cube Q2: 1 cells"));
    assert!(interp.exec("help").unwrap().contains("drillout"));
}

#[test]
fn rollup_command() {
    let mut interp = Interpreter::new();
    let out = interp
        .run_script(
            "loadstr <m> <locatedIn> <spain> . <n> <locatedIn> <usa> . \
                     <a> rdf:type <C> ; <city> <m> ; <val> 3 . \
                     <b> rdf:type <C> ; <city> <n> ; <val> 4 .\n\
             instance\n\
             cube Q sum c(?f, ?d) :- ?f rdf:type C, ?f city ?d | m(?f, ?v) :- ?f val ?v\n\
             rollup R from Q d via locatedIn\n\
             show R\n",
        )
        .map_err(|(l, e)| format!("line {l}: {e}"))
        .unwrap();
    assert!(
        out.contains("cube R: 2 cells via roll-up composition"),
        "out: {out}"
    );
    assert!(out.contains("spain"));
}

#[test]
fn loading_twice_accumulates() {
    let mut interp = Interpreter::new();
    interp.exec("loadstr <a> <p> <b> .").unwrap();
    let out = interp.exec("loadstr <c> <p> <d> . <a> <p> <b> .").unwrap();
    assert!(out.contains("loaded 1 new triples"), "out: {out}");
}

#[test]
fn load_from_file() {
    let path = std::env::temp_dir().join("rdfcube_interp_test.ttl");
    std::fs::write(&path, "<a> <p> <b> . <a> <p> <c> .").unwrap();
    let mut interp = Interpreter::new();
    let out = interp.exec(&format!("load {}", path.display())).unwrap();
    assert!(out.contains("loaded 2 triples"), "out: {out}");
    std::fs::remove_file(&path).ok();
    // Missing file is an Io error, not a panic.
    assert!(matches!(
        interp.exec("load /definitely/not/here.ttl"),
        Err(InterpError::Io(_))
    ));
}

#[test]
fn blank_node_turtle_through_the_console() {
    let mut interp = Interpreter::new();
    let out = interp
        .run_script(
            "loadstr <u> <addr> [ <city> \"Madrid\" ] . <u> rdf:type <C> ; <val> 2 .\n\
             instance\n\
             cube Q sum c(?x, ?d) :- ?x rdf:type C, ?x addr ?a, ?a city ?d \
                  | m(?x, ?v) :- ?x val ?v\n\
             show Q\n",
        )
        .map_err(|(l, e)| format!("line {l}: {e}"))
        .unwrap();
    assert!(out.contains("Madrid"), "out: {out}");
}

/// A slice or dice value is a term of the rule notation: numerals,
/// booleans and tagged literals name the literal, and a comma inside quotes
/// belongs to the string.
#[test]
fn slice_and_dice_values_are_terms() {
    let mut interp = Interpreter::new();
    interp
        .run_script(
            "loadstr <a> rdf:type <C> ; <d> 3.5 ; <v> 1 . \
                     <b> rdf:type <C> ; <d> true ; <v> 1 . \
                     <c> rdf:type <C> ; <d> \"Madrid\"@es ; <v> 1 . \
                     <e> rdf:type <C> ; <d> \"Madrid\" ; <v> 1 . \
                     <f> rdf:type <C> ; <d> \"a,b\" ; <v> 1 . \
                     <g> rdf:type <C> ; <d> \"c\" ; <v> 1 . \
                     <h> rdf:type <C> ; <d> \"a\" ; <v> 1 .\n\
             instance\n\
             cube Q count c(?x, ?d) :- ?x rdf:type C, ?x d ?d | m(?x, ?v) :- ?x v ?v\n",
        )
        .map_err(|(l, e)| format!("line {l}: {e}"))
        .unwrap();
    for value in ["3.5", "true", "\"Madrid\"@es"] {
        let out = interp.exec(&format!("slice S from Q d {value}")).unwrap();
        assert!(out.contains("cube S: 1 cells"), "{value}: {out}");
    }
    let out = interp.exec("dice D from Q d \"a,b\",\"c\"").unwrap();
    assert!(out.contains("cube D: 2 cells"), "out: {out}");
    let out = interp.exec("show D").unwrap();
    assert!(out.contains("a,b") && !out.contains("Madrid"), "out: {out}");
}

/// Console words, after a script that leaves a cube `Q` to work on, and
/// characters of two to four bytes.
const TOKENS: &[&str] = &[
    "loadstr", "instance", "stats", "cube", "slice", "dice", "drillout", "drillin", "rollup",
    "show", "pres", "help", "node", "edge", "saturate", "from", "Q", "R", "count", "sum", "d", "v",
    "a", "2", "1..3", "<u>", "rdf:type", "c(?x,", "?d)", "?x", "?d", ":-", "|", "m(?x,", "?v)",
    ".", "\\", " ", "\n", "é", "日本", "😀", "\u{301}",
];
const PRELUDE: &str = "loadstr <u> rdf:type <C> ; <d> <a> ; <v> 2 .\ninstance\n\
    cube Q count c(?x, ?d) :- ?x rdf:type C, ?x d ?d | m(?x, ?v) :- ?x v ?v\n";

mod never_panics {
    use super::{Interpreter, PRELUDE, TOKENS};
    use proptest::prelude::*;

    /// Arbitrary bytes read as lossy UTF-8, or tokens run together after
    /// the prelude.
    fn arb_script() -> impl Strategy<Value = String> {
        let tokens = proptest::collection::vec(0..TOKENS.len(), 0..16);
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..48)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
            tokens.prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect()),
        ]
        .prop_map(|soup: String| format!("{PRELUDE}{soup}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// A script of any text runs to its end or to a typed error.
        #[test]
        fn scripts_never_panic(script in arb_script()) {
            let run = std::panic::catch_unwind(|| Interpreter::new().run_script(&script).is_ok());
            prop_assert!(run.is_ok(), "run_script panicked on {:?}", script);
        }
    }
}
