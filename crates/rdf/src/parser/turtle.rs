//! Grammar engine for the Turtle subset and strict N-Triples.

use super::lexer::Token;
use super::{TermSyntax, Tokens};
use crate::error::ParseError;
use crate::graph::Graph;
use crate::term::Term;
use crate::triple::Triple;

/// Parses strict N-Triples into a fresh graph.
pub fn parse_ntriples(input: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    Parser::new(input, Mode::NTriples)?.run(&mut graph)?;
    Ok(graph)
}

/// Parses the Turtle subset into a fresh graph.
pub fn parse_turtle(input: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    Parser::new(input, Mode::Turtle)?.run(&mut graph)?;
    Ok(graph)
}

/// Parses the Turtle subset, adding triples to an existing graph.
pub fn parse_into(input: &str, graph: &mut Graph) -> Result<(), ParseError> {
    Parser::new(input, Mode::Turtle)?.run(graph)
}

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    NTriples,
    Turtle,
}

struct Parser {
    tokens: Tokens,
    mode: Mode,
    syntax: TermSyntax,
    anon_counter: usize,
}

impl Parser {
    fn new(input: &str, mode: Mode) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: Tokens::new(input)?,
            mode,
            syntax: match mode {
                Mode::NTriples => TermSyntax::ntriples(),
                Mode::Turtle => TermSyntax::turtle(),
            },
            anon_counter: 0,
        })
    }

    /// A fresh blank node for an anonymous `[...]`; the `genid` prefix is
    /// reserved (user labels with it are still distinct thanks to the
    /// counter suffix being appended after a dot-free marker).
    fn fresh_blank(&mut self) -> Term {
        let label = format!("genid-{}", self.anon_counter);
        self.anon_counter += 1;
        Term::blank(label)
    }

    /// Parses the whole input, staging encoded triples and handing the
    /// complete batch to the graph's bulk loader in one call (one sort +
    /// dedup per index instead of per-triple maintenance). On error nothing
    /// is inserted; only dictionary interning has happened.
    fn run(&mut self, graph: &mut Graph) -> Result<(), ParseError> {
        let mut staged: Vec<Triple> = Vec::new();
        self.statements(graph, &mut staged)?;
        graph.bulk_insert_ids(staged);
        Ok(())
    }

    fn statements(
        &mut self,
        graph: &mut Graph,
        staged: &mut Vec<Triple>,
    ) -> Result<(), ParseError> {
        while !self.tokens.at_end() {
            // `@prefix p: <ns> .` or SPARQL-style `PREFIX p: <ns>`.
            let with_dot = matches!(self.tokens.peek(), Some(Token::At(w)) if w == "prefix");
            if with_dot || self.tokens.eat_keyword("prefix") {
                if self.mode == Mode::NTriples {
                    return Err(self.tokens.error("prefixes are not allowed in N-Triples"));
                }
                if with_dot {
                    self.tokens.bump();
                }
                self.tokens.prefix_declaration(&mut self.syntax)?;
                if with_dot {
                    self.tokens.expect(&Token::Dot, "'.'")?;
                }
            } else {
                let subject = self.node(graph, staged, true)?;
                self.predicate_objects(&subject, &Token::Dot, graph, staged)?;
            }
        }
        Ok(())
    }

    /// A predicate-object list about `subject`, through its `close` token.
    /// Turtle's `;` and `,` lists, with a dangling `;` before `close`.
    fn predicate_objects(
        &mut self,
        subject: &Term,
        close: &Token,
        graph: &mut Graph,
        staged: &mut Vec<Triple>,
    ) -> Result<(), ParseError> {
        let lists = self.mode == Mode::Turtle;
        loop {
            let predicate = self.predicate()?;
            loop {
                let object = self.node(graph, staged, false)?;
                stage(graph, staged, subject, &predicate, &object);
                if !(lists && self.tokens.eat(&Token::Comma)) {
                    break;
                }
            }
            if !(lists && self.tokens.eat(&Token::Semicolon)) || self.tokens.peek() == Some(close) {
                break;
            }
        }
        let what = if *close == Token::Dot { "'.'" } else { "']'" };
        self.tokens.expect(close, what)
    }

    /// A subject or an object: a `[ predicateObjectList ]` in Turtle, which
    /// asserts its triples and stands for a fresh node, or one term.
    fn node(
        &mut self,
        graph: &mut Graph,
        staged: &mut Vec<Triple>,
        subject: bool,
    ) -> Result<Term, ParseError> {
        if self.mode == Mode::Turtle && self.tokens.eat(&Token::LBracket) {
            let node = self.fresh_blank();
            if !self.tokens.eat(&Token::RBracket) {
                self.predicate_objects(&node, &Token::RBracket, graph, staged)?;
            }
            return Ok(node);
        }
        let at = self.tokens.position();
        let term = self.term(false)?;
        if subject && term.is_literal() {
            return Err(ParseError::new(
                at.0,
                at.1,
                "expected subject (IRI or blank node)",
            ));
        }
        Ok(term)
    }

    fn predicate(&mut self) -> Result<Term, ParseError> {
        let at = self.tokens.position();
        let term = self.term(true)?;
        if !term.is_iri() {
            return Err(ParseError::new(at.0, at.1, "expected predicate IRI"));
        }
        Ok(term)
    }

    /// One term; N-Triples admits no bare numerals, booleans or `a` (and,
    /// with no prefixes declared, no prefixed names).
    fn term(&mut self, predicate: bool) -> Result<Term, ParseError> {
        if self.mode == Mode::NTriples
            && matches!(
                self.tokens.peek(),
                Some(Token::Numeric(_) | Token::Keyword(_))
            )
        {
            return Err(self
                .tokens
                .error("bare numerals and names are not allowed in N-Triples"));
        }
        self.tokens.term(&self.syntax, predicate)
    }
}

/// Interns the three terms and stages the encoded triple for the one-shot
/// bulk insertion at the end of the parse.
fn stage(graph: &mut Graph, staged: &mut Vec<Triple>, s: &Term, p: &Term, o: &Term) {
    let t = Triple::new(graph.encode(s), graph.encode(p), graph.encode(o));
    staged.push(t);
}

// The tests below name literals and the vocabulary through `super::*`.
#[cfg(test)]
use crate::{term::Literal, vocab};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::TriplePattern;

    #[test]
    fn ntriples_basic() {
        let g = parse_ntriples(
            "<user1> <hasAge> \"28\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
             <user1> <livesIn> \"Madrid\" .\n\
             _:b0 <knows> <user1> .\n",
        )
        .unwrap();
        assert_eq!(g.len(), 3);
        assert!(g.contains(
            &Term::iri("user1"),
            &Term::iri("hasAge"),
            &Term::integer(28)
        ));
        assert!(g.contains(&Term::blank("b0"), &Term::iri("knows"), &Term::iri("user1")));
    }

    #[test]
    fn ntriples_rejects_turtle_sugar() {
        assert!(parse_ntriples("@prefix ex: <http://e/> .").is_err());
        assert!(parse_ntriples("<a> <p> 28 .").is_err());
        assert!(parse_ntriples("ex:a <p> <o> .").is_err());
    }

    #[test]
    fn turtle_prefixes_and_a_keyword() {
        let g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n\
             ex:user1 a ex:Blogger ;\n\
                ex:hasAge 28 ;\n\
                ex:livesIn \"Madrid\", \"Kyoto\" .\n",
        )
        .unwrap();
        assert_eq!(g.len(), 4);
        assert!(g.contains(
            &Term::iri("http://example.org/user1"),
            &Term::iri(vocab::RDF_TYPE),
            &Term::iri("http://example.org/Blogger")
        ));
        assert!(g.contains(
            &Term::iri("http://example.org/user1"),
            &Term::iri("http://example.org/livesIn"),
            &Term::literal("Kyoto")
        ));
    }

    #[test]
    fn turtle_default_rdf_prefix_is_preloaded() {
        let g = parse_turtle("<x> rdf:type <C> .").unwrap();
        assert!(g.contains(
            &Term::iri("x"),
            &Term::iri(vocab::RDF_TYPE),
            &Term::iri("C")
        ));
    }

    #[test]
    fn sparql_style_prefix() {
        let g = parse_turtle("PREFIX ex: <http://e/>\nex:s ex:p ex:o .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn numeric_literal_datatypes() {
        let g = parse_turtle("<s> <p> 28 . <s> <q> 3.5 . <s> <r> true .").unwrap();
        assert!(g.contains(&Term::iri("s"), &Term::iri("p"), &Term::integer(28)));
        assert!(g.contains(
            &Term::iri("s"),
            &Term::iri("q"),
            &Term::Literal(Literal::typed("3.5", vocab::XSD_DECIMAL))
        ));
        assert!(g.contains(
            &Term::iri("s"),
            &Term::iri("r"),
            &Term::Literal(Literal::boolean(true))
        ));
    }

    #[test]
    fn language_tags_and_datatyped_strings() {
        let g = parse_turtle("<s> <p> \"Bill\"@en . <s> <p> \"28\"^^xsd:integer .").unwrap();
        assert!(g.contains(
            &Term::iri("s"),
            &Term::iri("p"),
            &Term::Literal(Literal::lang("Bill", "en"))
        ));
        assert!(g.contains(&Term::iri("s"), &Term::iri("p"), &Term::integer(28)));
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let err = parse_turtle("nope:s <p> <o> .").unwrap_err();
        assert!(err.message.contains("unknown prefix"));
    }

    #[test]
    fn missing_dot_is_an_error() {
        assert!(parse_turtle("<s> <p> <o>").is_err());
    }

    #[test]
    fn dangling_semicolon_is_legal() {
        let g = parse_turtle("<s> <p> <o> ; .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn parse_into_accumulates() {
        let mut g = parse_turtle("<s> <p> <o> .").unwrap();
        parse_into("<s2> <p> <o> .", &mut g).unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn duplicate_triples_collapse() {
        let g = parse_turtle("<s> <p> <o> . <s> <p> <o> .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn anonymous_blank_node_objects() {
        // user1 has an address node with two properties.
        let g = parse_turtle("<user1> <address> [ <street> \"Main St\" ; <city> \"Madrid\" ] .")
            .unwrap();
        assert_eq!(g.len(), 3);
        let addr = g.matching(crate::triple::TriplePattern::new(
            g.dict().iri_id("user1"),
            g.dict().iri_id("address"),
            None,
        ))[0]
            .o;
        assert!(g.dict().term(addr).is_blank());
        let street = g.dict().iri_id("street").unwrap();
        assert_eq!(g.objects(addr, street).count(), 1);
    }

    #[test]
    fn anonymous_blank_node_subject_and_nesting() {
        let g = parse_turtle(
            "[ <p> <a> ] <q> <b> .\n\
             <x> <r> [ <s> [ <t> 1 ] ] .",
        )
        .unwrap();
        // [p a], [q b] on one node (2) + x→r→anon→s→anon→t→1 chain (3).
        assert_eq!(g.len(), 5);
        // Distinct [..] occurrences yield distinct nodes.
        let blanks: std::collections::HashSet<_> = g
            .triples()
            .flat_map(|t| [t.s, t.o])
            .filter(|&id| g.dict().term(id).is_blank())
            .collect();
        assert_eq!(blanks.len(), 3);
    }

    #[test]
    fn empty_anonymous_node_and_object_lists() {
        let g = parse_turtle("<x> <knows> [], [ <name> \"B\" ] .").unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn unterminated_bracket_is_an_error() {
        assert!(parse_turtle("<x> <p> [ <q> <y> .").is_err());
        assert!(parse_ntriples("<x> <p> [ <q> <y> ] .").is_err());
    }

    #[test]
    fn full_scan_matches_inserted_data() {
        let g = parse_turtle("<s> <p> <o1>, <o2>, <o3> .").unwrap();
        assert_eq!(g.matching(TriplePattern::default()).len(), 3);
    }
}
