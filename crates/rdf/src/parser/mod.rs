//! Parsers for RDF serializations, and the term syntax every textual input
//! shares.
//!
//! Two entry points, sharing one tokenizer and one grammar engine:
//!
//! * [`parse_ntriples`] — strict triple-per-line form: IRIs, blank nodes and
//!   literals only; no prefixes, no abbreviations.
//! * [`parse_turtle`] — a practical Turtle subset: `@prefix`/`PREFIX`
//!   directives, prefixed names, the `a` keyword, `;`/`,` predicate and
//!   object lists, bare numeric and boolean literals, and anonymous blank
//!   nodes `[...]`. (Collections `(...)` are not needed by any workload in
//!   this repository and are rejected with a clear error.)
//!
//! # Term syntax
//!
//! Turtle and N-Triples documents, the paper's rule notation
//! (`rdfcube_engine::parse_query`), the SPARQL subset
//! (`rdfcube_engine::parse_sparql`) and the console's `slice`/`dice` values
//! are all read by one [`lexer`] and one term reader, [`Tokens::term`], so a
//! term means the same in each: `<iri>` (no whitespace inside);
//! `prefix:local` against the grammar's prefixes, `rdf:`, `rdfs:` and `xsd:`
//! predeclared; `_:label`; `"string"` with `\` escapes and an optional
//! `@lang` or `^^datatype`; numerals in Turtle's INTEGER, DECIMAL and DOUBLE
//! forms (`28`, `-3.5`, `1e6`), typed `xsd:integer`, `xsd:decimal` and
//! `xsd:double`, where a `.` belongs to the numeral only when a digit follows
//! (`28.` is 28, then the statement's end) and `-`, `1-2` or `1e` are errors;
//! `true` and `false`; `a` for `rdf:type` in predicate position; `#`
//! comments. Each grammar adds one thing. N-Triples takes only `<iri>`,
//! `_:label` and quoted literals. Turtle adds `@prefix` and `[ … ]`. The rule
//! notation reads a bare name (`Blogger`) as the IRI `<Blogger>`, `?name` as
//! a variable and `:-` or `<-` before the body; the console reads its values
//! the same way. SPARQL adds `PREFIX`, `SELECT`, `WHERE { … }` and
//! `GROUP BY`.

pub mod lexer;
mod turtle;

use crate::error::ParseError;
use crate::fx::FxHashMap;
use crate::term::{Literal, Term};
use crate::vocab;
use lexer::{tokenize, Spanned, Token};

pub use turtle::{parse_into, parse_ntriples, parse_turtle};

/// What a grammar's terms admit beyond the shared syntax: its prefixes, and
/// whether a bare name reads as an IRI.
#[derive(Debug, Clone)]
pub struct TermSyntax {
    prefixes: FxHashMap<String, String>,
    bare_names: bool,
}

impl TermSyntax {
    /// Turtle's and SPARQL's: the `rdf:`, `rdfs:` and `xsd:` prefixes.
    pub fn turtle() -> Self {
        TermSyntax {
            prefixes: vocab::DEFAULT_PREFIXES
                .iter()
                .map(|(p, ns)| (p.to_string(), ns.to_string()))
                .collect(),
            bare_names: false,
        }
    }

    /// The paper's rule notation: Turtle's, and a bare name `Blogger` is the
    /// IRI `<Blogger>`.
    pub fn rules() -> Self {
        TermSyntax {
            bare_names: true,
            ..TermSyntax::turtle()
        }
    }

    /// N-Triples': no prefixes.
    fn ntriples() -> Self {
        TermSyntax {
            prefixes: FxHashMap::default(),
            bare_names: false,
        }
    }

    /// The IRI a token names: `<iri>`, `prefix:local`, or a bare name where
    /// the grammar admits one.
    fn iri(&self, token: Token, (line, column): (usize, usize)) -> Result<String, ParseError> {
        let message = match token {
            Token::Iri(iri) => return Ok(iri),
            Token::PrefixedName { prefix, local } => match self.prefixes.get(&prefix) {
                Some(ns) => return Ok(format!("{ns}{local}")),
                None => format!("unknown prefix '{prefix}:'"),
            },
            Token::Keyword(name) if self.bare_names => return Ok(name),
            Token::Keyword(name) => format!("bare name '{name}'; use a prefixed name or <IRI>"),
            other => format!("expected a term, found {other:?}"),
        };
        Err(ParseError::new(line, column, message))
    }
}

/// A cursor over the tokens of one input, the stream every grammar reads.
pub struct Tokens {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Tokens {
    /// Tokenizes the whole of `input`.
    pub fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Tokens {
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    /// The next token, if any.
    pub fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    /// Consumes and returns the next token.
    pub fn bump(&mut self) -> Option<Token> {
        let token = self.peek()?.clone();
        self.pos += 1;
        Some(token)
    }

    /// True when every token has been read.
    pub fn at_end(&self) -> bool {
        self.pos == self.tokens.len()
    }

    /// Consumes the next token if it is `token`.
    pub fn eat(&mut self, token: &Token) -> bool {
        let hit = self.peek() == Some(token);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes the next token if it is the bare name `keyword`, in any case.
    pub fn eat_keyword(&mut self, keyword: &str) -> bool {
        let hit = matches!(self.peek(), Some(Token::Keyword(w)) if w.eq_ignore_ascii_case(keyword));
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `token`, or fails with "expected {what}".
    pub fn expect(&mut self, token: &Token, what: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    /// Consumes a `?name` variable and returns its name.
    pub fn var(&mut self) -> Option<String> {
        let Some(Token::Var(name)) = self.peek() else {
            return None;
        };
        let name = name.clone();
        self.pos += 1;
        Some(name)
    }

    /// Consumes a bare name and returns it.
    pub fn name(&mut self) -> Option<String> {
        let Some(Token::Keyword(name)) = self.peek() else {
            return None;
        };
        let name = name.clone();
        self.pos += 1;
        Some(name)
    }

    /// The 1-based line and column of the next token, or of the last one at
    /// the end of the input.
    pub fn position(&self) -> (usize, usize) {
        let at = self.tokens.get(self.pos).or(self.tokens.last());
        at.map_or((1, 1), |s| (s.line, s.column))
    }

    /// An error at the next token.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, column) = self.position();
        ParseError::new(line, column, message)
    }

    /// Reads the `p: <namespace>` of a prefix declaration into `syntax`.
    pub fn prefix_declaration(&mut self, syntax: &mut TermSyntax) -> Result<(), ParseError> {
        match (self.bump(), self.bump()) {
            (Some(Token::PrefixedName { prefix, local }), Some(Token::Iri(ns)))
                if local.is_empty() =>
            {
                syntax.prefixes.insert(prefix, ns);
                Ok(())
            }
            _ => Err(self.error("expected 'prefix: <namespace>' in a prefix declaration")),
        }
    }

    /// Reads one constant term in `syntax`; `predicate` says it stands
    /// where `a` abbreviates `rdf:type`.
    pub fn term(&mut self, syntax: &TermSyntax, predicate: bool) -> Result<Term, ParseError> {
        let at = self.position();
        let Some(token) = self.bump() else {
            return Err(self.error("expected a term, found the end of the input"));
        };
        Ok(match token {
            Token::StringLiteral(body) => Term::Literal(match self.peek() {
                Some(Token::At(tag)) => {
                    let literal = Literal::lang(body, tag.as_str());
                    self.pos += 1;
                    literal
                }
                Some(Token::Carets) => {
                    self.pos += 1;
                    let at = self.position();
                    let Some(datatype) = self.bump() else {
                        return Err(self.error("expected a datatype IRI after '^^'"));
                    };
                    Literal::typed(body, syntax.iri(datatype, at)?)
                }
                _ => Literal::plain(body),
            }),
            Token::Numeric(n) => {
                let datatype = if n.contains(['e', 'E']) {
                    vocab::XSD_DOUBLE
                } else if n.contains('.') {
                    vocab::XSD_DECIMAL
                } else {
                    vocab::XSD_INTEGER
                };
                Term::Literal(Literal::typed(n, datatype))
            }
            Token::BlankNode(label) => Term::blank(label),
            Token::Keyword(word) if word == "true" || word == "false" => {
                Term::Literal(Literal::typed(word, vocab::XSD_BOOLEAN))
            }
            Token::Keyword(word) if predicate && word == "a" => Term::iri(vocab::RDF_TYPE),
            other => Term::iri(syntax.iri(other, at)?),
        })
    }
}
