//! A scriptable console for RDF analytics sessions.
//!
//! Drives the whole stack — loading, saturation, schema definition,
//! instance materialization, cubes and OLAP operations — from a small
//! line-oriented command language, so analyses can be kept as scripts and
//! replayed. The `rdfcube` binary wraps this interpreter; it is exposed as
//! a library module so applications (and the test suite) can embed it.
//!
//! ```text
//! load data.ttl               # parse Turtle into the base graph
//! saturate                    # RDFS closure
//! node Blogger n(?x) :- ?x rdf:type Person
//! edge hasAge Blogger Age e(?x, ?a) :- ?x age ?a
//! materialize                 # build the AnS instance, open the session
//! instance                    # …or: use the base graph as the instance
//! cube Q1 count c(?x, ?d) :- ?x rdf:type Blogger, ?x hasAge ?d \
//!                | m(?x, ?v) :- ?x rdf:type Blogger, ?x wrotePost ?v
//! slice Q2 from Q1 d 28
//! dice Q3 from Q1 d 20..30
//! drillout Q4 from Q1 d
//! drillin Q5 from Q4 d
//! show Q2
//! stats
//! ```

use crate::core::{CoreError, CubeHandle, OlapOp, OlapSession, ValueSelector};
use crate::engine::AggFunc;
use crate::rdf::fx::FxHashMap;
use crate::rdf::parser::lexer::Token;
use crate::rdf::parser::{TermSyntax, Tokens};
use crate::{parse_turtle, saturate, AnalyticalSchema, Graph, Term};
use std::fmt;

/// An error from interpreting a script line.
#[derive(Debug)]
pub enum InterpError {
    /// The command or its arguments are malformed.
    Usage(String),
    /// A named cube does not exist.
    UnknownCube(String),
    /// The command is valid but cannot run in the current state
    /// (e.g. `cube` before `materialize`).
    State(String),
    /// I/O failure reading a file.
    Io(String),
    /// An underlying library error.
    Core(CoreError),
    /// An RDF parse error.
    Rdf(crate::rdf::ParseError),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Usage(m) => write!(f, "usage error: {m}"),
            InterpError::UnknownCube(c) => write!(f, "unknown cube '{c}'"),
            InterpError::State(m) => write!(f, "invalid state: {m}"),
            InterpError::Io(m) => write!(f, "io error: {m}"),
            InterpError::Core(e) => write!(f, "{e}"),
            InterpError::Rdf(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<CoreError> for InterpError {
    fn from(e: CoreError) -> Self {
        InterpError::Core(e)
    }
}

impl From<crate::rdf::ParseError> for InterpError {
    fn from(e: crate::rdf::ParseError) -> Self {
        InterpError::Rdf(e)
    }
}

/// The interpreter state machine.
#[derive(Default)]
pub struct Interpreter {
    base: Option<Graph>,
    schema: AnalyticalSchema,
    session: Option<OlapSession>,
    cubes: FxHashMap<String, CubeHandle>,
}

impl Interpreter {
    /// Creates an empty interpreter.
    pub fn new() -> Self {
        Interpreter {
            schema: AnalyticalSchema::new("script"),
            ..Default::default()
        }
    }

    /// Runs a whole script; returns the concatenated command outputs.
    /// Stops at the first error, reporting its 1-based line number.
    pub fn run_script(&mut self, script: &str) -> Result<String, (usize, InterpError)> {
        let mut out = String::new();
        let mut continuation = String::new();
        for (i, raw) in script.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Trailing backslash joins lines (for long cube definitions).
            if let Some(stripped) = line.strip_suffix('\\') {
                continuation.push_str(stripped);
                continuation.push(' ');
                continue;
            }
            let full = if continuation.is_empty() {
                line.to_string()
            } else {
                let mut s = std::mem::take(&mut continuation);
                s.push_str(line);
                s
            };
            match self.exec(&full) {
                Ok(text) => out.push_str(&text),
                Err(e) => return Err((i + 1, e)),
            }
        }
        Ok(out)
    }

    /// Executes one command, returning its textual output.
    pub fn exec(&mut self, line: &str) -> Result<String, InterpError> {
        let (cmd, rest) = split_word(line);
        match cmd {
            "load" => self.cmd_load(rest),
            "loadstr" => self.cmd_loadstr(rest),
            "saturate" => self.cmd_saturate(),
            "node" => self.cmd_node(rest),
            "edge" => self.cmd_edge(rest),
            "materialize" => self.cmd_materialize(),
            "instance" => self.cmd_instance(),
            "cube" => self.cmd_cube(rest),
            "slice" => self.cmd_slice(rest),
            "dice" => self.cmd_dice(rest),
            "drillout" => self.cmd_drill_out(rest),
            "drillin" => self.cmd_drill_in(rest),
            "rollup" => self.cmd_roll_up(rest),
            "show" => self.cmd_show(rest),
            "pres" => self.cmd_pres(rest),
            "stats" => self.cmd_stats(),
            "help" => Ok(HELP.to_string()),
            other => Err(InterpError::Usage(format!("unknown command '{other}'"))),
        }
    }

    fn cmd_load(&mut self, path: &str) -> Result<String, InterpError> {
        if path.is_empty() {
            return Err(InterpError::Usage("load <file.ttl>".into()));
        }
        let text =
            std::fs::read_to_string(path).map_err(|e| InterpError::Io(format!("{path}: {e}")))?;
        self.cmd_loadstr(&text)
    }

    fn cmd_loadstr(&mut self, text: &str) -> Result<String, InterpError> {
        let graph = parse_turtle(text)?;
        let n = graph.len();
        match &mut self.base {
            Some(base) => {
                let added = base.absorb(&graph);
                Ok(format!(
                    "loaded {added} new triples (base: {})\n",
                    base.len()
                ))
            }
            None => {
                self.base = Some(graph);
                Ok(format!("loaded {n} triples\n"))
            }
        }
    }

    fn cmd_saturate(&mut self) -> Result<String, InterpError> {
        let base = self
            .base
            .as_mut()
            .ok_or_else(|| InterpError::State("no base graph loaded".into()))?;
        let added = saturate(base);
        Ok(format!(
            "saturation added {added} triples (base: {})\n",
            base.len()
        ))
    }

    fn cmd_node(&mut self, rest: &str) -> Result<String, InterpError> {
        let (class, query) = split_word(rest);
        if class.is_empty() || query.is_empty() {
            return Err(InterpError::Usage("node <Class> <unary query>".into()));
        }
        self.schema.add_node(class, query);
        Ok(format!("node {class} declared\n"))
    }

    fn cmd_edge(&mut self, rest: &str) -> Result<String, InterpError> {
        let (prop, rest) = split_word(rest);
        let (from, rest) = split_word(rest);
        let (to, query) = split_word(rest);
        if prop.is_empty() || from.is_empty() || to.is_empty() || query.is_empty() {
            return Err(InterpError::Usage(
                "edge <prop> <From> <To> <binary query>".into(),
            ));
        }
        self.schema.add_edge(prop, from, to, query);
        Ok(format!("edge {prop}: {from} → {to} declared\n"))
    }

    fn cmd_materialize(&mut self) -> Result<String, InterpError> {
        let base = self
            .base
            .as_mut()
            .ok_or_else(|| InterpError::State("no base graph loaded".into()))?;
        let instance = self.schema.materialize(base)?;
        let n = instance.len();
        self.session = Some(OlapSession::new(instance));
        self.cubes.clear();
        Ok(format!(
            "materialized instance: {n} triples; session open\n"
        ))
    }

    fn cmd_instance(&mut self) -> Result<String, InterpError> {
        let base = self
            .base
            .take()
            .ok_or_else(|| InterpError::State("no base graph loaded".into()))?;
        let n = base.len();
        self.session = Some(OlapSession::new(base));
        self.cubes.clear();
        Ok(format!(
            "using base graph as instance: {n} triples; session open\n"
        ))
    }

    fn session(&mut self) -> Result<&mut OlapSession, InterpError> {
        self.session
            .as_mut()
            .ok_or_else(|| InterpError::State("no session; run 'materialize' or 'instance'".into()))
    }

    fn cube_handle(&self, name: &str) -> Result<CubeHandle, InterpError> {
        self.cubes
            .get(name)
            .copied()
            .ok_or_else(|| InterpError::UnknownCube(name.to_string()))
    }

    fn cmd_cube(&mut self, rest: &str) -> Result<String, InterpError> {
        let (name, rest) = split_word(rest);
        let (agg_word, rest) = split_word(rest);
        let agg = AggFunc::from_name(agg_word).ok_or_else(|| {
            InterpError::Usage(format!(
                "unknown aggregate '{agg_word}' (count, count_distinct, sum, avg, min, max)"
            ))
        })?;
        let Some((classifier, measure)) = rest.split_once('|') else {
            return Err(InterpError::Usage(
                "cube <name> <agg> <classifier> | <measure>".into(),
            ));
        };
        // Posed like any query, so a cube the session holds can serve it.
        let session = self.session()?;
        let eq = session.parse_query(classifier.trim(), measure.trim(), agg)?;
        let (handle, strategy) = session.answer_query(eq)?;
        let cells = session.answer(handle).len();
        self.cubes.insert(name.to_string(), handle);
        Ok(format!(
            "cube {name}: {cells} cells materialized via {strategy}\n"
        ))
    }

    fn transform(
        &mut self,
        rest: &str,
        build: impl FnOnce(&str) -> Result<OlapOp, InterpError>,
    ) -> Result<String, InterpError> {
        let (new_name, rest) = split_word(rest);
        let (from_kw, rest) = split_word(rest);
        let (old_name, args) = split_word(rest);
        if new_name.is_empty() || from_kw != "from" || old_name.is_empty() {
            return Err(InterpError::Usage("<op> <new> from <old> <args…>".into()));
        }
        let op = build(args)?;
        let old = self.cube_handle(old_name)?;
        let session = self.session()?;
        let (handle, strategy) = session.transform(old, &op)?;
        let cells = session.answer(handle).len();
        self.cubes.insert(new_name.to_string(), handle);
        Ok(format!("cube {new_name}: {cells} cells via {strategy}\n"))
    }

    fn cmd_slice(&mut self, rest: &str) -> Result<String, InterpError> {
        self.transform(rest, |args| {
            let (dim, value) = split_word(args);
            if dim.is_empty() || value.is_empty() {
                return Err(InterpError::Usage(
                    "slice <new> from <old> <dim> <value>".into(),
                ));
            }
            let [value] = <[Term; 1]>::try_from(parse_terms(value)?)
                .map_err(|_| InterpError::Usage("slice takes one value".into()))?;
            Ok(OlapOp::Slice {
                dim: dim.to_string(),
                value,
            })
        })
    }

    fn cmd_dice(&mut self, rest: &str) -> Result<String, InterpError> {
        self.transform(rest, |args| {
            let (dim, spec) = split_word(args);
            if dim.is_empty() || spec.is_empty() {
                return Err(InterpError::Usage(
                    "dice <new> from <old> <dim> <lo>..<hi> | <v1>,<v2>,…".into(),
                ));
            }
            let range = spec
                .split_once("..")
                .and_then(|(lo, hi)| Some((lo.parse().ok()?, hi.parse().ok()?)));
            let selector = match range {
                Some((lo, hi)) => ValueSelector::IntRange { lo, hi },
                None => ValueSelector::OneOf(parse_terms(spec)?),
            };
            Ok(OlapOp::Dice {
                constraints: vec![(dim.to_string(), selector)],
            })
        })
    }

    fn cmd_drill_out(&mut self, rest: &str) -> Result<String, InterpError> {
        self.transform(rest, |args| {
            let dims: Vec<String> = args.split_whitespace().map(str::to_string).collect();
            if dims.is_empty() {
                return Err(InterpError::Usage(
                    "drillout <new> from <old> <dim>…".into(),
                ));
            }
            Ok(OlapOp::DrillOut { dims })
        })
    }

    fn cmd_drill_in(&mut self, rest: &str) -> Result<String, InterpError> {
        self.transform(rest, |args| {
            let (var, extra) = split_word(args);
            if var.is_empty() || !extra.is_empty() {
                return Err(InterpError::Usage("drillin <new> from <old> <var>".into()));
            }
            Ok(OlapOp::DrillIn {
                var: var.to_string(),
            })
        })
    }

    fn cmd_roll_up(&mut self, rest: &str) -> Result<String, InterpError> {
        self.transform(rest, |args| {
            let (dim, rest) = split_word(args);
            let (via_kw, prop) = split_word(rest);
            if dim.is_empty() || via_kw != "via" || prop.is_empty() {
                return Err(InterpError::Usage(
                    "rollup <new> from <old> <dim> via <property>".into(),
                ));
            }
            Ok(OlapOp::RollUp {
                dim: dim.to_string(),
                via: prop.to_string(),
            })
        })
    }

    fn cmd_show(&mut self, rest: &str) -> Result<String, InterpError> {
        let (name, extra) = split_word(rest);
        if name.is_empty() || !extra.is_empty() {
            return Err(InterpError::Usage("show <cube>".into()));
        }
        let handle = self.cube_handle(name)?;
        let session = self.session()?;
        Ok(format!(
            "{name}:\n{}",
            session.answer(handle).to_table(session.instance().dict())
        ))
    }

    fn cmd_pres(&mut self, rest: &str) -> Result<String, InterpError> {
        let (name, extra) = split_word(rest);
        if name.is_empty() || !extra.is_empty() {
            return Err(InterpError::Usage("pres <cube>".into()));
        }
        let handle = self.cube_handle(name)?;
        let session = self.session()?;
        let pres = session.cube(handle).pres();
        Ok(format!(
            "pres({name}): {} rows, {} heads, {} facts, ≈{} bytes\n",
            pres.len(),
            pres.n_heads(),
            pres.n_facts(),
            pres.approx_bytes()
        ))
    }

    fn cmd_stats(&mut self) -> Result<String, InterpError> {
        let mut out = String::new();
        if let Some(base) = &self.base {
            out.push_str(&format!(
                "base: {} triples, {} terms\n",
                base.len(),
                base.dict().len()
            ));
        }
        if let Some(session) = &self.session {
            out.push_str(&format!(
                "instance: {} triples, {} terms; {} cubes materialized, {} bytes resident\n",
                session.instance().len(),
                session.instance().dict().len(),
                session.len(),
                session.catalog().resident_bytes()
            ));
        }
        if out.is_empty() {
            out.push_str("nothing loaded\n");
        }
        Ok(out)
    }
}

/// First whitespace-delimited word and the trimmed remainder.
fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim_start()),
        None => (s, ""),
    }
}

/// A comma-separated list of terms, read as the rule notation reads them
/// (a bare name is an IRI).
fn parse_terms(text: &str) -> Result<Vec<Term>, InterpError> {
    let mut tokens = Tokens::new(text)?;
    let syntax = TermSyntax::rules();
    let mut terms = vec![tokens.term(&syntax, false)?];
    while tokens.eat(&Token::Comma) {
        terms.push(tokens.term(&syntax, false)?);
    }
    if !tokens.at_end() {
        return Err(tokens.error("expected ',' between values").into());
    }
    Ok(terms)
}

const HELP: &str = "\
commands:
  load <file.ttl>                     parse Turtle into the base graph
  loadstr <turtle…>                   parse inline Turtle
  saturate                            RDFS closure of the base graph
  node <Class> <unary query>          declare an analysis class
  edge <prop> <From> <To> <query>     declare an analysis property
  materialize                         build the AnS instance, open a session
  instance                            use the base graph as the instance
  cube <name> <agg> <classifier> | <measure>
  slice <new> from <old> <dim> <value>
  dice <new> from <old> <dim> <lo>..<hi> | <v1>,<v2>,…
  drillout <new> from <old> <dim>…
  drillin <new> from <old> <var>
  rollup <new> from <old> <dim> via <property>
  show <cube>     pres <cube>     stats     help
";
