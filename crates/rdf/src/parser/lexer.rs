//! The tokenizer behind every textual input: N-Triples, Turtle, the paper's
//! rule notation, the SPARQL subset and the console's values. It is the only
//! code that reads the characters of a term (see the module docs of
//! [`crate::parser`] for the syntax they share).

use crate::error::ParseError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// `<iri>`
    Iri(String),
    /// `prefix:local` (prefix may be empty: `:local`)
    PrefixedName {
        /// The prefix part (before the colon).
        prefix: String,
        /// The local part (after the colon).
        local: String,
    },
    /// A bare name: `a`, `true`, a SPARQL keyword, or a rule's IRI.
    Keyword(String),
    /// `_:label`
    BlankNode(String),
    /// String literal body (unescaped), without language/datatype suffix.
    StringLiteral(String),
    /// `@tag` — language tag or `@prefix` directive marker.
    At(String),
    /// `^^` datatype marker.
    Carets,
    /// A numeral in Turtle's INTEGER, DECIMAL or DOUBLE form, e.g. `28`,
    /// `-3.5`, `1e6`.
    Numeric(String),
    /// `?name`, a query variable.
    Var(String),
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `[` — opens an anonymous blank node property list (Turtle only).
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `:-` or `<-`, between a rule's head and its body.
    Arrow,
}

/// A token with its source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token itself.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
}

/// Streaming tokenizer over the input text.
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
    column: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    /// The character after the next one.
    fn peek_second(&self) -> Option<char> {
        self.input[self.pos..].chars().nth(1)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.column, msg)
    }

    fn skip_ws_and_comments(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.bump();
            } else if c == '#' {
                while let Some(c) = self.bump() {
                    if c == '\n' {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }

    /// Produces the next token, or `None` at end of input.
    pub fn next_token(&mut self) -> Result<Option<Spanned>, ParseError> {
        self.skip_ws_and_comments();
        let (line, column) = (self.line, self.column);
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let second = self.peek_second();
        let token = match c {
            // An IRI admits no whitespace, so `<-` followed by whitespace or
            // the end of the input is the arrow.
            '<' if second == Some('-')
                && self.input[self.pos + 2..]
                    .chars()
                    .next()
                    .is_none_or(char::is_whitespace) =>
            {
                self.punct(2, Token::Arrow)
            }
            ':' if second == Some('-') => self.punct(2, Token::Arrow),
            '<' => {
                self.bump();
                let mut iri = String::new();
                loop {
                    match self.bump() {
                        Some('>') => break,
                        Some(ch) if ch.is_whitespace() => {
                            return Err(self.error("whitespace inside IRI"))
                        }
                        Some(ch) => iri.push(ch),
                        None => return Err(self.error("unterminated IRI")),
                    }
                }
                Token::Iri(iri)
            }
            '_' => {
                self.bump();
                if self.bump() != Some(':') {
                    return Err(self.error("expected ':' after '_' in blank node"));
                }
                let label = self.take_name();
                if label.is_empty() {
                    return Err(self.error("blank node label must not be empty"));
                }
                Token::BlankNode(label)
            }
            '?' => {
                self.bump();
                let name = self.take_name();
                if name.is_empty() {
                    return Err(self.error("expected variable name after '?'"));
                }
                Token::Var(name)
            }
            '"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some('"') => break,
                        Some('\\') => match self.bump() {
                            Some('n') => s.push('\n'),
                            Some('r') => s.push('\r'),
                            Some('t') => s.push('\t'),
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('u') => s.push(self.unicode_escape(4)?),
                            Some('U') => s.push(self.unicode_escape(8)?),
                            Some(other) => {
                                return Err(self.error(format!("bad escape '\\{other}'")))
                            }
                            None => return Err(self.error("unterminated string escape")),
                        },
                        Some(ch) => s.push(ch),
                        None => return Err(self.error("unterminated string literal")),
                    }
                }
                Token::StringLiteral(s)
            }
            '@' => {
                self.bump();
                let word = self.take_name();
                if word.is_empty() {
                    return Err(self.error("expected a word after '@'"));
                }
                Token::At(word)
            }
            '^' => {
                self.bump();
                if self.bump() != Some('^') {
                    return Err(self.error("expected '^^'"));
                }
                Token::Carets
            }
            '.' if !second.is_some_and(|d| d.is_ascii_digit()) => self.punct(1, Token::Dot),
            ';' => self.punct(1, Token::Semicolon),
            ',' => self.punct(1, Token::Comma),
            '[' => self.punct(1, Token::LBracket),
            ']' => self.punct(1, Token::RBracket),
            '(' => self.punct(1, Token::LParen),
            ')' => self.punct(1, Token::RParen),
            '{' => self.punct(1, Token::LBrace),
            '}' => self.punct(1, Token::RBrace),
            c if c.is_ascii_digit() || matches!(c, '-' | '+' | '.') => self.numeral()?,
            c if is_name_start(c) => {
                let name = self.take_name();
                if self.peek() == Some(':') {
                    self.bump();
                    let local = self.take_name();
                    Token::PrefixedName {
                        prefix: name,
                        local,
                    }
                } else {
                    Token::Keyword(name)
                }
            }
            ':' => {
                self.bump();
                let local = self.take_name();
                Token::PrefixedName {
                    prefix: String::new(),
                    local,
                }
            }
            other => return Err(self.error(format!("unexpected character '{other}'"))),
        };
        Ok(Some(Spanned {
            token,
            line,
            column,
        }))
    }

    /// Consumes the `len` ASCII characters of a punctuation token.
    fn punct(&mut self, len: usize, token: Token) -> Token {
        for _ in 0..len {
            self.bump();
        }
        token
    }

    /// Turtle's `[+-]? ( [0-9]+ | [0-9]* '.' [0-9]+ ) ( [eE] [+-]? [0-9]+ )?`.
    /// A `.` belongs to the numeral only when a digit follows it, so `28.`
    /// is the integer 28 and a statement's end.
    fn numeral(&mut self) -> Result<Token, ParseError> {
        let start = self.pos;
        if matches!(self.peek(), Some('-' | '+')) {
            self.bump();
        }
        let mut digits = self.digits();
        if self.peek() == Some('.') && self.peek_second().is_some_and(|d| d.is_ascii_digit()) {
            self.bump();
            digits += self.digits();
        }
        if digits == 0 {
            return Err(self.error("expected digits in a number"));
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.bump();
            if matches!(self.peek(), Some('-' | '+')) {
                self.bump();
            }
            if self.digits() == 0 {
                return Err(self.error("expected digits in an exponent"));
            }
        }
        if self.peek().is_some_and(|c| is_name_char(c) || c == '+') {
            return Err(self.error("malformed number"));
        }
        Ok(Token::Numeric(self.input[start..self.pos].to_string()))
    }

    /// Consumes a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let mut n = 0;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            n += 1;
        }
        n
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut code = 0u32;
        for _ in 0..digits {
            let Some(c) = self.bump() else {
                return Err(self.error("unterminated unicode escape"));
            };
            let Some(d) = c.to_digit(16) else {
                return Err(self.error("non-hex digit in unicode escape"));
            };
            code = code * 16 + d;
        }
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))
    }

    fn take_name(&mut self) -> String {
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if is_name_char(c) {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        name
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// Tokenizes the whole input eagerly.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut lexer = Lexer::new(input);
    let mut out = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        out.push(tok);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn iris_blanks_and_dots() {
        assert_eq!(
            toks("<http://a> <p> _:b0 ."),
            vec![
                Token::Iri("http://a".into()),
                Token::Iri("p".into()),
                Token::BlankNode("b0".into()),
                Token::Dot
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(
            toks(r#""he said \"hi\"\n""#),
            vec![Token::StringLiteral("he said \"hi\"\n".into())]
        );
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(toks(r#""é""#), vec![Token::StringLiteral("é".into())]);
    }

    #[test]
    fn control_character_escapes_round_trip() {
        // The writer emits \uXXXX for unnamed C0 controls and DEL
        // (see `term::escape_literal`); the lexer must take them back.
        assert_eq!(
            toks(r#""a\u0000b\u0001c\u001Fd\u007Fe""#),
            vec![Token::StringLiteral("a\u{0}b\u{1}c\u{1F}d\u{7F}e".into())]
        );
        // Lowercase hex digits and long-form \U are accepted too.
        assert_eq!(
            toks(r#""\u001f\U0000007F""#),
            vec![Token::StringLiteral("\u{1F}\u{7F}".into())]
        );
    }

    #[test]
    fn language_and_datatype_markers() {
        assert_eq!(
            toks(r#""x"@en "#),
            vec![Token::StringLiteral("x".into()), Token::At("en".into())]
        );
        assert_eq!(
            toks(r#""28"^^<int>"#),
            vec![
                Token::StringLiteral("28".into()),
                Token::Carets,
                Token::Iri("int".into())
            ]
        );
    }

    #[test]
    fn numbers_vs_statement_dot() {
        assert_eq!(toks("28 ."), vec![Token::Numeric("28".into()), Token::Dot]);
        assert_eq!(
            toks("3.5 ."),
            vec![Token::Numeric("3.5".into()), Token::Dot]
        );
        // `28.` — the dot terminates the statement, not the number.
        assert_eq!(toks("28."), vec![Token::Numeric("28".into()), Token::Dot]);
    }

    #[test]
    fn prefixed_names_and_keywords() {
        assert_eq!(
            toks("rdf:type a foaf:Person"),
            vec![
                Token::PrefixedName {
                    prefix: "rdf".into(),
                    local: "type".into()
                },
                Token::Keyword("a".into()),
                Token::PrefixedName {
                    prefix: "foaf".into(),
                    local: "Person".into()
                },
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("# header\n<a> # trailing\n<b>"),
            vec![Token::Iri("a".into()), Token::Iri("b".into())]
        );
    }

    #[test]
    fn error_positions_are_reported() {
        let err = tokenize("<a>\n  <unterminated").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unterminated IRI"));
    }

    #[test]
    fn punctuation() {
        assert_eq!(toks("; ,"), vec![Token::Semicolon, Token::Comma]);
    }

    #[test]
    fn rule_and_query_tokens() {
        assert_eq!(
            toks("c(?x) :- ?x a B . { }"),
            vec![
                Token::Keyword("c".into()),
                Token::LParen,
                Token::Var("x".into()),
                Token::RParen,
                Token::Arrow,
                Token::Var("x".into()),
                Token::Keyword("a".into()),
                Token::Keyword("B".into()),
                Token::Dot,
                Token::LBrace,
                Token::RBrace,
            ]
        );
        assert!(tokenize("? x").is_err());
    }

    #[test]
    fn arrow_is_never_an_iri() {
        // No IRI holds whitespace, so `<-` before whitespace is the arrow.
        assert_eq!(toks("<- ?x"), vec![Token::Arrow, Token::Var("x".into())]);
        assert_eq!(toks("<-"), vec![Token::Arrow]);
        assert_eq!(toks("<-x>"), vec![Token::Iri("-x".into())]);
        assert!(tokenize("<a b>").is_err());
    }

    #[test]
    fn numerals_take_turtle_forms_only() {
        for numeral in [
            "28", "-7", "+7", "3.5", ".5", "-0.5", "1e3", "1.5E-3", "-.5e+2",
        ] {
            assert_eq!(toks(numeral), vec![Token::Numeric(numeral.into())]);
        }
        assert_eq!(
            toks("1,2"),
            vec![
                Token::Numeric("1".into()),
                Token::Comma,
                Token::Numeric("2".into())
            ]
        );
        for bad in ["-", "+", "-.", "1-2", "1+2", "1e", "1e+", "28x", "1.5.3e"] {
            assert!(tokenize(bad).is_err(), "lexed {bad:?}");
        }
    }
}
