//! Error types for the query engine.

use std::fmt;

/// Errors raised while parsing, validating or evaluating BGP queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Textual query could not be parsed.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// The query is structurally invalid (e.g. head variable missing from
    /// the body, or a non-rooted query where a rooted one is required).
    Validation(String),
    /// An aggregation was applied to values it cannot handle
    /// (e.g. `sum` over city names).
    NonNumericAggregate(String),
    /// Relational operands are incompatible (schema mismatch on union,
    /// unknown column in a projection, …).
    Schema(String),
    /// A worker thread of a parallel BGP step panicked; the payload's
    /// message. The query fails, the process goes on.
    WorkerPanicked(String),
}

impl EngineError {
    pub(crate) fn parse(line: usize, column: usize, message: impl Into<String>) -> Self {
        EngineError::Parse {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse {
                line,
                column,
                message,
            } => {
                write!(f, "query parse error at {line}:{column}: {message}")
            }
            EngineError::Validation(m) => write!(f, "invalid query: {m}"),
            EngineError::NonNumericAggregate(m) => write!(f, "non-numeric aggregate: {m}"),
            EngineError::Schema(m) => write!(f, "schema error: {m}"),
            EngineError::WorkerPanicked(m) => write!(f, "BGP evaluation worker panicked: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EngineError::parse(1, 2, "oops").to_string().contains("1:2"));
        assert!(EngineError::Validation("v".into())
            .to_string()
            .contains("invalid query"));
        assert!(EngineError::NonNumericAggregate("x".into())
            .to_string()
            .contains("non-numeric"));
        assert!(EngineError::Schema("s".into())
            .to_string()
            .contains("schema"));
        assert!(EngineError::WorkerPanicked("w".into())
            .to_string()
            .contains("worker panicked: w"));
    }
}
