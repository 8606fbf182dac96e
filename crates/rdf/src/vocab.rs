//! Well-known RDF, RDFS and XSD vocabulary IRIs.
//!
//! Only the handful of IRIs the framework actually interprets are listed:
//! `rdf:type` (class membership in analytical schema instances) and the four
//! RDFS properties the saturation rules of [`crate::reasoner`] implement.

/// `rdf:type` — asserts class membership.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// `rdfs:subClassOf`.
pub const RDFS_SUBCLASSOF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";

/// `rdfs:subPropertyOf`.
pub const RDFS_SUBPROPERTYOF: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";

/// `rdfs:domain`.
pub const RDFS_DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";

/// `rdfs:range`.
pub const RDFS_RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";

/// `xsd:integer`.
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";

/// `xsd:double`.
pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";

/// `xsd:decimal`.
pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";

/// `xsd:boolean`.
pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";

/// `xsd:string`.
pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";

/// Namespace prefixes predeclared in Turtle, the rule notation and SPARQL:
/// `(prefix, namespace)`.
pub const DEFAULT_PREFIXES: &[(&str, &str)] = &[
    ("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"),
    ("rdfs", "http://www.w3.org/2000/01/rdf-schema#"),
    ("xsd", "http://www.w3.org/2001/XMLSchema#"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdfs_constants_are_in_rdfs_namespace() {
        for iri in [RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDFS_DOMAIN, RDFS_RANGE] {
            assert!(iri.starts_with("http://www.w3.org/2000/01/rdf-schema#"));
        }
    }
}
