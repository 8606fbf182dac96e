//! Helpers shared by integration tests (`mod common;`).

use rdfcube::prelude::*;
use rdfcube::TermId;
use std::collections::BTreeMap;

/// A measure tuple and the cells it contributes to.
pub type KeyClass = (TermId, TermId, Vec<Vec<TermId>>);

/// What each key of `pres` stands for. Two tables are equal up to a
/// bijective renaming of keys exactly when these multisets are equal.
pub fn key_classes(pres: &PartialResult) -> Vec<KeyClass> {
    let mut by_key: BTreeMap<u32, KeyClass> = BTreeMap::new();
    for row in pres.rows() {
        let class = by_key
            .entry(row.key)
            .or_insert_with(|| (row.root, row.value, Vec::new()));
        assert_eq!(
            (class.0, class.1),
            (row.root, row.value),
            "a key names one tuple"
        );
        class.2.push(row.dims.to_vec());
    }
    let mut classes: Vec<KeyClass> = by_key.into_values().collect();
    classes.sort();
    classes
}
