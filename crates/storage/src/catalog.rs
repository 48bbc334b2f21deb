//! A minimal named-table catalog.

use crate::table::Table;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Named collection of tables; the engine resolves scan operators
/// against it. `BTreeMap` keeps iteration deterministic.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table under its own name, replacing any previous
    /// table with that name.
    pub fn register(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Looks a table up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Looks a table up, panicking with a listing of known tables —
    /// mis-wired plans are programming errors.
    pub fn expect(&self, name: &str) -> &Arc<Table> {
        #[expect(
            clippy::panic,
            reason = "documented lookup-or-panic helper; get() is the fallible twin"
        )]
        self.get(name).unwrap_or_else(|| {
            panic!(
                "no table '{name}' in catalog (have: {:?})",
                self.tables.keys().collect::<Vec<_>>()
            )
        })
    }

    /// Iterates `(name, table)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Table>)> {
        self.tables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total bytes across all tables.
    pub fn byte_size(&self) -> usize {
        self.tables.values().map(|t| t.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn tiny(name: &str) -> Arc<Table> {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut b = TableBuilder::new(name, schema);
        b.push_row(&[Value::Int(1)]);
        b.finish()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.tables.is_empty());
        c.register(tiny("orders"));
        c.register(tiny("lineitem"));
        assert_eq!(c.tables.len(), 2);
        assert!(c.get("orders").is_some());
        assert!(c.get("nation").is_none());
        assert_eq!(c.expect("lineitem").row_count(), 1);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = Catalog::new();
        c.register(tiny("zeta"));
        c.register(tiny("alpha"));
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn reregister_replaces() {
        let mut c = Catalog::new();
        c.register(tiny("t"));
        c.register(tiny("t"));
        assert_eq!(c.tables.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no table 'ghost'")]
    fn expect_missing_panics() {
        Catalog::new().expect("ghost");
    }
}
