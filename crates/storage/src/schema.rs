//! Schemas: ordered, named, fixed-width fields with precomputed byte
//! offsets for page layout.

use std::sync::Arc;

/// Storage type of one field. All types are fixed-width so a page holds
/// `floor(page_size / row_width)` rows with O(1) random access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer (8 bytes).
    Int,
    /// 64-bit IEEE float (8 bytes).
    Float,
    /// Calendar date, days since epoch (4 bytes).
    Date,
    /// Space-padded string of exactly `N` bytes.
    Str(usize),
}

impl DataType {
    /// Width of the field in bytes.
    pub fn width(self) -> usize {
        match self {
            DataType::Int | DataType::Float => 8,
            DataType::Date => 4,
            DataType::Str(n) => n,
        }
    }
}

/// One named field in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (TPC-H style, e.g. `l_shipdate`).
    pub name: String,
    /// Storage type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered set of fields with precomputed offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    offsets: Vec<usize>,
    row_width: usize,
}

impl Schema {
    /// Builds a schema from fields, computing the packed row layout.
    ///
    /// # Panics
    ///
    /// Panics on duplicate field names or an empty field list.
    pub fn new(fields: Vec<Field>) -> Arc<Self> {
        assert!(!fields.is_empty(), "schema needs at least one field");
        let mut offsets = Vec::with_capacity(fields.len());
        let mut off = 0;
        for (i, f) in fields.iter().enumerate() {
            assert!(
                !fields[..i].iter().any(|g| g.name == f.name),
                "duplicate field name '{}'",
                f.name
            );
            offsets.push(off);
            off += f.dtype.width();
        }
        Arc::new(Self {
            fields,
            offsets,
            row_width: off,
        })
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Bytes per row.
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Byte offset of field `idx` within a row.
    pub fn offset(&self, idx: usize) -> usize {
        self.offsets[idx]
    }

    /// The field names, for diagnostics.
    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("price", DataType::Float),
            Field::new("ship", DataType::Date),
            Field::new("mode", DataType::Str(10)),
        ])
    }

    #[test]
    fn offsets_and_width() {
        let s = sample();
        assert_eq!(s.row_width(), 8 + 8 + 4 + 10);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 8);
        assert_eq!(s.offset(2), 16);
        assert_eq!(s.offset(3), 20);
    }

    #[test]
    fn index_lookup() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_names_rejected() {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Float),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_schema_rejected() {
        Schema::new(vec![]);
    }

    #[test]
    fn datatype_widths() {
        assert_eq!(DataType::Int.width(), 8);
        assert_eq!(DataType::Float.width(), 8);
        assert_eq!(DataType::Date.width(), 4);
        assert_eq!(DataType::Str(44).width(), 44);
    }
}
