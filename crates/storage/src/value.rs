//! Cells: the dynamically-typed [`Value`] and the row format — how each
//! field type sits in a row, checked, encoded, decoded and ordered here
//! and nowhere else.
//!
//! A row is its fields end to end, each a fixed-width cell:
//!
//! * `Int`: the `i64`, 8 little-endian bytes;
//! * `Float`: the `f64`'s IEEE bits, 8 little-endian bytes;
//! * `Date`: the `i32` day number, 4 little-endian bytes;
//! * `Str(n)`: `n` bytes of ASCII without NUL, space-padded. Trailing
//!   spaces are padding, not content: a cell reads back trimmed, so
//!   `"a "` is stored as, and reads back as, `"a"`.
//!
//! The numeric cells are [`NumCell`]s; [`Value::encode`] writes any
//! cell after [`Value::check`] holds it to its field's type and the
//! `Str` contract; [`Value::total_cmp`] is the one total order on cells.

use crate::date::Date;
use crate::schema::DataType;
use std::cmp::Ordering;
use std::fmt;

/// A numeric field type's cell: its value as `N` little-endian bytes —
/// `i64` for `Int`, `f64` for `Float`, the `i32` day number for `Date`.
pub trait NumCell<const N: usize>: Copy {
    /// The field type whose cells these are.
    const DTYPE: DataType;
    /// The cell of `self`.
    fn to_cell(self) -> [u8; N];
    /// The value a cell holds.
    fn from_cell(cell: [u8; N]) -> Self;
}

/// `NumCell` for each numeric cell type: its field type, its width.
macro_rules! num_cells {
    ($($ty:ty: $dtype:ident, $n:literal;)*) => {$(
        impl NumCell<$n> for $ty {
            const DTYPE: DataType = DataType::$dtype;
            #[inline]
            fn to_cell(self) -> [u8; $n] {
                self.to_le_bytes()
            }
            #[inline]
            fn from_cell(cell: [u8; $n]) -> Self {
                <$ty>::from_le_bytes(cell)
            }
        }
    )*};
}

num_cells! {
    i64: Int, 8;
    f64: Float, 8;
    i32: Date, 4;
}

/// The `N` bytes of `data` from `at`: one cell, read as one
/// fixed-width array.
///
/// # Panics
///
/// Panics if the cell does not lie inside `data`.
#[inline]
pub(crate) fn read_cell<const N: usize>(data: &[u8], at: usize) -> [u8; N] {
    let mut cell = [0; N];
    cell.copy_from_slice(&data[at..at + N]);
    cell
}

/// A `Str` cell's content: its bytes without the space padding.
#[inline]
pub(crate) fn trim_padding(cell: &[u8]) -> &[u8] {
    &cell[..cell.iter().rposition(|&b| b != b' ').map_or(0, |i| i + 1)]
}

/// Whether `s` can be a `Str(n)` cell: at most `n` bytes, each in
/// `1..=0x7f` (ASCII without NUL) — one pass without a branch per byte,
/// as cheap on the generator's short strings as `is_ascii` alone.
#[inline]
fn str_fits(s: &str, n: usize) -> bool {
    s.len() <= n
        && s.bytes()
            .fold(true, |ok, b| ok & (b.wrapping_sub(1) < 0x7f))
}

/// Why a value cannot be a cell of a field type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError(String);

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CellError {}

/// A single cell value.
///
/// Hot paths (scans, predicates) use the typed accessors on
/// [`crate::TupleRef`] instead and never materialize `Value`s; this enum
/// exists for row construction, test assertions and query results.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer (keys, counts).
    Int(i64),
    /// 64-bit float (prices, discounts; TPC-H decimals are modeled as
    /// binary floats — fine for the relative-throughput experiments).
    Float(f64),
    /// Calendar date.
    Date(Date),
    /// Fixed-width string: ASCII without NUL, space-padded in storage
    /// and trimmed on read.
    Str(String),
}

impl Value {
    /// Integer value, or `None` for other variants.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float value, or `None` for other variants.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Date value, or `None` for other variants.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, or `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The zero cell of `dtype`: `0`, `0.0`, day 0 or `""` — what a
    /// left-outer join's unmatched row carries on its build side.
    pub fn zero(dtype: DataType) -> Value {
        match dtype {
            DataType::Int => Value::Int(0),
            DataType::Float => Value::Float(0.0),
            DataType::Date => Value::Date(Date(0)),
            DataType::Str(_) => Value::Str(String::new()),
        }
    }

    /// Checks that `self` can be a cell of `dtype`: the same type, and
    /// for `Str(n)` at most `n` bytes of ASCII without NUL (a packed
    /// sort key could not tell a NUL from padding).
    pub fn check(&self, dtype: DataType) -> Result<(), CellError> {
        match (dtype, self) {
            (DataType::Int, Value::Int(_))
            | (DataType::Float, Value::Float(_))
            | (DataType::Date, Value::Date(_)) => Ok(()),
            (DataType::Str(n), Value::Str(s)) if str_fits(s, n) => Ok(()),
            (DataType::Str(n), Value::Str(s)) => Err(CellError(format!(
                "string {s:?} does not fit a field of width {n} (ASCII without NUL)"
            ))),
            (dtype, value) => Err(CellError(format!(
                "type mismatch: field of type {dtype:?}, value {value:?}"
            ))),
        }
    }

    /// Appends `self`'s cell in a field of `dtype` to `out` if
    /// [`Value::check`] holds; on an error nothing is written.
    #[inline]
    pub fn encode(&self, dtype: DataType, out: &mut Vec<u8>) -> Result<(), CellError> {
        match (dtype, self) {
            (DataType::Int, Value::Int(v)) => out.extend_from_slice(&v.to_cell()),
            (DataType::Float, Value::Float(v)) => out.extend_from_slice(&v.to_cell()),
            (DataType::Date, Value::Date(d)) => out.extend_from_slice(&d.0.to_cell()),
            (DataType::Str(n), Value::Str(s)) if str_fits(s, n) => {
                out.extend_from_slice(s.as_bytes());
                out.extend(std::iter::repeat_n(b' ', n - s.len()));
            }
            // Every pair left is one `check` refuses.
            _ => return self.check(dtype),
        }
        Ok(())
    }

    /// The one total order on cells: by type (`Int`, `Float`, `Date`,
    /// `Str`), then integers and dates numerically, floats by
    /// [`f64::total_cmp`] (`-0.0` before `0.0`, NaNs apart by sign and
    /// payload) and strings bytewise. Group and sort keys, the packed
    /// sort key and canonical result order all follow it; `==` stays
    /// IEEE's.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let rank = |v: &Value| match v {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Date(_) => 2,
            Value::Str(_) => 3,
        };
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Date(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), None);
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        let d = Date::from_ymd(1994, 1, 1);
        assert_eq!(Value::Date(d).as_date(), Some(d));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(0.05).to_string(), "0.0500");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(
            Value::Date(Date::from_ymd(1998, 12, 1)).to_string(),
            "1998-12-01"
        );
    }

    #[test]
    fn check_holds_cells_to_their_type_and_the_str_contract() {
        assert!(Value::Int(1).check(DataType::Int).is_ok());
        assert!(Value::Int(1).check(DataType::Float).is_err());
        assert!(Value::Str("a b ".into()).check(DataType::Str(4)).is_ok());
        for bad in ["a\0", "é", "abcde"] {
            let err = Value::Str(bad.into()).check(DataType::Str(4));
            assert!(err.is_err_and(|e| e.to_string().contains("ASCII without NUL")));
        }
        // On an error nothing is written.
        let mut out = vec![7];
        assert!(Value::Str("a\0".into())
            .encode(DataType::Str(4), &mut out)
            .is_err());
        assert_eq!(out, [7]);
    }

    #[test]
    fn total_cmp_ranks_types_then_values() {
        let nan = |bits: u64| Value::Float(f64::from_bits(0x7ff0_0000_0000_0000 | bits));
        let ordered = [
            Value::Int(i64::MIN),
            Value::Int(3),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::INFINITY),
            nan(1),
            nan(2),
            Value::Date(Date(-1)),
            Value::Str("".into()),
            Value::Str("A".into()),
            Value::Str("a".into()),
        ];
        for (i, a) in ordered.iter().enumerate() {
            for (j, b) in ordered.iter().enumerate() {
                assert_eq!(a.total_cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("a"), Value::Str("a".into()));
    }
}
