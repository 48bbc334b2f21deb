//! Order-preserving packed sort keys: the sort/merge analogue of the
//! aggregate's packed group keys.
//!
//! Any key-column combination totalling ≤ 8 bytes (a single `Int`,
//! `Float` or `Date`, short strings, `Date`+flag composites) packs into
//! one `u64` per row whose **unsigned integer order equals the key
//! order**: the row's key cells compared in turn by
//! [`Value::total_cmp`](cordoba_storage::Value::total_cmp), as the
//! general path's [`Key`](super::Key)s are. Key extraction then runs
//! page-at-a-time — one typed [`Page`] gather per key column folded
//! into the packed buffer — instead of decoding a `Key` (one heap
//! allocation plus per-field dispatch) for every row, and the sort
//! itself radix-sorts the words (the merge compares them) instead of
//! walking vectors of cells.
//!
//! Per-column encodings (each placed big-endian-style, major key in the
//! most significant bytes, zero-padded at the bottom):
//!
//! * `Int`: `x ^ i64::MIN` reinterpreted as `u64` (sign-bit flip maps
//!   signed order onto unsigned order);
//! * `Date`: the same bias on the `i32` day number (4 bytes);
//! * `Float`: the IEEE total-order trick — negative values bit-flip,
//!   positive values set the sign bit — matching `f64::total_cmp`
//!   exactly;
//! * `Str(n)`: the cell's content (its bytes without the space
//!   padding) padded with `0x00`, matching bytewise string order
//!   because a stored string holds no NUL byte.

#[cfg(test)]
use super::{key_of, Key};
#[cfg(test)]
use cordoba_storage::Value;
use cordoba_storage::{DataType, Page, Schema};
use std::sync::Arc;

/// One key column in a packed layout: which it is and how far its
/// encoding shifts left within the packed `u64`.
#[derive(Debug, Clone, Copy)]
struct PackedField {
    col: usize,
    shift: u32,
    dtype: DataType,
}

/// Reusable typed gather buffers for packed key extraction.
#[derive(Debug, Default)]
pub(crate) struct KeyScratch {
    i: Vec<i64>,
    f: Vec<f64>,
    d: Vec<i32>,
}

/// A packed sort-key layout for key columns totalling ≤ 8 bytes.
#[derive(Debug, Clone)]
pub(crate) struct PackedKeySpec {
    fields: Vec<PackedField>,
}

impl PackedKeySpec {
    /// Builds the packed layout for `keys` (major first) over `schema`,
    /// or `None` when the combined key width exceeds 8 bytes (callers
    /// fall back to the general [`Key`](super::Key) path). Column indices
    /// must be in range (validated by the operator constructors).
    pub(crate) fn try_new(schema: &Arc<Schema>, keys: &[usize]) -> Option<Self> {
        let total: usize = keys.iter().map(|&c| schema.fields()[c].dtype.width()).sum();
        if total > 8 {
            return None;
        }
        let mut fields = Vec::with_capacity(keys.len());
        let mut at = 0usize;
        for &col in keys {
            let dtype = schema.fields()[col].dtype;
            let width = dtype.width();
            fields.push(PackedField {
                col,
                shift: (8 * (8 - at - width)) as u32,
                dtype,
            });
            at += width;
        }
        Some(Self { fields })
    }

    /// Appends one packed key per row of `page` to `out` — one typed
    /// column gather per numeric key field, one pass over the cells of
    /// each string field, no per-row allocation.
    pub(crate) fn extend_keys(&self, page: &Page, scratch: &mut KeyScratch, out: &mut Vec<u64>) {
        let start = out.len();
        out.resize(start + page.rows(), 0);
        let dst = &mut out[start..];
        for field in &self.fields {
            let shift = field.shift;
            match field.dtype {
                DataType::Int => {
                    page.gather_i64(field.col, &mut scratch.i);
                    for (k, &v) in dst.iter_mut().zip(&scratch.i) {
                        *k |= enc_i64(v) << shift;
                    }
                }
                DataType::Float => {
                    page.gather_f64(field.col, &mut scratch.f);
                    for (k, &v) in dst.iter_mut().zip(&scratch.f) {
                        *k |= enc_f64(v) << shift;
                    }
                }
                DataType::Date => {
                    page.gather_date(field.col, &mut scratch.d);
                    for (k, &v) in dst.iter_mut().zip(&scratch.d) {
                        *k |= enc_date(v) << shift;
                    }
                }
                DataType::Str(w) => {
                    let content = page.str_cells(field.col, w);
                    for (row, k) in dst.iter_mut().enumerate() {
                        *k |= enc_str(content(row), w) << shift;
                    }
                }
            }
        }
    }
}

/// Signed 64-bit order → unsigned order.
#[inline]
fn enc_i64(x: i64) -> u64 {
    (x ^ i64::MIN) as u64
}

/// Signed 32-bit order → unsigned order (4-byte encoding).
#[inline]
fn enc_date(d: i32) -> u64 {
    ((d as u32) ^ 0x8000_0000) as u64
}

/// IEEE-754 total order → unsigned order (the standard sign-magnitude
/// to two's-complement fold); agrees with `f64::total_cmp`.
#[inline]
fn enc_f64(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// A string cell's content, big-endian-packed into `width` bytes with
/// `0x00` padding: unsigned order equals bytewise string order.
#[inline]
fn enc_str(content: &[u8], width: usize) -> u64 {
    let mut enc = 0u64;
    for (i, &b) in content.iter().enumerate() {
        enc |= (b as u64) << (8 * (width - 1 - i));
    }
    enc
}

/// Reference (tuple-at-a-time) packed-key computation — the oracle the
/// unit tests pin `extend_keys` against, and a readable spec of the
/// encoding.
#[cfg(test)]
fn pack_one(key: &Key, spec: &PackedKeySpec) -> u64 {
    let mut packed = 0u64;
    for (cell, f) in key.0.iter().zip(&spec.fields) {
        let enc = match cell {
            Value::Int(v) => enc_i64(*v),
            Value::Float(v) => enc_f64(*v),
            Value::Date(d) => enc_date(d.0),
            Value::Str(s) => enc_str(s.as_bytes(), f.dtype.width()),
        };
        packed |= enc << f.shift;
    }
    packed
}

/// The general path's per-row key: [`key_of`] over the same columns,
/// the order the tests pin packed keys against.
#[cfg(test)]
fn general_key(page: &Page, row: usize, keys: &[usize]) -> Key {
    key_of(&page.tuple(row), keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_storage::{Date, Field, PageBuilder};
    use proptest::prelude::*;

    fn page() -> Arc<Page> {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("d", DataType::Date),
            Field::new("s", DataType::Str(3)),
        ]);
        let mut b = PageBuilder::new(schema);
        let strs = ["", "a", "ab", "abc", "b", "z", "AB", "a c"];
        for i in -20i64..20 {
            b.push_row(&[
                Value::Int(i * 1_000_003),
                Value::Float(i as f64 * 0.75),
                Value::Date(Date(i as i32 * 37)),
                Value::Str(strs[i.unsigned_abs() as usize % strs.len()].into()),
            ]);
        }
        b.push_row(&[
            Value::Int(i64::MIN),
            Value::Float(f64::NEG_INFINITY),
            Value::Date(Date(i32::MIN)),
            Value::Str("".into()),
        ]);
        b.push_row(&[
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Date(Date(i32::MAX)),
            Value::Str("zzz".into()),
        ]);
        b.push_row(&[
            Value::Int(0),
            Value::Float(-0.0),
            Value::Date(Date(0)),
            Value::Str("a".into()),
        ]);
        b.finish()
    }

    /// Asserts that the packed layout of `keys` orders every pair of
    /// rows of `p` as their decoded keys do.
    fn assert_packed_order(p: &Page, keys: &[usize]) {
        let spec = PackedKeySpec::try_new(p.schema(), keys).expect("≤ 8 bytes");
        let mut packed = Vec::new();
        spec.extend_keys(p, &mut KeyScratch::default(), &mut packed);
        assert_eq!(packed.len(), p.rows());
        for a in 0..p.rows() {
            for b in 0..p.rows() {
                let (ka, kb) = (general_key(p, a, keys), general_key(p, b, keys));
                assert_eq!(
                    packed[a].cmp(&packed[b]),
                    ka.cmp(&kb),
                    "keys {keys:?}: rows {a} vs {b} ({ka:?} vs {kb:?})"
                );
            }
        }
    }

    /// Every packed layout must order exactly like the decoded keys.
    #[test]
    fn packed_order_matches_keyval_order() {
        let p = page();
        for keys in [[0].as_slice(), &[1], &[2], &[3], &[2, 3], &[3, 2], &[2, 2]] {
            assert_packed_order(&p, keys);
        }
    }

    /// A row of random cells of every type: integers and days of the
    /// whole range or near zero (so keys tie), floats of any bit
    /// pattern, ±0.0, ±∞ or NaNs of either sign with random payloads,
    /// and ASCII strings without NUL — with inner and trailing spaces,
    /// the byte above NUL and the top one.
    fn random_row() -> impl Strategy<Value = Vec<Value>> {
        let int = (any::<i64>(), -2..2i64, any::<bool>()).prop_map(|(x, near, wide)| match wide {
            true => x,
            false => near,
        });
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -1.5];
        let float = (
            0..3u8,
            any::<f64>(),
            0..6usize,
            1..1u64 << 52,
            any::<bool>(),
        )
            .prop_map(move |(kind, bits, special, payload, negative)| match kind {
                0 => bits,
                1 => specials[special],
                _ => f64::from_bits((negative as u64) << 63 | 0x7ff0_0000_0000_0000 | payload),
            });
        let day = (i32::MIN..=i32::MAX, -2..2i32, any::<bool>())
            .prop_map(|(x, near, wide)| Date(if wide { x } else { near }));
        (
            int,
            float,
            day,
            "[ ab\u{1}\u{7f}]{0,3}",
            "[\u{1}-\u{7f}]{0,8}",
        )
            .prop_map(|(i, f, d, short, long)| {
                let cells = [Value::Int(i), Value::Float(f), Value::Date(d)];
                [cells.as_slice(), &[Value::Str(short), Value::Str(long)]].concat()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed key's unsigned order is `Value::total_cmp`'s, key
        /// cell by key cell, on random cells of every type.
        #[test]
        fn packed_order_is_total_cmp_on_random_cells(rows in collection::vec(random_row(), 1..24)) {
            let schema = Schema::new(vec![
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("d", DataType::Date),
                Field::new("s", DataType::Str(3)),
                Field::new("w", DataType::Str(8)),
            ]);
            let mut b = PageBuilder::new(schema);
            for row in &rows {
                prop_assert!(b.push_row(row));
            }
            let p = b.finish();
            for keys in [[0].as_slice(), &[1], &[2], &[3], &[4], &[2, 3], &[3, 2], &[3, 3]] {
                assert_packed_order(&p, keys);
            }
        }
    }

    #[test]
    fn extend_keys_matches_reference_packing() {
        let p = page();
        let keys = vec![2usize, 3];
        let spec = PackedKeySpec::try_new(p.schema(), &keys).expect("7 bytes");
        let mut scratch = KeyScratch::default();
        let mut packed = Vec::new();
        spec.extend_keys(&p, &mut scratch, &mut packed);
        for (r, &got) in packed.iter().enumerate() {
            assert_eq!(got, pack_one(&general_key(&p, r, &keys), &spec));
        }
    }

    #[test]
    fn wide_keys_fall_back() {
        let p = page();
        assert!(PackedKeySpec::try_new(p.schema(), &[0, 1]).is_none());
        assert!(PackedKeySpec::try_new(p.schema(), &[0, 2]).is_none());
        assert!(PackedKeySpec::try_new(p.schema(), &[]).is_some());
    }

    #[test]
    fn extend_appends_across_pages() {
        let p = page();
        let spec = PackedKeySpec::try_new(p.schema(), &[0]).expect("8 bytes");
        let mut scratch = KeyScratch::default();
        let mut packed = Vec::new();
        spec.extend_keys(&p, &mut scratch, &mut packed);
        spec.extend_keys(&p, &mut scratch, &mut packed);
        assert_eq!(packed.len(), 2 * p.rows());
        assert_eq!(packed[..p.rows()], packed[p.rows()..]);
    }
}
