//! Order-preserving packed sort keys: the sort/merge analogue of the
//! aggregate's packed group keys.
//!
//! Any key-column combination totalling ≤ 8 bytes (a single `Int`,
//! `Float` or `Date`, short strings, `Date`+flag composites) packs into
//! one `u64` per row whose **unsigned integer order equals the
//! tuple-key order** the tree-walking [`key_of`](super::key_of) path
//! produces. Key extraction then runs page-at-a-time — one typed
//! [`Page`] gather per key column folded into the packed buffer —
//! instead of materializing a `Vec<KeyVal>` (one heap allocation plus
//! per-field dispatch) for every row, and the sort itself radix-sorts
//! the words (the merge compares them) instead of walking enum vectors.
//!
//! Per-column encodings (each placed big-endian-style, major key in the
//! most significant bytes, zero-padded at the bottom):
//!
//! * `Int`: `x ^ i64::MIN` reinterpreted as `u64` (sign-bit flip maps
//!   signed order onto unsigned order);
//! * `Date`: the same bias on the `i32` day number (4 bytes);
//! * `Float`: the IEEE total-order trick — negative values bit-flip,
//!   positive values set the sign bit — matching
//!   [`TotalF64`](super::TotalF64)'s `total_cmp` order exactly;
//! * `Str(n)`: the trailing-space-trimmed bytes padded with `0x00`,
//!   matching the trimmed-string comparison of `KeyVal::Str` for all
//!   ASCII contents (pages store only ASCII).

use super::{key_of, KeyVal};
use cordoba_storage::{DataType, Page, Schema};
use std::sync::Arc;

/// One key column in a packed layout: where it lives in the row and
/// how far its encoding shifts left within the packed `u64`.
#[derive(Debug, Clone, Copy)]
struct PackedField {
    col: usize,
    offset: usize,
    width: usize,
    shift: u32,
    dtype: DataType,
}

/// Reusable typed gather buffers for packed key extraction.
#[derive(Debug, Default)]
pub struct KeyScratch {
    i: Vec<i64>,
    f: Vec<f64>,
    d: Vec<i32>,
}

/// A packed sort-key layout for key columns totalling ≤ 8 bytes.
#[derive(Debug, Clone)]
pub struct PackedKeySpec {
    fields: Vec<PackedField>,
}

impl PackedKeySpec {
    /// Builds the packed layout for `keys` (major first) over `schema`,
    /// or `None` when the combined key width exceeds 8 bytes (callers
    /// fall back to the general `Vec<KeyVal>` path). Column indices
    /// must be in range (validated by the operator constructors).
    pub fn try_new(schema: &Arc<Schema>, keys: &[usize]) -> Option<Self> {
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
                offset: schema.offset(col),
                width,
                shift: (8 * (8 - at - width)) as u32,
                dtype,
            });
            at += width;
        }
        Some(Self { fields })
    }

    /// Appends one packed key per row of `page` to `out` — one typed
    /// column gather per numeric key field, one raw-row pass per string
    /// field, no per-row allocation.
    pub fn extend_keys(&self, page: &Page, scratch: &mut KeyScratch, out: &mut Vec<u64>) {
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
                DataType::Str(_) => {
                    let (off, w) = (field.offset, field.width);
                    for (k, raw) in dst.iter_mut().zip(page.raw_rows()) {
                        *k |= enc_str(&raw[off..off + w], w) << shift;
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

/// Trimmed bytes, big-endian-packed into `width` bytes with `0x00`
/// padding: unsigned order equals trimmed lexicographic string order.
#[inline]
fn enc_str(raw: &[u8], width: usize) -> u64 {
    let trimmed = raw.len() - raw.iter().rev().take_while(|&&b| b == b' ').count();
    let mut enc = 0u64;
    for (i, &b) in raw[..trimmed].iter().enumerate() {
        enc |= (b as u64) << (8 * (width - 1 - i));
    }
    enc
}

/// Reference (tuple-at-a-time) packed-key computation — the oracle the
/// unit tests pin `extend_keys` against, and a readable spec of the
/// encoding.
#[cfg(test)]
fn pack_one(key: &[KeyVal], spec: &PackedKeySpec) -> u64 {
    let mut packed = 0u64;
    for (k, f) in key.iter().zip(&spec.fields) {
        let enc = match k {
            KeyVal::Int(v) => enc_i64(*v),
            KeyVal::Float(v) => enc_f64(v.0),
            KeyVal::Date(v) => enc_date(*v),
            KeyVal::Str(s) => {
                let mut padded = vec![b' '; f.width];
                padded[..s.len()].copy_from_slice(s.as_bytes());
                enc_str(&padded, f.width)
            }
        };
        packed |= enc << f.shift;
    }
    packed
}

/// The general path's per-row key: [`key_of`] over the same columns.
/// Kept here so sort and merge share one definition with the tests.
pub fn general_key(page: &Page, row: usize, keys: &[usize]) -> Vec<KeyVal> {
    key_of(&page.tuple(row), keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_storage::{Date, Field, PageBuilder, Value};

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

    /// Every packed layout must order exactly like the decoded keys.
    #[test]
    fn packed_order_matches_keyval_order() {
        let p = page();
        let mut scratch = KeyScratch::default();
        for keys in [
            vec![0usize],
            vec![1],
            vec![2],
            vec![3],
            vec![2, 3],
            vec![3, 2],
            vec![2, 2],
        ] {
            let spec = PackedKeySpec::try_new(p.schema(), &keys).expect("≤ 8 bytes");
            let mut packed = Vec::new();
            spec.extend_keys(&p, &mut scratch, &mut packed);
            assert_eq!(packed.len(), p.rows());
            for a in 0..p.rows() {
                for b in 0..p.rows() {
                    let ka = general_key(&p, a, &keys);
                    let kb = general_key(&p, b, &keys);
                    assert_eq!(
                        packed[a].cmp(&packed[b]),
                        ka.cmp(&kb),
                        "keys {keys:?}: rows {a} vs {b} ({ka:?} vs {kb:?})"
                    );
                }
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
