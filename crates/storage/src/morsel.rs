//! Morsel iteration over a paged table: contiguous page ranges handed
//! out as units of parallel work.
//!
//! A morsel is a half-open page-index range `[start, end)` over a
//! table's page list. Workers claim morsels from a shared counter (see
//! `cordoba_exec::MorselDispenser`) and process the pages of
//! each claimed range independently; because morsel indices are claimed
//! in increasing order, reassembling per-morsel outputs by morsel index
//! restores the exact sequential row order.

/// A half-open page range `[start, end)` — one unit of parallel work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First page index of the range.
    pub start: usize,
    /// One past the last page index of the range.
    pub end: usize,
}

/// The morsel at index `idx` when `page_count` pages are split into
/// morsels of at most `granularity` pages, or `None` past the end. The
/// final morsel may be short; `granularity = 0` is treated as 1. In
/// index order the morsels cover every page exactly once — the
/// random-access form a shared atomic dispenser needs.
pub fn morsel_at(page_count: usize, granularity: usize, idx: usize) -> Option<Morsel> {
    let granularity = granularity.max(1);
    let start = idx.checked_mul(granularity)?;
    if start >= page_count {
        return None;
    }
    Some(Morsel {
        start,
        end: (start + granularity).min(page_count),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every morsel of the split, in index order.
    fn morsels(pages: usize, g: usize) -> Vec<Morsel> {
        (0..).map_while(|i| morsel_at(pages, g, i)).collect()
    }

    #[test]
    fn morsels_tile_the_page_list_exactly() {
        for pages in [0usize, 1, 5, 8, 17, 100] {
            for g in [1usize, 2, 3, 8, 200] {
                let all = morsels(pages, g);
                assert_eq!(all.len(), pages.div_ceil(g));
                let mut covered = 0;
                for m in &all {
                    assert_eq!(m.start, covered, "contiguous from {covered}");
                    assert!(m.start < m.end);
                    assert!(m.end - m.start <= g);
                    covered = m.end;
                }
                assert_eq!(covered, pages, "pages={pages} g={g}");
            }
        }
    }

    #[test]
    fn zero_granularity_behaves_as_one() {
        let all = morsels(3, 0);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|m| m.end - m.start == 1));
        assert_eq!(morsel_at(3, 0, 2), Some(Morsel { start: 2, end: 3 }));
    }
}
