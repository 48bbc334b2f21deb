//! Compact calendar dates: days since 1970-01-01 (civil), stored as
//! `i32`. Implements the standard Howard-Hinnant civil-date algorithms
//! so TPC-H date predicates (`l_shipdate >= date '1994-01-01'`) are
//! exact.

use std::fmt;

/// A calendar date, stored as days since the Unix epoch.
///
/// Ordering and arithmetic on the raw day count make range predicates a
/// single integer comparison — the representation the engine's scans
/// operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

impl Date {
    /// Builds a date from a civil year/month/day.
    ///
    /// # Panics
    ///
    /// Panics if the month or day is out of range.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        // Howard Hinnant's days_from_civil.
        let y = i64::from(if month <= 2 { year - 1 } else { year });
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let m = month as i64;
        let d = day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Date((era * 146_097 + doe - 719_468) as i32)
    }

    /// Decomposes back into (year, month, day) — `civil_from_days`.
    fn ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
        ((y + i64::from(m <= 2)) as i32, m, d)
    }

    /// The date `days` days later (negative moves backward).
    #[must_use]
    pub fn plus_days(self, days: i32) -> Self {
        Date(self.0 + days)
    }

    /// Signed distance in days (`self - other`).
    pub(crate) fn days_since(self, other: Date) -> i32 {
        self.0 - other.0
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).0, 0);
    }

    #[test]
    fn known_dates() {
        // TPC-H date range endpoints.
        assert_eq!(Date::from_ymd(1992, 1, 1).0, 8035);
        assert_eq!(Date::from_ymd(1998, 12, 31).0, 10591);
        // Q6 predicate boundary.
        let d94 = Date::from_ymd(1994, 1, 1);
        let d95 = Date::from_ymd(1995, 1, 1);
        assert_eq!(d95.days_since(d94), 365);
    }

    #[test]
    fn round_trip_ymd() {
        for &(y, m, d) in &[
            (1992, 1, 1),
            (1994, 1, 1),
            (1995, 6, 17),
            (1996, 2, 29), // leap day
            (1998, 12, 1),
            (2000, 2, 29),
            (1999, 12, 31),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.ymd(), (y, m, d), "round trip {y}-{m}-{d}");
        }
    }

    #[test]
    fn every_day_of_1996_round_trips() {
        // 1996 is a leap year: 366 consecutive day numbers.
        let start = Date::from_ymd(1996, 1, 1);
        for off in 0..366 {
            let d = start.plus_days(off);
            let (y, m, dd) = d.ymd();
            assert_eq!(Date::from_ymd(y, m, dd), d);
            assert_eq!(y, 1996);
        }
        assert_eq!(start.plus_days(366).ymd(), (1997, 1, 1));
    }

    #[test]
    fn ordering_follows_calendar() {
        assert!(Date::from_ymd(1993, 7, 1) < Date::from_ymd(1993, 10, 1));
        assert!(Date::from_ymd(1998, 12, 1) > Date::from_ymd(1998, 9, 2));
    }

    #[test]
    fn plus_days_and_days_since_inverse() {
        let base = Date::from_ymd(1993, 7, 1);
        let later = base.plus_days(91);
        assert_eq!(later.days_since(base), 91);
        assert_eq!(later.ymd(), (1993, 9, 30));
    }

    #[test]
    fn q1_predicate_date_arithmetic() {
        // Q1: l_shipdate <= date '1998-12-01' - interval '90' day.
        let cutoff = Date::from_ymd(1998, 12, 1).plus_days(-90);
        assert_eq!(cutoff.ymd(), (1998, 9, 2));
    }

    #[test]
    fn display_is_iso() {
        assert_eq!(Date::from_ymd(1994, 1, 1).to_string(), "1994-01-01");
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn bad_month_panics() {
        Date::from_ymd(1994, 13, 1);
    }
}
