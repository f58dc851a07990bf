//! Microsecond-resolution timestamps and durations.
//!
//! The paper's logs span two time granularities: BG/L's RAS database
//! records microseconds, while the syslog-based systems record whole
//! seconds. [`Timestamp`] stores microseconds since the Unix epoch (UTC)
//! in an `i64`, which covers the years 1678–2262 — far more than the
//! 2004–2006 observation windows in Table 2.
//!
//! Civil-time conversion uses the classic days-from-civil algorithm, so
//! the crate needs no external date dependency. All conversions are UTC;
//! the study does not require local-time handling.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Microseconds in one second.
pub const MICROS_PER_SEC: i64 = 1_000_000;

/// A span of time with microsecond resolution.
///
/// # Examples
///
/// ```
/// use sclog_types::Duration;
///
/// let t = Duration::from_secs(5);
/// assert_eq!(t.as_micros(), 5_000_000);
/// assert_eq!(t * 2, Duration::from_secs(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(i64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: i64) -> Self {
        Duration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Duration(ms * 1000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: i64) -> Self {
        Duration(us)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: i64) -> Self {
        Duration::from_secs(mins * 60)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: i64) -> Self {
        Duration::from_secs(hours * 3600)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: i64) -> Self {
        Duration::from_secs(days * 86_400)
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// The duration in whole seconds (truncated toward zero).
    pub const fn as_secs(self) -> i64 {
        self.0 / MICROS_PER_SEC
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not finite or overflows the microsecond range.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite(), "duration seconds must be finite");
        let us = secs * MICROS_PER_SEC as f64;
        assert!(
            us >= i64::MIN as f64 && us <= i64::MAX as f64,
            "duration out of range"
        );
        Duration(us as i64)
    }

    /// True if this duration is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value of the duration.
    pub const fn abs(self) -> Self {
        Duration(self.0.abs())
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl std::ops::Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl std::ops::Div<i64> for Duration {
    type Output = Duration;
    fn div(self, rhs: i64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// An instant in time: microseconds since the Unix epoch, UTC.
///
/// # Examples
///
/// ```
/// use sclog_types::{Duration, Timestamp};
///
/// let t = Timestamp::from_ymd_hms(2005, 1, 1, 0, 0, 0);
/// let later = t + Duration::from_days(1);
/// assert_eq!(later - t, Duration::from_days(1));
/// assert_eq!(later.to_syslog_string(), "Jan  2 00:00:00");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// The Unix epoch (1970-01-01T00:00:00Z).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from microseconds since the Unix epoch.
    pub const fn from_micros(us: i64) -> Self {
        Timestamp(us)
    }

    /// Creates a timestamp from whole seconds since the Unix epoch.
    pub const fn from_secs(secs: i64) -> Self {
        Timestamp(secs * MICROS_PER_SEC)
    }

    /// Creates a timestamp from a UTC civil date and time.
    ///
    /// # Panics
    ///
    /// Panics if the month or day is out of range.
    pub fn from_ymd_hms(year: i32, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day out of range: {year}-{month}-{day}"
        );
        assert!(hour < 24 && min < 60 && sec < 60, "time out of range");
        let days = days_from_civil(year, month, day);
        Timestamp::from_secs(days * 86_400 + (hour as i64) * 3600 + (min as i64) * 60 + sec as i64)
    }

    /// Microseconds since the Unix epoch.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Whole seconds since the Unix epoch (floor).
    pub const fn as_secs(self) -> i64 {
        self.0.div_euclid(MICROS_PER_SEC)
    }

    /// The microsecond-of-second component, in `0..1_000_000`.
    pub const fn subsec_micros(self) -> u32 {
        self.0.rem_euclid(MICROS_PER_SEC) as u32
    }

    /// Truncates to whole-second resolution (as syslog timestamps do).
    pub const fn truncate_to_secs(self) -> Self {
        Timestamp(self.as_secs() * MICROS_PER_SEC)
    }

    /// Decomposes into UTC civil `(year, month, day, hour, minute, second)`.
    pub fn to_civil(self) -> (i32, u32, u32, u32, u32, u32) {
        let secs = self.as_secs();
        let days = secs.div_euclid(86_400);
        let sod = secs.rem_euclid(86_400);
        let (y, m, d) = civil_from_days(days);
        (
            y,
            m,
            d,
            (sod / 3600) as u32,
            (sod % 3600 / 60) as u32,
            (sod % 60) as u32,
        )
    }

    /// Renders in classic BSD syslog form, e.g. `Jan  2 15:04:05`.
    ///
    /// Note that syslog omits the year; parsers must recover it from
    /// context, one of the log-format headaches Section 3.2.1 of the
    /// paper describes.
    pub fn to_syslog_string(self) -> String {
        let mut out = String::new();
        self.write_syslog(&mut out);
        out
    }

    /// Appends the syslog form to `out` without allocating — the
    /// buffer-reuse path the per-message tagging loop renders through.
    pub fn write_syslog(self, out: &mut String) {
        use fmt::Write as _;
        let (_, m, d, hh, mm, ss) = self.to_civil();
        let _ = write!(out, "{} {d:>2} {hh:02}:{mm:02}:{ss:02}", month_abbrev(m));
    }

    /// Renders in the BG/L RAS form, e.g. `2005-06-03-15.42.50.363779`.
    pub fn to_bgl_string(self) -> String {
        let mut out = String::new();
        self.write_bgl(&mut out);
        out
    }

    /// Appends the BG/L RAS form to `out` without allocating.
    pub fn write_bgl(self, out: &mut String) {
        use fmt::Write as _;
        let (y, m, d, hh, mm, ss) = self.to_civil();
        let _ = write!(
            out,
            "{y:04}-{m:02}-{d:02}-{hh:02}.{mm:02}.{ss:02}.{:06}",
            self.subsec_micros()
        );
    }

    /// Renders as an ISO-8601-like string, e.g. `2005-06-03 15:42:50`.
    pub fn to_iso_string(self) -> String {
        let mut out = String::with_capacity(19);
        self.write_iso(&mut out);
        out
    }

    /// Appends the ISO form to `out` without allocating — the path
    /// every `/alerts` row's `time` renders through.
    pub fn write_iso(self, out: &mut String) {
        use fmt::Write as _;
        let (y, m, d, hh, mm, ss) = self.to_civil();
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{y:04}-{m:02}-{d:02} {hh:02}:{mm:02}:{ss:02}");
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> Self {
        Timestamp(self.0.saturating_add(d.as_micros()))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_micros())
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros();
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.as_micros())
    }
}

impl SubAssign<Duration> for Timestamp {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.as_micros();
    }
}

impl Sub for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration::from_micros(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_iso_string())
    }
}

/// Month abbreviation as used by syslog (`Jan` … `Dec`).
///
/// # Panics
///
/// Panics if `month` is not in `1..=12`.
pub fn month_abbrev(month: u32) -> &'static str {
    const NAMES: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    NAMES[(month - 1) as usize]
}

/// Parses a syslog month abbreviation back to `1..=12`.
pub fn month_from_abbrev(s: &str) -> Option<u32> {
    const NAMES: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    NAMES.iter().position(|&n| n == s).map(|i| i as u32 + 1)
}

/// True if `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Days in the given month of the given year.
///
/// # Panics
///
/// Panics if `month` is not in `1..=12`.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("month out of range: {month}"),
    }
}

/// Days since the Unix epoch for a civil date (Hinnant's algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since the Unix epoch (inverse of `days_from_civil`).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(Timestamp::EPOCH.to_civil(), (1970, 1, 1, 0, 0, 0));
    }

    #[test]
    fn known_dates_round_trip() {
        // Start dates from Table 2 of the paper.
        let cases = [
            (2005, 6, 3),   // BG/L
            (2005, 11, 9),  // Thunderbird
            (2006, 3, 19),  // Red Storm
            (2005, 1, 1),   // Spirit
            (2004, 12, 12), // Liberty
            (2000, 2, 29),  // leap day
            (1999, 12, 31),
        ];
        for (y, m, d) in cases {
            let t = Timestamp::from_ymd_hms(y, m, d, 13, 14, 15);
            assert_eq!(t.to_civil(), (y, m, d, 13, 14, 15));
        }
    }

    #[test]
    fn syslog_format_pads_day() {
        let t = Timestamp::from_ymd_hms(2005, 1, 2, 3, 4, 5);
        assert_eq!(t.to_syslog_string(), "Jan  2 03:04:05");
        let t = Timestamp::from_ymd_hms(2005, 11, 12, 3, 4, 5);
        assert_eq!(t.to_syslog_string(), "Nov 12 03:04:05");
    }

    #[test]
    fn iso_format_matches_the_padded_reference() {
        // Random micros over the whole i64 range (years about
        // ±292 000) and within ±285 years of the epoch, plus the
        // edges: pre-1970 instants, year 0, the 9999/10000 boundary.
        let reference = |t: Timestamp| {
            let (y, m, d, hh, mm, ss) = t.to_civil();
            format!("{y:04}-{m:02}-{d:02} {hh:02}:{mm:02}:{ss:02}")
        };
        let mut state = 0x5c10_9e57_u64;
        let mut next = || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut cases: Vec<Timestamp> = vec![
            Timestamp::EPOCH,
            Timestamp::from_micros(-1),
            Timestamp::from_ymd_hms(0, 1, 1, 0, 0, 0),
            Timestamp::from_ymd_hms(-1, 12, 31, 23, 59, 59),
            Timestamp::from_ymd_hms(9999, 12, 31, 23, 59, 59),
            Timestamp::from_ymd_hms(10_000, 1, 1, 0, 0, 0),
            Timestamp::from_micros(i64::MIN),
            Timestamp::from_micros(i64::MAX),
        ];
        let span = 1u64 << 54;
        for _ in 0..20_000 {
            cases.push(Timestamp::from_micros(next() as i64));
            cases.push(Timestamp::from_micros(
                (next() % span) as i64 - (span / 2) as i64,
            ));
        }
        let mut out = String::from("prefix|");
        for t in cases {
            out.truncate("prefix|".len());
            t.write_iso(&mut out);
            assert_eq!(
                &out["prefix|".len()..],
                reference(t),
                "micros {}",
                t.as_micros()
            );
            assert_eq!(t.to_iso_string(), reference(t));
        }
    }

    #[test]
    fn bgl_format_has_micros() {
        let t = Timestamp::from_ymd_hms(2005, 6, 3, 15, 42, 50) + Duration::from_micros(363_779);
        assert_eq!(t.to_bgl_string(), "2005-06-03-15.42.50.363779");
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(100);
        assert_eq!((t + Duration::from_secs(5)) - t, Duration::from_secs(5));
        assert_eq!(t - Duration::from_secs(5), Timestamp::from_secs(95));
        let mut u = t;
        u += Duration::from_secs(1);
        assert_eq!(u, Timestamp::from_secs(101));
        u -= Duration::from_secs(2);
        assert_eq!(u, Timestamp::from_secs(99));
    }

    #[test]
    fn negative_times_floor_correctly() {
        let t = Timestamp::from_micros(-1);
        assert_eq!(t.as_secs(), -1);
        assert_eq!(t.subsec_micros(), 999_999);
        assert_eq!(t.to_civil(), (1969, 12, 31, 23, 59, 59));
    }

    #[test]
    fn truncate_to_secs_drops_micros() {
        let t = Timestamp::from_micros(1_500_000);
        assert_eq!(t.truncate_to_secs(), Timestamp::from_secs(1));
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2000));
        assert!(is_leap_year(2004));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2005));
        assert_eq!(days_in_month(2004, 2), 29);
        assert_eq!(days_in_month(2005, 2), 28);
    }

    #[test]
    fn month_abbrev_round_trip() {
        for m in 1..=12 {
            assert_eq!(month_from_abbrev(month_abbrev(m)), Some(m));
        }
        assert_eq!(month_from_abbrev("Foo"), None);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(Duration::from_days(1).as_secs(), 86_400);
        assert_eq!(Duration::from_hours(2).as_secs(), 7200);
        assert_eq!(Duration::from_mins(3).as_secs(), 180);
        assert_eq!(Duration::from_millis(1500).as_micros(), 1_500_000);
        assert!((Duration::from_secs_f64(0.5).as_micros() - 500_000).abs() <= 1);
        assert!(Duration::from_secs(-1).is_negative());
        assert_eq!(Duration::from_secs(-1).abs(), Duration::from_secs(1));
    }

    #[test]
    fn duration_display() {
        assert_eq!(Duration::from_secs(5).to_string(), "5.000000s");
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn bad_month_panics() {
        let _ = Timestamp::from_ymd_hms(2005, 13, 1, 0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn bad_day_panics() {
        let _ = Timestamp::from_ymd_hms(2005, 2, 29, 0, 0, 0);
    }
}
