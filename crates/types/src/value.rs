//! Typed values and their text/binary encodings.

use crate::error::{HailError, Result};
use crate::schema::DataType;
use std::cmp::Ordering;
use std::fmt;

/// `10^0 ..= 10^22`: every power of ten an `f64` holds exactly.
const EXACT_POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Splits off a leading `+` or `-`: whether the number is negative, and
/// what follows the sign.
fn sign(token: &[u8]) -> (bool, &[u8]) {
    match token {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, token),
    }
}

/// `[+-]digits` with one to `max_digits` (at most 18) ASCII digits, which
/// cannot overflow an `i64`: the value `str::parse` gives it. `None` for
/// any other token, well-formed or not.
fn plain_int(token: &[u8], max_digits: usize) -> Option<i64> {
    let (negative, digits) = sign(token);
    if digits.is_empty() || digits.len() > max_digits {
        return None;
    }
    let mut v = 0i64;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        v = v * 10 + i64::from(digit);
    }
    Some(if negative { -v } else { v })
}

/// `[+-]digits[.digits]` with at most 15 significant digits and at most
/// 22 after the point: the value `str::parse` gives it. The digits make
/// an integer below 2^53 and the point a power of ten of at most 10^22,
/// both exact in an `f64`, so one correctly rounded division is the
/// correctly rounded decimal (Clinger's fast path). `None` for any other
/// token: padding, exponents, a bare point, longer mantissas, `inf`.
fn plain_float(token: &[u8]) -> Option<f64> {
    let (negative, rest) = sign(token);
    let (whole, fraction) = match rest.iter().position(|&b| b == b'.') {
        Some(point) => (&rest[..point], &rest[point + 1..]),
        None => (rest, &[][..]),
    };
    if whole.is_empty() || fraction.len() >= EXACT_POWERS_OF_TEN.len() {
        return None;
    }
    if fraction.is_empty() && whole.len() < rest.len() {
        return None;
    }
    let (mut mantissa, mut significant) = (0u64, 0);
    for &b in whole.iter().chain(fraction) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        if mantissa != 0 || digit != 0 {
            significant += 1;
            if significant > 15 {
                return None;
            }
        }
        mantissa = mantissa * 10 + u64::from(digit);
    }
    let v = mantissa as f64 / EXACT_POWERS_OF_TEN[fraction.len()];
    Some(if negative { -v } else { v })
}

/// Days between 1970-01-01 and year 1 (proleptic Gregorian), used by the
/// date codec below.
const DAYS_FROM_CE_TO_EPOCH: i64 = 719_162;

/// A single typed value.
///
/// `Float` wraps an `f64` but the type implements total ordering (via
/// `f64::total_cmp`) and `Eq`/`Hash` so values can be used as sort keys —
/// a requirement for building clustered indexes on `adRevenue`.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i32),
    Long(i64),
    Float(f64),
    /// Days since the Unix epoch.
    Date(i32),
    Str(String),
}

impl Value {
    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        self.as_ref().data_type()
    }

    /// Parses a text token into a value of the requested type.
    ///
    /// This is the parser the HAIL client runs while converting uploaded
    /// text to binary PAX; a failure here makes the whole row a *bad
    /// record*.
    ///
    /// A number is the trimmed token through `str::parse`. The plain
    /// forms — `[+-]digits` too short to overflow, and `[+-]digits.digits`
    /// with at most 15 significant digits — take a fast path that gives
    /// the same value without trimming or the general parser.
    pub fn parse(token: &str, data_type: DataType) -> Result<Value> {
        let bad = |reason: &str| HailError::BadRecord {
            line: token.to_string(),
            reason: reason.to_string(),
        };
        match data_type {
            DataType::Int => match plain_int(token.as_bytes(), 9) {
                Some(v) => Ok(Value::Int(v as i32)),
                None => token
                    .trim()
                    .parse::<i32>()
                    .map(Value::Int)
                    .map_err(|_| bad("not an INT")),
            },
            DataType::Long => match plain_int(token.as_bytes(), 18) {
                Some(v) => Ok(Value::Long(v)),
                None => token
                    .trim()
                    .parse::<i64>()
                    .map(Value::Long)
                    .map_err(|_| bad("not a LONG")),
            },
            DataType::Float => match plain_float(token.as_bytes()) {
                Some(v) => Ok(Value::Float(v)),
                None => token
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|f| f.is_finite())
                    .map(Value::Float)
                    .ok_or_else(|| bad("not a finite FLOAT")),
            },
            DataType::Date => parse_date(token.trim())
                .map(Value::Date)
                .ok_or_else(|| bad("not a DATE (expected YYYY-MM-DD)")),
            DataType::VarChar => {
                if token.bytes().any(|b| b == 0) {
                    Err(bad("VARCHAR may not contain NUL"))
                } else {
                    Ok(Value::Str(token.to_string()))
                }
            }
        }
    }

    /// The integer form used by fixed-width codecs. Panics on `Str`.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int(v) => *v as i64,
            Value::Long(v) => *v,
            Value::Float(v) => v.to_bits() as i64,
            Value::Date(v) => *v as i64,
            Value::Str(_) => panic!("as_i64 on VarChar value"),
        }
    }

    /// The i32 payload of `Int`/`Date` values.
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::Int(v) | Value::Date(v) => Some(*v),
            _ => None,
        }
    }

    /// The f64 payload of `Float` values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload of `Str` values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Size of the binary encoding in bytes (varchar: bytes + NUL).
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Int(_) | Value::Date(_) => 4,
            Value::Long(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() + 1,
        }
    }

    /// Size of the text encoding in bytes (what the value occupies in the
    /// original CSV line). Used by the cost model.
    pub fn text_len(&self) -> usize {
        self.to_string().len()
    }

    /// Total-order comparison. Values of different types order by type tag
    /// — comparisons across types only occur in corrupted inputs and must
    /// still be deterministic.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.as_ref().total_cmp(other.as_ref())
    }

    /// Borrows this value; strings are not copied.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Int(v) => ValueRef::Int(*v),
            Value::Long(v) => ValueRef::Long(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Date(v) => ValueRef::Date(*v),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

/// A [`Value`] whose string payload is borrowed — what a reader hands out
/// when it decodes an attribute in place, so comparing a stored varchar
/// with a literal allocates nothing. Ordering is defined here once;
/// [`Value::total_cmp`] is this comparison over two borrowed values.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Int(i32),
    Long(i64),
    Float(f64),
    /// Days since the Unix epoch.
    Date(i32),
    Str(&'a str),
}

impl ValueRef<'_> {
    /// The [`DataType`] of this value.
    pub fn data_type(self) -> DataType {
        match self {
            ValueRef::Int(_) => DataType::Int,
            ValueRef::Long(_) => DataType::Long,
            ValueRef::Float(_) => DataType::Float,
            ValueRef::Date(_) => DataType::Date,
            ValueRef::Str(_) => DataType::VarChar,
        }
    }

    /// The owned form (copies a string payload).
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Long(v) => Value::Long(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Date(v) => Value::Date(v),
            ValueRef::Str(s) => Value::Str(s.to_string()),
        }
    }

    /// See [`Value::total_cmp`].
    #[inline]
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(&b),
            (Long(a), Long(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Date(a), Date(b)) => a.cmp(&b),
            (Str(a), Str(b)) => a.cmp(b),
            // Cross-type: compare numeric families loosely, else by tag.
            (Int(a), Long(b)) => (a as i64).cmp(&b),
            (Long(a), Int(b)) => a.cmp(&(b as i64)),
            _ => self.data_type().tag().cmp(&other.data_type().tag()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.data_type().tag().hash(state);
        match self {
            Value::Int(v) => v.hash(state),
            Value::Long(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Date(v) => v.hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// The text form of a value — what it looked like in the uploaded line,
/// and the string the Bloom filter hashes.
impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValueRef::Int(v) => write!(f, "{v}"),
            ValueRef::Long(v) => write!(f, "{v}"),
            ValueRef::Float(v) => write!(f, "{v}"),
            ValueRef::Date(v) => match date_text(v) {
                Some(text) => {
                    f.write_str(std::str::from_utf8(&text).expect("ASCII digits and dashes"))
                }
                None => {
                    let (y, m, d) = date_from_days(v);
                    write!(f, "{y:04}-{m:02}-{d:02}")
                }
            },
            ValueRef::Str(s) => f.write_str(s),
        }
    }
}

impl ValueRef<'_> {
    /// Appends the text form — what `Display` writes — to `out`; a date
    /// without going through the formatter.
    pub fn push_text(self, out: &mut String) {
        use fmt::Write;
        match self {
            ValueRef::Date(v) if let Some(text) = date_text(v) => {
                out.push_str(std::str::from_utf8(&text).expect("ASCII digits and dashes"))
            }
            ValueRef::Str(s) => out.push_str(s),
            other => write!(out, "{other}").expect("formatting into a String cannot fail"),
        }
    }
}

/// `YYYY-MM-DD` for a date whose year has four digits, `None` for one
/// outside years 0..=9999.
fn date_text(days: i32) -> Option<[u8; 10]> {
    let (y, m, d) = date_from_days(days);
    let y = u32::try_from(y).ok().filter(|y| *y <= 9999)?;
    let digit = |n: u32| b'0' + (n % 10) as u8;
    Some([
        digit(y / 1000),
        digit(y / 100),
        digit(y / 10),
        digit(y),
        b'-',
        digit(m / 10),
        digit(m),
        b'-',
        digit(d / 10),
        digit(d),
    ])
}

/// Parses `YYYY-MM-DD` into days since the Unix epoch: exactly four,
/// two and two ASCII digits, so every date it accepts prints back as the
/// text it was parsed from (no sign, no space).
///
/// Implemented from first principles (proleptic Gregorian) to avoid a
/// date-library dependency; validated against round-trip property tests.
pub fn parse_date(s: &str) -> Option<i32> {
    let bytes = s.as_bytes();
    if bytes.len() != 10 || bytes[4] != b'-' || bytes[7] != b'-' {
        return None;
    }
    let digits = |field: &[u8]| {
        field.iter().try_fold(0u32, |n, &b| {
            b.is_ascii_digit().then(|| n * 10 + u32::from(b - b'0'))
        })
    };
    let year = digits(&bytes[0..4])?;
    let month = digits(&bytes[5..7])?;
    let day = digits(&bytes[8..10])?;
    days_from_ymd(year as i32, month, day)
}

/// True for Gregorian leap years.
fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

const DAYS_IN_MONTH: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Days of a common year before the first of each month.
const DAYS_BEFORE_MONTH: [u32; 12] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];

fn days_in_month(year: i32, month: u32) -> u32 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// Days since the Unix epoch for a calendar date; `None` if out of range.
pub fn days_from_ymd(year: i32, month: u32, day: u32) -> Option<i32> {
    if !(1..=9999).contains(&year) || !(1..=12).contains(&month) {
        return None;
    }
    if day == 0 || day > days_in_month(year, month) {
        return None;
    }
    // Days from 0001-01-01 (day 0) to the first of the given year.
    let y = (year - 1) as i64;
    let mut days = y * 365 + y / 4 - y / 100 + y / 400;
    days += i64::from(DAYS_BEFORE_MONTH[month as usize - 1]);
    if month > 2 && is_leap(year) {
        days += 1;
    }
    days += (day - 1) as i64;
    Some((days - DAYS_FROM_CE_TO_EPOCH) as i32)
}

/// Inverse of [`days_from_ymd`]: converts days-since-epoch back to
/// `(year, month, day)`, in constant time — every Bloom insert of a date
/// column formats one.
pub fn date_from_days(days: i32) -> (i32, u32, u32) {
    // Count from 0000-03-01, so that the leap day is the last day of a
    // year and of every 4-, 100- and 400-year cycle.
    let z = days as i64 + DAYS_FROM_CE_TO_EPOCH + 306;
    let era = z.div_euclid(146_097);
    let day_of_era = z.rem_euclid(146_097);
    let year_of_era =
        (day_of_era - day_of_era / 1_460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
    let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
    // Months from March: 153 days to every five of them.
    let month_from_march = (5 * day_of_year + 2) / 153;
    let day = day_of_year - (153 * month_from_march + 2) / 5 + 1;
    let month = (month_from_march + 2) % 12 + 1;
    let year = year_of_era + era * 400 + (month <= 2) as i64;
    (year as i32, month as u32, day as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_int_and_long() {
        assert_eq!(Value::parse("42", DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            Value::parse(" -7 ", DataType::Long).unwrap(),
            Value::Long(-7)
        );
        assert!(Value::parse("4.2", DataType::Int).is_err());
        assert!(Value::parse("", DataType::Int).is_err());
    }

    /// The number parser before its fast paths: the trimmed token
    /// through `str::parse`.
    fn parse_by_std(token: &str, data_type: DataType) -> Option<Value> {
        let token = token.trim();
        match data_type {
            DataType::Int => token.parse().ok().map(Value::Int),
            DataType::Long => token.parse().ok().map(Value::Long),
            DataType::Float => token
                .parse::<f64>()
                .ok()
                .filter(|f| f.is_finite())
                .map(Value::Float),
            _ => unreachable!("numbers only"),
        }
    }

    /// Tokens at the edges of the fast paths, and seeded random ones
    /// built from signs, padding, leading zeros, up to 24 digits either
    /// side of a point and exponents: every one parses to what
    /// `str::parse` gives it, bit for bit, or fails as it does.
    #[test]
    fn number_fast_paths_agree_with_str_parse() {
        let mut tokens: Vec<String> = [
            "0",
            "-0",
            "+0",
            "00",
            "-00",
            "0.0",
            "-0.0",
            "+0.000",
            "007",
            "-007",
            "0.5",
            ".5",
            "5.",
            "-.5",
            "+5.",
            ".",
            "+",
            "-",
            "",
            "+-1",
            "--1",
            "1e5",
            "1E5",
            "1e-5",
            "-1e5",
            "1_0",
            "0x10",
            "0b1",
            "1,5",
            "1.5.2",
            "12a",
            "a12",
            "inf",
            "-inf",
            "infinity",
            "NaN",
            "nan",
            "1e309",
            "-1e309",
            "1e-400",
            "9007199254740992",
            "9007199254740993",
            "9007199254740994",
            "9007199254740993.0",
            "900719925474099.3",
            "0.1",
            "0.2",
            "0.30000000000000004",
            "123456789012345",
            "1234567890123456",
            "12345678901234567",
            "99999999999999.9",
            "999999999999999.9",
            "0.000000000000000000001",
            "0.0000000000000000000001",
            "1.0000000000000000000000",
            "4.35",
            "1.005",
            "2.675",
            "1.7976931348623157e308",
            "2.2250738585072014e-308",
            "5e-324",
            "\u{661}",
        ]
        .iter()
        .map(|t| t.to_string())
        .collect();
        for bound in [
            i64::from(i32::MIN),
            i64::from(i32::MAX),
            i64::MIN,
            i64::MAX,
            999_999_999,
            -999_999_999,
            999_999_999_999_999_999,
            -999_999_999_999_999_999,
        ] {
            for delta in [-1i128, 0, 1] {
                let v = i128::from(bound) + delta;
                tokens.push(v.to_string());
                tokens.push(format!("+{v}"));
                tokens.push(format!("0{v}").replace("0-", "-0"));
            }
        }
        let pads = ["", " ", "\t", "  ", "\u{a0}", "\u{3000}", "\n"];
        let mut x = 0x5EED_F1A7u64;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 33) % n) as usize
        };
        let digits = |next: &mut dyn FnMut(u64) -> usize, max: u64| -> String {
            let zeros = if next(4) == 0 { next(4) } else { 0 };
            let mut out = "0".repeat(zeros);
            for _ in 0..next(max + 1) {
                // Runs of nines and zeros reach the limits and the
                // rounding edges.
                let d = match next(6) {
                    0 => 9,
                    1 => 0,
                    _ => next(10),
                };
                out.push(char::from(b'0' + d as u8));
            }
            out
        };
        for _ in 0..60_000 {
            let mut t = String::new();
            t.push_str(pads[next(16).min(pads.len() - 1)]);
            t.push_str(["", "", "", "-", "+"][next(5)]);
            t.push_str(&digits(&mut next, 20));
            if next(3) > 0 {
                t.push('.');
                t.push_str(&digits(&mut next, 24));
            }
            if next(10) == 0 {
                t.push_str(["e5", "e-3", "E+2", "e"][next(4)]);
            }
            t.push_str(pads[next(16).min(pads.len() - 1)]);
            tokens.push(t);
        }
        for token in &tokens {
            for data_type in [DataType::Int, DataType::Long, DataType::Float] {
                let fast = Value::parse(token, data_type).ok();
                let want = parse_by_std(token, data_type);
                let bits = |v: &Option<Value>| v.as_ref().map(|v| (v.data_type(), v.as_i64()));
                assert_eq!(bits(&fast), bits(&want), "{token:?} as {data_type}");
            }
        }
    }

    /// The plain forms take the fast paths; everything else is left to
    /// `str::parse`.
    #[test]
    fn fast_paths_take_exactly_the_plain_forms() {
        assert_eq!(plain_int(b"-123456789", 9), Some(-123_456_789));
        assert_eq!(plain_int(b"+000000042", 9), Some(42));
        assert_eq!(plain_int(b"1234567890", 9), None);
        assert_eq!(
            plain_int(b"-999999999999999999", 18),
            Some(-(10i64.pow(18) - 1))
        );
        for token in ["", "+", " 1", "1 ", "1.0", "0x1", "1_0"] {
            assert_eq!(plain_int(token.as_bytes(), 18), None, "{token:?}");
        }
        assert_eq!(plain_float(b"123.45"), Some(123.45));
        assert_eq!(
            plain_float(b"-0").map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(plain_float(b"999999999999999"), Some(999_999_999_999_999.0));
        assert_eq!(plain_float(b"0.0000000000000000000001"), Some(1e-22));
        assert_eq!(plain_float(b"000000000000000000001.5"), Some(1.5));
        for token in [
            "1234567890123456",
            "0.00000000000000000000001",
            ".5",
            "5.",
            "1e5",
            " 1",
            "inf",
        ] {
            assert_eq!(plain_float(token.as_bytes()), None, "{token:?}");
        }
    }

    #[test]
    fn parse_float_rejects_nan_and_inf() {
        assert!(Value::parse("NaN", DataType::Float).is_err());
        assert!(Value::parse("inf", DataType::Float).is_err());
        assert_eq!(
            Value::parse("3.25", DataType::Float).unwrap(),
            Value::Float(3.25)
        );
    }

    #[test]
    fn parse_varchar_rejects_nul() {
        assert!(Value::parse("a\0b", DataType::VarChar).is_err());
        assert_eq!(
            Value::parse("hello", DataType::VarChar).unwrap(),
            Value::Str("hello".into())
        );
    }

    #[test]
    fn date_epoch_is_zero() {
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
    }

    #[test]
    fn date_known_values() {
        // 2000-01-01 is 10957 days after the epoch.
        assert_eq!(parse_date("2000-01-01"), Some(10_957));
        // Leap day handling.
        assert!(parse_date("2000-02-29").is_some());
        assert_eq!(parse_date("1900-02-29"), None);
        assert_eq!(parse_date("1999-13-01"), None);
        assert_eq!(parse_date("1999-00-10"), None);
        assert_eq!(parse_date("1999-01-32"), None);
        assert_eq!(parse_date("1999/01/01"), None);
    }

    /// Only digits make a date: a sign would parse as a number but could
    /// not print back as the text it came from.
    #[test]
    fn date_fields_are_digits_only() {
        for s in [
            "+999-01-01",
            "-999-01-01",
            "2000-+1-01",
            "2000-01-+1",
            "2000- 1-01",
            "200a-01-01",
            "2000-01-0\u{661}",
        ] {
            assert_eq!(parse_date(s), None, "{s}");
        }
        assert_eq!(
            parse_date("0999-01-01").map(|d| Value::Date(d).to_string()),
            Some("0999-01-01".into())
        );
    }

    #[test]
    fn date_round_trip_sample() {
        for s in [
            "1992-12-22",
            "1999-01-01",
            "2000-01-01",
            "2011-06-30",
            "1970-01-01",
            "2400-02-29",
        ] {
            let days = parse_date(s).unwrap();
            assert_eq!(Value::Date(days).to_string(), s);
        }
    }

    /// The year-by-year, month-by-month walk `date_from_days` replaced.
    fn date_from_days_walking(days: i32) -> (i32, u32, u32) {
        let mut remaining = days as i64 + DAYS_FROM_CE_TO_EPOCH;
        let cycles = remaining.div_euclid(146_097);
        remaining = remaining.rem_euclid(146_097);
        let mut year = (cycles * 400 + 1) as i32;
        loop {
            let len = if is_leap(year) { 366 } else { 365 };
            if remaining < len {
                break;
            }
            remaining -= len;
            year += 1;
        }
        let mut month = 1u32;
        loop {
            let len = days_in_month(year, month) as i64;
            if remaining < len {
                break;
            }
            remaining -= len;
            month += 1;
        }
        (year, month, remaining as u32 + 1)
    }

    #[test]
    fn date_from_days_inverts_days_from_ymd_for_every_day() {
        let first = days_from_ymd(1, 1, 1).unwrap();
        let last = days_from_ymd(9999, 12, 31).unwrap();
        assert_eq!((first, last), (-719_162, 2_932_896));
        let mut expected = (1, 1, 1);
        for days in first..=last {
            let (y, m, d) = date_from_days(days);
            assert_eq!((y, m, d), expected, "day {days}");
            assert_eq!(days_from_ymd(y, m, d), Some(days));
            expected = if d < days_in_month(y, m) {
                (y, m, d + 1)
            } else if m < 12 {
                (y, m + 1, 1)
            } else {
                (y + 1, 1, 1)
            };
        }
    }

    /// Outside the years a date can be parsed into, the display form
    /// still is what it was.
    #[test]
    fn date_from_days_agrees_with_the_calendar_walk_out_of_range() {
        let far = (i32::MIN..=i32::MAX).step_by(999_983);
        let near = -800_000..-700_000;
        let late = 2_900_000..3_000_000;
        for days in far.chain(near).chain(late) {
            assert_eq!(
                date_from_days(days),
                date_from_days_walking(days),
                "day {days}"
            );
        }
        assert_eq!(Value::Date(-719_163).to_string(), "0000-12-31");
        assert_eq!(Value::Date(2_932_897).to_string(), "10000-01-01");
        assert_eq!(Value::Date(-1_000_000).to_string(), "-768-02-04");
    }

    #[test]
    fn float_total_order() {
        let a = Value::Float(-0.0);
        let b = Value::Float(0.0);
        // total_cmp distinguishes -0.0 < 0.0; we just need determinism.
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(Value::Float(1.5).cmp(&Value::Float(2.5)), Ordering::Less);
    }

    #[test]
    fn cross_type_compare_is_deterministic() {
        let v = Value::Int(5);
        let s = Value::Str("5".into());
        let c1 = v.total_cmp(&s);
        let c2 = v.total_cmp(&s);
        assert_eq!(c1, c2);
        assert_eq!(v.total_cmp(&Value::Long(6)), Ordering::Less);
    }

    #[test]
    fn encoded_len() {
        assert_eq!(Value::Int(1).encoded_len(), 4);
        assert_eq!(Value::Long(1).encoded_len(), 8);
        assert_eq!(Value::Float(1.0).encoded_len(), 8);
        assert_eq!(Value::Date(1).encoded_len(), 4);
        assert_eq!(Value::Str("abc".into()).encoded_len(), 4);
    }

    #[test]
    fn push_text_is_display() {
        let mut out = String::from("kept ");
        let values = [
            Value::Date(-719_163),
            Value::Date(-719_162),
            Value::Date(0),
            Value::Date(2_932_896),
            Value::Date(2_932_897),
            Value::Date(i32::MIN),
            Value::Int(-42),
            Value::Long(i64::MIN),
            Value::Float(-0.0),
            Value::Float(0.1),
            Value::Str("żółw".into()),
        ];
        for value in values {
            out.truncate(5);
            value.as_ref().push_text(&mut out);
            assert_eq!(out, format!("kept {value}"));
        }
    }

    #[test]
    fn display_date() {
        let d = parse_date("2011-09-15").unwrap();
        assert_eq!(Value::Date(d).to_string(), "2011-09-15");
    }
}
