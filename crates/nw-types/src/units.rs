//! Physical and economic quantity newtypes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A byte count (payload sizes, memory footprints).
///
/// # Examples
///
/// ```
/// use nw_types::Bytes;
/// let header = Bytes(20);
/// let payload = Bytes(44);
/// assert_eq!(header + payload, Bytes(64));
/// assert_eq!(Bytes(64).bits(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// The zero size.
    pub const ZERO: Bytes = Bytes(0);

    /// Returns the size in bits.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Number of fixed-size chunks (e.g. flits) needed to carry this many
    /// bytes, rounding up. Zero bytes still need zero chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    #[inline]
    pub fn div_ceil_by(self, chunk: u64) -> u64 {
        assert!(chunk > 0, "chunk size must be non-zero");
        self.0.div_ceil(chunk)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

/// A data rate in bits per second (line rates, NoC link bandwidth).
///
/// # Examples
///
/// ```
/// use nw_types::BitsPerSec;
/// let line = BitsPerSec::from_gbps(10.0);
/// assert_eq!(line.0, 10e9);
/// assert_eq!(BitsPerSec::from_mbps(2_500.0).gbps(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BitsPerSec(pub f64);

impl BitsPerSec {
    /// Creates a rate from gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        BitsPerSec(gbps * 1e9)
    }

    /// Creates a rate from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        BitsPerSec(mbps * 1e6)
    }

    /// Returns the rate in gigabits per second.
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }
}

impl fmt::Display for BitsPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gb/s", self.gbps())
    }
}

impl Add for BitsPerSec {
    type Output = BitsPerSec;
    fn add(self, rhs: BitsPerSec) -> BitsPerSec {
        BitsPerSec(self.0 + rhs.0)
    }
}

/// Energy in picojoules (per-operation energy accounting).
///
/// # Examples
///
/// ```
/// use nw_types::Picojoules;
/// let read = Picojoules(12.5);
/// assert_eq!(read * 4.0, Picojoules(50.0));
/// assert_eq!(read + Picojoules(2.5), Picojoules(15.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picojoules(pub f64);

impl Picojoules {
    /// The zero energy.
    pub const ZERO: Picojoules = Picojoules(0.0);
}

impl fmt::Display for Picojoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}pJ", self.0)
    }
}

impl Add for Picojoules {
    type Output = Picojoules;
    fn add(self, rhs: Picojoules) -> Picojoules {
        Picojoules(self.0 + rhs.0)
    }
}

impl AddAssign for Picojoules {
    fn add_assign(&mut self, rhs: Picojoules) {
        self.0 += rhs.0;
    }
}

impl Sub for Picojoules {
    type Output = Picojoules;
    fn sub(self, rhs: Picojoules) -> Picojoules {
        Picojoules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Picojoules {
    type Output = Picojoules;
    fn mul(self, rhs: f64) -> Picojoules {
        Picojoules(self.0 * rhs)
    }
}

impl Sum for Picojoules {
    fn sum<I: Iterator<Item = Picojoules>>(iter: I) -> Picojoules {
        iter.fold(Picojoules::ZERO, |a, b| a + b)
    }
}

/// Silicon area in square millimetres.
///
/// # Examples
///
/// ```
/// use nw_types::AreaMm2;
/// let pe = AreaMm2(0.5);
/// assert_eq!(pe * 16.0, AreaMm2(8.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct AreaMm2(pub f64);

impl AreaMm2 {
    /// The zero area.
    pub const ZERO: AreaMm2 = AreaMm2(0.0);
}

impl fmt::Display for AreaMm2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}mm²", self.0)
    }
}

impl Add for AreaMm2 {
    type Output = AreaMm2;
    fn add(self, rhs: AreaMm2) -> AreaMm2 {
        AreaMm2(self.0 + rhs.0)
    }
}

impl AddAssign for AreaMm2 {
    fn add_assign(&mut self, rhs: AreaMm2) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for AreaMm2 {
    type Output = AreaMm2;
    fn mul(self, rhs: f64) -> AreaMm2 {
        AreaMm2(self.0 * rhs)
    }
}

impl Sum for AreaMm2 {
    fn sum<I: Iterator<Item = AreaMm2>>(iter: I) -> AreaMm2 {
        iter.fold(AreaMm2::ZERO, |a, b| a + b)
    }
}

/// Money in US dollars (NRE and unit-cost economics).
///
/// # Examples
///
/// ```
/// use nw_types::Dollars;
/// let mask = Dollars(1_000_000.0);
/// let per_chip_profit = Dollars(1.0);
/// assert_eq!(mask / per_chip_profit, 1_000_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dollars(pub f64);

impl Dollars {
    /// The zero amount.
    pub const ZERO: Dollars = Dollars(0.0);

    /// Creates an amount from millions of dollars.
    pub fn from_millions(m: f64) -> Self {
        Dollars(m * 1e6)
    }

    /// Returns the amount in millions of dollars.
    pub fn millions(self) -> f64 {
        self.0 / 1e6
    }
}

impl fmt::Display for Dollars {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "${:.2}M", self.millions())
        } else {
            write!(f, "${:.2}", self.0)
        }
    }
}

impl Add for Dollars {
    type Output = Dollars;
    fn add(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 + rhs.0)
    }
}

impl Sub for Dollars {
    type Output = Dollars;
    fn sub(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 - rhs.0)
    }
}

impl Mul<f64> for Dollars {
    type Output = Dollars;
    fn mul(self, rhs: f64) -> Dollars {
        Dollars(self.0 * rhs)
    }
}

/// Ratio of two amounts: how many units of `rhs` fit in `self`.
impl Div<Dollars> for Dollars {
    type Output = f64;
    fn div(self, rhs: Dollars) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_bits_and_chunks() {
        assert_eq!(Bytes(64).bits(), 512);
        assert_eq!(Bytes(0).div_ceil_by(8), 0);
        assert_eq!(Bytes(1).div_ceil_by(8), 1);
        assert_eq!(Bytes(8).div_ceil_by(8), 1);
        assert_eq!(Bytes(9).div_ceil_by(8), 2);
    }

    #[test]
    #[should_panic(expected = "chunk size must be non-zero")]
    fn bytes_zero_chunk_panics() {
        let _ = Bytes(8).div_ceil_by(0);
    }

    #[test]
    fn mbps_constructor() {
        assert!((BitsPerSec::from_mbps(1000.0).gbps() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_accumulation() {
        let mut total = Picojoules::ZERO;
        total += Picojoules(3.0);
        total += Picojoules(4.5);
        assert!((total.0 - 7.5).abs() < 1e-12);
        let s: Picojoules = [Picojoules(1.0), Picojoules(2.0)].into_iter().sum();
        assert!((s.0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dollars_display_and_breakeven() {
        assert_eq!(Dollars::from_millions(1.0).to_string(), "$1.00M");
        assert_eq!(Dollars(5.0).to_string(), "$5.00");
        // $1M mask NRE at $1/chip profit = 1M chips.
        let units = Dollars::from_millions(1.0) / Dollars(1.0);
        assert!((units - 1e6).abs() < 1.0);
    }

    #[test]
    fn area_sums() {
        let total: AreaMm2 = [AreaMm2(0.5), AreaMm2(1.5)].into_iter().sum();
        assert!((total.0 - 2.0).abs() < 1e-12);
    }
}
