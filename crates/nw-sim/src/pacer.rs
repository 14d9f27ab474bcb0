//! Exact integer rate pacing.
//!
//! A [`Pacer`] turns "`rate` credit per cycle, one item per `cost` credit"
//! into item arrivals without floating point: the credit is an integer, so
//! advancing `k` cycles at once is the same arithmetic as `k` single
//! cycles, and the cycle of the next arrival has a closed form. The
//! platform's line-rate I/O channels pace with it (credit unit bit·Hz),
//! which is what lets the active-set scheduler jump a quiet span in one
//! step and still agree with the dense scheduler to the last bit.

use std::num::NonZeroU64;

/// An integer credit accumulator: every cycle adds `rate`, every emitted
/// item costs `cost`, and an item is emitted whenever `credit >= cost`
/// (a tie emits).
///
/// Between calls the credit is always below `cost`, so the whole state is
/// three `u64`s and [`Pacer::advance`] never loses a remainder: after any
/// sequence of calls covering `c` cycles, exactly
/// `floor(c * rate / cost)` items have been emitted.
///
/// # Examples
///
/// ```
/// use nw_sim::Pacer;
/// use std::num::NonZeroU64;
///
/// // 3 credit per cycle, 10 per item: items on cycles 4, 7, 10, 14, ...
/// let mut p = Pacer::new(3, NonZeroU64::new(10).unwrap());
/// assert_eq!(p.ticks_to_next(), 4);
/// assert_eq!(p.advance(3), 0);
/// assert_eq!(p.tick(), 1);
/// // One jump equals the same number of single ticks.
/// let mut q = p;
/// let ticked: u64 = (0..1000).map(|_| q.tick()).sum();
/// assert_eq!(p.advance(1000), ticked);
/// assert_eq!(p, q);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pacer {
    rate: u64,
    cost: NonZeroU64,
    /// Invariant: `credit < cost`.
    credit: u64,
}

impl Pacer {
    /// A real-valued amount of credit as the nearest whole one; `None` if
    /// it is negative, NaN or does not fit 64 bits. Rates and costs that
    /// arrive as `f64` configuration enter the pacer through here.
    pub fn whole_credit(x: f64) -> Option<u64> {
        let r = x.round();
        // `u64::MAX as f64` is 2^64, the first value that does not fit.
        (x >= 0.0 && r < u64::MAX as f64).then_some(r as u64)
    }

    /// A pacer with no credit.
    pub fn new(rate: u64, cost: NonZeroU64) -> Self {
        Pacer {
            rate,
            cost,
            credit: 0,
        }
    }

    /// Advances one cycle; returns the items that fall due in it.
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.advance(1)
    }

    /// Advances `k` cycles at once — the same arithmetic as `k` calls of
    /// [`Pacer::tick`] — and returns the items that fall due in them
    /// (saturating at `u64::MAX`).
    #[inline]
    pub fn advance(&mut self, k: u64) -> u64 {
        let cost = u128::from(self.cost.get());
        let total = u128::from(self.credit) + u128::from(k) * u128::from(self.rate);
        if total < cost {
            self.credit = total as u64;
            return 0;
        }
        // The remainder is below `cost`, so it fits the credit word.
        self.credit = (total % cost) as u64;
        u64::try_from(total / cost).unwrap_or(u64::MAX)
    }

    /// How many ticks from now the next item falls due: the `n`-th coming
    /// tick is the first to emit (`n >= 1`), so `advance(n - 1)` emits
    /// nothing. `u64::MAX` at rate 0 (never).
    #[inline]
    pub fn ticks_to_next(&self) -> u64 {
        if self.rate == 0 {
            return u64::MAX;
        }
        (self.cost.get() - self.credit).div_ceil(self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pacer(rate: u64, cost: u64) -> Pacer {
        Pacer::new(rate, NonZeroU64::new(cost).expect("test cost is nonzero"))
    }

    #[test]
    fn a_tie_emits_on_the_cycle_it_is_reached() {
        // 5 per cycle, 20 per item: credit reaches exactly 20 on tick 4.
        let mut p = pacer(5, 20);
        assert_eq!(p.ticks_to_next(), 4);
        assert_eq!((p.tick(), p.tick(), p.tick()), (0, 0, 0));
        assert_eq!(p.tick(), 1);
        assert_eq!(p.ticks_to_next(), 4);
    }

    #[test]
    fn several_items_per_cycle_and_none_at_rate_zero() {
        let mut fast = pacer(25, 10);
        assert_eq!(fast.ticks_to_next(), 1);
        assert_eq!((fast.tick(), fast.tick()), (2, 3));
        let mut idle = pacer(0, 10);
        assert_eq!(idle.ticks_to_next(), u64::MAX);
        assert_eq!(idle.advance(u64::MAX), 0);
    }

    #[test]
    fn whole_credit_rounds_and_rejects_what_does_not_fit() {
        assert_eq!(Pacer::whole_credit(2.5), Some(3));
        assert_eq!(Pacer::whole_credit(0.4), Some(0));
        assert_eq!(
            Pacer::whole_credit(1.8e19),
            Some(18_000_000_000_000_000_000)
        );
        for bad in [-0.4, -1.0, f64::NAN, f64::INFINITY, 1.9e19] {
            assert_eq!(Pacer::whole_credit(bad), None, "{bad}");
        }
    }

    #[test]
    fn extreme_operands_neither_overflow_nor_lose_the_remainder() {
        let mut p = pacer(u64::MAX, u64::MAX);
        assert_eq!(p.advance(u64::MAX), u64::MAX);
        let mut q = pacer(u64::MAX, 1);
        assert_eq!(q.advance(u64::MAX), u64::MAX, "count saturates");
        let mut r = pacer(7, u64::MAX);
        assert_eq!(r.advance(u64::MAX), 7);
        assert_eq!(r.ticks_to_next(), u64::MAX.div_ceil(7));
    }
}
