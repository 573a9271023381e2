use crate::faultable::FaultableState;
use serde::{Deserialize, Serialize};

/// An n-bit saturating up/down counter, the universal building block of
/// table-based predictors and confidence estimators.
///
/// # Examples
///
/// ```
/// use perconf_bpred::SatCounter;
///
/// let mut c = SatCounter::new(2); // 2 bits: 0..=3
/// assert_eq!(c.value(), 1);       // initialised weakly not-taken
/// c.inc();
/// c.inc();
/// c.inc();
/// assert_eq!(c.value(), 3);       // saturates at max
/// assert!(c.msb());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SatCounter {
    value: u8,
    max: u8,
}

impl SatCounter {
    /// Creates an n-bit counter (`1 <= bits <= 7`), initialised just
    /// below the midpoint (the conventional "weakly not-taken" state).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    #[must_use]
    pub fn new(bits: u8) -> Self {
        assert!((1..=7).contains(&bits), "counter width must be 1..=7 bits");
        let max = (1u8 << bits) - 1;
        Self {
            value: max.div_ceil(2) - 1,
            max,
        }
    }

    /// Creates an n-bit counter with an explicit initial value
    /// (clamped to range).
    #[must_use]
    pub fn with_value(bits: u8, value: u8) -> Self {
        let mut c = Self::new(bits);
        c.value = value.min(c.max);
        c
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Maximum representable value (`2^bits - 1`).
    #[must_use]
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Saturating increment.
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    pub fn dec(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Increments if `up`, else decrements.
    pub fn update(&mut self, up: bool) {
        if up {
            self.inc();
        } else {
            self.dec();
        }
    }

    /// Most significant bit: the "predict taken" decision for a
    /// direction counter.
    #[must_use]
    pub fn msb(&self) -> bool {
        self.value > self.max / 2
    }

    /// Returns `true` when the counter is at one of its two extreme
    /// values — Smith's notion of a *high-confidence* state.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.value == 0 || self.value == self.max
    }
}

impl FaultableState for SatCounter {
    fn state_bits(&self) -> u64 {
        u64::from(self.max.count_ones())
    }

    fn flip_state_bit(&mut self, bit: u64) {
        // max = 2^bits - 1, so flipping any bit below the width leaves
        // the value representable.
        self.value ^= 1 << (bit % self.state_bits()) as u8;
    }
}

/// A miss-distance resetting counter as used by the JRS confidence
/// estimator: incremented (saturating) on a correct prediction, reset
/// to zero on a misprediction. The counter value is then the number of
/// consecutive correct predictions observed, capped at `2^bits - 1`.
///
/// # Examples
///
/// ```
/// use perconf_bpred::ResettingCounter;
///
/// let mut c = ResettingCounter::new(4);
/// for _ in 0..20 {
///     c.correct();
/// }
/// assert_eq!(c.value(), 15);
/// c.incorrect();
/// assert_eq!(c.value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResettingCounter {
    value: u8,
    max: u8,
}

impl ResettingCounter {
    /// Creates an n-bit resetting counter starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    #[must_use]
    pub fn new(bits: u8) -> Self {
        assert!((1..=7).contains(&bits), "counter width must be 1..=7 bits");
        Self {
            value: 0,
            max: (1u8 << bits) - 1,
        }
    }

    /// Current miss distance (consecutive correct predictions, capped).
    #[must_use]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Maximum representable value.
    #[must_use]
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Records a correct prediction (saturating increment).
    pub fn correct(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Records a misprediction (reset to zero).
    pub fn incorrect(&mut self) {
        self.value = 0;
    }
}

impl FaultableState for ResettingCounter {
    fn state_bits(&self) -> u64 {
        u64::from(self.max.count_ones())
    }

    fn flip_state_bit(&mut self, bit: u64) {
        self.value ^= 1 << (bit % self.state_bits()) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_counter_cycle() {
        let mut c = SatCounter::new(2);
        assert_eq!(c.value(), 1);
        assert!(!c.msb());
        c.inc();
        assert!(c.msb());
        c.inc();
        assert_eq!(c.value(), 3);
        c.inc();
        assert_eq!(c.value(), 3);
        for _ in 0..5 {
            c.dec();
        }
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn saturation_detection() {
        let mut c = SatCounter::new(2);
        assert!(!c.is_saturated());
        c.dec();
        assert!(c.is_saturated());
        c.inc();
        c.inc();
        c.inc();
        assert!(c.is_saturated());
    }

    #[test]
    fn update_routes_by_direction() {
        let mut c = SatCounter::new(3);
        let v = c.value();
        c.update(true);
        assert_eq!(c.value(), v + 1);
        c.update(false);
        assert_eq!(c.value(), v);
    }

    #[test]
    fn with_value_clamps() {
        let c = SatCounter::with_value(2, 200);
        assert_eq!(c.value(), 3);
    }

    #[test]
    #[should_panic(expected = "1..=7")]
    fn zero_bits_panics() {
        let _ = SatCounter::new(0);
    }

    #[test]
    fn resetting_counter_counts_streaks() {
        let mut c = ResettingCounter::new(4);
        for i in 1..=10 {
            c.correct();
            assert_eq!(c.value(), i.min(15));
        }
        c.incorrect();
        assert_eq!(c.value(), 0);
        c.correct();
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn resetting_counter_saturates() {
        let mut c = ResettingCounter::new(2);
        for _ in 0..10 {
            c.correct();
        }
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn derived_state_tree_borrows_its_field_names() {
        // Predictor tables hold ~10^5 counters, so a snapshot must not
        // allocate a `String` per field name.
        let c = SatCounter::with_value(3, 5);
        assert!(
            c.as_value().is_none(),
            "only a `Value` lends itself as a tree"
        );
        let serde::Value::Object(fields) = c.to_value() else {
            panic!("a struct renders as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["value", "max"]);
        assert!(fields
            .iter()
            .all(|(k, _)| matches!(k, std::borrow::Cow::Borrowed(_))));
        assert_eq!(
            SatCounter::from_value(&serde::Value::Object(fields)).unwrap(),
            c
        );
    }
}
