use crate::faultable::FaultableState;
use serde::{DeError, Deserialize, Serialize, Value};

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

/// A counter that can sit in a [`Counters`] table: a value in
/// `0..=max`, with `max = 2^bits - 1` shared by the whole table.
pub trait TableCounter: Copy {
    /// Current value.
    fn value(&self) -> u8;

    /// Maximum representable value.
    fn max(&self) -> u8;

    /// The counter holding `value` under `max`. Callers guarantee that
    /// `max` is `2^bits - 1` with `bits` in `1..=7` and `value <= max`.
    fn from_parts(value: u8, max: u8) -> Self;
}

impl TableCounter for SatCounter {
    fn value(&self) -> u8 {
        self.value
    }

    fn max(&self) -> u8 {
        self.max
    }

    fn from_parts(value: u8, max: u8) -> Self {
        Self { value, max }
    }
}

impl TableCounter for ResettingCounter {
    fn value(&self) -> u8 {
        self.value
    }

    fn max(&self) -> u8 {
        self.max
    }

    fn from_parts(value: u8, max: u8) -> Self {
        Self { value, max }
    }
}

/// A table of n-bit counters of one width: the state of every
/// table-based predictor and estimator. It derefs to `[C]`, so
/// lookups, updates and fault flips index it like a slice.
///
/// Its snapshot form stores the shared `max` once and every value as
/// two lowercase hex digits, `{"max": 3, "values": "0103…"}`, so a
/// Table 1 machine's ~150K counters are one string per table.
///
/// # Examples
///
/// ```
/// use perconf_bpred::{Counters, SatCounter};
/// use serde::{Deserialize, Serialize, Value};
///
/// let mut t = Counters::new(SatCounter::new(2), 4);
/// t[2].inc();
/// let saved = t.to_value();
/// assert_eq!(saved.get("max"), Some(&Value::Int(3)));
/// assert_eq!(saved.get("values"), Some(&Value::Str("01010201".into())));
/// assert_eq!(Counters::<SatCounter>::from_value(&saved).unwrap(), t);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters<C> {
    max: u8,
    cells: Vec<C>,
}

impl<C: TableCounter> Counters<C> {
    /// A table of `len` copies of `proto`.
    #[must_use]
    pub fn new(proto: C, len: usize) -> Self {
        Self {
            max: proto.max(),
            cells: vec![proto; len],
        }
    }
}

impl<C> std::ops::Deref for Counters<C> {
    type Target = [C];

    fn deref(&self) -> &[C] {
        &self.cells
    }
}

impl<C> std::ops::DerefMut for Counters<C> {
    fn deref_mut(&mut self) -> &mut [C] {
        &mut self.cells
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

impl<C: TableCounter> Serialize for Counters<C> {
    fn to_value(&self) -> Value {
        let mut hex = Vec::with_capacity(2 * self.cells.len());
        for c in &self.cells {
            let v = usize::from(c.value());
            hex.extend([HEX_DIGITS[v >> 4], HEX_DIGITS[v & 0xf]]);
        }
        Value::Object(vec![
            ("max".into(), self.max.to_value()),
            (
                "values".into(),
                Value::Str(String::from_utf8(hex).expect("hex digits are ASCII")),
            ),
        ])
    }
}

impl<C: TableCounter> Deserialize for Counters<C> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let max: u8 = serde::field(v, "max")?;
        if max == 0 || max > 127 || max & (max + 1) != 0 {
            return Err(DeError(format!(
                "counter max {max} is not 2^k - 1 with k in 1..=7"
            )));
        }
        let Some(Value::Str(hex)) = v.get("values") else {
            return Err(DeError("field `values`: expected a hex string".into()));
        };
        if hex.len() % 2 != 0 {
            return Err(DeError(format!("field `values`: odd length {}", hex.len())));
        }
        let digit = |b: u8| match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            _ => Err(DeError(format!(
                "field `values`: {:?} is not a lowercase hex digit",
                char::from(b)
            ))),
        };
        let cells = hex
            .as_bytes()
            .chunks_exact(2)
            .map(|pair| {
                let value = (digit(pair[0])? << 4) | digit(pair[1])?;
                if value > max {
                    return Err(DeError(format!("counter value {value} exceeds max {max}")));
                }
                Ok(C::from_parts(value, max))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { max, cells })
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

    fn packed(max: i64, values: &str) -> Value {
        Value::Object(vec![
            ("max".into(), Value::Int(max)),
            ("values".into(), Value::Str(values.into())),
        ])
    }

    #[test]
    fn counter_tables_round_trip_with_one_shared_max() {
        let mut sat = Counters::new(SatCounter::new(3), 5);
        sat[0].dec();
        sat[4].inc();
        sat[4].inc();
        let saved = sat.to_value();
        assert_eq!(saved, packed(7, "0203030305"));
        assert_eq!(Counters::<SatCounter>::from_value(&saved).unwrap(), sat);

        let mut jrs = Counters::new(ResettingCounter::new(4), 3);
        for _ in 0..20 {
            jrs[1].correct();
        }
        jrs[2].correct();
        let saved = jrs.to_value();
        assert_eq!(saved, packed(15, "000f01"));
        assert_eq!(
            Counters::<ResettingCounter>::from_value(&saved).unwrap(),
            jrs
        );
        // Seven-bit counters use both hex digits.
        let wide = Counters::new(SatCounter::with_value(7, 127), 2);
        assert_eq!(wide.to_value(), packed(127, "7f7f"));
    }

    #[test]
    fn malformed_counter_tables_are_rejected() {
        for (max, values, why) in [
            (0, "00", "not 2^k - 1"),
            (2, "00", "not 2^k - 1"),
            (5, "00", "not 2^k - 1"),
            (255, "00", "not 2^k - 1"),
            (3, "010", "odd length"),
            (3, "0g", "not a lowercase hex digit"),
            (3, "0A", "not a lowercase hex digit"),
            (3, "-1", "not a lowercase hex digit"),
            (3, "0104", "exceeds max"),
        ] {
            let err = Counters::<SatCounter>::from_value(&packed(max, values)).unwrap_err();
            assert!(err.to_string().contains(why), "{max} {values:?}: {err}");
        }
        let unpacked = Value::Object(vec![
            ("max".into(), Value::Int(3)),
            ("values".into(), Value::Array(vec![Value::Int(1)])),
        ]);
        assert!(Counters::<SatCounter>::from_value(&unpacked).is_err());
    }

    #[test]
    fn derived_state_tree_borrows_its_field_names() {
        // TAGE's tagged tables hold thousands of single counters in
        // this form, so a snapshot must not allocate a `String` per
        // field name.
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
