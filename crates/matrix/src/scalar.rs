//! Floating-point element trait.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Real floating-point scalar usable as a matrix element.
///
/// Implemented for `f32` and `f64`. The trait collects exactly the
/// operations the QR kernels need (field arithmetic, square root, absolute
/// value, sign transfer) so that every kernel in the workspace is generic
/// over precision.
pub trait Scalar:
    Copy
    + Debug
    + Display
    + PartialOrd
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of this precision.
    const EPSILON: Self;
    /// Smallest positive normal value of this precision (LAPACK `safmin`).
    const MIN_POSITIVE: Self;

    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `true` if the value is finite (neither NaN nor infinite).
    fn is_finite(self) -> bool;
    /// Largest of `self` and `other` (NaN-propagating like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// Smallest of `self` and `other`.
    fn min(self, other: Self) -> Self;
    /// Lossless-ish conversion from `f64` (used by generators and constants).
    fn from_f64(v: f64) -> Self;
    /// Conversion to `f64` (used by norms reported to the harness).
    fn to_f64(self) -> f64;
    /// Hypotenuse `sqrt(self^2 + other^2)` computed without undue overflow.
    fn hypot(self, other: Self) -> Self;
    /// `self` with the sign of `sign` (LAPACK `sign` transfer; `sign == 0`
    /// counts as positive).
    fn copysign(self, sign: Self) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;

            #[inline]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                if self > other {
                    self
                } else {
                    other
                }
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                if self < other {
                    self
                } else {
                    other
                }
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn hypot(self, other: Self) -> Self {
                self.hypot(other)
            }
            #[inline]
            fn copysign(self, sign: Self) -> Self {
                if sign >= 0.0 {
                    self.abs()
                } else {
                    -self.abs()
                }
            }
        }
    };
}

impl_scalar!(f32);
impl_scalar!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f64::ONE, 1.0);
        assert_eq!(f32::ONE, 1.0f32);
        // Each precision carries its own threshold, not f64's cast down.
        assert_eq!(<f64 as Scalar>::MIN_POSITIVE, f64::MIN_POSITIVE);
        assert_eq!(<f32 as Scalar>::MIN_POSITIVE, f32::MIN_POSITIVE);
        assert!(<f32 as Scalar>::MIN_POSITIVE.to_f64() > 1e200 * <f64 as Scalar>::MIN_POSITIVE);
    }

    #[test]
    fn copysign_zero_is_positive() {
        assert_eq!(3.0f64.copysign(0.0), 3.0);
        assert_eq!(3.0f64.copysign(-1.0), -3.0);
        assert_eq!((-3.0f64).copysign(1.0), 3.0);
    }

    #[test]
    fn hypot_matches_std() {
        assert!((Scalar::hypot(3.0f64, 4.0) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn max_min() {
        assert_eq!(Scalar::max(1.0f64, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0f64, 2.0), 1.0);
    }
}
