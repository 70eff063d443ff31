//! IP addresses as seen by the NAT emulation.
//!
//! The simulation does not route real packets, but the NAT-type identification protocol
//! (§V of the paper) compares the *local* IP address of a node with the source address a
//! remote peer observes. This light-weight address type gives the emulation enough
//! structure to reproduce that comparison faithfully.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 32-bit IPv4-like address.
///
/// Addresses allocated by [`NatTopology`](crate::NatTopology) follow two disjoint ranges so
/// private and public addresses can never collide: public addresses live below
/// `0xC0A8_0000`, private (RFC1918-like) addresses at or above it.
///
/// # Examples
///
/// ```
/// use croupier_nat::Ip;
///
/// let public = Ip::public(7);
/// let private = Ip::private(7);
/// assert!(!public.is_private_range());
/// assert!(private.is_private_range());
/// assert_ne!(public, private);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Ip(u32);

/// Start of the synthetic private address range (mirrors 192.168.0.0).
const PRIVATE_BASE: u32 = 0xC0A8_0000;

impl Ip {
    /// Creates an address from its raw 32-bit value.
    pub const fn from_raw(raw: u32) -> Self {
        Ip(raw)
    }

    /// Allocates the `index`-th synthetic *public* address.
    ///
    /// # Panics
    ///
    /// Panics if `index` would collide with the private range.
    pub fn public(index: u32) -> Self {
        assert!(
            index < PRIVATE_BASE - 1,
            "public address index overflows into the private range"
        );
        Ip(index + 1)
    }

    /// Allocates the `index`-th synthetic *private* address.
    pub fn private(index: u32) -> Self {
        Ip(PRIVATE_BASE.wrapping_add(index))
    }

    /// Raw 32-bit value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns `true` if the address lies in the synthetic private range.
    pub const fn is_private_range(self) -> bool {
        self.0 >= PRIVATE_BASE
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let octets = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", octets[0], octets[1], octets[2], octets[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_and_private_ranges_are_disjoint() {
        for i in 0..1_000u32 {
            assert!(!Ip::public(i).is_private_range());
            assert!(Ip::private(i).is_private_range());
            assert_ne!(Ip::public(i), Ip::private(i));
        }
    }

    #[test]
    fn public_addresses_are_distinct() {
        let a = Ip::public(1);
        let b = Ip::public(2);
        assert_ne!(a, b);
    }

    #[test]
    fn display_renders_dotted_quad() {
        assert_eq!(Ip::from_raw(0x01020304).to_string(), "1.2.3.4");
        assert_eq!(Ip::private(0).to_string(), "192.168.0.0");
    }

    #[test]
    #[should_panic(expected = "overflows into the private range")]
    fn public_index_cannot_reach_private_range() {
        Ip::public(PRIVATE_BASE);
    }
}
