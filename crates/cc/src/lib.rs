//! Classic congestion-control kernels.
//!
//! These implement the [`canopy_netsim::CongestionControl`] trait and serve
//! two roles in the Canopy reproduction:
//!
//! 1. [`Cubic`] is the fine-grained backbone that Orca (and therefore
//!    Canopy) modulates: the learned agent reads `cwnd_tcp = cubic.cwnd()`
//!    once per monitor interval and writes back `2^(2a) · cwnd_tcp`
//!    (Eq. 1 of the paper).
//! 2. Cubic, [`NewReno`], [`Vegas`], and BBR (`by_name("bbr")`) are the
//!    TCP baselines in the evaluation figures (Figs. 9, 10, 12, 14, 15).
//!
//! All window arithmetic is in packets, matching the simulator.

mod bbr;
pub mod cubic;
pub mod newreno;
pub mod vegas;

use bbr::Bbr;
pub use cubic::Cubic;
pub use newreno::NewReno;
pub use vegas::Vegas;

use canopy_netsim::CongestionControl;

/// The TCP baselines evaluated in the paper, by name.
///
/// # Examples
///
/// ```
/// let cc = canopy_cc::by_name("cubic").unwrap();
/// assert_eq!(cc.name(), "cubic");
/// assert!(canopy_cc::by_name("quic-magic").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Box<dyn CongestionControl>> {
    match name {
        "cubic" => Some(Box::new(Cubic::new())),
        "newreno" | "reno" => Some(Box::new(NewReno::new())),
        "vegas" => Some(Box::new(Vegas::new())),
        "bbr" => Some(Box::new(Bbr::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_baselines() {
        for name in ["cubic", "newreno", "vegas", "bbr"] {
            let cc = by_name(name).expect("registered");
            assert_eq!(cc.name(), name);
            assert!(cc.cwnd() >= 1.0);
        }
    }
}
