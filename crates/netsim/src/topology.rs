//! Directed multi-hop topologies: a small graph of links plus per-flow
//! paths.
//!
//! A [`Topology`] is an ordered set of [`LinkConfig`]s; the "edges" of the
//! graph are implied by flow paths (each flow names the sequence of links
//! its data packets traverse). This keeps the representation exactly as
//! rich as the simulator needs: every hop is a trace-driven serializer
//! behind a droptail queue, forwarding adds the link's propagation
//! [`delay`](crate::link::LinkConfig::delay), and the ACK return path stays
//! a pure delay (`FlowConfig::min_rtt`), as in the single-bottleneck model.
//!
//! Three canonical builders cover the congestion-control literature's
//! standard shapes:
//!
//! * [`Topology::dumbbell`] — one bottleneck, every flow on it. This is
//!   the pre-refactor model; runs over it are bit-for-bit identical to the
//!   old single-link engine.
//! * [`Topology::parking_lot`] — `h` bottlenecks in series. A long flow
//!   crossing all `h` hops competes at every queue with one-hop cross
//!   flows, the classic RTT-unfairness construction.
//! * [`Topology::incast`] — `k` leaf links fanning into one root
//!   bottleneck, the fan-in/incast-collapse construction.

use crate::link::LinkConfig;

/// Identifies a link within one [`Topology`] (index into its link list).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// A directed multi-hop topology: an ordered set of links. Flow paths
/// (sequences of [`LinkId`]s) define the routes packets take.
#[derive(Clone, Debug)]
pub struct Topology {
    links: Vec<LinkConfig>,
}

impl Topology {
    /// A topology from explicit links. Panics when `links` is empty: a
    /// simulation with no links has no meaning.
    pub fn new(links: Vec<LinkConfig>) -> Topology {
        assert!(!links.is_empty(), "a topology needs at least one link");
        Topology { links }
    }

    /// The classic dumbbell: one bottleneck link shared by every flow.
    /// Behaviourally identical to the pre-topology single-link engine.
    pub fn dumbbell(bottleneck: LinkConfig) -> Topology {
        Topology::new(vec![bottleneck])
    }

    /// A parking lot of `hops` identical bottlenecks in series. The long
    /// flow takes [`Topology::parking_lot_long_path`]; cross flow `i`
    /// takes [`Topology::parking_lot_hop_path`]. Panics when `hops == 0`.
    pub fn parking_lot(hop: LinkConfig, hops: usize) -> Topology {
        assert!(hops >= 1, "a parking lot needs at least one hop");
        Topology::new(vec![hop; hops])
    }

    /// An incast tree: link `0` is the shared root bottleneck, links
    /// `1..=fan_in` are the leaf uplinks feeding it. Sender `i` takes
    /// [`Topology::incast_path`]. Panics when `fan_in == 0`.
    pub fn incast(root: LinkConfig, leaf: LinkConfig, fan_in: usize) -> Topology {
        assert!(fan_in >= 1, "an incast tree needs at least one leaf");
        let mut links = Vec::with_capacity(1 + fan_in);
        links.push(root);
        links.extend(std::iter::repeat_n(leaf, fan_in));
        Topology::new(links)
    }

    /// The long flow's path across every hop of a `hops`-deep parking lot.
    pub fn parking_lot_long_path(hops: usize) -> Vec<LinkId> {
        (0..hops).map(LinkId).collect()
    }

    /// Cross flow `i`'s one-hop path in a `hops`-deep parking lot (flows
    /// are spread round-robin across the hops).
    pub fn parking_lot_hop_path(i: usize, hops: usize) -> Vec<LinkId> {
        vec![LinkId(i % hops)]
    }

    /// Sender `i`'s two-hop path in a `fan_in`-leaf incast tree: its leaf
    /// uplink (round-robin across leaves), then the shared root.
    pub fn incast_path(i: usize, fan_in: usize) -> Vec<LinkId> {
        vec![LinkId(1 + i % fan_in), LinkId(0)]
    }

    /// The links, in id order.
    pub fn links(&self) -> &[LinkConfig] {
        &self.links
    }

    /// The configuration of one link.
    pub fn link(&self, id: LinkId) -> &LinkConfig {
        &self.links[id.0]
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the topology has no links (never true for a constructed
    /// topology; provided for `len`/`is_empty` symmetry).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Validates a flow path against this topology: non-empty, every hop a
    /// real link, and no link visited twice (loops would let one packet
    /// occupy two places in the same queue).
    pub fn validate_path(&self, path: &[LinkId]) -> Result<(), String> {
        if path.is_empty() {
            return Err("flow path is empty".into());
        }
        for &hop in path {
            if hop.0 >= self.links.len() {
                return Err(format!(
                    "path names link {} but the topology has {} links",
                    hop.0,
                    self.links.len()
                ));
            }
        }
        // Paths are a handful of hops: a scan beats allocating a bitmap,
        // and this runs once per flow of a 256-flow fleet.
        for (i, hop) in path.iter().enumerate() {
            if path[..i].contains(hop) {
                return Err(format!("path visits link {} twice", hop.0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use crate::trace::BandwidthTrace;

    fn link(rate: f64) -> LinkConfig {
        LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("t", rate),
            Time::from_millis(20),
            2.0,
        )
    }

    #[test]
    fn builders_have_expected_shapes() {
        assert_eq!(Topology::dumbbell(link(8e6)).len(), 1);
        assert_eq!(Topology::parking_lot(link(8e6), 3).len(), 3);
        assert_eq!(Topology::incast(link(8e6), link(16e6), 4).len(), 5);
    }

    #[test]
    fn canonical_paths_are_valid() {
        let lot = Topology::parking_lot(link(8e6), 3);
        assert!(lot
            .validate_path(&Topology::parking_lot_long_path(3))
            .is_ok());
        for i in 0..6 {
            assert!(lot
                .validate_path(&Topology::parking_lot_hop_path(i, 3))
                .is_ok());
        }
        let tree = Topology::incast(link(8e6), link(16e6), 4);
        for i in 0..8 {
            let path = Topology::incast_path(i, 4);
            assert!(tree.validate_path(&path).is_ok());
            assert_eq!(path.last(), Some(&LinkId(0)), "root is the last hop");
        }
    }

    #[test]
    fn path_validation_rejects_bad_routes() {
        let topo = Topology::parking_lot(link(8e6), 2);
        assert!(topo.validate_path(&[]).is_err());
        assert!(topo.validate_path(&[LinkId(2)]).is_err());
        assert!(topo.validate_path(&[LinkId(0), LinkId(0)]).is_err());
        assert!(topo.validate_path(&[LinkId(0), LinkId(1)]).is_ok());
    }
}
