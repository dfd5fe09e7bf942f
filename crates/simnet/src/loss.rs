//! Message-loss models.
//!
//! The paper forces loss rates with Linux `tc` (§VI), i.e. i.i.d. drops —
//! modelled by [`BernoulliLoss`].

use des::SimRng;
use wire::NodeId;

/// Decides whether a message is dropped in transit.
pub trait LossModel {
    /// `true` if the message from `from` to `to` is lost.
    fn dropped(&mut self, from: NodeId, to: NodeId, rng: &mut SimRng) -> bool;
}

/// Never drops anything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn dropped(&mut self, _from: NodeId, _to: NodeId, _rng: &mut SimRng) -> bool {
        false
    }
}

/// Drops each message independently with probability `p` — the `tc netem`
/// style loss the paper uses.
#[derive(Clone, Copy, Debug)]
pub struct BernoulliLoss {
    /// Per-message drop probability.
    pub p: f64,
}

impl BernoulliLoss {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        BernoulliLoss { p }
    }
}

impl LossModel for BernoulliLoss {
    fn dropped(&mut self, _from: NodeId, _to: NodeId, rng: &mut SimRng) -> bool {
        rng.chance(self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(2)
    }

    #[test]
    fn no_loss_never_drops() {
        let mut m = NoLoss;
        let mut r = rng();
        assert!((0..1000).all(|_| !m.dropped(NodeId(1), NodeId(2), &mut r)));
    }

    #[test]
    fn bernoulli_rate_plausible() {
        let mut m = BernoulliLoss::new(0.05);
        let mut r = rng();
        let drops = (0..20_000)
            .filter(|_| m.dropped(NodeId(1), NodeId(2), &mut r))
            .count();
        assert!((800..1200).contains(&drops), "drops={drops} expected ~1000");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        let mut zero = BernoulliLoss::new(0.0);
        let mut one = BernoulliLoss::new(1.0);
        for _ in 0..100 {
            assert!(!zero.dropped(NodeId(1), NodeId(2), &mut r));
            assert!(one.dropped(NodeId(1), NodeId(2), &mut r));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bernoulli_rejects_bad_probability() {
        BernoulliLoss::new(1.5);
    }
}
