//! Message-loss models.
//!
//! The paper forces loss rates with Linux `tc` (§VI), i.e. i.i.d. drops —
//! modelled by [`BernoulliLoss`]. [`GilbertElliott`] adds bursty loss (a
//! two-state Markov chain), used by the extension experiments to test Fast
//! Raft's sensitivity to correlated drops.

use des::{IdMap, SimRng};
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

/// Per-directed-link Bernoulli loss with a default rate for unlisted links.
#[derive(Clone, Debug, Default)]
pub struct PerLinkLoss {
    default: f64,
    links: IdMap<(NodeId, NodeId), f64>,
}

impl PerLinkLoss {
    /// Creates the model with a default drop rate.
    ///
    /// # Panics
    ///
    /// Panics if `default` is outside `0.0..=1.0`.
    pub fn new(default: f64) -> Self {
        assert!((0.0..=1.0).contains(&default), "loss out of range");
        PerLinkLoss {
            default,
            links: IdMap::default(),
        }
    }

    /// Sets the drop rate of the directed link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, p: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&p), "loss out of range");
        self.links.insert((from, to), p);
        self
    }

    /// The configured rate for a link.
    pub fn rate(&self, from: NodeId, to: NodeId) -> f64 {
        self.links.get(&(from, to)).copied().unwrap_or(self.default)
    }
}

impl LossModel for PerLinkLoss {
    fn dropped(&mut self, from: NodeId, to: NodeId, rng: &mut SimRng) -> bool {
        rng.chance(self.rate(from, to))
    }
}

/// Bursty loss: the Gilbert–Elliott two-state Markov model. In the *good*
/// state messages are dropped with `p_good` (usually ~0); in the *bad* state
/// with `p_bad` (usually high). Transitions happen per message.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    /// P(good → bad) per message.
    pub p_gb: f64,
    /// P(bad → good) per message.
    pub p_bg: f64,
    /// Drop probability in the good state.
    pub p_good: f64,
    /// Drop probability in the bad state.
    pub p_bad: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Creates the model starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `0.0..=1.0`.
    pub fn new(p_gb: f64, p_bg: f64, p_good: f64, p_bad: f64) -> Self {
        for (name, p) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("p_good", p_good),
            ("p_bad", p_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} out of range: {p}");
        }
        GilbertElliott {
            p_gb,
            p_bg,
            p_good,
            p_bad,
            in_bad: false,
        }
    }

    /// The long-run average drop rate of this chain.
    pub fn stationary_loss(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            return self.p_good;
        }
        let pi_bad = self.p_gb / (self.p_gb + self.p_bg);
        pi_bad * self.p_bad + (1.0 - pi_bad) * self.p_good
    }

    /// `true` while the chain is in the bad state.
    pub fn is_bursting(&self) -> bool {
        self.in_bad
    }
}

impl LossModel for GilbertElliott {
    fn dropped(&mut self, _from: NodeId, _to: NodeId, rng: &mut SimRng) -> bool {
        // Transition first, then sample the (possibly new) state.
        let flip = if self.in_bad { self.p_bg } else { self.p_gb };
        if rng.chance(flip) {
            self.in_bad = !self.in_bad;
        }
        rng.chance(if self.in_bad { self.p_bad } else { self.p_good })
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

    #[test]
    fn per_link_overrides_default() {
        let mut m = PerLinkLoss::new(0.0);
        m.set_link(NodeId(1), NodeId(2), 1.0);
        let mut r = rng();
        assert!(m.dropped(NodeId(1), NodeId(2), &mut r));
        assert!(!m.dropped(NodeId(2), NodeId(1), &mut r), "reverse direction unaffected");
        assert_eq!(m.rate(NodeId(3), NodeId(4)), 0.0);
    }

    #[test]
    fn gilbert_elliott_stationary_rate() {
        // pi_bad = 0.01 / (0.01 + 0.09) = 0.1; loss = 0.1 * 0.5 = 0.05.
        let m = GilbertElliott::new(0.01, 0.09, 0.0, 0.5);
        assert!((m.stationary_loss() - 0.05).abs() < 1e-12);
        let mut m = m;
        let mut r = rng();
        let n = 200_000;
        let drops = (0..n)
            .filter(|_| m.dropped(NodeId(1), NodeId(2), &mut r))
            .count();
        let rate = drops as f64 / n as f64;
        assert!((0.035..0.065).contains(&rate), "rate={rate} expected ~0.05");
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        let mut m = GilbertElliott::new(0.02, 0.2, 0.0, 1.0);
        let mut r = rng();
        // Count runs of consecutive drops; with p_bad=1 inside bursts, the
        // mean burst length should be ~1/p_bg = 5, far above Bernoulli.
        let mut bursts = Vec::new();
        let mut current = 0u32;
        for _ in 0..100_000 {
            if m.dropped(NodeId(1), NodeId(2), &mut r) {
                current += 1;
            } else if current > 0 {
                bursts.push(current);
                current = 0;
            }
        }
        let mean = bursts.iter().map(|&b| b as f64).sum::<f64>() / bursts.len() as f64;
        assert!(mean > 2.5, "mean burst {mean} too short for bursty model");
    }
}
