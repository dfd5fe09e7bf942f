//! Quorum arithmetic for classic and fast tracks.
//!
//! Fast Raft (following Fast Paxos as analysed by Zhao, *Fast Paxos Made
//! Easy*) uses two quorum sizes over a configuration of `m` voting members:
//!
//! - **classic quorum**: a strict majority, `⌊m/2⌋ + 1`;
//! - **fast quorum**: `⌈3m/4⌉`.
//!
//! These sizes guarantee the two intersection properties safety rests on:
//!
//! 1. any two classic quorums intersect (standard Raft);
//! 2. for any fast quorum `R` and classic quorum `Q`, the votes from `R∩Q`
//!    form a *strict majority of possible conflicts* inside `Q` — formally
//!    `2·fq + cq ≥ 2m + 1` — so an entry voted by a fast quorum has the
//!    most votes in *every* classic quorum the leader might gather.
//!
//! Property tests at the bottom of this module check both inequalities for
//! all configuration sizes up to 4096.

/// Size of a classic (majority) quorum for `m` voting members.
///
/// # Panics
///
/// Panics if `m == 0`; an empty configuration has no quorums.
///
/// # Examples
///
/// ```
/// assert_eq!(wire::classic_quorum(5), 3);
/// assert_eq!(wire::classic_quorum(4), 3);
/// assert_eq!(wire::classic_quorum(1), 1);
/// ```
pub fn classic_quorum(m: usize) -> usize {
    assert!(m > 0, "no quorum exists for an empty configuration");
    m / 2 + 1
}

/// Size of a fast quorum, `⌈3m/4⌉`, for `m` voting members.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(wire::fast_quorum(5), 4); // the paper's 5-site setup
/// assert_eq!(wire::fast_quorum(4), 3);
/// assert_eq!(wire::fast_quorum(1), 1);
/// ```
pub fn fast_quorum(m: usize) -> usize {
    assert!(m > 0, "no quorum exists for an empty configuration");
    (3 * m).div_ceil(4)
}

/// The number of conflicting votes that can coexist with a fast-quorum vote
/// inside a classic quorum: `m - fast_quorum(m)` sites can have voted for
/// something else, so within a classic quorum `Q` the chosen entry holds at
/// least `classic_quorum(m) - (m - fast_quorum(m))` votes.
///
/// Fast Raft's leader decision rule ("insert the entry with the most votes")
/// is safe exactly because this lower bound exceeds the conflict bound.
pub fn min_chosen_votes_in_classic_quorum(m: usize) -> usize {
    classic_quorum(m).saturating_sub(m - fast_quorum(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_quorum_sizes() {
        // §III-B and §VI-B: five sites, classic quorum 3, fast quorum 4.
        assert_eq!(classic_quorum(5), 3);
        assert_eq!(fast_quorum(5), 4);
        // After two silent leaves (fig 4): three sites.
        assert_eq!(classic_quorum(3), 2);
        assert_eq!(fast_quorum(3), 3);
    }

    #[test]
    fn small_configurations() {
        for (m, cq, fq) in [
            (1, 1, 1),
            (2, 2, 2),
            (3, 2, 3),
            (4, 3, 3),
            (5, 3, 4),
            (6, 4, 5),
            (7, 4, 6),
            (8, 5, 6),
            (9, 5, 7),
            (10, 6, 8),
        ] {
            assert_eq!(classic_quorum(m), cq, "classic m={m}");
            assert_eq!(fast_quorum(m), fq, "fast m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "empty configuration")]
    fn zero_members_panics() {
        classic_quorum(0);
    }

    proptest! {
        /// Two classic quorums always intersect: 2·cq ≥ m + 1.
        #[test]
        fn classic_quorums_intersect(m in 1usize..4096) {
            prop_assert!(2 * classic_quorum(m) > m);
        }

        /// A fast and a classic quorum always intersect: fq + cq ≥ m + 1.
        #[test]
        fn fast_and_classic_intersect(m in 1usize..4096) {
            prop_assert!(fast_quorum(m) + classic_quorum(m) > m);
        }

        /// Zhao's plurality condition: 2·fq + cq ≥ 2m + 1, which makes the
        /// fast-quorum entry a strict plurality in every classic quorum.
        #[test]
        fn chosen_entry_dominates_every_classic_quorum(m in 1usize..4096) {
            prop_assert!(2 * fast_quorum(m) + classic_quorum(m) > 2 * m);
            // Equivalent statement in vote counts: the minimum number of
            // chosen-entry votes in any classic quorum strictly exceeds the
            // maximum number of votes any conflicting entry can have there.
            let conflicts = m - fast_quorum(m);
            prop_assert!(min_chosen_votes_in_classic_quorum(m) > conflicts);
        }

        /// Fast quorums are never smaller than classic quorums.
        #[test]
        fn fast_at_least_classic(m in 1usize..4096) {
            prop_assert!(fast_quorum(m) >= classic_quorum(m));
            prop_assert!(fast_quorum(m) <= m);
        }

        /// Exhaustive simulation of the example in §III-B: if a fast quorum
        /// votes for entry `e`, then in any classic quorum of received votes
        /// `e` has strictly more votes than any other single entry.
        #[test]
        fn plurality_holds_under_arbitrary_vote_loss(
            m in 1usize..64,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let fq = fast_quorum(m);
            let cq = classic_quorum(m);
            // Sites 0..fq voted e; the rest voted for distinct conflicting
            // entries (worst case: all conflicts differ, or all the same —
            // try the adversarial case where all conflicts agree on f).
            // Pick a random classic quorum of sites whose votes arrive.
            let mut sites: Vec<usize> = (0..m).collect();
            for i in (1..sites.len()).rev() {
                let j = rng.gen_range(0..=i);
                sites.swap(i, j);
            }
            let received = &sites[..cq];
            let e_votes = received.iter().filter(|&&s| s < fq).count();
            let f_votes = received.len() - e_votes; // all conflicts collude
            prop_assert!(e_votes > f_votes,
                "m={m} fq={fq} cq={cq}: e={e_votes} f={f_votes}");
        }
    }
}
