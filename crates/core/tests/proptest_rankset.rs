//! Model-based test of [`RankSet`]: random operation sequences, at sizes on
//! both sides of the 64-bit word boundary, against a `Vec<bool>` model.

use loadex_core::RankSet;
use proptest::prelude::*;

const SIZES: [usize; 6] = [1, 63, 64, 65, 130, 768];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every `insert`/`remove`/`clear`/`fill`, `contains`, `first`,
    /// `last` and the iteration order agree with the model, and
    /// `insert`/`remove` report the model's prior membership.
    #[test]
    fn rankset_matches_vec_bool_model(
        size_pick in 0usize..6,
        ops in prop::collection::vec((0u8..32, 0usize..1024), 1..200),
    ) {
        let n = SIZES[size_pick];
        let mut set = RankSet::new(n);
        let mut model = vec![false; n];
        for (op, r) in ops {
            // Bias ranks towards word edges, where indexing bugs live.
            let r = match r % 4 {
                0 => (r / 4) % 3 * 64 + 63 + (r / 12) % 3,
                _ => r,
            } % n;
            match op {
                0..=15 => {
                    prop_assert_eq!(set.insert(r), !model[r], "insert {}", r);
                    model[r] = true;
                }
                16..=29 => {
                    prop_assert_eq!(set.remove(r), model[r], "remove {}", r);
                    model[r] = false;
                }
                30 => {
                    set.clear();
                    model.fill(false);
                }
                _ => {
                    set.fill();
                    model.fill(true);
                }
            }
            let members: Vec<usize> = (0..n).filter(|&q| model[q]).collect();
            for (q, &m) in model.iter().enumerate() {
                prop_assert_eq!(set.contains(q), m, "contains {} after op {} on {}", q, op, r);
            }
            prop_assert_eq!(set.first(), members.first().copied());
            prop_assert_eq!(set.last(), members.last().copied());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), members);
        }
    }
}
