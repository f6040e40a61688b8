//! Shared byte-level Aho–Corasick automaton.
//!
//! Two consumers, one machine: the policy keyword scanner
//! (`hbbtv-policies`, ~95 bilingual needles over policy texts) and the
//! filter-list residual engine (`hbbtv-filterlists`, one literal per
//! substring/start-anchored rule, up to ~10^4 needles at 10^5-rule list
//! scale). Both need the same thing — one forward pass over a byte
//! stream that reports every needle occurrence — but at very different
//! needle counts, so the transition table is *byte-class compressed*: a
//! 256-entry class map folds every byte that occurs in no needle into
//! class 0 (provably always transitioning to the root), and the dense
//! `states × classes` table only spends columns on bytes that actually
//! appear. At policy scale that is ~30 columns instead of 256; at
//! filter-list scale it keeps a 10^4-needle automaton in single-digit
//! megabytes where a raw 256-wide table would cost ~25× more.
//!
//! The automaton is case-exact: callers that want folding (policies)
//! fold bytes *before* stepping. Matching is reported per needle id via
//! closed output sets (a state's outputs include every needle ending at
//! any suffix of the path to it), precomputed at build so the walk
//! itself never chases failure links.

#![forbid(unsafe_code)]

use std::collections::VecDeque;

const VACANT: u32 = u32::MAX;

/// A dense-table, byte-class-compressed Aho–Corasick DFA.
///
/// Built once from `(needle, id)` pairs; [`step`](Automaton::step) is
/// two indexed loads per input byte, [`outputs`](Automaton::outputs)
/// yields the ids of every needle ending at the current position.
#[derive(Debug, Clone)]
pub struct Automaton {
    /// Byte → column. Class 0 is reserved for bytes in no needle; its
    /// column is all-root by construction.
    classes: Box<[u8; 256]>,
    n_classes: u32,
    /// `n_states × n_classes` row-major transition table.
    trans: Vec<u32>,
    /// Per-state closed-output ranges into `out_ids`; length
    /// `n_states + 1`, monotone.
    out_start: Vec<u32>,
    /// Flattened closed output sets (needle ids).
    out_ids: Vec<u32>,
}

impl Automaton {
    /// Builds the automaton over `(needle, id)` pairs.
    ///
    /// Empty needles are ignored (a zero-length needle would "match"
    /// at every position). Duplicate needles with distinct ids are
    /// fine: every id is reported. Ids are caller-defined payloads —
    /// they need not be dense or unique.
    pub fn build(needles: &[(&[u8], u32)]) -> Automaton {
        // Byte classes, assigned in ascending byte order so the table
        // layout is deterministic. Class 0 = "occurs in no needle".
        let mut classes = Box::new([0u8; 256]);
        let mut used = [false; 256];
        for (needle, _) in needles {
            for &b in *needle {
                used[b as usize] = true;
            }
        }
        let mut n_classes = 1u32;
        for b in 0..256 {
            if used[b] {
                assert!(n_classes < 256, "at most 255 distinct needle bytes");
                classes[b] = n_classes as u8;
                n_classes += 1;
            }
        }
        let k = n_classes as usize;

        // Trie over class-mapped bytes.
        let mut rows: Vec<u32> = vec![VACANT; k];
        let mut own: Vec<Vec<u32>> = vec![Vec::new()];
        for &(needle, id) in needles {
            if needle.is_empty() {
                continue;
            }
            let mut s = 0usize;
            for &b in needle {
                let c = classes[b as usize] as usize;
                let next = rows[s * k + c];
                s = if next == VACANT {
                    rows.extend(std::iter::repeat_n(VACANT, k));
                    own.push(Vec::new());
                    let fresh = (own.len() - 1) as u32;
                    rows[s * k + c] = fresh;
                    fresh as usize
                } else {
                    next as usize
                };
            }
            own[s].push(id);
        }
        let n_states = own.len();

        // Breadth-first failure links, fused with the DFA conversion
        // (as in the policies scanner this generalizes): once a state
        // is popped its row is total. The pop order is recorded so
        // closed outputs can be folded parents-before-children.
        let mut fail = vec![0u32; n_states];
        let mut order: Vec<u32> = Vec::with_capacity(n_states);
        let mut queue = VecDeque::new();
        for slot in rows[..k].iter_mut() {
            if *slot == VACANT {
                *slot = 0;
            } else if *slot != 0 {
                queue.push_back(*slot);
            }
        }
        while let Some(s) = queue.pop_front() {
            order.push(s);
            let f = fail[s as usize] as usize;
            let fail_row: Vec<u32> = rows[f * k..(f + 1) * k].to_vec();
            let row = &mut rows[s as usize * k..(s as usize + 1) * k];
            for (slot, via_fail) in row.iter_mut().zip(fail_row) {
                if *slot == VACANT {
                    *slot = via_fail;
                } else {
                    fail[*slot as usize] = via_fail;
                    queue.push_back(*slot);
                }
            }
        }

        // Closed outputs in BFS order: out(s) = own(s) ∪ out(fail(s)).
        let mut closed: Vec<Vec<u32>> = own;
        for &s in &order {
            let f = fail[s as usize] as usize;
            if !closed[f].is_empty() {
                let inherited = closed[f].clone();
                closed[s as usize].extend(inherited);
            }
        }
        let mut out_start = Vec::with_capacity(n_states + 1);
        let mut out_ids = Vec::new();
        let mut at = 0u32;
        for list in &closed {
            out_start.push(at);
            out_ids.extend_from_slice(list);
            at += list.len() as u32;
        }
        out_start.push(at);

        Automaton {
            classes,
            n_classes,
            trans: rows,
            out_start,
            out_ids,
        }
    }

    /// Advances one byte. State 0 is the root/start state.
    #[inline]
    pub fn step(&self, state: u32, byte: u8) -> u32 {
        let c = self.classes[byte as usize] as u32;
        self.trans[(state * self.n_classes + c) as usize]
    }

    /// The ids of every needle ending at `state` (closed over failure
    /// links — suffix matches included).
    #[inline]
    pub fn outputs(&self, state: u32) -> &[u32] {
        let a = self.out_start[state as usize] as usize;
        let z = self.out_start[state as usize + 1] as usize;
        &self.out_ids[a..z]
    }

    /// Walks `hay` and invokes `f` once per needle occurrence (same id
    /// can fire repeatedly if its needle recurs).
    #[inline]
    pub fn for_each_match(&self, hay: &[u8], mut f: impl FnMut(u32)) {
        let mut s = 0u32;
        for &b in hay {
            s = self.step(s, b);
            let a = self.out_start[s as usize];
            let z = self.out_start[s as usize + 1];
            if a != z {
                for &id in &self.out_ids[a as usize..z as usize] {
                    f(id);
                }
            }
        }
    }

    /// Number of DFA states (≥ 1; the root always exists).
    pub fn n_states(&self) -> u32 {
        (self.trans.len() as u32) / self.n_classes
    }

    /// Number of byte classes, including reserved class 0.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// True when no (non-empty) needle was supplied: every walk stays
    /// at the root and reports nothing.
    pub fn is_trivial(&self) -> bool {
        self.out_ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build_strs(needles: &[(&str, u32)]) -> Automaton {
        let pairs: Vec<(&[u8], u32)> = needles.iter().map(|&(n, id)| (n.as_bytes(), id)).collect();
        Automaton::build(&pairs)
    }

    fn all_matches(a: &Automaton, hay: &str) -> Vec<u32> {
        let mut out = Vec::new();
        a.for_each_match(hay.as_bytes(), |id| out.push(id));
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn reports_overlapping_and_suffix_needles() {
        let a = build_strs(&[("he", 0), ("she", 1), ("his", 2), ("hers", 3)]);
        assert_eq!(all_matches(&a, "ushers"), vec![0, 1, 3]);
        assert_eq!(all_matches(&a, "his"), vec![2]);
        assert_eq!(all_matches(&a, "xyz"), Vec::<u32>::new());
    }

    #[test]
    fn duplicate_needles_report_every_id() {
        let a = build_strs(&[("abc", 7), ("abc", 9)]);
        assert_eq!(all_matches(&a, "xxabcxx"), vec![7, 9]);
    }

    #[test]
    fn empty_needles_are_ignored() {
        let a = build_strs(&[("", 0), ("b", 1)]);
        assert!(!a.is_trivial());
        assert_eq!(all_matches(&a, "aaa"), Vec::<u32>::new());
        assert_eq!(all_matches(&a, "abba"), vec![1]);
    }

    #[test]
    fn trivial_automaton_matches_nothing() {
        let a = Automaton::build(&[]);
        assert!(a.is_trivial());
        assert_eq!(a.n_states(), 1);
        assert_eq!(all_matches(&a, "anything"), Vec::<u32>::new());
    }

    #[test]
    fn unused_bytes_share_class_zero() {
        let a = build_strs(&[("ab", 0)]);
        // 'a', 'b' used -> classes 1, 2; everything else class 0.
        assert_eq!(a.n_classes(), 3);
        assert_eq!(a.classes[b'z' as usize], 0);
        // Class-0 column must be all-root.
        let k = a.n_classes() as usize;
        for s in 0..a.n_states() as usize {
            assert_eq!(a.trans[s * k], 0);
        }
    }

    proptest! {
        /// The automaton agrees with naive substring search over random
        /// needle sets and haystacks.
        #[test]
        fn agrees_with_naive_contains(
            needles in proptest::collection::vec("[a-d]{1,4}", 1..12),
            hay in "[a-e]{0,40}",
        ) {
            let pairs: Vec<(&[u8], u32)> = needles
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_bytes(), i as u32))
                .collect();
            let a = Automaton::build(&pairs);
            let mut got = Vec::new();
            a.for_each_match(hay.as_bytes(), |id| got.push(id));
            got.sort_unstable();
            got.dedup();
            let want: Vec<u32> = needles
                .iter()
                .enumerate()
                .filter(|(_, n)| hay.contains(n.as_str()))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, want);
        }

        /// Occurrence *positions* are also right: every callback fires at
        /// the end of a real occurrence.
        #[test]
        fn match_counts_agree_with_naive(
            needle in "[ab]{1,3}",
            hay in "[abc]{0,30}",
        ) {
            let a = Automaton::build(&[(needle.as_bytes(), 5)]);
            let mut count = 0usize;
            a.for_each_match(hay.as_bytes(), |id| {
                assert_eq!(id, 5);
                count += 1;
            });
            let naive = (0..hay.len())
                .filter(|&i| hay[i..].starts_with(needle.as_str()))
                .count();
            prop_assert_eq!(count, naive);
        }
    }
}
