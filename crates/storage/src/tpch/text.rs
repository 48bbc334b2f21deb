//! Pseudo-text comment generation for `o_comment`, with a controlled
//! rate of `%special%requests%` matches (the pattern Q13 excludes).

use rand::rngs::SmallRng;
use rand::Rng;

/// Word pool loosely mirroring dbgen's text grammar vocabulary. Words
/// are short so comments fit the fixed-width `Str(48)` column.
const WORDS: [&str; 24] = [
    "furiously",
    "quickly",
    "carefully",
    "blithely",
    "slyly",
    "deposits",
    "packages",
    "accounts",
    "pinto",
    "beans",
    "foxes",
    "ideas",
    "theodolites",
    "platelets",
    "requests",
    "instructions",
    "sleep",
    "haggle",
    "nag",
    "boost",
    "wake",
    "cajole",
    "detect",
    "along",
];

/// Maximum generated comment length (must fit the `o_comment` column).
const MAX_COMMENT_LEN: usize = 48;

/// Streaming comment generator with a configured rate of comments
/// matching `LIKE '%special%requests%'`.
#[derive(Debug)]
pub(crate) struct CommentGenerator {
    rng: SmallRng,
    special_rate: f64,
}

impl CommentGenerator {
    /// Creates a generator. `special_rate` is clamped to `[0, 1]`.
    pub(crate) fn new(seed: u64, special_rate: f64) -> Self {
        use rand::SeedableRng;
        Self {
            rng: SmallRng::seed_from_u64(seed),
            special_rate: special_rate.clamp(0.0, 1.0),
        }
    }

    /// Produces the next comment. An independent `rng` decides the
    /// special/plain split so callers can interleave other draws.
    pub(crate) fn next_comment(&mut self, coin: &mut SmallRng) -> String {
        if coin.gen_bool(self.special_rate) {
            self.special_comment()
        } else {
            self.plain_comment()
        }
    }

    /// A comment guaranteed to match `%special%requests%`.
    fn special_comment(&mut self) -> String {
        let mid = WORDS[self.rng.gen_range(0..WORDS.len())];
        let mut c = format!("special {mid} requests");
        c.truncate(MAX_COMMENT_LEN);
        c
    }

    /// A comment guaranteed NOT to match `%special%requests%`.
    fn plain_comment(&mut self) -> String {
        loop {
            let n = self.rng.gen_range(3..=6);
            let mut c = String::new();
            for i in 0..n {
                if i > 0 {
                    c.push(' ');
                }
                c.push_str(WORDS[self.rng.gen_range(0..WORDS.len())]);
            }
            c.truncate(MAX_COMMENT_LEN);
            // "requests" alone is fine; reject the rare accidental match.
            if !matches_special_requests(&c) {
                return c;
            }
        }
    }
}

/// SQL `LIKE '%special%requests%'`: "special" somewhere, followed
/// (possibly later) by "requests".
pub fn matches_special_requests(comment: &str) -> bool {
    match comment.find("special") {
        Some(pos) => comment[pos + "special".len()..].contains("requests"),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn like_matcher_semantics() {
        assert!(matches_special_requests("special deposits requests"));
        assert!(matches_special_requests("xxspecialyyrequestszz"));
        assert!(!matches_special_requests("requests before special"));
        assert!(!matches_special_requests("no keywords here"));
        assert!(!matches_special_requests("special only"));
        assert!(!matches_special_requests("only requests"));
    }

    #[test]
    fn special_comments_always_match() {
        let mut g = CommentGenerator::new(1, 1.0);
        for _ in 0..100 {
            let c = g.special_comment();
            assert!(matches_special_requests(&c), "{c}");
            assert!(c.len() <= MAX_COMMENT_LEN);
        }
    }

    #[test]
    fn plain_comments_never_match() {
        let mut g = CommentGenerator::new(2, 0.0);
        for _ in 0..500 {
            let c = g.plain_comment();
            assert!(!matches_special_requests(&c), "{c}");
            assert!(c.len() <= MAX_COMMENT_LEN);
            assert!(c.is_ascii());
        }
    }

    #[test]
    fn rate_zero_and_one_are_exact() {
        let mut coin = SmallRng::seed_from_u64(9);
        let mut g0 = CommentGenerator::new(3, 0.0);
        let mut g1 = CommentGenerator::new(3, 1.0);
        for _ in 0..50 {
            assert!(!matches_special_requests(&g0.next_comment(&mut coin)));
            assert!(matches_special_requests(&g1.next_comment(&mut coin)));
        }
    }

    #[test]
    fn rate_is_clamped() {
        let g = CommentGenerator::new(4, 7.5);
        assert_eq!(g.special_rate, 1.0);
        let g = CommentGenerator::new(4, -1.0);
        assert_eq!(g.special_rate, 0.0);
    }
}
