//! The benchmark's seeded `multi_sub` subscriptions, for the tests that
//! pin that workload's counts.

use xsq::datagen::rng::StdRng;
use xsq::datagen::words;

/// `multi_sub`'s 512 seeded subscriptions (the benchmark's
/// `inputs::subscriptions`): 40 % `/dblp/R[year=Y]/F`, 40 %
/// `/dblp/R[author="N"]/title/text()`, 20 % `//R[author="N"]/@key`.
pub fn subscriptions(seed: u64, n: usize) -> Vec<String> {
    const RECORDS: [&str; 2] = ["article", "inproceedings"];
    const FIELDS: [&str; 4] = ["title/text()", "author/text()", "pages/text()", "@key"];
    let mut subseed = StdRng::seed_from_u64(seed ^ 0x5ab5u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut rng = StdRng::seed_from_u64(subseed.next_u64());
    (0..n)
        .map(|_| {
            let record = RECORDS[rng.gen_range(0..RECORDS.len())];
            let kind = rng.gen_range(0..10);
            if kind < 4 {
                let year = 1980 + rng.gen_range(0..25);
                let field = FIELDS[rng.gen_range(0..FIELDS.len())];
                format!("/dblp/{record}[year={year}]/{field}")
            } else if kind < 8 {
                let name = words::name(&mut rng);
                format!("/dblp/{record}[author=\"{name}\"]/title/text()")
            } else {
                let name = words::name(&mut rng);
                format!("//{record}[author=\"{name}\"]/@key")
            }
        })
        .collect()
}
