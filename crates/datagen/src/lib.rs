//! # xsq-datagen — synthetic workloads with the shapes of the paper's
//! datasets
//!
//! The study evaluates on four real datasets (Fig. 15) plus synthetic
//! data from the IBM XML Generator and Toxgene. The real files are not
//! redistributable here, so each generator reproduces its dataset's
//! *shape* — elements per KB, text fraction, average/maximum depth, tag
//! lengths, and the structural paths the experiment queries traverse —
//! at any target size, deterministically from a seed.
//!
//! | Generator | Stands in for | Fig. 15 shape targets |
//! |---|---|---|
//! | [`shake`] | Shakespeare plays (7.89 MB) | depth 5.77/7, tags 5.03, text 63% |
//! | [`nasa`] | NASA ADC repository (25 MB) | depth 5.58/8, tags 6.31, text 60% |
//! | [`dblp`] | DBLP records (119 MB) | depth 2.90/6, tags 5.81, text 47% |
//! | [`psd`] | Protein Sequence DB (716 MB) | depth 5.57/7, tags 6.33, text 40% |
//! | [`xmlgen`] | IBM XML Generator | recursive, nested-level / max-repeats knobs |
//! | [`xmark`] | XMark auction benchmark | site/items/people/auctions, recursive descriptions |
//! | [`toxgene`] | Toxgene templates | Fig. 21 ordering + Fig. 22 result-size data |

pub mod dblp;
pub mod nasa;
pub mod psd;
pub mod rng;
pub mod shake;
pub mod toxgene;
pub mod words;
pub mod xmark;
pub mod xmlgen;

/// The four Fig. 15 datasets by name, at a caller-chosen size.
pub fn standard_dataset(name: &str, seed: u64, target_bytes: usize) -> Option<String> {
    match name {
        "SHAKE" => Some(shake::generate(seed, target_bytes)),
        "NASA" => Some(nasa::generate(seed, target_bytes)),
        "DBLP" => Some(dblp::generate(seed, target_bytes)),
        "PSD" => Some(psd::generate(seed, target_bytes)),
        _ => None,
    }
}

/// Names of the four standard datasets, in Fig. 15 order.
pub const STANDARD_DATASETS: [&str; 4] = ["SHAKE", "NASA", "DBLP", "PSD"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_datasets_resolve() {
        for name in STANDARD_DATASETS {
            let doc = standard_dataset(name, 1, 20_000).unwrap();
            assert!(doc.len() >= 20_000);
            assert!(
                xsq_xml::PureParser::run(doc.as_bytes()).is_ok(),
                "{name} must be well-formed"
            );
        }
        assert!(standard_dataset("NOPE", 1, 10).is_none());
    }

    #[test]
    fn sizes_track_targets() {
        for name in STANDARD_DATASETS {
            let doc = standard_dataset(name, 3, 100_000).unwrap();
            assert!(
                doc.len() < 115_000,
                "{name} overshoots: {} bytes",
                doc.len()
            );
        }
    }
}
