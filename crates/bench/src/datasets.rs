//! Dataset construction for the experiments, with one shared scale knob.
//!
//! The paper's datasets range from 7.9 MB to 716 MB; every comparison's
//! *shape* is size-independent, so the harness defaults to ~1 MB per
//! dataset and scales via `Scale`.

use xsq_datagen::{dblp, nasa, psd, shake, toxgene, xmlgen};

/// Scale factor for all experiment datasets.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Base dataset size in bytes (default 1 MiB).
    pub bytes: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            bytes: 1 << 20,
            seed: 2003,
        }
    }
}

/// The four Fig. 15 datasets at the given scale, preserving the paper's
/// *relative* sizes (SHAKE : NASA : DBLP : PSD ≈ 1 : 3.2 : 15 : 91,
/// capped at 8× base so a laptop run stays quick).
pub fn standard_sized(scale: Scale) -> Vec<(&'static str, String)> {
    let b = scale.bytes;
    vec![
        ("SHAKE", shake::generate(scale.seed, b)),
        ("NASA", nasa::generate(scale.seed, b * 2)),
        ("DBLP", dblp::generate(scale.seed, b * 4)),
        ("PSD", psd::generate(scale.seed, b * 8)),
    ]
}

/// One dataset by name at exactly the base size (for throughput runs
/// where equal sizes make the comparison cleaner).
pub fn equal_sized(name: &str, scale: Scale) -> String {
    xsq_datagen::standard_dataset(name, scale.seed, scale.bytes)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
}

/// DBLP excerpts for the Fig. 19 memory-scaling sweep: well-formed
/// prefixes of one document at `fractions` of the full size.
pub fn dblp_excerpts(scale: Scale, steps: usize) -> Vec<(usize, String)> {
    let full = scale.bytes * steps;
    (1..=steps)
        .map(|i| {
            let sz = scale.bytes * i;
            (sz, dblp::excerpt(scale.seed, full, sz))
        })
        .collect()
}

/// Recursive datasets for the Fig. 20 sweep (IBM-generator parameters
/// from the paper: nesting 15, repeats 20).
pub fn recursive_sweep(scale: Scale, steps: usize) -> Vec<(usize, String)> {
    (1..=steps)
        .map(|i| {
            let sz = scale.bytes * i;
            let doc = xmlgen::generate(
                xmlgen::XmlGenParams {
                    nested_levels: 15,
                    max_repeats: 20,
                    seed: scale.seed + i as u64,
                },
                sz,
            );
            (sz, doc)
        })
        .collect()
}

/// The Fig. 21 ordering dataset. The paper uses 10 000 `foo` repeats in
/// a 10 MB file; repeats scale down with the dataset so several `<a>`
/// groups still occur.
pub fn ordering(scale: Scale) -> String {
    let repeats = (scale.bytes / 160).clamp(50, 10_000);
    toxgene::ordering_dataset(scale.bytes, repeats)
}

/// The Fig. 22 result-size dataset.
pub fn colors(scale: Scale) -> String {
    toxgene::color_dataset(scale.seed, scale.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scale {
        Scale {
            bytes: 30_000,
            seed: 7,
        }
    }

    #[test]
    fn standard_sizes_preserve_order() {
        let ds = standard_sized(small());
        assert_eq!(ds.len(), 4);
        for w in ds.windows(2) {
            assert!(w[0].1.len() <= w[1].1.len(), "sizes must be nondecreasing");
        }
    }

    #[test]
    fn excerpts_grow() {
        let ex = dblp_excerpts(small(), 3);
        assert_eq!(ex.len(), 3);
        assert!(ex[0].1.len() < ex[2].1.len());
        for (_, doc) in &ex {
            assert!(xsq_xml::PureParser::run(doc.as_bytes()).is_ok());
        }
    }

    #[test]
    fn special_datasets_parse() {
        for doc in [ordering(small()), colors(small())] {
            assert!(xsq_xml::PureParser::run(doc.as_bytes()).is_ok());
        }
        let rs = recursive_sweep(small(), 2);
        assert_eq!(rs.len(), 2);
    }
}
