//! The benchmark registry: suites, datasets, languages, and specs that
//! instantiate workloads.

use crate::dacapo::{self, DacapoWorkload};
use crate::graph::{Als, ConnectedComponents, PageRank};
use crate::pjbb::PjbbWorkload;
use crate::Workload;
use hemu_types::ByteSize;
use std::fmt;

/// The three benchmark suites of the evaluation (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// The 11 DaCapo applications.
    DaCapo,
    /// pseudojbb2005.
    Pjbb,
    /// The three GraphChi applications.
    GraphChi,
}

impl Suite {
    /// The suite's base nursery size: 4 MiB for DaCapo and Pjbb, 32 MiB
    /// for GraphChi (§IV, Nursery and Heap Sizes).
    pub fn base_nursery(self) -> ByteSize {
        match self {
            Suite::DaCapo | Suite::Pjbb => ByteSize::from_mib(4),
            Suite::GraphChi => ByteSize::from_mib(32),
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::DaCapo => write!(f, "DaCapo"),
            Suite::Pjbb => write!(f, "Pjbb"),
            Suite::GraphChi => write!(f, "GraphChi"),
        }
    }
}

/// Input dataset size (§IV and §VI.F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DatasetSize {
    /// The default dataset (1 M edges / 1 M ratings for GraphChi).
    #[default]
    Default,
    /// The large dataset (10 M edges / 10 M ratings; DaCapo large inputs).
    Large,
}

/// Implementation language of a GraphChi application (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Language {
    /// The Java implementation running on the managed heap.
    #[default]
    Java,
    /// The C++ implementation running on the native heap.
    Cpp,
}

/// A fully specified benchmark: name, suite, language and dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// Benchmark name (paper spelling).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Implementation language (only GraphChi has a C++ variant).
    pub language: Language,
    /// Input dataset size.
    pub dataset: DatasetSize,
}

impl WorkloadSpec {
    /// Looks a benchmark up by name with the default dataset and Java
    /// language.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        all_default().into_iter().find(|s| s.name == name)
    }

    /// Returns this spec with the given dataset size.
    pub fn with_dataset(mut self, dataset: DatasetSize) -> Self {
        self.dataset = dataset;
        self
    }

    /// Returns this spec with the given language.
    ///
    /// # Panics
    ///
    /// Panics if a C++ variant is requested for a non-GraphChi benchmark —
    /// only the GraphChi applications ship both implementations.
    pub fn with_language(mut self, language: Language) -> Self {
        assert!(
            language == Language::Java || self.suite == Suite::GraphChi,
            "only GraphChi applications have C++ implementations"
        );
        self.language = language;
        self
    }

    /// Instantiates the workload with a deterministic seed.
    pub fn instantiate(&self, seed: u64) -> Box<dyn Workload> {
        match (self.suite, self.name) {
            (Suite::GraphChi, "pr") => Box::new(PageRank::new(self.dataset, seed)),
            (Suite::GraphChi, "cc") => Box::new(ConnectedComponents::new(self.dataset, seed)),
            (Suite::GraphChi, "als") => Box::new(Als::new(self.dataset, seed)),
            (Suite::Pjbb, _) => Box::new(PjbbWorkload::new(self.dataset, seed)),
            (Suite::DaCapo, name) => Box::new(DacapoWorkload::new(
                dacapo::params_for(name).expect("unknown DaCapo benchmark"),
                self.dataset,
                seed,
            )),
            _ => unreachable!("inconsistent spec {self:?}"),
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if self.language == Language::Cpp {
            write!(f, ".cpp")?;
        }
        if self.dataset == DatasetSize::Large {
            write!(f, ".large")?;
        }
        Ok(())
    }
}

fn spec(name: &'static str, suite: Suite) -> WorkloadSpec {
    WorkloadSpec {
        name,
        suite,
        language: Language::Java,
        dataset: DatasetSize::Default,
    }
}

/// The 11 DaCapo benchmarks of the evaluation, including the updated
/// `lu.Fix` and `pmd.S` variants.
pub fn dacapo_all() -> Vec<WorkloadSpec> {
    dacapo::NAMES
        .iter()
        .map(|n| spec(n, Suite::DaCapo))
        .collect()
}

/// The seven DaCapo benchmarks the simulator comparison uses (§V):
/// lusearch, lu.Fix, avrora, xalan, pmd, pmd.S and bloat.
pub fn dacapo_sim_subset() -> Vec<WorkloadSpec> {
    [
        "lusearch", "lu.Fix", "avrora", "xalan", "pmd", "pmd.S", "bloat",
    ]
    .iter()
    .map(|n| WorkloadSpec::by_name(n).expect("simulator-subset benchmark missing from registry"))
    .collect()
}

/// Pjbb.
pub fn pjbb() -> WorkloadSpec {
    spec("pjbb", Suite::Pjbb)
}

/// The three GraphChi applications (Java, default dataset).
pub fn graphchi_all() -> Vec<WorkloadSpec> {
    ["pr", "cc", "als"]
        .iter()
        .map(|n| spec(n, Suite::GraphChi))
        .collect()
}

/// All 15 applications of the evaluation with default datasets.
pub fn all_default() -> Vec<WorkloadSpec> {
    let mut v = dacapo_all();
    v.push(pjbb());
    v.extend(graphchi_all());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_evaluation_has_fifteen_applications() {
        assert_eq!(all_default().len(), 15);
        assert_eq!(dacapo_all().len(), 11);
        assert_eq!(graphchi_all().len(), 3);
    }

    #[test]
    fn sim_subset_matches_section_v() {
        let names: Vec<_> = dacapo_sim_subset().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["lusearch", "lu.Fix", "avrora", "xalan", "pmd", "pmd.S", "bloat"]
        );
    }

    #[test]
    fn nursery_sizes_follow_the_paper() {
        assert_eq!(Suite::DaCapo.base_nursery(), ByteSize::from_mib(4));
        assert_eq!(Suite::GraphChi.base_nursery(), ByteSize::from_mib(32));
    }

    #[test]
    fn display_encodes_language_and_dataset() {
        let s = WorkloadSpec::by_name("pr")
            .unwrap()
            .with_language(Language::Cpp)
            .with_dataset(DatasetSize::Large);
        assert_eq!(format!("{s}"), "pr.cpp.large");
    }

    #[test]
    #[should_panic(expected = "C++ implementations")]
    fn cpp_variant_rejected_for_dacapo() {
        let _ = WorkloadSpec::by_name("lusearch")
            .unwrap()
            .with_language(Language::Cpp);
    }

    #[test]
    fn every_spec_instantiates() {
        for s in all_default() {
            let w = s.instantiate(1);
            assert_eq!(w.name(), s.name);
            assert!(w.heap_size().bytes() > 0);
        }
    }
}
