//! The three workloads: which `bgc` command each runs and on which data.

use bgc_eval::ExperimentScale;
use bgc_graph::DatasetKind;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `bgc all --scale quick` against an empty store and cell directory.
    QuickCold,
    /// The same command against caches filled once during set-up.
    QuickWarm,
    /// `bgc run --dataset flickr --scale large --method GCond-X` on an empty
    /// store.
    LargeFlickr,
}

/// The large-flickr figures the CLI prints on seed 17 (C-CTA, CTA, C-ASR,
/// ASR in percent, two decimals).
pub const FLICKR_SEED17: [&str; 4] = ["58.06", "61.04", "100.00", "100.00"];

impl Workload {
    pub const NAMES: &'static str = "quick-cold, quick-warm or large-flickr";

    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "quick-cold" => Some(Workload::QuickCold),
            "quick-warm" => Some(Workload::QuickWarm),
            "large-flickr" => Some(Workload::LargeFlickr),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickCold => "quick-cold",
            Workload::QuickWarm => "quick-warm",
            Workload::LargeFlickr => "large-flickr",
        }
    }

    pub fn scale(self) -> ExperimentScale {
        match self {
            Workload::QuickCold | Workload::QuickWarm => ExperimentScale::Quick,
            Workload::LargeFlickr => ExperimentScale::Large,
        }
    }

    /// Whether the timed invocations read caches a set-up invocation filled.
    pub fn is_warm(self) -> bool {
        self == Workload::QuickWarm
    }

    /// The datasets the workload's command loads: the quick grid touches
    /// all four (Table I, Figure 5), the large cell only Flickr.
    pub fn datasets(self) -> Vec<DatasetKind> {
        match self {
            Workload::QuickCold | Workload::QuickWarm => DatasetKind::all().to_vec(),
            Workload::LargeFlickr => vec![DatasetKind::Flickr],
        }
    }

    /// The `bgc` arguments of one invocation.  `bgc all` accepts `--seed`
    /// but keeps its grid on the base seed 17, so the quick workloads'
    /// inputs do not change with it.
    pub fn bgc_args(self, seed: u64) -> Vec<String> {
        let args: &[&str] = match self {
            Workload::QuickCold | Workload::QuickWarm => &["all", "--scale", "quick"],
            Workload::LargeFlickr => &[
                "run",
                "--dataset",
                "flickr",
                "--scale",
                "large",
                "--method",
                "GCond-X",
            ],
        };
        let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        args.extend(["--format", "json", "--seed"].map(String::from));
        args.push(seed.to_string());
        args
    }

    /// How many set-up probes a run takes the median of.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::QuickCold | Workload::QuickWarm => 7,
            Workload::LargeFlickr => 3,
        }
    }
}
