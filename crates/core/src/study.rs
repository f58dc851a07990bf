//! Study configuration and execution.

use crate::pipeline::{self, PipelineStats};
use sclog_filter::SpatioTemporalFilter;
use sclog_obs::ObsConfig;
use sclog_rules::RuleSet;
use sclog_simgen::{GenLog, Scale};
use sclog_types::{Alert, CategoryRegistry, ObsReport, SystemId, ALL_SYSTEMS};

/// A configured reproduction study.
///
/// Generation scale and seed are fixed at construction so every run is
/// reproducible; systems are run independently. Execution is the
/// streaming pipeline ([`crate::pipeline`]): tagging, truth attachment
/// and filtering proceed over bounded batches, with results identical
/// to the serial passes at any [`Study::threads`] / [`Study::chunk_size`]
/// setting.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    scale: Scale,
    seed: u64,
    /// Worker threads; 0 = auto (`available_parallelism`, capped at 8).
    threads: usize,
    /// Messages per pipeline batch.
    chunk: usize,
    /// Observability; off by default.
    obs: ObsConfig,
}

impl Study {
    /// Creates a study at the given alert/background scales and seed.
    ///
    /// # Panics
    ///
    /// Panics if scales are outside `(0, 1]` (see
    /// [`sclog_simgen::Scale`]).
    pub fn new(alert_scale: f64, background_scale: f64, seed: u64) -> Self {
        Study::with_scale(Scale::new(alert_scale, background_scale), seed)
    }

    /// Creates a study from a prebuilt [`Scale`].
    pub fn with_scale(scale: Scale, seed: u64) -> Self {
        Study {
            scale,
            seed,
            threads: 0,
            chunk: pipeline::DEFAULT_CHUNK_MESSAGES,
            obs: ObsConfig::off(),
        }
    }

    /// Turns observability on or off for runs of this study. When on,
    /// each [`SystemRun`] carries an [`ObsReport`] — the per-stage
    /// waterfall, worker utilisation, prefilter effectiveness and
    /// in-flight gauges of its pipeline run. Off (the default) adds no
    /// work to the pipeline at all.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the worker thread count; `0` restores the default
    /// (`available_parallelism`, capped at 8). Benches and tests use
    /// this to pin parallelism deterministically.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the pipeline batch size in messages.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        self.chunk = chunk;
        self
    }

    /// The configured scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker thread count a run will use.
    pub fn resolved_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
    }

    /// Runs the full pipeline for one system: generate, tag with the
    /// built-in expert ruleset, attach ground truth, filter with the
    /// paper's Algorithm 3.1 at `T = 5 s`.
    pub fn run_system(&self, system: SystemId) -> SystemRun {
        self.run(system, None)
    }

    /// Runs the pipeline restricted to a subset of alert categories
    /// (background is still generated) — for drill-down analyses that
    /// would otherwise pay for a dominant category's volume.
    ///
    /// # Panics
    ///
    /// Panics if a named category does not exist on the system.
    pub fn run_subset(&self, system: SystemId, categories: &[&str]) -> SystemRun {
        self.run(system, Some(categories))
    }

    fn run(&self, system: SystemId, only: Option<&[&str]>) -> SystemRun {
        let log = sclog_simgen::generate_categories(system, self.scale, self.seed, only);
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(system, &mut registry);
        let recorder = self.obs.recorder();
        // Study-level metrics must register before the pipeline's
        // first worker shard seals the recorder. Category names are
        // known here (the ruleset just populated the registry), so the
        // report can carry per-category tag counts.
        let gen_messages = recorder.counter("simgen.messages");
        let gen_failures = recorder.counter("simgen.failures");
        let category_counters: Vec<_> = if recorder.enabled() {
            registry
                .iter()
                .map(|(id, def)| (id, recorder.counter(&format!("category.{}", def.name))))
                .collect()
        } else {
            Vec::new()
        };
        let (tagged, filtered, stats) = pipeline::tag_filter_stream(
            &rules,
            &log.messages,
            &log.interner,
            Some(&log.truth),
            &SpatioTemporalFilter::paper(),
            self.resolved_threads(),
            self.chunk,
            &recorder,
        );
        let obs = self.obs.is_enabled().then(|| {
            // A fresh shard after the run (sealing only stops new
            // *definitions*, not new shards) to flush whole-run tallies.
            let tr = recorder.thread("study");
            tr.add(gen_messages, log.len() as u64);
            tr.add(gen_failures, log.failure_count);
            let by_category = tagged.counts_by_category();
            for (id, counter) in &category_counters {
                tr.add(*counter, by_category.get(id).copied().unwrap_or(0));
            }
            recorder.snapshot().report()
        });
        SystemRun {
            system,
            log,
            registry,
            tagged,
            filtered,
            stats,
            obs,
        }
    }

    /// Runs every system, in the paper's table order.
    pub fn run_all(&self) -> Vec<SystemRun> {
        ALL_SYSTEMS.iter().map(|&s| self.run_system(s)).collect()
    }
}

/// The artifacts of running the pipeline on one system.
#[derive(Debug)]
pub struct SystemRun {
    /// Which system.
    pub system: SystemId,
    /// The generated log (messages, ground truth, interner).
    pub log: GenLog,
    /// Category registry populated by the ruleset.
    pub registry: CategoryRegistry,
    /// Expert-tagged alerts, with ground truth attached.
    pub tagged: sclog_rules::TaggedLog,
    /// Alerts surviving Algorithm 3.1 at the paper threshold.
    pub filtered: Vec<Alert>,
    /// What the pipeline observed about its working set.
    pub stats: PipelineStats,
    /// The run report, when the study had [`Study::obs`] turned on.
    pub obs: Option<ObsReport>,
}

impl SystemRun {
    /// Observed categories (those with at least one tagged alert).
    pub fn observed_categories(&self) -> usize {
        self.tagged.counts_by_category().len()
    }

    /// Raw alert count.
    pub fn raw_alerts(&self) -> usize {
        self.tagged.len()
    }

    /// Filtered alert count.
    pub fn filtered_alerts(&self) -> usize {
        self.filtered.len()
    }

    /// Message count.
    pub fn messages(&self) -> usize {
        self.log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_filter::AlertFilter;

    #[test]
    fn pipeline_produces_consistent_run() {
        let study = Study::new(0.01, 0.0002, 7);
        let run = study.run_system(SystemId::Liberty);
        assert_eq!(run.system, SystemId::Liberty);
        assert!(run.raw_alerts() > 0);
        assert!(run.filtered_alerts() > 0);
        assert!(run.filtered_alerts() <= run.raw_alerts());
        assert!(run.messages() > run.raw_alerts());
        assert!(
            run.observed_categories() >= 2,
            "frequent Liberty categories observed"
        );
    }

    #[test]
    fn tagging_recovers_generated_alerts() {
        // Every generated alert message should be tagged by the expert
        // rules (modulo the few corrupted beyond recognition), and tags
        // must agree with ground-truth categories.
        let study = Study::new(0.02, 0.0001, 11);
        let run = study.run_system(SystemId::Liberty);
        let truth_alerts = run.log.truth.iter().filter(|t| t.is_some()).count();
        let tagged = run.raw_alerts();
        assert!(
            (tagged as f64) >= 0.97 * truth_alerts as f64,
            "tagged {tagged} of {truth_alerts} generated alerts"
        );
        // Cross-check category names where ground truth exists.
        let mut mismatches = 0;
        for a in &run.tagged.alerts {
            if let Some(true_name) = run.log.truth_category[a.message_index] {
                if run.registry.name(a.category) != true_name {
                    mismatches += 1;
                }
            }
        }
        assert_eq!(mismatches, 0, "expert tags disagree with ground truth");
    }

    #[test]
    fn runs_are_reproducible() {
        let study = Study::new(0.01, 0.0001, 3);
        let a = study.run_system(SystemId::BlueGeneL);
        let b = study.run_system(SystemId::BlueGeneL);
        assert_eq!(a.tagged.alerts, b.tagged.alerts);
        assert_eq!(a.filtered, b.filtered);
    }

    #[test]
    fn accessors() {
        let study = Study::with_scale(sclog_simgen::Scale::tiny(), 5);
        assert_eq!(study.seed(), 5);
        assert!(study.scale().alerts > 0.0);
    }

    #[test]
    fn threads_override_pins_worker_count() {
        let study = Study::new(0.01, 0.0001, 3);
        assert_eq!(study.threads(3).resolved_threads(), 3);
        assert_eq!(
            study.threads(3).threads(0).resolved_threads(),
            study.resolved_threads()
        );
        assert!(study.resolved_threads() >= 1, "auto resolves to something");
    }

    /// The serial passes `Study::run` streams: tag everything, attach
    /// all truth, filter everything.
    fn serial_reference(run: &SystemRun) -> (Vec<Alert>, Vec<Alert>) {
        let rules = RuleSet::builtin(run.system, &mut CategoryRegistry::new());
        let mut tagged = rules.tag_messages(&run.log.messages, &run.log.interner);
        tagged.attach_truth(&run.log.truth);
        let filtered = SpatioTemporalFilter::paper().filter(&tagged.alerts);
        (tagged.alerts, filtered)
    }

    #[test]
    fn streaming_run_matches_batch_reference() {
        let study = Study::new(0.01, 0.0002, 13);
        for (threads, chunk) in [(1, 512), (2, 64), (4, 4096)] {
            let run = study
                .threads(threads)
                .chunk_size(chunk)
                .run_system(SystemId::Liberty);
            let (alerts, filtered) = serial_reference(&run);
            assert_eq!(run.tagged.alerts, alerts, "t={threads} c={chunk}");
            assert_eq!(run.filtered, filtered, "t={threads} c={chunk}");
        }
    }

    #[test]
    fn run_reports_bounded_working_set() {
        let study = Study::new(0.01, 0.0002, 13).threads(2).chunk_size(64);
        let run = study.run_system(SystemId::Liberty);
        let bound = run.stats.in_flight_bound_messages.unwrap();
        assert!(run.stats.peak_in_flight_messages <= bound);
        assert!(
            bound < run.messages(),
            "streaming working set is a fraction of the log"
        );
    }

    #[test]
    fn obs_off_by_default_and_report_when_on() {
        let study = Study::new(0.01, 0.0002, 13).threads(2).chunk_size(256);
        let plain = study.run_system(SystemId::Liberty);
        assert!(plain.obs.is_none(), "no report unless asked");

        let run = study.obs(ObsConfig::on()).run_system(SystemId::Liberty);
        let report = run.obs.as_ref().expect("obs on produces a report");
        assert_eq!(
            run.tagged.alerts, plain.tagged.alerts,
            "obs changes nothing"
        );
        assert_eq!(run.filtered, plain.filtered);
        // Stage accounting squares with the run's own outputs.
        assert_eq!(
            report.counter("tagger.lines"),
            Some(run.messages() as u64),
            "every message went through the tag loop"
        );
        assert_eq!(
            report.counter("filter.alerts_in"),
            Some(run.raw_alerts() as u64)
        );
        assert_eq!(
            report.counter("filter.alerts_kept"),
            Some(run.filtered_alerts() as u64)
        );
        assert_eq!(
            report.counter("simgen.messages"),
            Some(run.messages() as u64)
        );
        for stage in ["produce", "tag", "filter"] {
            assert!(report.stage(stage).is_some(), "stage {stage} in waterfall");
        }
        // Gauges mirror PipelineStats, bound included.
        let g = report.gauge("pipeline.in_flight_batches").unwrap();
        assert_eq!(g.peak, run.stats.peak_in_flight_batches as u64);
        assert_eq!(g.bound, Some(run.stats.in_flight_bound_batches as u64));
        assert_eq!(g.current, 0, "everything released by the end");
        // Per-category counters sum to the raw alert count.
        let per_category: u64 = report
            .counters
            .iter()
            .filter(|c| c.name.starts_with("category."))
            .map(|c| c.value)
            .sum();
        assert_eq!(per_category, run.raw_alerts() as u64);
        assert!(report.wall_ns > 0);
        assert!(report.coverage > 0.0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = Study::new(0.01, 0.0001, 3).chunk_size(0);
    }
}
