//! Per-iteration trace records emitted by the iterative schedulers.

use serde::{Deserialize, Serialize};

/// One iteration (SE) or generation (GA) worth of observations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Iteration / generation number, starting at 0.
    pub iteration: u64,
    /// Wall-clock seconds since the run started.
    pub elapsed_secs: f64,
    /// Cumulative full schedule evaluations performed so far — the
    /// deterministic cost axis (wall time varies with host load).
    pub evaluations: u64,
    /// Schedule length of the *current* solution (SE) or best-of-
    /// generation (GA).
    pub current_cost: f64,
    /// Best schedule length seen so far.
    pub best_cost: f64,
    /// SE only: number of subtasks placed in the selection set this
    /// iteration (the Fig 3a quantity).
    pub selected: Option<u32>,
    /// GA only: mean schedule length over the population.
    pub population_mean: Option<f64>,
}

/// An append-only sequence of [`TraceRecord`]s for one scheduler run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends a record.
    pub fn push(&mut self, r: TraceRecord) {
        self.records.push(r);
    }

    /// All records in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records were taken.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The last record, if any.
    pub fn last(&self) -> Option<&TraceRecord> {
        self.records.last()
    }

    /// Extracts `(iteration, selected)` — the Fig 3a series. Records
    /// without a selection count are skipped.
    pub fn selected_series(&self) -> crate::series::Series {
        let pts = self
            .records
            .iter()
            .filter_map(|r| r.selected.map(|s| (r.iteration as f64, s as f64)))
            .collect();
        crate::series::Series::from_points("selected", pts)
    }

    /// Extracts `(iteration, current_cost)` — the Fig 3b / Fig 4 series.
    pub fn current_cost_series(&self) -> crate::series::Series {
        let pts = self.records.iter().map(|r| (r.iteration as f64, r.current_cost)).collect();
        crate::series::Series::from_points("current_cost", pts)
    }

    /// Extracts `(elapsed_secs, best_cost)` — the Fig 5–7 series.
    pub fn best_vs_time_series(&self) -> crate::series::Series {
        let pts = self.records.iter().map(|r| (r.elapsed_secs, r.best_cost)).collect();
        crate::series::Series::from_points("best_cost", pts)
    }

    /// Extracts `(evaluations, best_cost)` — the deterministic cost axis.
    pub fn best_vs_evals_series(&self) -> crate::series::Series {
        let pts = self.records.iter().map(|r| (r.evaluations as f64, r.best_cost)).collect();
        crate::series::Series::from_points("best_cost", pts)
    }

    /// One row per record, in order, with the columns
    /// `iteration,elapsed_s,evaluations,current,best`.
    pub fn to_csv(&self) -> crate::csv::CsvTable {
        let mut table =
            crate::csv::CsvTable::new(["iteration", "elapsed_s", "evaluations", "current", "best"]);
        for r in &self.records {
            table.push_row([
                r.iteration.to_string(),
                r.elapsed_secs.to_string(),
                r.evaluations.to_string(),
                r.current_cost.to_string(),
                r.best_cost.to_string(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64, cur: f64, best: f64, sel: Option<u32>) -> TraceRecord {
        TraceRecord {
            iteration: i,
            elapsed_secs: i as f64 * 0.5,
            evaluations: i * 10,
            current_cost: cur,
            best_cost: best,
            selected: sel,
            population_mean: None,
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(rec(0, 10.0, 10.0, Some(5)));
        t.push(rec(1, 8.0, 8.0, Some(3)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.last().unwrap().iteration, 1);
        assert_eq!(t.records()[0].best_cost, 10.0);
    }

    #[test]
    fn series_extraction() {
        let mut t = Trace::new();
        t.push(rec(0, 10.0, 10.0, Some(5)));
        t.push(rec(1, 8.0, 8.0, None));
        t.push(rec(2, 9.0, 8.0, Some(2)));
        assert_eq!(t.selected_series().points(), &[(0.0, 5.0), (2.0, 2.0)]);
        assert_eq!(t.current_cost_series().points(), &[(0.0, 10.0), (1.0, 8.0), (2.0, 9.0)]);
        assert_eq!(t.best_vs_time_series().points(), &[(0.0, 10.0), (0.5, 8.0), (1.0, 8.0)]);
        assert_eq!(t.best_vs_evals_series().points(), &[(0.0, 10.0), (10.0, 8.0), (20.0, 8.0)]);
    }

    #[test]
    fn csv_has_one_row_per_record() {
        let mut t = Trace::new();
        t.push(rec(0, 10.0, 10.0, Some(5)));
        t.push(rec(1, 8.5, 8.5, None));
        t.push(rec(2, 9.0, 8.5, Some(2)));
        assert_eq!(
            t.to_csv().to_string_csv(),
            "iteration,elapsed_s,evaluations,current,best\n\
             0,0,0,10,10\n\
             1,0.5,10,8.5,8.5\n\
             2,1,20,9,8.5\n"
        );
    }
}
