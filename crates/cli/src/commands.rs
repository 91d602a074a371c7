//! Subcommand implementations.

use crate::args::{parse, Parsed};
use mshc_core::{SeConfig, SePendingBias};
use mshc_ga::{GaConfig, GaScheduler};
use mshc_heuristics::{
    CpopScheduler, HeftScheduler, ListPolicy, ListScheduler, RandomSearch, SimulatedAnnealing,
    TabuSearch,
};
use mshc_platform::{HcInstance, InstanceMetrics};
use mshc_portfolio::{
    aggregate, cells_csv, render_report, replicate_seeds, TournamentSpec, ALGORITHMS,
};
use mshc_schedule::{
    CellFault, Disturbance, Evaluator, FaultPlan, Gantt, ObjectiveKind, Replanner, RunBudget,
    Scheduler, SteppableSearch, Termination,
};
use mshc_trace::Trace;
use mshc_workloads::{
    named_suite, Connectivity, DisturbanceTrace, DisturbanceTraceSpec, Heterogeneity, WorkloadSpec,
};
use serde::Deserialize;
use std::fmt;
use std::io::{self, Write};
use std::time::Duration;

/// Top-level usage text.
pub const USAGE: &str = "\
mshc <command> [options]

commands:
  generate   build a random workload and write it as JSON
             --tasks N --machines L --connectivity low|medium|high
             --heterogeneity low|medium|high --ccr X --seed N --out FILE
  run        run one scheduler on a workload
             --algo se|ga|heft|heft-ins|cpop|met|mct|olb|min-min|max-min|random|sa|tabu
             [--instance FILE | workload options] [--iters N] [--wall SECS]
             [--seed N] [--bias B] [--y Y] [--gantt] [--report] [--trace FILE]
             SE's --bias B (finite) defaults to the paper's guidance for the
             task count, and --y Y (at least 1) to every machine
  compare    run every scheduler on one workload and print a table
             [--instance FILE | workload options] [--iters N] [--wall SECS]
  tournament race schedulers across a scenario grid, deterministically
             --spec FILE (pins all axes) | --suite tiny|small|full
             [--algos a,b,c] [--seeds N] [--seed MASTER] [--iters N]
             [--portfolio] [--rounds N] [--out FILE] [--csv FILE]
             [--report]
             the leaderboard JSON (--out) is bit-identical at any
             --threads / RAYON_NUM_THREADS setting, portfolio on or off.
             --portfolio, --rounds and --no-early-stop compose with
             --spec; --wall, --deadline-evals and --deadline-ms do not
             apply to tournaments (a spec file sets a per-cell
             deadline_evals)
  replan     disturb a running schedule and re-search the residue:
             machine dropout, machine slowdown, task-duration inflation
             --algo se|ga|random|sa|tabu (iterative searches only; the
             one-shot heuristics cannot resume from a frozen prefix)
             [--instance FILE | workload options] [--iters N]
             [--disturb FILE | --events N [--disturb-seed S] [--dropout]]
             [--out FILE] [--report]
             each disturbance freezes the committed prefix (tasks
             finished by the event time), drops/degrades the affected
             machine, and re-runs the search on the residual problem
             seeded with the surviving frontier. The report JSON
             (--out) carries virtual time only: it is bit-identical at
             any --threads / RAYON_NUM_THREADS setting
  info       print instance metrics
             --instance FILE | workload options

every command rejects an option it does not read (exit status 2),
including workload options next to --instance FILE (the file fixes
the workload; --seed still seeds run/compare/replan's schedulers) and
event options next to --disturb FILE or a fault plan's dropouts.

global options:
  --objective makespan|total-flowtime|mean-flowtime|load-balance|weighted:MK,FT,LB
             objective iterative schedulers minimize (default: makespan)
  --threads N
             evaluation worker threads for this invocation, applied as a
             scoped override on the resident work-stealing pool (N >= 1;
             0 is rejected). Precedence: --threads beats the
             RAYON_NUM_THREADS environment variable, which beats the
             machine's available parallelism. Results are bit-identical
             at every setting — the flag only changes speed.
  --no-early-stop
             disable early termination at the certified instance lower
             bound (default is on). When the incumbent's makespan reaches
             the certified floor no strict improvement exists, so the
             iterative schedulers stop spending budget; the solution and
             objective value are identical either way — only iteration
             and evaluation counts can shrink. The certificate itself
             (lower bound and gap, printed by --report and carried in
             tournament artifacts) is unaffected by this flag.
  --deadline-evals N
             deterministic deadline: stop an iterative run at the first
             iteration boundary at or past N schedule evaluations and
             return the best incumbent found, marked with termination
             \"deadline\". Unlike --iters this bounds work, not rounds;
             evaluation counts are exact, so deadline'd results are
             bit-identical at any thread count. N must be at least 1 —
             a zero deadline would fire before the first incumbent
             exists (omit the flag for no deadline). A run has one wall
             limit, so --wall next to a deadline flag is an error; give
             a deadline run its wall limit as --deadline-ms.
  --deadline-ms X
             wall-clock deadline in milliseconds (anytime mode): stop
             at the first iteration boundary past X ms and return the
             best incumbent, marked \"deadline\". Inherently
             non-deterministic — do not combine with byte-compared
             artifacts; use --deadline-evals for a reproducible
             deadline. X must be positive and finite, and --wall cannot
             sit next to it.
  --faults FILE
             arm a declarative fault-injection plan (JSON) for this
             invocation: {\"panic_at_evaluations\": N} (N >= 1) poisons
             the Nth full pass or move replay, \"cell_panics\" panics
             named tournament cells (each entry {algorithm, scenario,
             seed} must name a cell of the tournament, fires once and
             is consumed), \"dropouts\" carries disturbance events for
             replan. Only tournament cells catch a panic, so every
             other command rejects a plan with panic_at_evaluations or
             cell_panics, and every command but replan rejects one with
             dropouts. Injected panics are
             caught by the tournament harness: cells retry up to the
             spec's cell_retries budget (same seed, deterministic),
             then surface as failed cells; retried cells are flagged
             degraded on the leaderboard instead of being dropped.
  --metrics FILE
             write an observability snapshot (JSON) after the command
             finishes. Turns metric recording on for this invocation.
             The deterministic plane sums the records of the runs the
             command made: full passes (\"evaluations\"), move
             scorings, GA clones, iterations; passes made only to
             report (--report, --gantt) are in no run's record.
             Recording is write-only and cannot change any result bit —
             run/compare/tournament artifacts are byte-identical with or
             without this flag, and the snapshot's deterministic plane
             is itself bit-stable at any thread count (the timing
             plane — durations, steal counts, queue depths — is not).
  --obs-events FILE
             stream observability events to FILE as JSON lines (cell
             lifecycle, span durations). Same no-perturbation guarantee
             as --metrics; event payloads carry wall-clock content and
             vary run to run.

exit status: 0 on success, and also when standard output closes early
(a reader such as `head` stops reading: the command ends quietly); 2 on
any other error, with a message on standard error.
";

/// Why a command failed.
#[derive(Debug)]
pub enum Error {
    /// The command could not run as asked: a bad flag, input or file.
    Command(String),
    /// Writing to standard output failed; a closed pipe reads
    /// [`io::ErrorKind::BrokenPipe`].
    Output(io::Error),
}

impl From<String> for Error {
    fn from(message: String) -> Error {
        Error::Command(message)
    }
}

impl From<&str> for Error {
    fn from(message: &str) -> Error {
        Error::Command(message.to_string())
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::Output(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Command(message) => f.write_str(message),
            Error::Output(e) => write!(f, "writing output: {e}"),
        }
    }
}

/// Entry point: dispatches `argv` to a subcommand, which writes its
/// report to `out` (the locked standard output in `main`). A closed
/// `out` ends only the report: the command still runs to the end and
/// writes every file it was asked for, then returns the
/// [`io::ErrorKind::BrokenPipe`] error.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<(), Error> {
    let mut out = ReportOut { out, closed: None };
    run_command(argv, &mut out)?;
    out.closed.map_or(Ok(()), |e| Err(Error::Output(e)))
}

/// A command's report writer: once a write fails with
/// [`io::ErrorKind::BrokenPipe`] (nobody reads the rest), it keeps the
/// error and drops every later write.
struct ReportOut<'a> {
    out: &'a mut dyn Write,
    closed: Option<io::Error>,
}

impl ReportOut<'_> {
    /// Runs `attempt` on the real writer while it is open; a broken pipe
    /// closes it. A closed writer reports `done` instead.
    fn guard<T>(
        &mut self,
        done: T,
        attempt: impl FnOnce(&mut dyn Write) -> io::Result<T>,
    ) -> io::Result<T> {
        if self.closed.is_none() {
            match attempt(self.out) {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = Some(e),
                result => return result,
            }
        }
        Ok(done)
    }
}

impl Write for ReportOut<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.guard(buf.len(), |out| out.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.guard((), |out| out.flush())
    }
}

/// Runs the command line `argv`, writing its report to `out`.
fn run_command(argv: &[String], out: &mut dyn Write) -> Result<(), Error> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        write!(out, "{USAGE}")?;
        return Ok(out.flush()?);
    }
    let parsed = parse(argv);
    let command = parsed.positional.first().map(String::as_str);
    if let Some(command) = command {
        if let Some(flag) = parsed.options.keys().find(|flag| !reads(command, flag)) {
            return Err(format!("{command}: --{flag} is not an option of this command").into());
        }
    }
    let threads: usize = parsed.get_parse("threads", 0)?;
    if parsed.get("threads").is_some() && threads == 0 {
        return Err("--threads: must be at least 1 (omit the flag to use RAYON_NUM_THREADS or \
                    the machine's available parallelism)"
            .into());
    }
    // Observability is armed only when something will consume it: an
    // export flag. Leaving it off otherwise is what lets CI byte-compare
    // artifacts produced with and without recording — the gate that pins
    // "metrics cannot perturb any result bit".
    if parsed.get("metrics").is_some() || parsed.get("obs-events").is_some() {
        mshc_obs::reset();
        mshc_obs::enable(true);
    }
    if let Some(path) = parsed.get("obs-events") {
        mshc_obs::install_events_file(std::path::Path::new(path))
            .map_err(|e| format!("--obs-events {path}: {e}"))?;
    }
    // A fault plan is armed process-globally for exactly this dispatch
    // and disarmed on every exit path below; arming without a plan
    // that could fire is harmless (the hooks check a relaxed flag).
    let fault_plan = match parsed.get("faults") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--faults {path}: {e}"))?;
            let plan = FaultPlan::from_json(&text)
                .map_err(|e| format!("--faults {path}: invalid fault plan: {e}"))?;
            if let Some(command) = command {
                check_fault_plan(&plan, command).map_err(|e| format!("--faults {path}: {e}"))?;
            }
            mshc_schedule::faults::quiet_injected_panics();
            mshc_schedule::faults::arm(&plan);
            Some(plan)
        }
        None => None,
    };
    let faults = fault_plan.as_ref();
    let run = |out: &mut dyn Write| match command {
        Some("help") => Ok(write!(out, "{USAGE}")?),
        Some("generate") => cmd_generate(&parsed, out),
        Some("run") => cmd_run(&parsed, out),
        Some("compare") => cmd_compare(&parsed, out),
        Some("tournament") => cmd_tournament(&parsed, faults, out),
        Some("replan") => cmd_replan(&parsed, faults, out),
        Some("info") => cmd_info(&parsed, out),
        Some(other) => Err(format!("unknown command {other:?}").into()),
        None => Err("missing command".into()),
    };
    let outcome = if threads > 0 {
        // A scoped size override on the resident pool — no process-wide
        // state, no dependence on pre-main environment timing, and no
        // leakage into embedding callers (tests, future `mshc serve`).
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| format!("--threads: {e}"))?;
        pool.install(|| run(out))
    } else {
        run(out)
    };
    if fault_plan.is_some() {
        mshc_schedule::faults::disarm();
    }
    // Only tear down the sink this invocation installed — embedding
    // callers (tests) may dispatch concurrently.
    if parsed.get("obs-events").is_some() {
        mshc_obs::shutdown_events();
    }
    outcome?;
    if let Some(path) = parsed.get("metrics") {
        std::fs::write(path, mshc_obs::snapshot().to_json())
            .map_err(|e| format!("--metrics {path}: {e}"))?;
        writeln!(out, "metrics written to {path}")?;
    }
    Ok(out.flush()?)
}

/// Rejects a fault plan holding a fault that `command` could never fire,
/// or fire only by aborting. Only a tournament runs cells, and only its
/// cells catch a panic, so cell faults and evaluation faults need one;
/// dropouts disturb a replan.
fn check_fault_plan(plan: &FaultPlan, command: &str) -> Result<(), String> {
    if let Some(fault) = plan.cell_panics.first().filter(|_| command != "tournament") {
        return Err(format!(
            "cell_panics entry {} names a tournament cell, but {command} runs no cells",
            cell_name(fault)
        ));
    }
    match plan.panic_at_evaluations {
        Some(0) => {
            return Err("panic_at_evaluations: 0 never fires (the count is 1-based; omit the \
                        field for no fault)"
                .into())
        }
        Some(_) if command != "tournament" => {
            return Err(format!(
                "panic_at_evaluations panics an evaluation, and only tournament cells catch \
                 it: {command} would abort"
            ))
        }
        _ => {}
    }
    if !plan.dropouts.is_empty() && command != "replan" {
        return Err(format!("dropouts disturb a replan, but {command} replans nothing"));
    }
    Ok(())
}

/// A cell fault as `{algorithm "se", scenario "…", seed 7}`, for errors.
fn cell_name(fault: &CellFault) -> String {
    format!(
        "{{algorithm {:?}, scenario {:?}, seed {}}}",
        fault.algorithm, fault.scenario, fault.seed
    )
}

/// Flags `dispatch` itself reads, for every command.
const DISPATCH_FLAGS: &[&str] = &["threads", "faults", "metrics", "obs-events"];
/// Flags [`workload_spec`] reads besides `--seed`, which also seeds
/// the schedulers.
const WORKLOAD_FLAGS: &[&str] = &["tasks", "machines", "connectivity", "heterogeneity", "ccr"];
/// Flags only seeded disturbance generation in [`disturbances`] reads.
const EVENT_FLAGS: &[&str] = &["events", "disturb-seed", "dropout"];
/// Flags [`budget`] reads.
const BUDGET_FLAGS: &[&str] =
    &["iters", "wall", "deadline-evals", "deadline-ms", "objective", "no-early-stop"];
/// Flags [`make_scheduler`] and [`make_steppable`] read.
const SCHEDULER_FLAGS: &[&str] = &["seed", "bias", "y"];

/// Whether `command` reads `--flag`. Unknown commands read nothing;
/// dispatch reports them by name instead.
fn reads(command: &str, flag: &str) -> bool {
    let groups: &[&[&str]] = match command {
        "generate" => &[WORKLOAD_FLAGS, &["seed", "out"]],
        "info" => &[WORKLOAD_FLAGS, &["seed", "instance"]],
        "run" => &[
            WORKLOAD_FLAGS,
            BUDGET_FLAGS,
            SCHEDULER_FLAGS,
            &["algo", "instance", "gantt", "report", "trace"],
        ],
        "compare" => &[WORKLOAD_FLAGS, BUDGET_FLAGS, SCHEDULER_FLAGS, &["instance"]],
        "tournament" => &[&[
            "spec",
            "suite",
            "algos",
            "seeds",
            "seed",
            "iters",
            "objective",
            "portfolio",
            "rounds",
            "no-early-stop",
            "out",
            "csv",
            "report",
        ]],
        "replan" => &[
            WORKLOAD_FLAGS,
            BUDGET_FLAGS,
            SCHEDULER_FLAGS,
            EVENT_FLAGS,
            &["algo", "instance", "disturb", "out", "report"],
        ],
        _ => &[],
    };
    DISPATCH_FLAGS.contains(&flag) || groups.iter().any(|group| group.contains(&flag))
}

fn workload_spec(p: &Parsed) -> Result<WorkloadSpec, String> {
    let connectivity = match p.get("connectivity").unwrap_or("medium") {
        "low" => Connectivity::Low,
        "medium" => Connectivity::Medium,
        "high" => Connectivity::High,
        other => return Err(format!("--connectivity: unknown class {other:?}")),
    };
    let heterogeneity = match p.get("heterogeneity").unwrap_or("medium") {
        "low" => Heterogeneity::Low,
        "medium" => Heterogeneity::Medium,
        "high" => Heterogeneity::High,
        other => return Err(format!("--heterogeneity: unknown class {other:?}")),
    };
    let spec = WorkloadSpec {
        tasks: p.get_parse("tasks", 50usize)?,
        machines: p.get_parse("machines", 8usize)?,
        connectivity,
        heterogeneity,
        ccr: p.get_parse("ccr", 0.5f64)?,
        seed: p.get_parse("seed", 2001u64)?,
    };
    // The generator panics on degenerate parameters; reject them here
    // with the flag's name instead. Each field is its flag.
    spec.validate().map_err(|e| format!("--{e}"))?;
    Ok(spec)
}

/// Errors when one of `flags` sits next to `source`, which fixes what
/// they would generate and so would leave them unread.
fn reject_beside(p: &Parsed, source: &str, flags: &[&str], fixes: &str) -> Result<(), String> {
    match flags.iter().find(|flag| p.flag(flag)) {
        Some(flag) => Err(format!("{source} and --{flag} are mutually exclusive ({fixes})")),
        None => Ok(()),
    }
}

fn load_instance(p: &Parsed) -> Result<HcInstance, String> {
    match p.get("instance") {
        Some(path) => {
            reject_beside(p, "--instance", WORKLOAD_FLAGS, "the file fixes the workload")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("{path}: invalid instance: {e}"))
        }
        None => Ok(workload_spec(p)?.generate()),
    }
}

/// `secs` as a duration, or `None` unless it is positive, finite and
/// small enough for [`Duration`].
fn positive_duration(secs: f64) -> Option<Duration> {
    if secs > 0.0 {
        Duration::try_from_secs_f64(secs).ok()
    } else {
        None
    }
}

fn budget(p: &Parsed) -> Result<RunBudget, String> {
    let mut b = RunBudget::default();
    if p.get("iters").is_some() {
        let iters: u64 = p.get_parse("iters", 0)?;
        if iters == 0 {
            return Err("--iters: must be at least 1 (omit the flag for the default of 200 \
                 iterations)"
                .to_string());
        }
        b.max_iterations = Some(iters);
    }
    if let Some(raw) = p.get("wall") {
        reject_beside(
            p,
            "--wall",
            &["deadline-evals", "deadline-ms"],
            "a run has one wall limit; a deadline run takes it as --deadline-ms",
        )?;
        let secs: f64 = p.get_parse("wall", 0.0)?;
        b.max_wall = Some(positive_duration(secs).ok_or_else(|| {
            format!(
                "--wall: must be a positive, finite number of seconds (at most about 1.8e19), \
                 got {raw:?}"
            )
        })?);
    }
    if p.get("deadline-evals").is_some() {
        let n: u64 = p.get_parse("deadline-evals", 0)?;
        if n == 0 {
            return Err("--deadline-evals: must be at least 1 (a zero deadline would \
                 fire before the first incumbent exists and could never return a \
                 schedule; omit the flag for no deadline)"
                .to_string());
        }
        b = b.with_deadline_evals(n);
    }
    if let Some(raw) = p.get("deadline-ms") {
        let ms: f64 = raw.parse().map_err(|_| format!("--deadline-ms: not a number: {raw:?}"))?;
        if !ms.is_finite() || ms <= 0.0 {
            return Err(format!(
                "--deadline-ms: must be positive and finite, got {raw:?} (this is the \
                 wall-clock anytime deadline; use --deadline-evals for a deterministic, \
                 reproducible one)"
            ));
        }
        b = b.with_deadline_wall(
            positive_duration(ms / 1000.0)
                .ok_or_else(|| format!("--deadline-ms: {raw:?} is too long for a deadline"))?,
        );
    }
    if !b.is_bounded() {
        // An all-`None` budget would make the iterative schedulers run
        // forever; default loudly instead of silently never stopping.
        b.max_iterations = Some(200);
        eprintln!("note: no --iters/--wall budget given; defaulting to --iters 200");
    }
    if let Some(raw) = p.get("objective") {
        b.objective = raw.parse().map_err(|e| format!("--objective: {e}"))?;
    }
    b.early_stop = !p.flag("no-early-stop");
    debug_assert!(b.validate().is_ok());
    Ok(b)
}

/// Builds any scheduler: the one-shot heuristics here, the iterative
/// searches through [`make_steppable`].
fn make_scheduler(p: &Parsed, name: &str) -> Result<Box<dyn Scheduler>, String> {
    Ok(match name {
        "heft" => Box::new(HeftScheduler::new()),
        "heft-ins" => Box::new(HeftScheduler::with_insertion()),
        "cpop" => Box::new(CpopScheduler::new()),
        "met" => Box::new(ListScheduler::new(ListPolicy::Met)),
        "mct" => Box::new(ListScheduler::new(ListPolicy::Mct)),
        "olb" => Box::new(ListScheduler::new(ListPolicy::Olb)),
        "min-min" => Box::new(ListScheduler::new(ListPolicy::MinMin)),
        "max-min" => Box::new(ListScheduler::new(ListPolicy::MaxMin)),
        _ => make_steppable(p, name)?,
    })
}

fn cmd_generate(p: &Parsed, out: &mut dyn Write) -> Result<(), Error> {
    let spec = workload_spec(p)?;
    let inst = spec.generate();
    let json = serde_json::to_string(&inst).map_err(|e| e.to_string())?;
    match p.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            writeln!(
                out,
                "wrote {} ({} tasks, {} machines, {} data items) tag={}",
                path,
                inst.task_count(),
                inst.machine_count(),
                inst.data_count(),
                spec.tag()
            )?;
        }
        None => writeln!(out, "{json}")?,
    }
    Ok(())
}

fn cmd_run(p: &Parsed, out: &mut dyn Write) -> Result<(), Error> {
    let algo = p.get("algo").ok_or("run: --algo is required")?.to_string();
    let inst = load_instance(p)?;
    let budget = budget(p)?;
    let mut scheduler = make_scheduler(p, &algo)?;
    let mut trace = Trace::new();
    let result = {
        // Span around the whole scheduler run: records into the timing
        // plane and (with --obs-events) emits one span event on drop.
        let _span = mshc_obs::span("run");
        scheduler.run(&inst, &budget, Some(&mut trace))
    };
    result
        .solution
        .check(inst.graph())
        .map_err(|e| format!("BUG: scheduler emitted invalid solution: {e}"))?;
    writeln!(
        out,
        "{algo}: makespan {:.2} | {} iterations, {} evaluations, {:.3}s",
        result.makespan,
        result.iterations,
        result.evaluations,
        result.elapsed.as_secs_f64()
    )?;
    writeln!(out, "termination: {}", result.termination.as_str())?;
    if !budget.objective.is_makespan() {
        writeln!(out, "objective {}: {:.2}", budget.objective.label(), result.objective_value)?;
    }
    // One shared evaluation pass serves both --report and --gantt.
    let full_report = (p.flag("report") || p.flag("gantt"))
        .then(|| Evaluator::new(&inst).report(&result.solution));
    if p.flag("report") {
        let o = full_report.as_ref().expect("computed above").objectives();
        writeln!(
            out,
            "objectives: makespan {:.2} | total-flowtime {:.2} | mean-flowtime {:.2} | \
             load-imbalance {:.2}",
            o.makespan, o.total_flowtime, o.mean_flowtime, o.load_imbalance
        )?;
        match (result.lower_bound, result.gap) {
            (Some(lb), Some(gap)) => writeln!(
                out,
                "certificate: lower bound {:.2} | gap {:.4}x{}",
                lb,
                gap,
                if result.termination == Termination::Floor {
                    " | stopped early at the floor"
                } else {
                    ""
                }
            )?,
            (Some(lb), None) => writeln!(out, "certificate: lower bound {lb:.2}")?,
            _ => writeln!(out, "certificate: none (objective is not makespan)")?,
        }
        let secs = result.elapsed.as_secs_f64();
        let evals_per_sec =
            if secs > 0.0 { result.evaluations as f64 / secs } else { f64::INFINITY };
        writeln!(
            out,
            "throughput: {:.0} evals/sec ({} evals, {:.3}s)",
            evals_per_sec, result.evaluations, secs
        )?;
        // The rest of the report renders the run's own record — the
        // one --metrics sums — and its trace, so every line below is
        // byte-identical at any thread count.
        let work = result.scan;
        if work.population_positions > 0 {
            writeln!(
                out,
                "population: {} clones | {:.1}% of string positions served without a pass",
                work.clones,
                100.0 * work.prefix_reuse_fraction()
            )?;
        } else if work.scored > 0 {
            writeln!(out, "move scan: {} move scorings", work.scored)?;
        }
        // Incumbent-vs-iteration sparkline from the run trace (the
        // deterministic x axis; running minimum of the current cost).
        if trace.len() >= 2 {
            let incumbent = trace.current_cost_series().running_min().renamed("incumbent");
            write!(
                out,
                "{}",
                mshc_trace::AsciiPlot::new("incumbent vs iteration", 64, 10).render(&[incumbent])
            )?;
        }
    }
    if p.flag("gantt") {
        let report = full_report.as_ref().expect("computed above");
        let gantt = Gantt::build(&result.solution, report);
        write!(out, "{}", gantt.render_ascii(&inst, 72))?;
        writeln!(out, "utilization: {:.1}%", 100.0 * gantt.utilization())?;
    }
    if let Some(path) = p.get("trace") {
        trace.to_csv().write_file(path).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "trace written to {path} ({} records)", trace.len())?;
    }
    Ok(())
}

fn cmd_compare(p: &Parsed, out: &mut dyn Write) -> Result<(), Error> {
    let inst = load_instance(p)?;
    let budget = budget(p)?;
    writeln!(
        out,
        "instance: {} tasks, {} machines, {} data items",
        inst.task_count(),
        inst.machine_count(),
        inst.data_count()
    )?;
    writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>8} {:>12} {:>12} {:>9}",
        "algorithm",
        "makespan",
        budget.objective.label(),
        "gap",
        "iterations",
        "evals",
        "secs"
    )?;
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut floor: Option<f64> = None;
    for name in ALGORITHMS {
        let mut s = make_scheduler(p, name)?;
        let r = {
            let _span = mshc_obs::span("compare-cell");
            s.run(&inst, &budget, None)
        };
        // The bound is instance-level, so every row certifies against
        // the same floor; remember it for the summary line.
        floor = floor.or(r.lower_bound);
        let gap = r.gap.map_or_else(|| "-".to_string(), |g| format!("{g:.4}"));
        writeln!(
            out,
            "{:<10} {:>12.2} {:>12.2} {:>8} {:>12} {:>12} {:>9.3}",
            name,
            r.makespan,
            r.objective_value,
            gap,
            r.iterations,
            r.evaluations,
            r.elapsed.as_secs_f64()
        )?;
        rows.push((name.to_string(), r.objective_value));
    }
    let best = rows.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty");
    writeln!(out, "best: {} ({:.2})", best.0, best.1)?;
    if let Some(lb) = floor {
        writeln!(out, "certified lower bound: {lb:.2}")?;
    }
    Ok(())
}

/// Builds the tournament spec from `--spec FILE` or from the suite and
/// axis flags.
fn tournament_spec(p: &Parsed) -> Result<TournamentSpec, String> {
    let mut spec = match p.get("spec") {
        Some(path) => {
            // The spec file pins every experiment axis; combining it with
            // an axis flag would silently lose one side, so reject the
            // combination outright (--portfolio/--rounds stay available
            // as explicit execution-mode overrides).
            for axis in ["suite", "algos", "seeds", "seed", "iters", "objective"] {
                if p.get(axis).is_some() {
                    return Err(format!(
                        "tournament: --spec and --{axis} are mutually exclusive (the spec file \
                         pins that axis)"
                    ));
                }
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            TournamentSpec::from_json(&text)
                .map_err(|e| format!("{path}: invalid tournament spec: {e}"))?
        }
        None => {
            let suite_name = p.get("suite").unwrap_or("small");
            let scenarios = named_suite(suite_name).ok_or_else(|| {
                format!("--suite: unknown suite {suite_name:?} (tiny, small, full)")
            })?;
            let mut spec = TournamentSpec::new(suite_name, scenarios);
            if let Some(algos) = p.get("algos") {
                spec.algorithms = algos.split(',').map(|a| a.trim().to_string()).collect();
            }
            // Replicate seeds derive from the master seed via a ChaCha8
            // stream; each replicate then seeds its cell's workload and
            // algorithm exactly like `run --seed` would.
            spec.seeds =
                replicate_seeds(p.get_parse("seed", 2001u64)?, p.get_parse("seeds", 3usize)?);
            spec.iterations = p.get_parse("iters", 60u64)?;
            if let Some(raw) = p.get("objective") {
                raw.parse::<ObjectiveKind>().map_err(|e| format!("--objective: {e}"))?;
                spec.objectives = vec![raw.to_string()];
            }
            spec
        }
    };
    if p.flag("portfolio") {
        spec.portfolio = true;
    }
    if p.get("rounds").is_some() {
        spec.rounds = p.get_parse("rounds", 8u64)?;
    }
    // Early stopping can change iteration/evaluation counts (never
    // solutions), so it composes with --spec the same way.
    if p.flag("no-early-stop") {
        spec.early_stop = false;
    }
    spec.validate()?;
    Ok(spec)
}

fn cmd_tournament(
    p: &Parsed,
    faults: Option<&FaultPlan>,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let spec = tournament_spec(p)?;
    // A cell fault fires only on the cell it names; one naming no cell
    // of this tournament would be silently ignored.
    for fault in faults.iter().flat_map(|plan| &plan.cell_panics) {
        let names_a_cell = spec.algorithms.contains(&fault.algorithm)
            && spec.seeds.contains(&fault.seed)
            && spec.scenarios.iter().any(|s| s.tag() == fault.scenario);
        if !names_a_cell {
            return Err(format!(
                "--faults {}: cell_panics entry {} names no cell of this tournament",
                p.get("faults").unwrap_or_default(),
                cell_name(fault)
            )
            .into());
        }
    }
    let run = {
        let _span = mshc_obs::span("tournament");
        mshc_portfolio::run_tournament(&spec)?
    };
    let (board, timing) = aggregate(&run);
    if p.flag("report") {
        // The full report opens with the same header line; don't print
        // the one-line summary twice.
        write!(out, "{}", render_report(&board, &timing))?;
    } else {
        writeln!(
            out,
            "tournament: {} suite | {} races x {} algorithms = {} cells ({} failed) | \
             portfolio {} | {} iterations per run",
            board.suite,
            board.races,
            spec.algorithms.len(),
            board.cells,
            board.failures,
            if board.portfolio { "on" } else { "off" },
            board.iterations
        )?;
    }
    match board.standings.first() {
        Some(top) => writeln!(
            out,
            "winner: {} ({} wins, {:.0}% win rate, mean rank {:.2})",
            top.algorithm,
            top.wins,
            100.0 * top.win_rate,
            top.mean_rank
        )?,
        None => writeln!(out, "no standings (empty spec?)")?,
    }
    if let Some(path) = p.get("out") {
        let json = serde_json::to_string(&board).map_err(|e| e.to_string())?;
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "leaderboard written to {path} ({} cells)", board.cells)?;
    }
    if let Some(path) = p.get("csv") {
        cells_csv(&board, &run.timing).write_file(path).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "cells CSV written to {path}")?;
    }
    Ok(())
}

/// Builds one of the five iterative searches (for `run` and `compare`
/// through [`make_scheduler`], and for `replan`), rejecting the
/// one-shots with an explanation.
fn make_steppable(p: &Parsed, name: &str) -> Result<Box<dyn SteppableSearch>, String> {
    let seed: u64 = p.get_parse("seed", 2001)?;
    Ok(match name {
        "se" => {
            let mut cfg = SeConfig { seed, ..SeConfig::default() };
            // NaN tells `SePendingBias` to resolve the size-based default.
            cfg.selection_bias = f64::NAN;
            if p.get("bias").is_some() {
                let bias: f64 = p.get_parse("bias", f64::NAN)?;
                if !bias.is_finite() {
                    return Err("--bias: must be finite (omit the flag for the default set by \
                         the task count)"
                        .to_string());
                }
                cfg.selection_bias = bias;
            }
            if p.get("y").is_some() {
                let y: usize = p.get_parse("y", 0)?;
                if y == 0 {
                    return Err("--y: must be at least 1 (omit the flag to allow every machine)"
                        .to_string());
                }
                cfg.y_limit = Some(y);
            }
            Box::new(SePendingBias::new(cfg))
        }
        "ga" => Box::new(GaScheduler::new(GaConfig { seed, ..GaConfig::default() })),
        "random" => Box::new(RandomSearch::new(seed)),
        "sa" => Box::new(SimulatedAnnealing::new(seed)),
        "tabu" => Box::new(TabuSearch::new(seed)),
        "heft" | "heft-ins" | "cpop" | "met" | "mct" | "olb" | "min-min" | "max-min" => {
            return Err(format!(
                "replan: --algo {name} is a one-shot constructive heuristic; replanning \
                 re-searches the residual problem from a frozen frontier, which needs an \
                 iterative search: se, ga, random, sa, tabu"
            ))
        }
        other => return Err(format!("--algo: unknown algorithm {other:?}")),
    })
}

/// Resolves the disturbance sequence for `replan`: an explicit trace
/// file beats the fault plan's dropouts, which beat seeded generation
/// from the event flags. The event flags are errors next to either of
/// the first two.
fn disturbances(
    p: &Parsed,
    faults: Option<&FaultPlan>,
    baseline_makespan: f64,
    machines: u32,
) -> Result<Vec<Disturbance>, String> {
    if let Some(path) = p.get("disturb") {
        reject_beside(p, "--disturb", EVENT_FLAGS, "the file fixes the disturbances")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // Accept either a full trace ({seed, events: [...]}) or a bare
        // event array, told apart by the document's shape so that the
        // error is the one of the form the file has.
        let invalid = |e: serde_json::Error| format!("{path}: invalid disturbance trace: {e}");
        let file: serde::Value = serde_json::from_str(&text).map_err(invalid)?;
        let events = match file.as_seq() {
            Some(_) => Vec::<Disturbance>::deserialize(&file),
            None => DisturbanceTrace::deserialize(&file).map(|t| t.events),
        };
        return events.map_err(|e| invalid(e.into()));
    }
    if let Some(plan) = faults.filter(|plan| !plan.dropouts.is_empty()) {
        reject_beside(p, "--faults", EVENT_FLAGS, "the plan's dropouts fix the disturbances")?;
        return Ok(plan.dropouts.clone());
    }
    let events: usize = p.get_parse("events", 3usize)?;
    if events == 0 {
        return Err("--events: must be at least 1 (a replan run without disturbances is just \
                    `mshc run`)"
            .to_string());
    }
    let seed: u64 = p.get_parse("disturb-seed", 2001u64)?;
    let spec = if p.flag("dropout") {
        DisturbanceTraceSpec::dropout(events, baseline_makespan, machines)
    } else {
        DisturbanceTraceSpec::balanced(events, baseline_makespan, machines)
    };
    Ok(DisturbanceTrace::generate(&spec, seed).events)
}

fn cmd_replan(p: &Parsed, faults: Option<&FaultPlan>, out: &mut dyn Write) -> Result<(), Error> {
    let algo = p.get("algo").unwrap_or("se").to_string();
    let inst = load_instance(p)?;
    let budget = budget(p)?;
    let mut search = make_steppable(p, &algo)?;
    let baseline = {
        let _span = mshc_obs::span("replan-baseline");
        search.run(&inst, &budget, None)
    };
    let events = disturbances(p, faults, baseline.makespan, inst.machine_count() as u32)?;
    let mut replanner = Replanner::new(&inst, baseline.solution);
    writeln!(
        out,
        "{algo}: baseline makespan {:.2} | {} disturbances",
        baseline.makespan,
        events.len()
    )?;
    for d in &events {
        let record = {
            let _span = mshc_obs::span("replan-event");
            replanner.apply(d, search.as_mut(), &budget).map_err(|e| format!("replan: {e}"))?
        };
        let target = match d.kind {
            mshc_schedule::DisturbanceKind::TaskInflation => "all tasks".to_string(),
            _ => format!("m{}", d.machine),
        };
        writeln!(
            out,
            "  {} at t={:.2} ({}): {} committed, {} residual on {} machines -> makespan {:.2}              ({})",
            record.kind,
            record.time,
            target,
            record.committed,
            record.residual,
            record.survivors,
            record.makespan,
            record.termination
        )?;
    }
    let report = replanner.report();
    writeln!(
        out,
        "final: makespan {:.2} ({:+.2} vs baseline) | {} replans | {} evaluations",
        report.final_makespan,
        report.final_makespan - report.baseline_makespan,
        report.replans,
        report.evaluations
    )?;
    if p.flag("report") {
        if let (Some(lb), Some(gap)) = (report.lower_bound, report.gap) {
            writeln!(out, "certificate: residual lower bound {lb:.2} | gap {gap:.4}x")?;
        }
    }
    if let Some(path) = p.get("out") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "replan report written to {path} ({} records)", report.records.len())?;
    }
    Ok(())
}

fn cmd_info(p: &Parsed, out: &mut dyn Write) -> Result<(), Error> {
    // No scheduler runs here: only generation would read --seed.
    if p.flag("instance") {
        reject_beside(p, "--instance", &["seed"], "the file fixes the workload")?;
    }
    let inst = load_instance(p)?;
    let m = InstanceMetrics::compute(&inst);
    writeln!(out, "tasks:         {}", m.tasks)?;
    writeln!(out, "machines:      {}", m.machines)?;
    writeln!(out, "data items:    {}", m.data_items)?;
    writeln!(out, "connectivity:  {:.3} (data items per task)", m.connectivity)?;
    writeln!(out, "heterogeneity: {:.3} (mean per-task CV of E)", m.heterogeneity)?;
    writeln!(out, "ccr:           {:.3}", m.ccr)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// Runs a command line with its output discarded, its error as the
    /// message `main` prints.
    fn dispatch(argv: &[String]) -> Result<(), String> {
        super::dispatch(argv, &mut io::sink()).map_err(|e| e.to_string())
    }

    /// Arming a fault plan is process-global: the tests that arm one
    /// hold this lock, so none sees another's plan armed.
    fn arming() -> MutexGuard<'static, ()> {
        static ARMING: Mutex<()> = Mutex::new(());
        ARMING.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One machine failure, as a disturbance-trace or fault-plan event.
    const DROPOUT: &str =
        "{\"kind\": \"MachineFailure\", \"time\": 10.0, \"machine\": 1, \"factor\": 1.0}";

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&argv(&["bogus"])).is_err());
        assert!(dispatch(&argv(&[])).is_err());
    }

    #[test]
    fn run_requires_algo() {
        let e = dispatch(&argv(&["run"])).unwrap_err();
        assert!(e.contains("--algo"));
    }

    #[test]
    fn run_heft_on_generated_workload() {
        dispatch(&argv(&["run", "--algo", "heft", "--tasks", "20", "--machines", "4"])).unwrap();
    }

    #[test]
    fn run_se_small_budget() {
        dispatch(&argv(&[
            "run",
            "--algo",
            "se",
            "--tasks",
            "12",
            "--machines",
            "3",
            "--iters",
            "5",
            "--gantt",
        ]))
        .unwrap();
    }

    #[test]
    fn generate_and_run_roundtrip() {
        let dir = std::env::temp_dir().join("mshc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("wl.json");
        let file_s = file.to_str().unwrap();
        dispatch(&argv(&[
            "generate",
            "--tasks",
            "15",
            "--machines",
            "3",
            "--seed",
            "4",
            "--out",
            file_s,
        ]))
        .unwrap();
        dispatch(&argv(&["info", "--instance", file_s])).unwrap();
        dispatch(&argv(&["run", "--algo", "min-min", "--instance", file_s])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Instance files load through the validating constructors, so an
    /// edited file that breaks them is an input error (exit 2), not a
    /// run.
    #[test]
    fn invalid_instance_files_are_errors() {
        let dir = std::env::temp_dir().join("mshc_cli_invalid_instance");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let generated = path("wl.json");
        dispatch(&argv(&["generate", "--tasks", "4", "--machines", "2", "--out", &generated]))
            .unwrap();
        let json = std::fs::read_to_string(&generated).unwrap();
        let inst: HcInstance = serde_json::from_str(&json).unwrap();
        let exec = inst.system().exec_matrix();
        let exec_json = serde_json::to_string(exec).unwrap();
        let negated =
            mshc_platform::Matrix::from_fn(exec.rows(), exec.cols(), |r, c| -exec.get(r, c));
        let edits = [
            ("negated.json", serde_json::to_string(&negated).unwrap(), "must be > 0"),
            ("narrowed.json", exec_json.replace("\"cols\":4", "\"cols\":3"), "data holds 8"),
        ];
        for (name, edited, why) in edits {
            std::fs::write(path(name), json.replace(&exec_json, &edited)).unwrap();
            for algo in ["se", "heft"] {
                let e = super::dispatch(
                    &argv(&["run", "--algo", algo, "--instance", &path(name)]),
                    &mut io::sink(),
                )
                .unwrap_err();
                assert!(matches!(e, Error::Command(_)), "{name}, {algo}: {e}");
                assert!(
                    e.to_string().contains("invalid instance") && e.to_string().contains(why),
                    "{e}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The field `name` of a map value, for hand-editing a file.
    fn field_mut<'v>(v: &'v mut serde::Value, name: &str) -> &'v mut serde::Value {
        let serde::Value::Map(fields) = v else { panic!("{name}: not a map") };
        &mut fields.iter_mut().find(|(k, _)| k == name).expect("field present").1
    }

    /// Element `i` of the list `v`, for hand-editing a file.
    fn item_mut(v: &mut serde::Value, i: usize) -> &mut serde::Value {
        let serde::Value::Seq(items) = v else { panic!("not a list") };
        &mut items[i]
    }

    /// Hand-edited graphs (offsets that disagree with the edges, a
    /// cycle, an out-of-range endpoint) are input errors, and every file
    /// `generate` writes loads.
    #[test]
    fn invalid_graph_files_are_errors() {
        let dir = std::env::temp_dir().join("mshc_cli_invalid_graph");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        for (tasks, connectivity) in [("1", "low"), ("4", "high"), ("30", "low"), ("100", "high")] {
            let out = path("generated.json");
            let args = ["generate", "--tasks", tasks, "--connectivity", connectivity];
            dispatch(&argv(&[&args[..], &["--machines", "3", "--out", &out]].concat())).unwrap();
            let json = std::fs::read_to_string(&out).unwrap();
            let inst: HcInstance = serde_json::from_str(&json).unwrap();
            assert_eq!(inst.task_count().to_string(), tasks);
        }
        // Four tasks, three edges.
        let generated = path("wl.json");
        let args = ["generate", "--tasks", "4", "--machines", "2", "--seed", "3"];
        dispatch(&argv(&[&args[..], &["--out", &generated]].concat())).unwrap();
        let file: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&generated).unwrap()).unwrap();
        let edit = |change: &dyn Fn(&mut serde::Value)| {
            let mut file = file.clone();
            change(field_mut(&mut file, "graph"));
            serde_json::to_string(&file).unwrap()
        };
        let edits = [
            (
                "offsets.json",
                edit(&|g| {
                    let serde::Value::Seq(offsets) = field_mut(g, "pred_offsets") else {
                        panic!("pred_offsets: not a list")
                    };
                    offsets.reverse();
                }),
                "pred_offsets disagrees with the edges",
            ),
            (
                // Edge 1 becomes edge 0 reversed.
                "cycle.json",
                edit(&|g| {
                    let first = item_mut(field_mut(g, "edges"), 0).clone();
                    let second = item_mut(field_mut(g, "edges"), 1);
                    *field_mut(second, "src") = first.get_field("dst").unwrap().clone();
                    *field_mut(second, "dst") = first.get_field("src").unwrap().clone();
                }),
                "directed cycle",
            ),
            (
                "range.json",
                edit(&|g| {
                    *field_mut(item_mut(field_mut(g, "edges"), 0), "dst") = serde::Value::U64(7)
                }),
                "edges[0]: task index 7 out of range",
            ),
        ];
        for (name, edited, why) in edits {
            std::fs::write(path(name), edited).unwrap();
            for algo in ["se", "heft"] {
                let e = super::dispatch(
                    &argv(&["run", "--algo", algo, "--instance", &path(name)]),
                    &mut io::sink(),
                )
                .unwrap_err();
                assert!(matches!(e, Error::Command(_)), "{name}, {algo}: {e}");
                assert!(e.to_string().contains("invalid instance: graph: "), "{e}");
                assert!(e.to_string().contains(why), "{name}: {e}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Standard output whose reader has gone: every write fails with a
    /// broken pipe.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    /// A closed stdout ends only the report: each command still writes
    /// every file it was asked for, and reports the broken pipe.
    #[test]
    fn a_closed_stdout_still_writes_every_requested_file() {
        let dir = std::env::temp_dir().join("mshc_cli_closed_stdout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let read = |name: &str| std::fs::read_to_string(path(name)).unwrap();
        let closed = |args: &[&str]| match super::dispatch(&argv(args), &mut ClosedPipe) {
            Err(Error::Output(e)) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe, "{args:?}"),
            other => panic!("{args:?}: {other:?}"),
        };
        let small = ["--tasks", "12", "--machines", "3", "--iters", "5"];
        let (board, csv) = (path("lb.json"), path("lb.csv"));
        let metrics = path("metrics.json");
        closed(
            &[
                &["tournament", "--suite", "tiny", "--seeds", "1", "--iters", "5"][..],
                &["--out", &board, "--csv", &csv, "--metrics", &metrics],
            ]
            .concat(),
        );
        let board: mshc_portfolio::Leaderboard = serde_json::from_str(&read("lb.json")).unwrap();
        let rows = read("lb.csv").lines().count();
        assert_eq!(rows, board.cells + 1, "a header and one row per cell");
        mshc_obs::Snapshot::from_json(&read("metrics.json")).unwrap();

        let trace = path("trace.csv");
        closed(&[&["run", "--algo", "se", "--trace", &trace][..], &small].concat());
        let trace = read("trace.csv");
        assert!(trace.starts_with("iteration,elapsed_s,evaluations,current,best\n"), "{trace}");
        assert_eq!(trace.lines().count(), 6, "a header, then one row per iteration");

        let replan = path("replan.json");
        closed(&[&["replan", "--events", "1", "--out", &replan][..], &small].concat());
        let report = mshc_schedule::ReplanReport::from_json(&read("replan.json")).unwrap();
        assert_eq!(report.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_workload_classes_error() {
        let e = dispatch(&argv(&["info", "--connectivity", "extreme"])).unwrap_err();
        assert!(e.contains("connectivity"));
        let e = dispatch(&argv(&["info", "--heterogeneity", "none"])).unwrap_err();
        assert!(e.contains("heterogeneity"));
    }

    #[test]
    fn unknown_algo_errors() {
        let e = dispatch(&argv(&["run", "--algo", "quantum"])).unwrap_err();
        assert!(e.contains("quantum"));
    }

    #[test]
    fn objective_flag_parses_and_runs() {
        dispatch(&argv(&[
            "run",
            "--algo",
            "sa",
            "--tasks",
            "12",
            "--machines",
            "3",
            "--iters",
            "40",
            "--objective",
            "total-flowtime",
            "--report",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "run",
            "--algo",
            "se",
            "--tasks",
            "10",
            "--machines",
            "3",
            "--iters",
            "5",
            "--objective",
            "weighted:1,0.5,0.5",
        ]))
        .unwrap();
        let e = dispatch(&argv(&["run", "--algo", "se", "--objective", "fastest"])).unwrap_err();
        assert!(e.contains("objective"));
    }

    #[test]
    fn budget_parser_applies_flags() {
        let p = parse(&argv(&["--iters", "7"]));
        let b = budget(&p).unwrap();
        assert_eq!(b.max_iterations, Some(7));
        assert!(b.validate().is_ok());
        // No limits given: the loud default keeps the budget bounded.
        let b = budget(&parse(&argv(&[]))).unwrap();
        assert_eq!(b.max_iterations, Some(200));
        // The escape hatch.
        assert!(b.early_stop, "early stop on by default");
        let b = budget(&parse(&argv(&["--iters", "7", "--no-early-stop"]))).unwrap();
        assert!(!b.early_stop);
    }

    #[test]
    fn zero_iterations_are_rejected_not_replaced() {
        // `--iters 0` would leave the budget unbounded; it is an error
        // naming the flag, never a silent switch to the 200-iteration
        // default.
        let e = budget(&parse(&argv(&["--iters", "0"]))).unwrap_err();
        assert!(e.contains("--iters") && e.contains("at least 1"), "{e}");
        for cmd in [&["run", "--algo", "se"][..], &["compare"], &["replan", "--algo", "sa"]] {
            let args = [cmd, &["--tasks", "8", "--machines", "2", "--iters", "0"]].concat();
            let e = dispatch(&argv(&args)).unwrap_err();
            assert!(e.contains("--iters") && e.contains("at least 1"), "{args:?}: {e}");
        }
    }

    #[test]
    fn meaningless_se_flags_are_rejected_not_replaced() {
        // `--y 0` used to mean "every machine" and a non-finite `--bias`
        // the size-based default (NaN) or an SE that selects nothing
        // (inf): each is an error naming the flag.
        let base = ["run", "--algo", "se", "--tasks", "30", "--machines", "6", "--iters", "20"];
        let cases = [
            ("--y", "0", "at least 1"),
            ("--bias", "nan", "finite"),
            ("--bias", "inf", "finite"),
            ("--bias", "-inf", "finite"),
        ];
        for (flag, value, want) in cases {
            for cmd in [&base[..], &["replan", "--algo", "se", "--tasks", "12", "--iters", "5"]] {
                let args = [cmd, &[flag, value]].concat();
                let e = dispatch(&argv(&args)).unwrap_err();
                assert!(e.contains(flag) && e.contains(want), "{args:?}: {e}");
            }
        }
        assert!(USAGE.contains("--y Y (at least 1)") && USAGE.contains("--bias B (finite)"));
    }

    /// Every command rejects an option it does not read, naming the
    /// option and the command, before doing any work.
    #[test]
    fn unread_flags_are_errors_not_silently_ignored() {
        let err = |args: &[&str]| dispatch(&argv(args)).unwrap_err();
        // A misspelled budget flag no longer falls back to the default.
        let e = err(&["run", "--algo", "se", "--tasks", "10", "--machines", "2", "--itres", "5"]);
        assert!(e.contains("run") && e.contains("--itres"), "{e}");
        // `tournament` races every algorithm of the spec; it has no --algo.
        let e =
            err(&["tournament", "--suite", "tiny", "--seeds", "1", "--iters", "5", "--algo", "se"]);
        assert!(e.contains("tournament") && e.contains("--algo"), "{e}");
        // The retired cost knobs.
        for knob in ["--no-prune", "--ga-full-eval", "--checkpoint-stride"] {
            for cmd in ["run", "compare", "tournament", "replan"] {
                let e = err(&[cmd, "--iters", "2", knob]);
                assert!(e.contains(knob), "{cmd} {knob}: {e}");
            }
        }
        // Global options a tournament cannot honour; a spec file sets a
        // per-cell deadline_evals.
        for (flag, value) in [("--wall", "1"), ("--deadline-evals", "10"), ("--deadline-ms", "50")]
        {
            let e = err(&["tournament", "--suite", "tiny", "--seeds", "1", flag, value]);
            assert!(e.contains("tournament") && e.contains(flag), "{flag}: {e}");
        }
        // Commands without a scheduler or a budget.
        let e = err(&["info", "--tasks", "5", "--algo", "heft"]);
        assert!(e.contains("info") && e.contains("--algo"), "{e}");
        let e = err(&["generate", "--tasks", "5", "--iters", "3"]);
        assert!(e.contains("generate") && e.contains("--iters"), "{e}");
        let e = err(&["compare", "--tasks", "5", "--report"]);
        assert!(e.contains("compare") && e.contains("--report"), "{e}");
        // Options dispatch reads are accepted everywhere.
        dispatch(&argv(&["info", "--tasks", "5", "--machines", "2", "--threads", "1"])).unwrap();
        // A file fixes what the generation options would build, so they
        // go unread next to it; --seed still seeds the schedulers.
        let dir = std::env::temp_dir().join("mshc_cli_unread_flags");
        std::fs::create_dir_all(&dir).unwrap();
        let (inst, trace) = (dir.join("wl.json"), dir.join("trace.json"));
        let (inst, trace) = (inst.to_str().unwrap(), trace.to_str().unwrap());
        dispatch(&argv(&["generate", "--tasks", "12", "--machines", "3", "--out", inst])).unwrap();
        for cmd in [&["run", "--algo", "heft"][..], &["compare", "--iters", "2"], &["info"]] {
            for (flag, value) in [("--tasks", "100"), ("--ccr", "2"), ("--connectivity", "high")] {
                let args = [cmd, &["--instance", inst, flag, value]].concat();
                let e = err(&args);
                assert!(e.contains("--instance") && e.contains(flag), "{args:?}: {e}");
            }
        }
        let e = err(&["info", "--instance", inst, "--seed", "3"]);
        assert!(e.contains("--instance") && e.contains("--seed"), "{e}");
        dispatch(&argv(&[
            "run",
            "--algo",
            "sa",
            "--instance",
            inst,
            "--iters",
            "5",
            "--seed",
            "3",
        ]))
        .unwrap();
        std::fs::write(trace, format!("[{DROPOUT}]")).unwrap();
        let replan =
            ["replan", "--algo", "sa", "--instance", inst, "--iters", "5", "--disturb", trace];
        for extra in [&["--events", "2"][..], &["--disturb-seed", "4"], &["--dropout"]] {
            let args = [&replan[..], extra].concat();
            let e = err(&args);
            assert!(e.contains("--disturb") && e.contains(extra[0]), "{args:?}: {e}");
        }
        dispatch(&argv(&replan)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        for knob in ["--no-prune", "--ga-full-eval", "--checkpoint-stride"] {
            assert!(!USAGE.contains(knob), "{knob}");
        }
    }

    #[test]
    fn no_early_stop_flag_runs_everywhere() {
        dispatch(&argv(&[
            "run",
            "--algo",
            "se",
            "--tasks",
            "12",
            "--machines",
            "3",
            "--iters",
            "10",
            "--no-early-stop",
            "--report",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "tournament",
            "--suite",
            "tiny",
            "--algos",
            "sa,mct",
            "--seeds",
            "1",
            "--iters",
            "4",
            "--no-early-stop",
        ]))
        .unwrap();
        assert!(USAGE.contains("--no-early-stop"));
    }

    #[test]
    fn threads_flag_installs_a_scoped_pool_without_leaking() {
        // --threads applies via a scoped install on the resident pool:
        // the run succeeds and the caller's effective size is untouched
        // afterwards (the old build_global route leaked process-wide).
        let before = rayon::current_num_threads();
        dispatch(&argv(&[
            "run",
            "--algo",
            "heft",
            "--tasks",
            "10",
            "--machines",
            "3",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(rayon::current_num_threads(), before, "--threads must not leak");
        let e = dispatch(&argv(&["info", "--threads", "abc"])).unwrap_err();
        assert!(e.contains("--threads"));
        // 0 is rejected loudly, not treated as "unset".
        let e = dispatch(&argv(&["info", "--threads", "0"])).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        // Precedence and the install semantics are documented.
        assert!(USAGE.contains("RAYON_NUM_THREADS"));
    }

    #[test]
    fn tournament_tiny_suite_smoke_writes_deterministic_leaderboard() {
        let dir = std::env::temp_dir().join("mshc_cli_tournament");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("lb.json");
        let csv = dir.join("cells.csv");
        let args = [
            "tournament",
            "--suite",
            "tiny",
            "--algos",
            "se,sa,heft,min-min",
            "--seeds",
            "2",
            "--iters",
            "8",
            "--report",
            "--out",
            out.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ];
        dispatch(&argv(&args)).unwrap();
        let first = std::fs::read_to_string(&out).unwrap();
        assert!(first.contains("\"standings\""));
        assert!(first.contains("\"evaluations\""));
        let table = std::fs::read_to_string(&csv).unwrap();
        assert!(table.starts_with("algorithm,scenario,seed,objective"));
        // 2 scenarios x 2 seeds x 4 algorithms = 16 cells.
        assert_eq!(table.lines().count(), 1 + 16);
        // Re-running produces a byte-identical artifact.
        dispatch(&argv(&args)).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_flag_writes_a_parsable_snapshot() {
        // Structural assertions only: the registry is process-global
        // and other tests' dispatches may reset it concurrently, so
        // exact counter values belong to the (single-process) CI gate.
        let dir = std::env::temp_dir().join("mshc_cli_metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        dispatch(&argv(&[
            "run",
            "--algo",
            "sa",
            "--tasks",
            "12",
            "--machines",
            "3",
            "--iters",
            "10",
            "--metrics",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let snap = mshc_obs::Snapshot::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(snap.schema_version, mshc_obs::SCHEMA_VERSION);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(USAGE.contains("--metrics"));
    }

    #[test]
    fn obs_events_flag_writes_json_lines() {
        let dir = std::env::temp_dir().join("mshc_cli_obs_events");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        dispatch(&argv(&[
            "run",
            "--algo",
            "heft",
            "--tasks",
            "12",
            "--machines",
            "3",
            "--obs-events",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "the run span must emit at least one event");
        for line in text.lines() {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            assert!(v.get_field("event").is_some(), "{line}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(USAGE.contains("--obs-events"));
    }

    #[test]
    fn tournament_portfolio_mode_runs() {
        dispatch(&argv(&[
            "tournament",
            "--suite",
            "tiny",
            "--algos",
            "sa,tabu,heft",
            "--seeds",
            "1",
            "--iters",
            "10",
            "--portfolio",
            "--rounds",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn tournament_flag_errors() {
        let e = dispatch(&argv(&["tournament", "--suite", "galactic"])).unwrap_err();
        assert!(e.contains("unknown suite"));
        let e = dispatch(&argv(&["tournament", "--algos", "se,quantum"])).unwrap_err();
        assert!(e.contains("quantum"));
        let e =
            dispatch(&argv(&["tournament", "--spec", "x.json", "--suite", "tiny"])).unwrap_err();
        assert!(e.contains("mutually exclusive"));
        // Every axis flag is rejected alongside --spec, not silently
        // ignored in favor of the file.
        let e = dispatch(&argv(&["tournament", "--spec", "x.json", "--iters", "500"])).unwrap_err();
        assert!(e.contains("--iters") && e.contains("mutually exclusive"), "{e}");
        let e = dispatch(&argv(&["tournament", "--spec", "x.json", "--algos", "se"])).unwrap_err();
        assert!(e.contains("--algos"), "{e}");
        let e =
            dispatch(&argv(&["tournament", "--suite", "tiny", "--objective", "weighted:1,nan,2"]))
                .unwrap_err();
        assert!(e.contains("finite"), "{e}");
    }

    #[test]
    fn tournament_csv_handles_weighted_objective_labels() {
        // Regression: the weighted spelling carries commas; the CSV
        // writer rejects raw commas, so the label must be sanitized.
        let dir = std::env::temp_dir().join("mshc_cli_tournament_weighted");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("cells.csv");
        dispatch(&argv(&[
            "tournament",
            "--suite",
            "tiny",
            "--algos",
            "mct,olb",
            "--seeds",
            "1",
            "--iters",
            "2",
            "--objective",
            "weighted:1,0.5,0.5",
            "--csv",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        assert!(text.contains("weighted:1;0.5;0.5"), "sanitized label present:\n{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tournament_spec_file_roundtrip() {
        use mshc_workloads::tiny_suite;
        let dir = std::env::temp_dir().join("mshc_cli_tournament_spec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        let spec = TournamentSpec {
            algorithms: vec!["mct".into(), "olb".into()],
            seeds: vec![4],
            iterations: 3,
            ..TournamentSpec::new("custom", tiny_suite())
        };
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        dispatch(&argv(&["tournament", "--spec", path.to_str().unwrap(), "--report"])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degenerate_workload_flags_are_errors_not_panics() {
        // Each would trip an assertion in the workload generator; every
        // subcommand that generates an instance must name the flag.
        for (cmd, extra) in [
            ("run", &["--algo", "heft"][..]),
            ("generate", &[]),
            ("compare", &["--iters", "1"]),
            ("info", &[]),
        ] {
            for (flag, value, want) in [
                ("--tasks", "0", "--tasks: must be at least 1"),
                ("--machines", "0", "--machines: must be at least 1"),
                ("--ccr", "-0.5", "--ccr: must be finite and at least 0"),
                ("--ccr", "NaN", "--ccr: must be finite and at least 0"),
                ("--ccr", "inf", "--ccr: must be finite and at least 0"),
                ("--ccr", "1e308", "--ccr: 1e308 overflows the largest transfer time"),
            ] {
                let mut args = vec![cmd, flag, value];
                args.extend(extra);
                let e = dispatch(&argv(&args)).unwrap_err();
                assert!(e.contains(want), "{cmd} {flag} {value}: {e}");
            }
        }
    }

    #[test]
    fn degenerate_spec_scenarios_are_errors_not_panics() {
        // Each scenario would panic in its generator in every cell; the
        // spec is rejected up front, naming the scenario's field.
        use mshc_workloads::{Connectivity, DagShape, Heterogeneity, Scenario};
        let dir = std::env::temp_dir().join("mshc_cli_degenerate_spec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        let lay = Scenario::layered(12, 3, Connectivity::Medium, Heterogeneity::Medium, 0.5);
        let kernel = |shape, a, b| Scenario::kernel(shape, a, b, 3, Heterogeneity::High, 1.0);
        for (bad, want) in [
            (Scenario { shape_a: 0, ..lay }, "scenarios[1].tasks: must be at least 1"),
            (Scenario { machines: 0, ..lay }, "scenarios[1].machines: must be at least 1"),
            (Scenario { ccr: -1.0, ..lay }, "scenarios[1].ccr: must be finite and at least 0"),
            (kernel(DagShape::ForkJoin, 0, 2), "scenarios[1].shape_a: a fork-join needs"),
            (kernel(DagShape::Gaussian, 1, 0), "scenarios[1].shape_a: Gaussian elimination"),
            (kernel(DagShape::Fft, 0, 0), "scenarios[1].shape_a: an FFT needs"),
            (Scenario { ccr: 1e308, ..lay }, "scenarios[1].ccr: 1e308 overflows"),
        ] {
            let spec = TournamentSpec {
                seeds: vec![4],
                iterations: 3,
                ..TournamentSpec::new("custom", vec![lay, bad])
            };
            std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
            let e = dispatch(&argv(&["tournament", "--spec", path.to_str().unwrap()])).unwrap_err();
            assert!(e.contains(want), "{}: {e}", bad.tag());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deadline_flags_parse_and_stop_runs() {
        // The deterministic deadline reaches the budget and the run
        // reports the deadline termination.
        let p = parse(&argv(&["--iters", "500", "--deadline-evals", "9"]));
        let b = budget(&p).unwrap();
        assert_eq!((b.max_iterations, b.max_evaluations, b.deadline), (Some(500), Some(9), true));
        assert!(b.validate().is_ok());
        let p = parse(&argv(&["--iters", "5", "--deadline-ms", "250"]));
        let b = budget(&p).unwrap();
        assert_eq!((b.max_wall, b.deadline), (Some(Duration::from_millis(250)), true));
        // Both deadline flags set both deadline limits.
        let b = budget(&parse(&argv(&["--deadline-evals", "9", "--deadline-ms", "250"]))).unwrap();
        assert_eq!((b.max_evaluations, b.max_wall), (Some(9), Some(Duration::from_millis(250))));
        // A run has one wall limit: --wall next to a deadline flag would
        // be reported as a deadline, so the pair is an error.
        for (flag, value) in [("--deadline-evals", "50"), ("--deadline-ms", "250")] {
            let args = ["run", "--algo", "sa", "--tasks", "8", "--wall", "1", flag, value];
            let e = dispatch(&argv(&args)).unwrap_err();
            assert!(e.contains("--wall") && e.contains(flag) && e.contains("exclusive"), "{e}");
        }
        // A deadline alone bounds the budget: no loud --iters default.
        let b = budget(&parse(&argv(&["--deadline-evals", "50"]))).unwrap();
        assert_eq!(b.max_iterations, None);
        assert!(b.validate().is_ok());
        // Rejections explain themselves.
        let e = dispatch(&argv(&["run", "--algo", "se", "--deadline-evals", "0"])).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        let e = dispatch(&argv(&["run", "--algo", "se", "--deadline-ms", "NaN"])).unwrap_err();
        assert!(e.contains("positive and finite"), "{e}");
        let e = dispatch(&argv(&["run", "--algo", "se", "--deadline-ms", "-3"])).unwrap_err();
        assert!(e.contains("positive and finite"), "{e}");
        let e = dispatch(&argv(&["run", "--algo", "se", "--deadline-ms", "abc"])).unwrap_err();
        assert!(e.contains("not a number"), "{e}");
        let e = dispatch(&argv(&["run", "--algo", "se", "--deadline-ms", "1e30"])).unwrap_err();
        assert!(e.contains("--deadline-ms") && e.contains("too long"), "{e}");
        // End to end: a tight deterministic deadline still yields a
        // schedule.
        dispatch(&argv(&[
            "run",
            "--algo",
            "sa",
            "--tasks",
            "12",
            "--machines",
            "3",
            "--iters",
            "500",
            "--deadline-evals",
            "20",
        ]))
        .unwrap();
        assert!(USAGE.contains("--deadline-evals"));
        assert!(USAGE.contains("--deadline-ms"));
    }

    /// `--wall` values that are not a positive, finite, representable
    /// number of seconds are named errors (exit 2), never a panic or a
    /// silently ignored limit.
    #[test]
    fn out_of_range_wall_values_are_errors_not_panics() {
        for bad in ["inf", "1e30", "nan", "-1", "0"] {
            let e = dispatch(&argv(&[
                "run",
                "--algo",
                "se",
                "--tasks",
                "10",
                "--machines",
                "2",
                "--wall",
                bad,
            ]))
            .unwrap_err();
            assert!(e.contains("--wall") && e.contains("positive, finite"), "{bad}: {e}");
        }
        let e = dispatch(&argv(&["run", "--algo", "se", "--wall", "abc"])).unwrap_err();
        assert!(e.contains("--wall"), "{e}");
        let b = budget(&parse(&argv(&["--wall", "2.5"]))).unwrap();
        assert_eq!(b.max_wall, Some(Duration::from_millis(2500)));
    }

    #[test]
    fn faults_flag_arms_and_disarms_a_plan() {
        let _arming = arming();
        let dir = std::env::temp_dir().join("mshc_cli_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.json");
        // No injections that can fire in this run — the flag must
        // round-trip the plan and leave the process disarmed after.
        std::fs::write(&plan, "{\"seed\": 1}").unwrap();
        dispatch(&argv(&[
            "run",
            "--algo",
            "heft",
            "--tasks",
            "10",
            "--machines",
            "3",
            "--faults",
            plan.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(!mshc_schedule::faults::armed(), "--faults must disarm on exit");
        // A plan's dropouts fix replan's disturbances, so the event
        // options are errors next to them.
        std::fs::write(&plan, format!("{{\"dropouts\": [{DROPOUT}]}}")).unwrap();
        let replan = ["replan", "--algo", "sa", "--tasks", "12", "--machines", "3", "--iters", "5"];
        let replan = [&replan[..], &["--faults", plan.to_str().unwrap()]].concat();
        for extra in [&["--events", "2"][..], &["--disturb-seed", "4"], &["--dropout"]] {
            let args = [&replan[..], extra].concat();
            let e = dispatch(&argv(&args)).unwrap_err();
            assert!(e.contains("--faults") && e.contains(extra[0]), "{args:?}: {e}");
        }
        dispatch(&argv(&replan)).unwrap();
        assert!(!mshc_schedule::faults::armed(), "--faults must disarm on exit");
        // Unreadable and malformed plans explain themselves.
        let e = dispatch(&argv(&["run", "--algo", "heft", "--faults", "nope.json"])).unwrap_err();
        assert!(e.contains("--faults"), "{e}");
        std::fs::write(&plan, "not json").unwrap();
        let e = dispatch(&argv(&["run", "--algo", "heft", "--faults", plan.to_str().unwrap()]))
            .unwrap_err();
        assert!(e.contains("invalid fault plan"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(USAGE.contains("--faults"));
    }

    #[test]
    fn cell_faults_must_name_a_tournament_cell() {
        let _arming = arming();
        let dir = std::env::temp_dir().join("mshc_cli_cell_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.json");
        let plan_arg = plan.to_str().unwrap();
        let write_plan = |algorithm: &str, scenario: &str, seed: u64| {
            let fault = format!(
                "{{\"algorithm\": \"{algorithm}\", \"scenario\": \"{scenario}\", \"seed\": {seed}}}"
            );
            std::fs::write(&plan, format!("{{\"cell_panics\": [{fault}]}}")).unwrap();
        };
        let seed = replicate_seeds(2001, 1)[0];
        let tag = named_suite("tiny").unwrap()[0].tag();
        let tournament = [
            "tournament",
            "--suite",
            "tiny",
            "--seeds",
            "1",
            "--iters",
            "5",
            "--algos",
            "heft,mct",
        ];
        let tournament = [&tournament[..], &["--faults", plan_arg]].concat();
        // A fault on no cell of the tournament could never fire: each
        // coordinate that misses is an error naming the entry.
        for (algorithm, scenario, seed) in
            [("se", tag.as_str(), seed), ("heft", "nope", seed), ("heft", tag.as_str(), seed + 1)]
        {
            write_plan(algorithm, scenario, seed);
            let e = dispatch(&argv(&tournament)).unwrap_err();
            assert!(e.contains("names no cell"), "{e}");
            assert!(e.contains(&format!("scenario {scenario:?}, seed {seed}")), "{e}");
            assert!(!mshc_schedule::faults::armed(), "--faults must disarm on exit");
        }
        // A fault on a real cell fires, and the cell's retry absorbs it.
        write_plan("heft", &tag, seed);
        dispatch(&argv(&tournament)).unwrap();
        // The other commands run no cells, so a plan with cell panics
        // is an error there, whatever it names.
        for command in [
            &["run", "--algo", "se", "--iters", "5"][..],
            &["compare", "--iters", "5"],
            &["replan", "--algo", "sa", "--iters", "5"],
        ] {
            let args =
                [command, &["--tasks", "8", "--machines", "2", "--faults", plan_arg]].concat();
            let e = dispatch(&argv(&args)).unwrap_err();
            assert!(e.contains("runs no cells") && e.contains("\"heft\""), "{args:?}: {e}");
        }
        assert!(!mshc_schedule::faults::armed());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replan_smoke_writes_deterministic_report() {
        let dir = std::env::temp_dir().join("mshc_cli_replan");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("replan.json");
        let args = [
            "replan",
            "--algo",
            "sa",
            "--tasks",
            "14",
            "--machines",
            "4",
            "--iters",
            "30",
            "--events",
            "3",
            "--disturb-seed",
            "5",
            "--out",
            out.to_str().unwrap(),
        ];
        dispatch(&argv(&args)).unwrap();
        let first = std::fs::read_to_string(&out).unwrap();
        let report = mshc_schedule::ReplanReport::from_json(&first).unwrap();
        assert_eq!(report.records.len(), 3);
        assert!(report.final_makespan > 0.0);
        // Re-running reproduces the artifact byte for byte.
        dispatch(&argv(&args)).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replan_rejects_oneshots_and_reads_traces() {
        let e = dispatch(&argv(&["replan", "--algo", "heft", "--tasks", "10", "--machines", "3"]))
            .unwrap_err();
        assert!(e.contains("iterative"), "{e}");
        assert!(!e.contains("  "), "no runs of spaces: {e:?}");
        let e = dispatch(&argv(&[
            "replan",
            "--algo",
            "sa",
            "--tasks",
            "10",
            "--machines",
            "3",
            "--iters",
            "5",
            "--events",
            "0",
        ]))
        .unwrap_err();
        assert!(e.contains("--events"), "{e}");
        assert!(!e.contains("  "), "no runs of spaces: {e:?}");
        // An explicit trace file (bare event array form) drives the run.
        let dir = std::env::temp_dir().join("mshc_cli_replan_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        std::fs::write(
            &trace,
            "[{\"kind\": \"MachineFailure\", \"time\": 10.0, \"machine\": 1, \"factor\": 1.0}]",
        )
        .unwrap();
        dispatch(&argv(&[
            "replan",
            "--algo",
            "random",
            "--tasks",
            "12",
            "--machines",
            "3",
            "--iters",
            "10",
            "--disturb",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&trace, "nonsense").unwrap();
        let e = dispatch(&argv(&[
            "replan",
            "--algo",
            "random",
            "--tasks",
            "12",
            "--machines",
            "3",
            "--iters",
            "10",
            "--disturb",
            trace.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(e.contains("invalid disturbance trace"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(USAGE.contains("replan"));
    }

    #[test]
    fn trace_file_written() {
        let dir = std::env::temp_dir().join("mshc_cli_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.csv");
        dispatch(&argv(&[
            "run",
            "--algo",
            "sa",
            "--tasks",
            "10",
            "--machines",
            "3",
            "--iters",
            "50",
            "--trace",
            file.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(text.starts_with("iteration,elapsed_s,evaluations,current,best\n"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
