//! Expected answers, computed before the timed loop and never by the
//! machine under test: `run`/`hybrid` answers come from the reference
//! tree-walker under the daemon's own configuration, `plan` answers from
//! single-threaded `plan_program`.

use sct_contracts::refutation_error;
use sct_core::json::{parse, Json};
use sct_core::monitor::TableStrategy;
use sct_core::plan::EnforcementPlan;
use sct_interp::{reference, EvalError, MachineConfig, SemanticsMode, Value};
use sct_lang::Program;
use sct_symbolic::{plan_program, PlanConfig};
use std::rc::Rc;

/// Fuel for reference runs of programs that must terminate; running out
/// means the generator produced a diverging `run` source.
const REFERENCE_FUEL: u64 = 500_000_000;

/// What a `run` or `hybrid` response must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The `"ok"` member.
    pub ok: bool,
    /// `"value"` on success.
    pub value: Option<String>,
    /// `"error"` on failure.
    pub error: Option<String>,
    /// `"blame"` on failure (`None` is JSON null).
    pub blame: Option<String>,
    /// `"output"`, absent on a static refutation.
    pub output: Option<String>,
}

fn from_result(r: Result<Value, EvalError>, output: String) -> Expected {
    match r {
        Ok(v) => Expected {
            ok: true,
            value: Some(v.to_write_string()),
            error: None,
            blame: None,
            output: Some(output),
        },
        Err(e) => Expected {
            ok: false,
            value: None,
            blame: blame_of(&e),
            error: Some(e.to_string()),
            output: Some(output),
        },
    }
}

fn blame_of(e: &EvalError) -> Option<String> {
    match e {
        EvalError::Sc(info) => info.blame.as_deref().map(str::to_string),
        _ => None,
    }
}

/// The answer to `{"op":"run"}`: standard semantics on the reference
/// walker.
///
/// # Panics
///
/// When the program does not terminate within [`REFERENCE_FUEL`] steps.
pub fn expected_run(program: &Program) -> Expected {
    let config = MachineConfig {
        fuel: Some(REFERENCE_FUEL),
        ..MachineConfig::standard()
    };
    let mut m = reference::Machine::new(program, config);
    let r = m.run();
    assert!(
        !matches!(r, Err(EvalError::OutOfFuel)),
        "a run source does not terminate"
    );
    from_result(r, m.output)
}

/// The answer to `{"op":"hybrid"}` given the single-threaded plan: the
/// eager refutation report, or the reference walker's monitored run with
/// the plan's fast path (imperative table, default order — the daemon's
/// configuration).
pub fn expected_hybrid(program: &Program, plan: &EnforcementPlan) -> Expected {
    if let Some(err) = refutation_error(plan) {
        return Expected {
            ok: false,
            value: None,
            blame: blame_of(&err),
            error: Some(format!("{err} (statically refuted before running)")),
            output: None,
        };
    }
    let config = MachineConfig {
        mode: SemanticsMode::Monitored,
        plan: Some(Rc::new(plan.clone())),
        ..MachineConfig::monitored(TableStrategy::Imperative)
    };
    let mut m = reference::Machine::new(program, config);
    let r = m.run();
    from_result(r, m.output)
}

/// The single-threaded plan of `program` under the daemon's planner
/// configuration.
pub fn expected_plan(program: &Program) -> EnforcementPlan {
    plan_program(program, &PlanConfig::default())
}

/// A plan as the `sct-plan/1` document with the timing field removed —
/// the form plan answers are compared in.
pub fn plan_doc(plan: &EnforcementPlan) -> Json {
    strip_micros(&parse(&plan.to_json()).expect("plan JSON parses"))
}

fn strip_micros(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "micros")
                .map(|(k, v)| (k.clone(), strip_micros(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_micros).collect()),
        other => other.clone(),
    }
}

fn str_member(resp: &Json, key: &str) -> Option<String> {
    resp.get(key).and_then(Json::as_str).map(str::to_string)
}

/// Checks a `run`/`hybrid` response against its expected answer.
///
/// # Errors
///
/// A one-line description of the first mismatch.
pub fn check_exec(resp: &Json, want: &Expected) -> Result<(), String> {
    let ok = resp.get("ok").and_then(Json::as_bool);
    if ok != Some(want.ok) {
        return Err(format!("ok {ok:?}, want {}", want.ok));
    }
    let got = Expected {
        ok: want.ok,
        value: str_member(resp, "value"),
        error: str_member(resp, "error"),
        blame: str_member(resp, "blame"),
        output: str_member(resp, "output"),
    };
    if got != *want {
        return Err(format!("answer {got:?}, want {want:?}"));
    }
    Ok(())
}

/// Checks a `plan` response's plan document against the expected one.
///
/// # Errors
///
/// A one-line description of the mismatch.
pub fn check_plan(resp: &Json, want: &Json) -> Result<(), String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("plan failed: {:?}", resp.get("error")));
    }
    let Some(got) = resp.get("plan").map(strip_micros) else {
        return Err("response has no plan".to_string());
    };
    if got == *want {
        return Ok(());
    }
    // Name the first differing function rather than printing both plans.
    let functions = |doc: &Json| {
        doc.get("functions")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
    };
    let (g, w) = (
        functions(&got).unwrap_or_default(),
        functions(want).unwrap_or_default(),
    );
    match g.iter().zip(&w).find(|(a, b)| a != b) {
        Some((a, b)) => Err(format!(
            "plan differs from single-thread plan_program: got {a}, want {b}"
        )),
        None => Err(format!(
            "plan differs from single-thread plan_program: {} functions, want {}",
            g.len(),
            w.len()
        )),
    }
}

/// The names a `plan` response's `"defines"` list marks as misses, in
/// program order.
pub fn missed_defines(resp: &Json) -> Option<Vec<String>> {
    let defines = resp.get("defines")?.as_arr()?;
    Some(
        defines
            .iter()
            .filter_map(|d| match d.as_arr()? {
                [Json::Str(name), Json::Bool(false)] => Some(name.clone()),
                _ => None,
            })
            .collect(),
    )
}

/// `"cache":{"misses":M}` of a `plan`/`hybrid` response.
pub fn cache_misses(resp: &Json) -> Option<u64> {
    resp.get("cache")?.get("misses")?.as_u64()
}
