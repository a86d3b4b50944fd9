//! Execution tracing: watch the HPDT run, arc by arc.
//!
//! The paper explains its machinery through step-by-step walkthroughs
//! (Examples 5–7: which state the run is in, which arc fires, which
//! buffer operation executes). [`TraceStep`] captures exactly that for
//! every input event; the CLI's `--trace` flag prints it. Tracing is
//! opt-in and costs nothing when off (a single branch per event).
//!
//! The `//` self-loop is not listed among the fired arcs: a closure
//! state that keeps searching does not move (the runtime reads the
//! state's stays bit instead of firing an arc). `configs_after` shows the
//! configuration it keeps alive.

use std::fmt;

use crate::arcs::{Action, Arc, StateId};
use crate::build::Hpdt;
use crate::depth_vector::DepthVector;

/// One fired transition.
#[derive(Debug, Clone)]
pub struct FiredArc {
    pub from: StateId,
    pub to: StateId,
    /// The owning BPDT, e.g. `bpdt(2,3)`.
    pub owner: String,
    /// The arc label, in the figures' notation.
    pub label: String,
    /// Buffer/output operations executed.
    pub actions: Vec<String>,
    /// The configuration's depth vector when the arc fired.
    pub dv: String,
}

/// Everything that happened while processing one input event.
#[derive(Debug, Clone)]
pub struct TraceStep {
    pub ordinal: u64,
    /// The event, in the paper's notation.
    pub event: String,
    pub fired: Vec<FiredArc>,
    /// Configurations alive after the event.
    pub configs_after: usize,
    /// Buffered references after the event.
    pub buffered_after: usize,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<4} {:<24} configs={} buffered={}",
            self.ordinal, self.event, self.configs_after, self.buffered_after
        )?;
        for a in &self.fired {
            write!(
                f,
                "\n      ${} --{}--> ${}  {} dv={}",
                a.from, a.label, a.to, a.owner, a.dv
            )?;
            for act in &a.actions {
                write!(f, " {{{act}}}")?;
            }
        }
        Ok(())
    }
}

/// Receives trace steps as the runner executes.
pub type Tracer<'a> = &'a mut dyn FnMut(TraceStep);

pub(crate) fn fired_arc(hpdt: &Hpdt, arc: &Arc, from: StateId, dv: &DepthVector) -> FiredArc {
    let guard = if arc.guard.is_some() { "[guard]" } else { "" };
    FiredArc {
        from,
        to: arc.target,
        owner: arc.owner.to_string(),
        label: format!("{}{guard}", arc.label),
        actions: hpdt.actions_of(arc).iter().map(action_str).collect(),
        dv: dv.to_string(),
    }
}

fn action_str(a: &Action) -> String {
    match a {
        Action::UploadSelf(t) | Action::ResolveKeyed(Some(t)) => format!("{}→{t}", a.name()),
        _ => a.name().into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_hpdt;
    use crate::runtime::tests::each_event;
    use crate::runtime::Runner;
    use crate::sink::{QueryId, VecSink};
    use xsq_xpath::parse_query;

    #[test]
    fn trace_records_every_event_and_the_fired_arcs() {
        let hpdt = build_hpdt(&parse_query("/pub[year>2000]/name/text()").unwrap()).unwrap();
        let mut steps: Vec<TraceStep> = Vec::new();
        {
            let mut tracer = |s: TraceStep| steps.push(s);
            let mut runner = Runner::new(&hpdt);
            runner.set_tracer(&mut tracer);
            let mut sink = VecSink::new();
            each_event(b"<pub><name>N</name><year>2002</year></pub>", |ev| {
                runner.feed_raw(ev, &mut sink)
            });
            runner.finish(&mut sink);
        }
        // One step per event.
        assert_eq!(steps.len(), 10);
        // The walkthrough shows the flush at the year's text event.
        let year_text = &steps[6];
        assert!(year_text.event.contains("year"), "{}", year_text.event);
        assert!(
            year_text
                .fired
                .iter()
                .any(|f| f.actions.iter().any(|a| a.contains("flush"))),
            "flush expected at the witness: {year_text}"
        );
        // Rendering is stable and readable.
        let text = steps
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("--<pub>-->"));
        assert!(text.contains("dv=(0,1)"));
    }

    #[test]
    fn a_keyed_step_traces_its_probe_and_its_resolve() {
        use crate::runtime::RunnerCore;
        let queries: Vec<_> = ["/r[z]/a[k=1]/v/text()", "/r[z]/a[k=2]/v/text()"]
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let hpdt = crate::build::build_merged_hpdt(queries).unwrap();
        let mut core = RunnerCore::new(&hpdt);
        let mut sink = crate::sink::VecQuerySink::new();
        let mut steps: Vec<TraceStep> = Vec::new();
        let mut tracer = |s: TraceStep| steps.push(s);
        let doc = b"<r><a><v>one</v><k>1</k></a><z/></r>";
        each_event(doc, |ev| {
            core.feed_traced(&hpdt, ev, &mut sink, Some(&mut tracer));
        });
        core.finish(&mut sink);
        assert_eq!(
            (sink.of(QueryId(0)), sink.of(QueryId(1))),
            (vec!["one"], vec![])
        );
        let text = steps
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        // The probe fires at the witness text; the resolve at </a>, and
        // under the undecided [z] it uploads to the ancestor's queue.
        assert!(text.contains("--<k.text()>--> $6  bpdt(2,0) dv=(0,1,2,3) {key.record}"));
        assert!(text.contains("--</a>--> $2  bpdt(2,0) dv=(0,1,2) {key.resolve→bpdt(1,0)}"));
    }

    #[test]
    fn tracing_does_not_change_results() {
        let hpdt = build_hpdt(&parse_query("//pub[year=2002]//book[author]//name/text()").unwrap())
            .unwrap();
        let doc = b"<root><pub><book><name>X</name><author>A</author></book>\
                    <year>2002</year></pub></root>";
        let mut events = 0usize;
        let plain = {
            let mut r = Runner::new(&hpdt);
            let mut s = VecSink::new();
            each_event(doc, |e| {
                r.feed_raw(e, &mut s);
                events += 1;
            });
            r.finish(&mut s);
            s.results
        };
        let mut count = 0usize;
        let traced = {
            let mut tracer = |_s: TraceStep| count += 1;
            let mut r = Runner::new(&hpdt);
            r.set_tracer(&mut tracer);
            let mut s = VecSink::new();
            each_event(doc, |e| r.feed_raw(e, &mut s));
            r.finish(&mut s);
            s.results
        };
        assert_eq!(plain, traced);
        assert_eq!(count, events);
    }
}
