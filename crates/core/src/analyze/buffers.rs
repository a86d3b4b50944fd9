//! Buffer-necessity analysis (§3.2's templates, read off the artifact).
//!
//! Each BPDT owns one queue. Whether that queue can ever hold anything
//! is statically determined by the arcs: a queue only fills through an
//! `Emit`/`ElementStart` routed `OwnQueue` or `Queue(id)`, or through an
//! upload from a descendant. Classifying every queue tells us which §3.2
//! template actually *needs* its buffer for this query:
//!
//! * a query with no predicates (or only attribute-of-self predicates,
//!   category 1) resolves every step at the begin event — **no buffering
//!   at all**, results are emitted directly and the runner skips queue
//!   allocation entirely;
//! * categories 2–5 hold values in the owner's queue until the witness
//!   event ([`BufferClass::OwnPredicate`]);
//! * below an undecided ancestor, values go to the nearest such
//!   ancestor's queue instead ([`BufferClass::UpstreamPredicate`]).

use crate::arcs::{Action, Disposition};
use crate::build::Hpdt;
use crate::ids::BpdtId;

/// Why one BPDT's queue can (or cannot) hold entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferClass {
    /// Nothing ever enqueues here: the queue is statically elided.
    Unused,
    /// Holds this BPDT's own pending values until its predicate resolves
    /// (the §3.2 category 2–5 templates on an all-ancestors-true path).
    OwnPredicate,
    /// Holds values (its own or uploaded) pending an *ancestor*
    /// predicate: some descendant routes into this queue.
    UpstreamPredicate,
}

impl BufferClass {
    pub fn label(&self) -> &'static str {
        match self {
            BufferClass::Unused => "unused",
            BufferClass::OwnPredicate => "own-predicate",
            BufferClass::UpstreamPredicate => "upstream-predicate",
        }
    }
}

/// Classification of one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferInfo {
    pub bpdt: BpdtId,
    pub class: BufferClass,
}

/// The full buffer plan of one HPDT.
#[derive(Debug, Clone)]
pub struct BufferPlan {
    /// One entry per BPDT, in queue-slot order.
    pub buffers: Vec<BufferInfo>,
    /// False when every buffer is [`BufferClass::Unused`]: the runner
    /// allocates no queues and every result is emitted directly.
    pub buffered: bool,
}

impl BufferPlan {
    /// Number of queues that can actually hold entries.
    pub fn live_buffers(&self) -> usize {
        self.buffers
            .iter()
            .filter(|b| b.class != BufferClass::Unused)
            .count()
    }
}

/// Classify every queue of a compiled HPDT.
pub fn analyze_buffers(hpdt: &Hpdt) -> BufferPlan {
    let mut buffers: Vec<BufferInfo> = hpdt
        .queues
        .iter()
        .map(|&bpdt| BufferInfo {
            bpdt,
            class: BufferClass::Unused,
        })
        .collect();

    // `UpstreamPredicate` (someone routes *into* this queue from below)
    // dominates `OwnPredicate` (the queue holds only its owner's pending
    // values): an own-queue routing never downgrades a slot.
    for arc in hpdt.arcs.iter().flatten() {
        for action in &arc.actions {
            match action {
                Action::Emit { to, .. } | Action::ElementStart { to, .. } => match to {
                    Disposition::Direct => {}
                    Disposition::OwnQueue => {
                        let own = &mut buffers[arc.owner.slot as usize];
                        if own.class == BufferClass::Unused {
                            own.class = BufferClass::OwnPredicate;
                        }
                    }
                    Disposition::Queue(q) => {
                        buffers[q.slot as usize].class = BufferClass::UpstreamPredicate
                    }
                },
                // A keyed resolve releases into its target like an upload;
                // the keyed queue itself classifies like any other — by
                // who routes values into it.
                Action::UploadSelf(q) | Action::ResolveKeyed(Some(q)) => {
                    buffers[q.slot as usize].class = BufferClass::UpstreamPredicate
                }
                _ => {}
            }
        }
    }

    let buffered = buffers.iter().any(|b| b.class != BufferClass::Unused);
    BufferPlan { buffers, buffered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_hpdt;
    use xsq_xpath::parse_query;

    fn plan(q: &str) -> BufferPlan {
        let h = build_hpdt(&parse_query(q).unwrap()).unwrap();
        let p = analyze_buffers(&h);
        assert_eq!(
            p.buffered, h.buffered,
            "plan and builder disagree on buffering for {q}"
        );
        p
    }

    #[test]
    fn predicate_free_queries_elide_all_buffers() {
        let p = plan("/a/b/c/text()");
        assert!(!p.buffered);
        assert_eq!(p.live_buffers(), 0);
    }

    #[test]
    fn attr_of_self_predicates_still_elide() {
        // Category 1 resolves at the begin event itself: direct emission.
        let p = plan("/a[@id]/b/text()");
        assert!(!p.buffered);
    }

    #[test]
    fn own_text_predicate_buffers_in_own_queue() {
        let p = plan("/a[text()=x]/@id");
        assert!(p.buffered);
        assert!(p
            .buffers
            .iter()
            .any(|b| b.class == BufferClass::OwnPredicate));
    }

    #[test]
    fn a_keyed_queue_classifies_by_who_routes_into_it() {
        let plan = |batch: [&str; 2]| {
            let queries: Vec<_> = batch.iter().map(|q| parse_query(q).unwrap()).collect();
            let h = crate::build::build_merged_hpdt(&queries).unwrap();
            let keyed = h.keyed[0].bpdt;
            let p = analyze_buffers(&h);
            assert_eq!(p.buffered, h.buffered);
            let class = |id| p.buffers.iter().find(|b| b.bpdt == id).unwrap().class;
            (class(keyed), class(BpdtId::new(1, 0)))
        };
        use BufferClass::*;
        // The keyed step is the leaf: only its own values wait in it.
        assert_eq!(plan(["/r/a[k=1]/@id", "/r/a[k=2]/@id"]).0, OwnPredicate);
        // A step below routes into it.
        assert_eq!(
            plan(["/r/a[k=1]/v/text()", "/r/a[k=2]/v/text()"]).0,
            UpstreamPredicate
        );
        // Under an undecided ancestor the resolve uploads into that one's.
        assert_eq!(
            plan(["/r[z]/a[k=1]/@id", "/r[z]/a[k=2]/@id"]),
            (OwnPredicate, UpstreamPredicate)
        );
    }

    #[test]
    fn child_predicate_buffers_upstream() {
        // The leaf below the undecided [b] routes into bpdt(1,1)'s queue.
        let p = plan("/a[b]/c/text()");
        assert!(p.buffered);
        let slot11 = p
            .buffers
            .iter()
            .find(|b| b.bpdt == BpdtId::new(1, 1))
            .unwrap();
        assert_eq!(slot11.class, BufferClass::UpstreamPredicate);
    }
}
