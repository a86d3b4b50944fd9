//! Structural verification of a compiled HPDT ("HPDT lint").
//!
//! The builder maintains a web of invariants the runtime silently relies
//! on — arc targets in bounds, every buffer-addressing action backed by a
//! registered queue, depth-vector slots written before they are read,
//! BPDT tree positions matching the predicate templates. A bug in the
//! builder (or a hand-corrupted transducer) violates them and the runtime
//! panics deep inside `execute`. The verifier checks them all up front
//! and returns machine-readable diagnostics instead.
//!
//! Every check is linear in the states, arcs and queues (a BPDT lookup is
//! a binary search of the sorted ids), because a chain of predicated
//! closure steps builds 3·2ⁿ − 1 states.

use xsq_xpath::classify::{classify, StepCategory};

use crate::arcs::{execution_order, Action, Arc, ArcLabel, Fill, QueueRef, StateId};
use crate::build::{compute_scan_all, Hpdt};
use crate::ids::BpdtId;

use super::{prove_deterministic, Diagnostic};

/// Run every structural check over one compiled HPDT. An empty result (or
/// one with only warnings/info) means the transducer is safe to execute.
pub fn verify(hpdt: &Hpdt) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Shape: the three per-state tables must agree. Everything else
    // indexes by state, so a mismatch aborts verification immediately.
    let n = hpdt.states.len();
    if hpdt.arcs.len() != n || hpdt.scan_all.len() != n {
        out.push(Diagnostic::error(
            "table-shape",
            format!(
                "per-state tables disagree: {} states, {} arc lists, {} scan-all flags",
                n,
                hpdt.arcs.len(),
                hpdt.scan_all.len()
            ),
        ));
        return out;
    }
    if (hpdt.start as usize) >= n {
        out.push(Diagnostic::error(
            "start-out-of-bounds",
            format!("start state ${} but only {n} states exist", hpdt.start),
        ));
        return out;
    }

    let mut ids = hpdt.queues.clone();
    ids.sort_unstable();
    check_arc_targets(hpdt, &mut out);
    check_queue_index(hpdt, &ids, &mut out);
    check_reachability(hpdt, &mut out);
    check_buffer_release(hpdt, &mut out);
    check_depth_discipline(hpdt, &mut out);
    check_scan_all(hpdt, &mut out);
    check_deterministic_flag(hpdt, &mut out);
    if hpdt.merged.len() == 1 {
        check_tree_positions(hpdt, &ids, &mut out);
    }
    out
}

/// The queue `q` names, when its slot really holds it: a slot that does
/// not is `check_queue_index`'s finding, and the checks after it skip it.
fn resolved(hpdt: &Hpdt, q: QueueRef) -> Option<usize> {
    (hpdt.queues.get(q.slot as usize) == Some(&q.id)).then_some(q.slot as usize)
}

fn check_arc_targets(hpdt: &Hpdt, out: &mut Vec<Diagnostic>) {
    let n = hpdt.states.len();
    for (s, arcs) in hpdt.arcs.iter().enumerate() {
        for arc in arcs {
            if (arc.target as usize) >= n {
                out.push(
                    Diagnostic::error(
                        "arc-target-out-of-bounds",
                        format!(
                            "arc {:?} from state ${s} targets ${} but only {n} states exist",
                            arc.label, arc.target
                        ),
                    )
                    .at_state(s as u32),
                );
            }
            if arc.order != execution_order(arc.owner.id.layer, &arc.actions) {
                out.push(
                    Diagnostic::error(
                        "arc-order-stale",
                        format!(
                            "arc {:?} from state ${s} caches execution order {} but its \
                             owner {} and actions {:?} give another",
                            arc.label, arc.order, arc.owner, arc.actions
                        ),
                    )
                    .at_state(s as u32),
                );
            }
        }
    }
}

/// Every queue an executing arc addresses must resolve: the slot it
/// carries is in range and belongs to the BPDT it names — the runtime
/// indexes its queues by that slot unchecked, so a stale one is surfaced
/// here as a diagnostic instead. `ids` is the registered ids, sorted.
fn check_queue_index(hpdt: &Hpdt, ids: &[BpdtId], out: &mut Vec<Diagnostic>) {
    let require = |q: QueueRef, what: &str, state: usize, out: &mut Vec<Diagnostic>| {
        if resolved(hpdt, q).is_none() {
            out.push(
                Diagnostic::error(
                    "queue-index-missing",
                    format!(
                        "{what} addresses {} in slot {}, which is not its queue",
                        q.id, q.slot
                    ),
                )
                .at_state(state as u32)
                .at_bpdt(q.id),
            );
        }
    };
    for (s, arcs) in hpdt.arcs.iter().enumerate() {
        for arc in arcs {
            if !arc.actions.is_empty() {
                require(arc.owner, "an arc with actions", s, out);
            }
            for action in &arc.actions {
                match (action, action.fill()) {
                    (_, Some((Fill::Upload, Some(q)))) => require(q, "an upload", s, out),
                    (_, Some((Fill::Enqueue, Some(q)))) => require(q, "an enqueue", s, out),
                    (Action::RecordKey { table, .. }, _)
                        if hpdt.keyed.get(*table as usize).map(|k| k.bpdt)
                            != Some(arc.owner.id) =>
                    {
                        out.push(
                            Diagnostic::error(
                                "key-table-missing",
                                format!("{} probes key table {table}, not its own", arc.owner),
                            )
                            .at_state(s as u32)
                            .at_bpdt(arc.owner.id),
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    // Density: one queue per BPDT, each BPDT once.
    if hpdt.queues.len() != hpdt.bpdt_count {
        out.push(Diagnostic::error(
            "queue-index-dense",
            format!(
                "bpdt_count is {} but {} queues are registered",
                hpdt.bpdt_count,
                hpdt.queues.len()
            ),
        ));
    }
    if ids.windows(2).any(|w| w[0] == w[1]) {
        out.push(Diagnostic::error(
            "queue-index-dense",
            "a BPDT is registered under two queue slots".to_string(),
        ));
    }
}

/// States the start state cannot reach are dead weight: they can never
/// hold a configuration, but they still cost dispatch-index space. The
/// pruner removes them; here they are a warning.
fn check_reachability(hpdt: &Hpdt, out: &mut Vec<Diagnostic>) {
    let reachable = reachable_states(&hpdt.arcs, hpdt.start);
    let dead: Vec<usize> = (0..hpdt.states.len()).filter(|&s| !reachable[s]).collect();
    if let Some(&first) = dead.first() {
        out.push(
            Diagnostic::warning(
                "unreachable-state",
                format!(
                    "{} state(s) unreachable from the start state (first: ${first}, \
                     owned by {}); run the pruner",
                    dead.len(),
                    hpdt.states[first].owner
                ),
            )
            .at_state(first as u32)
            .at_bpdt(hpdt.states[first].owner),
        );
    }
}

/// Which states `start` reaches over `arcs` (per state, its outgoing
/// arcs); out-of-range targets lead nowhere. The pruner keeps exactly
/// these.
pub(crate) fn reachable_states(arcs: &[Vec<Arc>], start: StateId) -> Vec<bool> {
    let mut reachable = vec![false; arcs.len()];
    let mut stack = vec![start as usize];
    reachable[start as usize] = true;
    while let Some(s) = stack.pop() {
        for arc in &arcs[s] {
            let t = arc.target as usize;
            if t < reachable.len() && !reachable[t] {
                reachable[t] = true;
                stack.push(t);
            }
        }
    }
    reachable
}

/// §3.3's buffer lifecycle: a queue that can receive entries must be
/// cleared by the end of its owner's scope (else entries leak across
/// elements), and normally also released (flushed or uploaded) on the
/// predicate-true witness. A receiving queue with no clear arc is an
/// error; one with no release arc merely means its results are provably
/// unreachable (this legitimately happens after pruning an unsatisfiable
/// witness), so it is a warning. One pass over the arcs gathers three
/// flags per queue slot; findings follow in slot order.
fn check_buffer_release(hpdt: &Hpdt, out: &mut Vec<Diagnostic>) {
    #[derive(Clone, Copy, Default)]
    struct Life {
        receives: bool,
        cleared: bool,
        released: bool,
    }
    let mut life = vec![Life::default(); hpdt.queues.len()];
    for arc in hpdt.arcs.iter().flatten() {
        let own = resolved(hpdt, arc.owner);
        for action in &arc.actions {
            if let Some((_, named)) = action.fill() {
                if let Some(slot) = named.map_or(own, |q| resolved(hpdt, q)) {
                    life[slot].receives = true;
                }
            }
            let Some(own) = own.map(|slot| &mut life[slot]) else {
                continue;
            };
            match action {
                Action::ClearSelf => own.cleared = true,
                Action::FlushSelf | Action::UploadSelf(_) => own.released = true,
                // A keyed resolve is both: release, then clear.
                Action::ResolveKeyed(_) => (own.cleared, own.released) = (true, true),
                _ => {}
            }
        }
    }
    for (&id, life) in hpdt.queues.iter().zip(&life) {
        if !life.receives {
            continue;
        }
        if !life.cleared {
            out.push(
                Diagnostic::error(
                    "buffer-never-cleared",
                    format!(
                        "queue of {id} receives entries but no arc it owns clears it: \
                         entries would leak across elements"
                    ),
                )
                .at_bpdt(id),
            );
        }
        if !life.released {
            out.push(
                Diagnostic::warning(
                    "buffer-never-released",
                    format!(
                        "queue of {id} receives entries but no arc it owns flushes or \
                         uploads: its results are unreachable"
                    ),
                )
                .at_bpdt(id),
            );
        }
    }
}

/// Classify an arc label by the event kinds it can accept, for the
/// depth-vector model: `Some(+1)` pushes, `Some(-1)` pops, `Some(0)` is
/// depth-neutral, `None` is ambiguous (catchall).
fn depth_effect(label: &ArcLabel) -> Option<i32> {
    match label {
        ArcLabel::StartDoc | ArcLabel::BeginChild(_) | ArcLabel::BeginAnyDepth(_) => Some(1),
        ArcLabel::End(_) | ArcLabel::EndDoc => Some(-1),
        ArcLabel::TextSelf(_) | ArcLabel::TextChild(_) => Some(0),
        // A closure self-loop accepts begin events but never changes
        // state, so it neither pushes nor pops (the runtime pushes only
        // on state-changing transitions). If corrupted into a non-loop it
        // would push; `check_depth_discipline` handles both cases.
        ArcLabel::ClosureSelfLoop => Some(1),
        ArcLabel::Catchall => None,
    }
}

/// Walk the state graph assigning each state its depth-vector length and
/// check the discipline of §4.3: the runtime pushes on state-changing
/// begin transitions and pops on state-changing end transitions, and
/// every buffer operation of a layer-`l` BPDT reads the first `l+1` depth
/// slots. Two paths assigning one state different lengths, a pop of an
/// empty vector, or a buffer op before its slots are written are all
/// builder bugs that corrupt matching silently.
fn check_depth_discipline(hpdt: &Hpdt, out: &mut Vec<Diagnostic>) {
    let n = hpdt.states.len();
    let mut depth: Vec<Option<i64>> = vec![None; n];
    depth[hpdt.start as usize] = Some(0);
    let mut stack = vec![hpdt.start as usize];
    while let Some(s) = stack.pop() {
        let len = depth[s].expect("pushed states have depth");
        for arc in &hpdt.arcs[s] {
            if (arc.target as usize) >= n {
                continue; // already reported by check_arc_targets
            }
            let changes = arc.target != s as u32;
            let effect = match depth_effect(&arc.label) {
                Some(e) => e,
                None => {
                    if changes {
                        out.push(
                            Diagnostic::warning(
                                "ambiguous-depth-effect",
                                format!(
                                    "catchall arc from ${s} changes state; its depth \
                                     effect depends on the event kind"
                                ),
                            )
                            .at_state(s as u32),
                        );
                    }
                    continue;
                }
            };
            let inside = if changes && effect > 0 { len + 1 } else { len };
            // Buffer operations of a layer-l owner read depth slots 0..=l.
            let needs = buffer_op_depth(arc);
            if let Some(layer) = needs {
                if inside < layer as i64 + 1 {
                    out.push(
                        Diagnostic::error(
                            "depth-slot-unwritten",
                            format!(
                                "buffer operation of layer-{layer} BPDT {} runs with only \
                                 {inside} depth slot(s) written (needs {})",
                                arc.owner,
                                layer + 1
                            ),
                        )
                        .at_state(s as u32)
                        .at_bpdt(arc.owner.id),
                    );
                }
            }
            let after = if changes {
                let a = len + effect as i64;
                if a < 0 {
                    out.push(
                        Diagnostic::error(
                            "depth-underflow",
                            format!("arc {:?} from ${s} pops an empty depth vector", arc.label),
                        )
                        .at_state(s as u32),
                    );
                    continue;
                }
                a
            } else {
                len
            };
            let t = arc.target as usize;
            match depth[t] {
                None => {
                    depth[t] = Some(after);
                    stack.push(t);
                }
                Some(prev) if prev != after => {
                    out.push(
                        Diagnostic::error(
                            "depth-inconsistent",
                            format!(
                                "state ${t} is reached with depth-vector lengths {prev} \
                                 and {after} on different paths"
                            ),
                        )
                        .at_state(t as u32),
                    );
                }
                Some(_) => {}
            }
        }
    }
}

/// The highest layer whose depth slots an arc's actions read, if any.
fn buffer_op_depth(arc: &Arc) -> Option<u16> {
    arc.actions
        .iter()
        .any(|a| {
            matches!(
                a,
                Action::FlushSelf
                    | Action::UploadSelf(_)
                    | Action::ClearSelf
                    | Action::RecordKey { .. }
                    | Action::ResolveKeyed(_)
            )
        })
        .then_some(arc.owner.id.layer)
}

/// The stored per-state `scan_all` flags must match a fresh conservative
/// recomputation. A state stored as first-match-safe that actually has
/// overlapping arcs makes XSQ-NC drop matches (unsound); the converse is
/// merely pessimistic.
fn check_scan_all(hpdt: &Hpdt, out: &mut Vec<Diagnostic>) {
    let fresh = compute_scan_all(&hpdt.arcs);
    for (s, (&stored, &computed)) in hpdt.scan_all.iter().zip(fresh.iter()).enumerate() {
        if !stored && computed {
            out.push(
                Diagnostic::error(
                    "scan-all-unsound",
                    format!(
                        "state ${s} is marked first-match-safe but has overlapping arcs: \
                         XSQ-NC would drop matches"
                    ),
                )
                .at_state(s as u32),
            );
        } else if stored && !computed {
            out.push(
                Diagnostic::info(
                    "scan-all-pessimistic",
                    format!("state ${s} is marked scan-all but its arcs are disjoint"),
                )
                .at_state(s as u32),
            );
        }
    }
}

fn check_deterministic_flag(hpdt: &Hpdt, out: &mut Vec<Diagnostic>) {
    if hpdt.deterministic && !prove_deterministic(&hpdt.arcs) {
        out.push(Diagnostic::error(
            "deterministic-flag-unsound",
            "HPDT is flagged deterministic but contains closure arcs".to_string(),
        ));
    }
}

/// For a single-query HPDT the BPDT ids follow the binary-tree encoding
/// of §4.2: every non-root id's parent must exist, the all-true left
/// spine must be complete, and right children (even sequence numbers)
/// may only hang off steps whose predicate category has an NA state.
/// Merged HPDTs use fresh per-layer sequence numbers, where the encoding
/// intentionally does not apply. `ids` is the registered ids, sorted.
fn check_tree_positions(hpdt: &Hpdt, ids: &[BpdtId], out: &mut Vec<Diagnostic>) {
    let registered = |id: &BpdtId| ids.binary_search(id).is_ok();
    for &id in &hpdt.queues {
        if id == BpdtId::ROOT {
            continue;
        }
        if id.layer > hpdt.layers {
            out.push(
                Diagnostic::error(
                    "bpdt-layer-out-of-range",
                    format!("{id} is deeper than the query's {} steps", hpdt.layers),
                )
                .at_bpdt(id),
            );
            continue;
        }
        match id.parent() {
            Some(p) if p == BpdtId::ROOT || registered(&p) => {}
            _ => {
                out.push(
                    Diagnostic::error(
                        "bpdt-orphan",
                        format!("{id} has no parent BPDT in the tree"),
                    )
                    .at_bpdt(id),
                );
            }
        }
        // A right child exists iff the *parent's* step has an NA state.
        if id.layer >= 2 && !id.is_left_child() {
            let parent_step = &hpdt.query.steps[id.layer as usize - 2];
            let has_na = !matches!(
                classify(parent_step),
                StepCategory::NoPredicate | StepCategory::AttrOfSelf
            );
            if !has_na {
                out.push(
                    Diagnostic::error(
                        "bpdt-position-mismatch",
                        format!(
                            "{id} is a right (NA-side) child but step {} ({}) has no \
                             NA state",
                            id.layer - 1,
                            parent_step
                        ),
                    )
                    .at_bpdt(id),
                );
            }
        }
    }
    // The all-true left spine bpdt(l, 2^l - 1) is complete in every
    // freshly built HPDT, but pruning an unsatisfiable guard legitimately
    // severs it (the steps below the dead predicate vanish) — so a gap is
    // a warning, not an error.
    for l in 1..=hpdt.layers {
        let spine = BpdtId::new(l, (1u64 << l) - 1);
        if !registered(&spine) {
            out.push(
                Diagnostic::warning(
                    "bpdt-spine-missing",
                    format!("the all-ancestors-true BPDT {spine} is missing"),
                )
                .at_bpdt(spine),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::has_errors;
    use crate::analyze::Severity::{self, Error, Warning};
    use crate::build::build_hpdt;
    use xsq_xpath::parse_query;

    fn built(q: &str) -> Hpdt {
        build_hpdt(&parse_query(q).unwrap()).unwrap()
    }

    #[test]
    fn builder_output_verifies_clean() {
        for q in [
            "/a/b/text()",
            "/pub[year=2002]/book[price<11]/author",
            "//pub[year>2000]//book[author]//name/text()",
            "/a[@id]/b/text()",
            "/a[text()=x]/b/@id",
            "//b/count()",
        ] {
            let h = built(q);
            let diags = verify(&h);
            assert!(!has_errors(&diags), "{q}: {diags:?}");
        }
    }

    #[test]
    fn merged_builder_output_verifies_clean() {
        let queries: Vec<_> = ["/a/b/text()", "/a/b/@id", "/a[b]/c/text()", "//a/d/text()"]
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let h = crate::build::build_merged_hpdt(&queries).unwrap();
        let diags = verify(&h);
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn missing_queue_slot_is_caught() {
        let mut h = built("/a[b]/c/text()");
        // Corrupt the transducer the way a builder bug would: drop a
        // queue registration, so the slots arcs carry point elsewhere.
        let id = BpdtId::new(1, 1);
        h.queues.retain(|q| *q != id);
        h.bpdt_count -= 1;
        let diags = verify(&h);
        assert!(
            diags
                .iter()
                .any(|d| d.is_error() && d.code == "queue-index-missing"),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_bounds_arc_target_is_caught() {
        let mut h = built("/a/b/text()");
        h.arcs[h.start as usize][0].target = 999;
        let diags = verify(&h);
        assert!(
            diags
                .iter()
                .any(|d| d.is_error() && d.code == "arc-target-out-of-bounds"),
            "{diags:?}"
        );
    }

    #[test]
    fn unsound_scan_all_flag_is_caught() {
        let mut h = built("//a/text()");
        // The closure state genuinely needs scan-all; lie about it.
        if let Some(flag) = h.scan_all.iter_mut().find(|f| **f) {
            *flag = false;
        } else {
            panic!("closure query must have a scan-all state");
        }
        let diags = verify(&h);
        assert!(
            diags
                .iter()
                .any(|d| d.is_error() && d.code == "scan-all-unsound"),
            "{diags:?}"
        );
    }

    /// Delete the actions `drop` selects from the arcs `owner` owns, with
    /// each arc's cached execution order kept honest, so the finding under
    /// test is the only error.
    fn strip(h: &mut Hpdt, owner: BpdtId, drop: fn(&Action) -> bool) {
        for arc in h.arcs.iter_mut().flatten() {
            if arc.owner.id == owner {
                arc.actions.retain(|a| !drop(a));
                arc.order = execution_order(owner.layer, &arc.actions);
            }
        }
    }

    /// Rename a leaf BPDT — nothing uploads or enqueues into a leaf, so
    /// its queue slot, its states and its arcs are all that name it.
    fn retag(h: &mut Hpdt, from: BpdtId, to: BpdtId) {
        for id in h
            .queues
            .iter_mut()
            .chain(h.states.iter_mut().map(|s| &mut s.owner))
        {
            if *id == from {
                *id = to;
            }
        }
        for arc in h.arcs.iter_mut().flatten() {
            if arc.owner.id == from {
                arc.owner.id = to;
            }
        }
    }

    /// `(code, bpdt)` of every finding of `severity`, in report order.
    fn findings(h: &Hpdt, severity: Severity) -> Vec<(&'static str, BpdtId)> {
        verify(h)
            .iter()
            .filter(|d| d.severity == severity)
            .map(|d| (d.code, d.bpdt.expect("the finding names its BPDT")))
            .collect()
    }

    #[test]
    fn a_queue_no_arc_clears_is_an_error_naming_it() {
        let mut h = built("/a[b]/c/text()");
        strip(&mut h, BpdtId::new(1, 1), |a| *a == Action::ClearSelf);
        assert_eq!(
            findings(&h, Error),
            [("buffer-never-cleared", BpdtId::new(1, 1))]
        );
    }

    #[test]
    fn a_queue_no_arc_releases_is_a_warning_naming_it() {
        let mut h = built("//a[b]//c[d]/text()");
        strip(&mut h, BpdtId::new(2, 2), |a| {
            matches!(a, Action::FlushSelf | Action::UploadSelf(_))
        });
        assert!(findings(&h, Error).is_empty());
        assert_eq!(
            findings(&h, Warning),
            [("buffer-never-released", BpdtId::new(2, 2))]
        );
    }

    #[test]
    fn a_retagged_bpdt_is_caught_where_it_hangs() {
        let (orphan, right) = (BpdtId::new(2, 0), BpdtId::new(2, 2));
        // bpdt(1,0) does not exist: the renamed leaf has no parent.
        let mut h = built("/a[b]/c/text()");
        retag(&mut h, BpdtId::new(2, 2), orphan);
        assert_eq!(findings(&h, Error), [("bpdt-orphan", orphan)]);
        // `a[@id]` is decided at the begin event: it has no NA state for a
        // right child to hang off, and the all-true spine loses its leaf.
        let mut h = built("/a[@id]/b/text()");
        retag(&mut h, BpdtId::new(2, 3), right);
        assert_eq!(findings(&h, Error), [("bpdt-position-mismatch", right)]);
        assert_eq!(
            findings(&h, Warning),
            [("bpdt-spine-missing", BpdtId::new(2, 3))]
        );
    }

    #[test]
    fn a_closure_hpdt_flagged_deterministic_is_caught() {
        let mut h = built("//a/text()");
        h.deterministic = true;
        let diags = verify(&h);
        let codes: Vec<_> = diags
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, ["deterministic-flag-unsound"]);
    }

    #[test]
    fn out_of_range_slots_are_findings_not_panics() {
        let mut h = built("//a[b]//c[d]/text()");
        for arc in h.arcs.iter_mut().flatten() {
            arc.owner.slot += 100;
            for q in arc.actions.iter_mut().filter_map(|a| a.fill_mut()?.1) {
                q.slot += 100;
            }
        }
        let diags = verify(&h);
        assert!(diags.iter().any(|d| d.code == "queue-index-missing"));
        assert!(diags
            .iter()
            .filter(|d| d.is_error())
            .all(|d| d.code == "queue-index-missing"));
    }

    #[test]
    fn a_malformed_hpdt_is_rejected_with_the_same_message_every_time() {
        // Two queues no arc clears: the rejection names the lower slot.
        let mut h = built("/a[b]/c[d]/text()");
        for id in [BpdtId::new(2, 2), BpdtId::new(2, 3)] {
            strip(&mut h, id, |a| *a == Action::ClearSelf);
        }
        let first = crate::analyze::reject_malformed(&verify(&h)).unwrap_err();
        assert!(first.to_string().contains("queue of bpdt(2,2)"), "{first}");
        for _ in 0..20 {
            let again = crate::analyze::reject_malformed(&verify(&h)).unwrap_err();
            assert_eq!(again.to_string(), first.to_string());
        }
    }

    #[test]
    fn depth_discipline_violation_is_caught() {
        let mut h = built("/a/b/text()");
        // Retarget the deepest End arc all the way to the start state:
        // the path now pops once where it pushed three times, so the two
        // routes into the start state disagree on depth-vector length.
        let deep = h.states.len() - 1;
        let start = h.start;
        let end_idx = h.arcs[deep]
            .iter()
            .position(|a| matches!(a.label, ArcLabel::End(_)))
            .expect("state has an end arc");
        h.arcs[deep][end_idx].target = start;
        let diags = verify(&h);
        assert!(
            diags
                .iter()
                .any(|d| d.is_error() && d.code == "depth-inconsistent"),
            "{diags:?}"
        );
    }
}
