//! Candidate executions and their builder (§2.1.2, §3.2).
//!
//! An [`Execution`] packages an event structure (events + `po`/`tfo` +
//! syntactic dependencies), an architectural execution witness (`rf`, `co`,
//! with `fr` derived), and a microarchitectural execution witness (`rfx`,
//! `cox`, with `frx` derived).

use std::collections::HashMap;

use lcm_relalg::dot::{DotGraph, EdgeStyle};
use lcm_relalg::Relation;

use crate::event::{AccessMode, Event, EventId, EventKind, Location, XState};

/// A complete candidate execution: event structure + architectural witness
/// + microarchitectural witness.
///
/// Construct with [`ExecutionBuilder`]. All relation accessors return
/// relations over the event-id universe; `po`, `tfo`, `co` and `cox` are
/// stored transitively closed.
#[derive(Debug, Clone)]
pub struct Execution {
    events: Vec<Event>,
    loc_names: Vec<String>,
    po: Relation,
    tfo: Relation,
    addr: Relation,
    addr_gep: Relation,
    data: Relation,
    ctrl: Relation,
    rf: Relation,
    co: Relation,
    rfx: Relation,
    cox: Relation,
}

impl Execution {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, indexed by id.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The event with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.0]
    }

    /// The interned name of a location.
    pub fn location_name(&self, loc: Location) -> &str {
        &self.loc_names[loc.0 as usize]
    }

    /// Program order (transitive, committed events only).
    pub fn po(&self) -> &Relation {
        &self.po
    }

    /// Transient fetch order (transitive; `po ⊆ tfo`, §3.3).
    pub fn tfo(&self) -> &Relation {
        &self.tfo
    }

    /// Address dependencies (§2.1.3), including `addr_gep` ones.
    pub fn addr(&self) -> &Relation {
        &self.addr
    }

    /// The subset of [`Self::addr`] whose source value is an *index* added
    /// to a base pointer (`getelementptr`-style, §5.2).
    pub fn addr_gep(&self) -> &Relation {
        &self.addr_gep
    }

    /// Data dependencies.
    pub fn data(&self) -> &Relation {
        &self.data
    }

    /// Control dependencies.
    pub fn ctrl(&self) -> &Relation {
        &self.ctrl
    }

    /// `dep = addr ∪ data ∪ ctrl`.
    pub fn dep(&self) -> Relation {
        self.addr.union(&self.data).union(&self.ctrl)
    }

    /// Reads-from: (Write, Read) pairs, same location.
    pub fn rf(&self) -> &Relation {
        &self.rf
    }

    /// Coherence order: per-location total order on writes (transitive).
    pub fn co(&self) -> &Relation {
        &self.co
    }

    /// From-reads, derived as `fr = rf˘ ; co` (§2.1.2).
    pub fn fr(&self) -> Relation {
        self.rf.transpose().compose(&self.co)
    }

    /// Architectural communication `com = rf ∪ co ∪ fr`.
    pub fn com(&self) -> Relation {
        self.rf.union(&self.co).union(&self.fr())
    }

    /// Microarchitectural reads-from over xstate (§3.2.2).
    pub fn rfx(&self) -> &Relation {
        &self.rfx
    }

    /// Microarchitectural coherence over xstate (transitive).
    pub fn cox(&self) -> &Relation {
        &self.cox
    }

    /// Microarchitectural from-reads, derived as `frx = rfx˘ ; cox` minus
    /// identity (a read-modify-write's own fill is not a from-read of
    /// itself).
    pub fn frx(&self) -> Relation {
        self.rfx
            .transpose()
            .compose(&self.cox)
            .difference(&Relation::identity(self.len()))
    }

    /// Microarchitectural communication `comx = rfx ∪ cox ∪ frx`.
    pub fn comx(&self) -> Relation {
        self.rfx.union(&self.cox).union(&self.frx())
    }

    /// `po_loc`: the subset of `po` relating same-location memory events.
    pub fn po_loc(&self) -> Relation {
        self.same_loc_subset(&self.po)
    }

    /// `tfo_loc`: the subset of `tfo` relating same-location memory events
    /// (used by naive lifted predicates, §4.2).
    pub fn tfo_loc(&self) -> Relation {
        self.same_loc_subset(&self.tfo)
    }

    fn same_loc_subset(&self, r: &Relation) -> Relation {
        Relation::from_pairs(
            self.len(),
            r.pairs().filter(|&(a, b)| {
                let (ea, eb) = (&self.events[a], &self.events[b]);
                ea.kind.is_memory()
                    && eb.kind.is_memory()
                    && ea.location.is_some()
                    && ea.location == eb.location
            }),
        )
    }

    /// `rfi`: reads-from internal (same thread).
    pub fn rfi(&self) -> Relation {
        Relation::from_pairs(
            self.len(),
            self.rf
                .pairs()
                .filter(|&(a, b)| self.events[a].thread == self.events[b].thread),
        )
    }

    /// `rfe`: reads-from external (different threads).
    pub fn rfe(&self) -> Relation {
        Relation::from_pairs(
            self.len(),
            self.rf
                .pairs()
                .filter(|&(a, b)| self.events[a].thread != self.events[b].thread),
        )
    }

    /// Events accessing the given location.
    pub fn events_at(&self, loc: Location) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.location == Some(loc))
    }

    /// Events accessing the given xstate element.
    pub fn events_at_xstate(&self, xs: XState) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.xstate == Some(xs))
    }

    /// The ⊤-member initializing `loc`, if `loc` was ever used.
    pub fn init_of(&self, loc: Location) -> Option<EventId> {
        self.events
            .iter()
            .find(|e| e.kind == EventKind::Init && e.location == Some(loc))
            .map(|e| e.id)
    }

    /// `co` restricted to immediate (non-transitively-implied) pairs.
    pub fn co_immediate(&self) -> Relation {
        immediate_of(&self.co)
    }

    /// `cox` restricted to immediate pairs.
    pub fn cox_immediate(&self) -> Relation {
        immediate_of(&self.cox)
    }

    /// Checks structural well-formedness of both witnesses.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found:
    /// an `rf`/`rfx` target with several sources, mismatched
    /// locations/xstate, an `rfx` edge that does not run from an xstate
    /// writer to an xstate reader, a `cox` edge touching an event that
    /// does not write xstate, a non-total per-location `co`, or a cyclic
    /// `cox`.
    pub fn well_formed(&self) -> Result<(), String> {
        for e in &self.events {
            if e.kind.is_arch_read() {
                let sources: Vec<usize> = self.rf.predecessors(e.id.0).collect();
                if sources.len() > 1 {
                    return Err(format!("{} has {} rf sources", e.id, sources.len()));
                }
                if let Some(&w) = sources.first() {
                    if !self.events[w].kind.is_arch_write() {
                        return Err(format!(
                            "rf source {} of {} is not a write",
                            EventId(w),
                            e.id
                        ));
                    }
                    if self.events[w].location != e.location {
                        return Err(format!("rf {} -> {} crosses locations", EventId(w), e.id));
                    }
                }
            }
            if e.reads_xstate() {
                let sources = self.rfx.predecessors(e.id.0).count();
                if sources > 1 {
                    return Err(format!("{} has {sources} rfx sources", e.id));
                }
            }
        }
        for (w, r) in self.rfx.pairs() {
            let (ew, er) = (&self.events[w], &self.events[r]);
            if !ew.writes_xstate() || !er.reads_xstate() {
                return Err(format!(
                    "rfx {} -> {} is not from an xstate writer to an xstate reader",
                    ew.id, er.id
                ));
            }
            if ew.xstate != er.xstate {
                return Err(format!("rfx {} -> {} crosses xstate", ew.id, er.id));
            }
        }
        if let Some((a, b)) = self
            .cox
            .pairs()
            .find(|&(a, b)| !self.events[a].writes_xstate() || !self.events[b].writes_xstate())
        {
            return Err(format!(
                "cox {} -> {} joins an event that does not write xstate",
                EventId(a),
                EventId(b)
            ));
        }
        // co total per location over architectural writes.
        let mut by_loc: HashMap<Location, Vec<usize>> = HashMap::new();
        for e in &self.events {
            if e.kind.is_arch_write() {
                if let Some(l) = e.location {
                    by_loc.entry(l).or_default().push(e.id.0);
                }
            }
        }
        for (l, ws) in &by_loc {
            if !lcm_relalg::total_on(&self.co, ws) {
                return Err(format!(
                    "co is not a total order on writes to {}",
                    self.location_name(*l)
                ));
            }
        }
        // cox must at least be acyclic; totality is checked by
        // `well_formed_strict` (full microarchitectural witnesses only).
        if let Some(c) = self.cox.find_cycle() {
            return Err(format!("cox has a cycle through e{}", c[0]));
        }
        Ok(())
    }

    /// Like [`Self::well_formed`], but additionally requires `cox` to be a
    /// total order per xstate element over all xstate writers — the full
    /// microarchitectural witnesses that the litmus enumerator produces.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn well_formed_strict(&self) -> Result<(), String> {
        self.well_formed()?;
        let mut by_xs: HashMap<XState, Vec<usize>> = HashMap::new();
        for e in &self.events {
            if e.writes_xstate() {
                if let Some(x) = e.xstate {
                    by_xs.entry(x).or_default().push(e.id.0);
                }
            }
        }
        for (x, ws) in &by_xs {
            if !lcm_relalg::total_on(&self.cox, ws) {
                return Err(format!(
                    "cox is not a total order on writers of xstate {}",
                    x.0
                ));
            }
        }
        Ok(())
    }

    /// Renders the execution as a DOT graph in the style of the paper's
    /// figures. `culprits` (typically
    /// [`crate::Violation::culprit`] pairs) are drawn as dashed red edges.
    pub fn to_dot(&self, name: &str, culprits: &[(EventId, EventId)]) -> String {
        let labels = self.events.iter().map(|e| e.to_string()).collect();
        let mut g = DotGraph::new(name, labels);
        let n = self.len();
        let culprit_rel = Relation::from_pairs(n, culprits.iter().map(|&(a, b)| (a.0, b.0)));
        let po_im = immediate_of(&self.po);
        let tfo_im = immediate_of(&self.tfo).difference(&po_im);
        g.add_relation(po_im, EdgeStyle::solid("po", "black"));
        g.add_relation(tfo_im, EdgeStyle::solid("tfo", "gray40"));
        g.add_relation(self.addr.clone(), EdgeStyle::solid("addr", "gray55"));
        g.add_relation(self.data.clone(), EdgeStyle::solid("data", "gray55"));
        g.add_relation(self.ctrl.clone(), EdgeStyle::solid("ctrl", "gray70"));
        g.add_relation(
            self.rf.difference(&culprit_rel),
            EdgeStyle::solid("rf", "blue"),
        );
        g.add_relation(self.co_immediate(), EdgeStyle::solid("co", "purple"));
        g.add_relation(self.rfx.clone(), EdgeStyle::solid("rfx", "darkgreen"));
        g.add_relation(culprit_rel, EdgeStyle::dashed("rf (leak)", "red"));
        g.render()
    }
}

/// Immediate (transitive-reduction) pairs of a transitive relation.
fn immediate_of(r: &Relation) -> Relation {
    Relation::from_pairs(
        r.universe(),
        r.pairs()
            .filter(|&(a, b)| !r.successors(a).any(|m| m != b && r.contains(m, b))),
    )
}

/// Builds [`Execution`]s incrementally.
///
/// Locations are interned by name; each first use of a location creates its
/// ⊤ initialization event. Reads/observers without an explicit `rf` edge are
/// completed to read from ⊤; program writes are `co`-ordered after ⊤;
/// xstate readers without explicit `rfx` are completed from ⊤, and `cox` is
/// seeded with ⊤ before every xstate writer.
///
/// # Examples
///
/// ```
/// use lcm_core::exec::ExecutionBuilder;
///
/// let mut b = ExecutionBuilder::new();
/// let r = b.read("y");
/// let w = b.write("x");
/// b.po(r, w);
/// let exec = b.build();
/// assert!(exec.well_formed().is_ok());
/// // 2 inits + read + write:
/// assert_eq!(exec.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ExecutionBuilder {
    events: Vec<Event>,
    loc_names: Vec<String>,
    loc_map: HashMap<String, Location>,
    inits: HashMap<Location, EventId>,
    po_edges: Vec<(EventId, EventId)>,
    tfo_edges: Vec<(EventId, EventId)>,
    addr_edges: Vec<(EventId, EventId)>,
    addr_gep_edges: Vec<(EventId, EventId)>,
    data_edges: Vec<(EventId, EventId)>,
    ctrl_edges: Vec<(EventId, EventId)>,
    rf_edges: Vec<(EventId, EventId)>,
    co_edges: Vec<(EventId, EventId)>,
    rfx_edges: Vec<(EventId, EventId)>,
    cox_edges: Vec<(EventId, EventId)>,
    thread: usize,
}

impl ExecutionBuilder {
    /// Creates an empty builder (current thread 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a location name, creating its ⊤ initialization event on
    /// first use.
    pub fn loc(&mut self, name: &str) -> Location {
        if let Some(&l) = self.loc_map.get(name) {
            return l;
        }
        let l = Location(self.loc_names.len() as u32);
        self.loc_names.push(name.to_string());
        self.loc_map.insert(name.to_string(), l);
        let id = self.push(Event {
            id: EventId(0),
            kind: EventKind::Init,
            thread: 0,
            location: Some(l),
            xstate: Some(XState(l.0)),
            xmode: Some(AccessMode::ReadModifyWrite),
            transient: false,
            label: format!("⊤: init {name}"),
        });
        self.inits.insert(l, id);
        l
    }

    /// Switches the thread assigned to subsequently created events.
    pub fn on_thread(&mut self, t: usize) -> &mut Self {
        self.thread = t;
        self
    }

    fn push(&mut self, mut e: Event) -> EventId {
        let id = EventId(self.events.len());
        e.id = id;
        self.events.push(e);
        id
    }

    fn mem_event(
        &mut self,
        kind: EventKind,
        name: &str,
        xmode: AccessMode,
        transient: bool,
    ) -> EventId {
        let l = self.loc(name);
        let tag = match kind {
            EventKind::Read => "R",
            EventKind::Write => "W",
            EventKind::Observer => "⊥: probe",
            EventKind::Prefetch => "P",
            _ => "?",
        };
        let sub = if transient { "ₛ" } else { "" };
        let thread = self.thread;
        self.push(Event {
            id: EventId(0),
            kind,
            thread,
            location: Some(l),
            xstate: Some(XState(l.0)),
            xmode: Some(xmode),
            transient,
            label: format!("{tag}{sub} {name}"),
        })
    }

    /// A committed read that misses in the cache (xstate read-modify-write).
    pub fn read(&mut self, name: &str) -> EventId {
        self.mem_event(EventKind::Read, name, AccessMode::ReadModifyWrite, false)
    }

    /// A committed read that hits (xstate read only).
    pub fn read_hit(&mut self, name: &str) -> EventId {
        self.mem_event(EventKind::Read, name, AccessMode::Read, false)
    }

    /// A committed write (write-allocate: xstate read-modify-write).
    pub fn write(&mut self, name: &str) -> EventId {
        self.mem_event(EventKind::Write, name, AccessMode::ReadModifyWrite, false)
    }

    /// A committed *silent* store (§4.2 Fig. 5a): architecturally a write,
    /// microarchitecturally only reads its xstate.
    pub fn silent_write(&mut self, name: &str) -> EventId {
        self.mem_event(EventKind::Write, name, AccessMode::Read, false)
    }

    /// A transient (mis-speculated, later squashed) read; misses by default.
    pub fn transient_read(&mut self, name: &str) -> EventId {
        self.mem_event(EventKind::Read, name, AccessMode::ReadModifyWrite, true)
    }

    /// A transient read that hits (xstate read only).
    pub fn transient_read_hit(&mut self, name: &str) -> EventId {
        self.mem_event(EventKind::Read, name, AccessMode::Read, true)
    }

    /// A transient write (updates the LSQ/cache-line abstraction only).
    pub fn transient_write(&mut self, name: &str) -> EventId {
        self.mem_event(EventKind::Write, name, AccessMode::ReadModifyWrite, true)
    }

    /// An observer (⊥) probing the xstate of `name` after completion (§3.2).
    ///
    /// Per the paper, ⊥ does **not** share memory with the program: the
    /// observer architecturally reads a private location (sourced by ⊤
    /// only), while its *xstate* is the probed line's. Its `rfx` source
    /// therefore reveals which instruction last filled the line.
    pub fn observe(&mut self, name: &str) -> EventId {
        let probed = self.loc(name);
        let priv_name = format!("⊥:{name}#{}", self.events.len());
        let o = self.mem_event(EventKind::Observer, &priv_name, AccessMode::Read, false);
        self.events[o.0].xstate = Some(XState(probed.0));
        self.events[o.0].label = format!("⊥: probe {name}");
        o
    }

    /// A hardware prefetch of `name`'s line (Fig. 5b): microarchitectural
    /// only — participates in `comx` but never in `po`/`com`.
    pub fn prefetch(&mut self, name: &str) -> EventId {
        self.mem_event(EventKind::Prefetch, name, AccessMode::ReadModifyWrite, true)
    }

    /// A committed conditional branch (source of `ctrl` dependencies).
    pub fn branch(&mut self) -> EventId {
        let thread = self.thread;
        self.push(Event {
            id: EventId(0),
            kind: EventKind::Branch,
            thread,
            location: None,
            xstate: None,
            xmode: None,
            transient: false,
            label: "BR".to_string(),
        })
    }

    /// A fence event.
    pub fn fence(&mut self) -> EventId {
        let thread = self.thread;
        self.push(Event {
            id: EventId(0),
            kind: EventKind::Fence,
            thread,
            location: None,
            xstate: None,
            xmode: None,
            transient: false,
            label: "FENCE".to_string(),
        })
    }

    /// The xstate currently assigned to an event (before build).
    pub fn xstate_of(&self, id: EventId) -> Option<XState> {
        self.events[id.0].xstate
    }

    /// Overrides an event's display label.
    pub fn set_label(&mut self, id: EventId, label: &str) -> &mut Self {
        self.events[id.0].label = label.to_string();
        self
    }

    /// Overrides an event's xstate element (e.g. to model cache-index
    /// collisions between distinct locations).
    pub fn set_xstate(&mut self, id: EventId, xs: XState) -> &mut Self {
        self.events[id.0].xstate = Some(xs);
        self
    }

    /// Overrides an event's xstate access mode.
    pub fn set_xmode(&mut self, id: EventId, m: AccessMode) -> &mut Self {
        self.events[id.0].xmode = Some(m);
        self
    }

    /// Adds a program-order edge (also implies `tfo`).
    pub fn po(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.po_edges.push((a, b));
        self
    }

    /// Chains program order through all given events.
    pub fn po_chain(&mut self, ids: &[EventId]) -> &mut Self {
        for w in ids.windows(2) {
            self.po_edges.push((w[0], w[1]));
        }
        self
    }

    /// Adds a transient-fetch-order edge (without program order).
    pub fn tfo(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.tfo_edges.push((a, b));
        self
    }

    /// Chains transient fetch order through all given events.
    pub fn tfo_chain(&mut self, ids: &[EventId]) -> &mut Self {
        for w in ids.windows(2) {
            self.tfo_edges.push((w[0], w[1]));
        }
        self
    }

    /// Adds an address dependency.
    pub fn addr(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.addr_edges.push((a, b));
        self
    }

    /// Adds a `getelementptr`-style address dependency (index into a known
    /// base, §5.2).
    pub fn addr_gep(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.addr_edges.push((a, b));
        self.addr_gep_edges.push((a, b));
        self
    }

    /// Adds a data dependency.
    pub fn data(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.data_edges.push((a, b));
        self
    }

    /// Adds a control dependency.
    pub fn ctrl(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.ctrl_edges.push((a, b));
        self
    }

    /// Adds an explicit reads-from edge (otherwise reads read from ⊤).
    pub fn rf(&mut self, w: EventId, r: EventId) -> &mut Self {
        self.rf_edges.push((w, r));
        self
    }

    /// Adds a coherence-order edge between program writes (⊤ is prepended
    /// automatically).
    pub fn co(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.co_edges.push((a, b));
        self
    }

    /// Adds an explicit microarchitectural reads-from edge.
    pub fn rfx(&mut self, w: EventId, r: EventId) -> &mut Self {
        self.rfx_edges.push((w, r));
        self
    }

    /// Adds an explicit microarchitectural coherence edge.
    pub fn cox(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.cox_edges.push((a, b));
        self
    }

    /// Finalizes the execution: closes `po`/`tfo`/`co`/`cox` transitively,
    /// completes missing `rf`/`rfx` sources from ⊤, and seeds `co`/`cox`
    /// with ⊤-before-everything edges.
    pub fn build(self) -> Execution {
        let n = self.events.len();
        let pairs =
            |v: &[(EventId, EventId)]| Relation::from_pairs(n, v.iter().map(|&(a, b)| (a.0, b.0)));
        let po = pairs(&self.po_edges).transitive_closure();
        let tfo = pairs(&self.po_edges)
            .union(&pairs(&self.tfo_edges))
            .transitive_closure();

        let mut rf = pairs(&self.rf_edges);
        for e in &self.events {
            if e.kind.is_arch_read() && rf.predecessors(e.id.0).next().is_none() {
                if let Some(l) = e.location {
                    let init = self.inits[&l];
                    rf.insert(init.0, e.id.0);
                }
            }
        }

        let mut co = pairs(&self.co_edges);
        for e in &self.events {
            if e.kind == EventKind::Write && !e.transient {
                if let Some(l) = e.location {
                    co.insert(self.inits[&l].0, e.id.0);
                }
            }
        }
        let co = co.transitive_closure();

        let mut rfx = pairs(&self.rfx_edges);
        for e in &self.events {
            if e.reads_xstate()
                && e.kind != EventKind::Init
                && rfx.predecessors(e.id.0).next().is_none()
            {
                if let Some(xs) = e.xstate {
                    if let Some(init) = self
                        .events
                        .iter()
                        .find(|c| c.kind == EventKind::Init && c.xstate == Some(xs))
                    {
                        rfx.insert(init.id.0, e.id.0);
                    }
                }
            }
        }

        let mut cox = pairs(&self.cox_edges);
        for e in &self.events {
            if e.writes_xstate() && e.kind != EventKind::Init {
                if let Some(xs) = e.xstate {
                    if let Some(init) = self
                        .events
                        .iter()
                        .find(|c| c.kind == EventKind::Init && c.xstate == Some(xs))
                    {
                        cox.insert(init.id.0, e.id.0);
                    }
                }
            }
        }
        let cox = cox.transitive_closure();

        Execution {
            events: self.events,
            loc_names: self.loc_names,
            po,
            tfo,
            addr: pairs(&self.addr_edges),
            addr_gep: pairs(&self.addr_gep_edges),
            data: pairs(&self.data_edges),
            ctrl: pairs(&self.ctrl_edges),
            rf,
            co,
            rfx,
            cox,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_locations_once() {
        let mut b = ExecutionBuilder::new();
        let r1 = b.read("y");
        let r2 = b.read("y");
        let exec = b.build();
        // one init + two reads
        assert_eq!(exec.len(), 3);
        assert_eq!(exec.event(r1).location(), exec.event(r2).location());
    }

    #[test]
    fn reads_default_to_init_rf() {
        let mut b = ExecutionBuilder::new();
        let r = b.read("y");
        let exec = b.build();
        let init = exec.init_of(exec.event(r).location().unwrap()).unwrap();
        assert!(exec.rf().contains(init.0, r.0));
        assert!(exec.rfx().contains(init.0, r.0));
    }

    #[test]
    fn explicit_rf_suppresses_init_completion() {
        let mut b = ExecutionBuilder::new();
        let w = b.write("x");
        let r = b.read("x");
        b.po(w, r);
        b.rf(w, r);
        b.rfx(w, r);
        let exec = b.build();
        let init = exec.init_of(exec.event(r).location().unwrap()).unwrap();
        assert!(exec.rf().contains(w.0, r.0));
        assert!(!exec.rf().contains(init.0, r.0));
        assert!(exec.well_formed().is_ok());
    }

    #[test]
    fn fr_derivation_matches_paper() {
        // w' -> r (rf), w' -> w (co)  =>  r -> w (fr)
        let mut b = ExecutionBuilder::new();
        let r = b.read("x"); // reads from init
        let w = b.write("x");
        b.po(r, w);
        let exec = b.build();
        assert!(exec.fr().contains(r.0, w.0));
        assert!(exec.com().contains(r.0, w.0));
    }

    #[test]
    fn frx_derivation() {
        let mut b = ExecutionBuilder::new();
        let r = b.read_hit("x"); // rfx from init
        let w = b.write("x"); // cox after init
        b.po(r, w);
        let exec = b.build();
        assert!(exec.frx().contains(r.0, w.0));
    }

    #[test]
    fn po_is_transitively_closed_and_subset_of_tfo() {
        let mut b = ExecutionBuilder::new();
        let a = b.read("p");
        let c = b.read("q");
        let d = b.read("r");
        b.po_chain(&[a, c, d]);
        let exec = b.build();
        assert!(exec.po().contains(a.0, d.0));
        assert!(exec.po().is_subset(exec.tfo()));
    }

    #[test]
    fn transient_events_in_tfo_not_po() {
        let mut b = ExecutionBuilder::new();
        let a = b.read("p");
        let t = b.transient_read("secret");
        b.tfo(a, t);
        let exec = b.build();
        assert!(exec.tfo().contains(a.0, t.0));
        assert!(!exec.po().contains(a.0, t.0));
        assert!(exec.event(t).is_transient());
    }

    #[test]
    fn po_loc_only_same_location_memory() {
        let mut b = ExecutionBuilder::new();
        let a = b.write("x");
        let c = b.read("y");
        let d = b.read("x");
        b.po_chain(&[a, c, d]);
        let exec = b.build();
        let pl = exec.po_loc();
        assert!(pl.contains(a.0, d.0));
        assert!(!pl.contains(a.0, c.0));
    }

    #[test]
    fn rfi_rfe_split_by_thread() {
        let mut b = ExecutionBuilder::new();
        let w = b.write("x");
        b.on_thread(1);
        let r = b.read("x");
        b.rf(w, r);
        let exec = b.build();
        assert!(exec.rfe().contains(w.0, r.0));
        assert!(exec.rfi().is_empty());
    }

    #[test]
    fn co_immediate_strips_transitive_pairs() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.write("x");
        let w2 = b.write("x");
        b.co(w1, w2);
        let exec = b.build();
        let init = exec.init_of(exec.event(w1).location().unwrap()).unwrap();
        let imm = exec.co_immediate();
        assert!(imm.contains(init.0, w1.0));
        assert!(imm.contains(w1.0, w2.0));
        assert!(!imm.contains(init.0, w2.0));
        assert!(exec.co().contains(init.0, w2.0));
    }

    #[test]
    fn well_formed_rejects_double_rf() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.write("x");
        let w2 = b.write("x");
        let r = b.read("x");
        b.rf(w1, r);
        b.rf(w2, r);
        b.co(w1, w2);
        let exec = b.build();
        assert!(exec.well_formed().unwrap_err().contains("rf sources"));
    }

    #[test]
    fn well_formed_rejects_xstate_edges_between_non_accessors() {
        let mut b = ExecutionBuilder::new();
        let f = b.fence();
        let br = b.branch();
        b.rfx(f, br);
        let exec = b.build();
        assert!(exec.well_formed().unwrap_err().contains("xstate writer"));
        assert!(exec.well_formed_strict().is_err());
        // A silent store only reads its line: it can source no rfx and
        // take no part in cox.
        let mut b = ExecutionBuilder::new();
        let w = b.write("x");
        let s = b.silent_write("x");
        let r = b.read_hit("x");
        b.po_chain(&[w, s, r]);
        b.co(w, s);
        b.rfx(s, r);
        assert!(b.build().well_formed().is_err());
        let mut b = ExecutionBuilder::new();
        let w = b.write("x");
        let s = b.silent_write("x");
        b.po(w, s);
        b.co(w, s);
        b.cox(w, s);
        assert!(b.build().well_formed().unwrap_err().contains("cox"));
    }

    #[test]
    fn well_formed_rejects_untotal_co() {
        let mut b = ExecutionBuilder::new();
        let _w1 = b.write("x");
        let _w2 = b.write("x");
        // no co edge between w1 and w2 -> not total
        let exec = b.build();
        assert!(exec.well_formed().unwrap_err().contains("total order"));
    }

    #[test]
    fn observer_reads_from_top_only() {
        let mut b = ExecutionBuilder::new();
        let w = b.write("x");
        let o = b.observe("x");
        b.po(w, o);
        let exec = b.build();
        let init = exec.init_of(exec.event(o).location().unwrap()).unwrap();
        assert!(exec.rf().contains(init.0, o.0));
        assert!(!exec.rf().contains(w.0, o.0));
    }

    #[test]
    fn prefetch_has_no_arch_relations() {
        let mut b = ExecutionBuilder::new();
        let p = b.prefetch("x");
        let exec = b.build();
        assert!(exec.rf().predecessors(p.0).next().is_none());
        assert!(exec.event(p).reads_xstate());
        assert!(exec.rfx().predecessors(p.0).next().is_some());
    }

    #[test]
    fn silent_write_reads_xstate_only() {
        let mut b = ExecutionBuilder::new();
        let w = b.silent_write("x");
        let exec = b.build();
        assert!(exec.event(w).reads_xstate());
        assert!(!exec.event(w).writes_xstate());
        // architecturally still a write: in co after init
        let init = exec.init_of(exec.event(w).location().unwrap()).unwrap();
        assert!(exec.co().contains(init.0, w.0));
    }

    #[test]
    fn set_xstate_merges_cache_lines() {
        let mut b = ExecutionBuilder::new();
        let a = b.read("x");
        let c = b.read("y");
        let xs = b.xstate_of(a).unwrap();
        b.set_xstate(c, xs);
        let exec = b.build();
        assert_eq!(exec.event(a).xstate(), exec.event(c).xstate());
        // c now reads its xstate from x's init line.
        let init_x = exec.init_of(exec.event(a).location().unwrap()).unwrap();
        assert!(exec.rfx().contains(init_x.0, c.0));
    }

    #[test]
    fn events_at_location_and_xstate() {
        let mut b = ExecutionBuilder::new();
        let r1 = b.read("x");
        let r2 = b.read("x");
        let w = b.write("y");
        b.po_chain(&[r1, r2, w]);
        let exec = b.build();
        let loc_x = exec.event(r1).location().unwrap();
        // init + two reads at x
        assert_eq!(exec.events_at(loc_x).count(), 3);
        let xs = exec.event(w).xstate().unwrap();
        assert_eq!(exec.events_at_xstate(xs).count(), 2); // init_y + w
    }

    #[test]
    fn cox_immediate_strips_transitive() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.write("x");
        let w2 = b.write("x");
        b.po(w1, w2);
        b.co(w1, w2);
        b.cox(w1, w2);
        let exec = b.build();
        let init = exec.init_of(exec.event(w1).location().unwrap()).unwrap();
        let imm = exec.cox_immediate();
        assert!(imm.contains(init.0, w1.0));
        assert!(imm.contains(w1.0, w2.0));
        assert!(!imm.contains(init.0, w2.0));
    }

    #[test]
    fn event_display_uses_labels() {
        let mut b = ExecutionBuilder::new();
        let r = b.read("y");
        b.set_label(r, "2: R y (RW s0)");
        let exec = b.build();
        assert_eq!(exec.event(r).to_string(), "2: R y (RW s0)");
        assert!(exec.event(r).to_string().contains("R y"));
    }

    #[test]
    fn location_names_resolve() {
        let mut b = ExecutionBuilder::new();
        let r = b.read("my_loc");
        let exec = b.build();
        assert_eq!(
            exec.location_name(exec.event(r).location().unwrap()),
            "my_loc"
        );
    }

    #[test]
    fn dep_is_union_of_three() {
        let mut b = ExecutionBuilder::new();
        let a = b.read("p");
        let c = b.read("q");
        let d = b.write("r");
        b.po_chain(&[a, c, d]);
        b.addr(a, c).data(c, d).ctrl(a, d);
        let exec = b.build();
        let dep = exec.dep();
        assert!(dep.contains(a.0, c.0));
        assert!(dep.contains(c.0, d.0));
        assert!(dep.contains(a.0, d.0));
        assert_eq!(dep.len(), 3);
    }

    #[test]
    fn to_dot_contains_culprit_dashes() {
        let mut b = ExecutionBuilder::new();
        let r = b.read("y");
        let o = b.observe("y");
        b.po(r, o);
        let exec = b.build();
        let init = exec.init_of(exec.event(o).location().unwrap()).unwrap();
        let dot = exec.to_dot("t", &[(init, o)]);
        assert!(dot.contains("rf (leak)"));
        assert!(dot.contains("style=dashed"));
    }
}
