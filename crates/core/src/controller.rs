//! The SDX controller runtime: route server + compiler + data plane.
//!
//! [`SdxController`] is the deployable object (Figure 3 of the paper): it
//! owns the route server and the compilation pipeline, processes BGP
//! updates and policy changes as events, and keeps a [`Fabric`] in sync —
//! flow table, ARP responder, and every participant border router's FIB.
//!
//! Update handling follows §4.3.2's two-stage scheme: `process_update`
//! runs the fast path and overlays delta rules immediately;
//! `reoptimize` runs the full pipeline (normally "in the background
//! between bursts" — here, whenever the harness calls it) and retires the
//! overlays. Both stages are one [`Change`] through one pair of calls:
//! [`prepare`](SdxController::prepare) stages it in one transaction and
//! plans its waves, [`commit`](SdxController::commit) drives them through
//! [`drive`] and rolls the whole change back on any failure.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdx_bgp::attrs::PathAttributes;
use sdx_bgp::msg::UpdateMessage;
use sdx_bgp::rib::Advert;
use sdx_bgp::route_server::{ExportPolicy, RouteServer, RouteServerEvent};
use sdx_net::{Ipv4Addr, ParticipantId, PortId, Prefix, Write};
use sdx_openflow::border_router::BorderRouter;
use sdx_openflow::fabric::Fabric;
use sdx_openflow::flowmod::{BatchStats, FlowModBatch};
use sdx_policy::{Policy, PolicyDelta, PolicyOp};
use sdx_telemetry::{Event, SharedRegistry};

use crate::compiler::{CompileReport, SdxCompiler};
use crate::error::SdxError;
use crate::faults::{FaultPlan, InjectionPoint};
use crate::fec::{FecGroup, FecId};
use crate::incremental::DeltaResult;
use crate::participant::ParticipantConfig;
use crate::piece::VnhMap;
use crate::schedule::{drive, ScheduleOpts, ScheduleReport, UpdatePlan, WaveChecker, Waves};
use crate::txn::{FabricTxn, Taken, UndoLog};
use crate::vnh::VnhAllocator;

/// Priority floor for delta overlays; the reconciled base table lives in
/// the band below this (see [`crate::reconcile`]). Successive overlays
/// stack monotonically above it (delta rules are mutually disjoint — each
/// carries a fresh VMAC — so only "above the base table" matters for
/// correctness; the monotonic cursor just keeps the bands tidy at any
/// overlay size).
pub(crate) use crate::reconcile::DELTA_BASE;

/// A duration as journal-friendly nanoseconds (saturating).
fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The assembled SDX controller.
#[derive(Debug)]
pub struct SdxController {
    /// The policy compiler and participant book.
    pub compiler: SdxCompiler,
    /// The embedded route server.
    pub rs: RouteServer,
    /// The VNH/VMAC allocator.
    pub vnh: VnhAllocator,
    /// The last full compilation, if any.
    pub report: Option<CompileReport>,
    /// The fault-injection plan every commit crosses: a torn stage and
    /// each wave (see [`crate::faults`]). Disabled by default; test
    /// harnesses arm it to exercise rollback.
    pub faults: FaultPlan,
    /// The telemetry sink the whole stack shares: stage timers, counters,
    /// and the lifecycle event journal. The compiler and the deployed
    /// fabric emit into the same registry.
    pub telemetry: SharedRegistry,
    /// Monotone commit epoch: every flow-mod batch this controller emits
    /// (fast-path overlay or reconciliation patch) is stamped with a
    /// fresh epoch, so the journal orders data-plane generations. Never
    /// rolled back — an aborted commit leaves a gap, which is exactly the
    /// audit trail wanted.
    pub(crate) epoch: u64,
    /// Monotone counter of delta overlays currently installed.
    pub(crate) delta_layers: u32,
    /// Next free priority for an overlay (monotonic; reset on reoptimize).
    pub(crate) next_delta_priority: u32,
    /// FEC ids allocated by fast-path deltas since the last reoptimize —
    /// recycled (with the previous report's group ids) once background
    /// re-optimization replaces every rule and FIB entry that used them.
    pub(crate) live_delta_ids: Vec<FecId>,
}

impl Default for SdxController {
    fn default() -> Self {
        Self::new()
    }
}

impl SdxController {
    /// An empty controller with a fresh telemetry registry.
    pub fn new() -> Self {
        Self::with_telemetry(SharedRegistry::new())
    }

    /// An empty controller emitting into `telemetry` (shared into the
    /// compiler here, and into any fabric built by
    /// [`deploy`](Self::deploy)).
    pub fn with_telemetry(telemetry: SharedRegistry) -> Self {
        let mut compiler = SdxCompiler::new();
        compiler.set_telemetry(telemetry.clone());
        let mut rs = RouteServer::new();
        rs.set_telemetry(telemetry.clone());
        SdxController {
            compiler,
            rs,
            vnh: VnhAllocator::default(),
            report: None,
            faults: FaultPlan::disabled(),
            telemetry,
            epoch: 0,
            delta_layers: 0,
            next_delta_priority: DELTA_BASE,
            live_delta_ids: Vec::new(),
        }
    }

    /// Journals a pipeline failure: the injected fault (if that's what
    /// fired) and the rollback that followed.
    fn note_failure(&self, stage: &str, e: &SdxError) {
        if let SdxError::Injected(point) = e {
            self.telemetry.record_event(Event::FaultInjected {
                point: point.to_string(),
            });
        }
        self.telemetry.record_event(Event::TxnRolledBack {
            stage: stage.to_string(),
            error: e.to_string(),
        });
        self.telemetry.inc("txn.rollback.count");
    }

    /// Settles a transaction body's `result`: a failure is journaled and
    /// `txn` rolled back, restoring the pre-call state; a success closes
    /// the allocator's journal and drops (commits) `txn`.
    fn settle<T>(
        &mut self,
        stage: &str,
        fabric: &mut Fabric,
        txn: FabricTxn,
        result: Result<T, SdxError>,
    ) -> Result<T, SdxError> {
        let reg = self.telemetry.clone();
        reg.observe("txn.undo.entries", txn.undo_entries() as u64);
        match &result {
            Ok(_) => self.vnh.close_journal(),
            Err(e) => {
                self.note_failure(stage, e);
                reg.time("txn.rollback", || txn.rollback(self, fabric));
            }
        }
        result
    }

    /// Registers a participant with the compiler and the route server.
    pub fn add_participant(&mut self, cfg: ParticipantConfig, export: ExportPolicy) {
        self.rs.add_peer(cfg.route_source(), export);
        self.compiler.upsert_participant(cfg);
    }

    /// Installs (or clears) a participant's outbound policy. The change
    /// takes effect at the next [`reoptimize`](Self::reoptimize).
    pub fn set_outbound(&mut self, id: ParticipantId, policy: Option<Policy>) {
        self.compiler.set_outbound(id, policy);
    }

    /// Installs (or clears) a participant's inbound policy.
    pub fn set_inbound(&mut self, id: ParticipantId, policy: Option<Policy>) {
        self.compiler.set_inbound(id, policy);
    }

    /// Validates and stages a [`PolicyDelta`]. Every operation is checked
    /// first: against the participant book (unknown participants and
    /// unresolvable ports are rejected as typed
    /// [`SdxError::PolicyRejected`]), and against the §4.1
    /// transformations, which must accept every policy the delta leaves in
    /// force ([`SdxError::Transform`] otherwise — the same error the next
    /// compile would have hit). A rejected delta leaves the book and the
    /// versions untouched. An accepted one mutates the book with
    /// per-participant version bumps — so the next compile rebuilds only
    /// the touched viewers' signature maps — and its policies are compiled
    /// here, once. Nothing else recompiles here; follow with
    /// [`reoptimize`](Self::reoptimize) or [`prepare`](Self::prepare)
    /// ([`apply_policy_delta`](Self::apply_policy_delta) is the former in
    /// one call).
    pub fn stage_policy_delta(&mut self, delta: &PolicyDelta) -> Result<(), SdxError> {
        self.compiler.stage_delta(delta)?;
        let retracted = (delta.ops.iter())
            .filter(|op| op.op == PolicyOp::Retract)
            .count();
        let applied = delta.ops.len() - retracted;
        self.telemetry.add("policy.applied.count", applied as u64);
        self.telemetry
            .add("policy.retracted.count", retracted as u64);
        self.telemetry.record_event(Event::Custom {
            name: "policy.delta".to_string(),
            detail: format!(
                "{} op(s) staged ({applied} applied, {retracted} retracted)",
                delta.ops.len(),
            ),
        });
        Ok(())
    }

    /// Applies a [`PolicyDelta`] end to end: stage, then
    /// [`reoptimize`](Self::reoptimize). The policy change flows through
    /// the same incremental machinery as a route update — only the
    /// touched viewers' signature maps are rebuilt, untouched FECs keep their
    /// keyed VNH identity, and the data plane is patched by
    /// [`diff_base_table`](crate::reconcile::diff_base_table) rather than
    /// swapped.
    pub fn apply_policy_delta(
        &mut self,
        delta: &PolicyDelta,
        fabric: &mut Fabric,
    ) -> Result<&CompileReport, SdxError> {
        self.stage_policy_delta(delta)?;
        self.reoptimize(fabric)
    }

    /// Deregisters a participant: the route server forgets it (routes
    /// flushed, no longer a viewer), its policies are dropped, and the
    /// re-optimization run here removes every rule referencing it, stops
    /// advertising to it and withdraws its routers' routes. Returns
    /// `Ok(false)` if the participant was unknown.
    ///
    /// An `Err` is that re-optimization failing: the participant is gone
    /// from the book and the route server, but the fabric rolled back and
    /// still holds rules forwarding to it until a later
    /// [`reoptimize`](Self::reoptimize) succeeds.
    pub fn remove_participant(
        &mut self,
        id: ParticipantId,
        fabric: &mut Fabric,
    ) -> Result<bool, SdxError> {
        if self.compiler.participant(id).is_none() {
            return Ok(false);
        }
        self.rs.remove_peer(id);
        self.compiler.remove_participant(id);
        self.compiler.clear_global_policies(id);
        // Re-optimize so no rule forwards toward the vanished participant.
        self.reoptimize(fabric)?;
        Ok(true)
    }

    /// Processes one BGP update through the route server and the fast
    /// path ([`apply_changed_prefixes`](Self::apply_changed_prefixes)):
    /// delta overlay rules, ARP bindings and FIB re-advertisements.
    ///
    /// All or nothing, like every update: on any failure (policy
    /// transformation, VNH exhaustion, validation, an injected fault, a
    /// refused overlay wave) the installed fabric and the
    /// controller's bookkeeping roll back to the pre-call state, and the
    /// typed error is returned. The route server's RIB keeps the update —
    /// BGP knowledge is never discarded — so a later
    /// [`reoptimize`](Self::reoptimize) converges the data plane.
    pub fn process_update(
        &mut self,
        from: ParticipantId,
        update: &UpdateMessage,
        fabric: &mut Fabric,
    ) -> Result<DeltaResult, SdxError> {
        let events = self.rs.process_update(from, update);
        let changed: Vec<Prefix> = events
            .into_iter()
            .filter_map(|e| match e {
                RouteServerEvent::PrefixChanged(p) => Some(p),
                RouteServerEvent::SessionReset(_) => None,
            })
            .collect();
        self.telemetry.inc("controller.update.count");
        self.telemetry.record_event(Event::UpdateReceived {
            from: from.0,
            prefixes: changed.len(),
        });
        self.apply_changed_prefixes(&changed, fabric)
    }

    /// Runs the fast path for prefixes whose routes already changed in the
    /// route server (e.g. replayed withdrawals after a supervised session
    /// reset): [`prepare`](Self::prepare) with [`Change::Burst`], then
    /// [`commit`](Self::commit) with no hook — all or nothing, exactly
    /// like [`process_update`](Self::process_update).
    pub fn apply_changed_prefixes(
        &mut self,
        changed: &[Prefix],
        fabric: &mut Fabric,
    ) -> Result<DeltaResult, SdxError> {
        let mut prepared = self.prepare(fabric, Change::Burst(changed))?;
        let delta = prepared.delta.take().unwrap_or_default();
        self.commit(fabric, prepared, None)?;
        Ok(delta)
    }

    /// Installs a fast-path delta on the fabric: the burst's stage — ARP
    /// bindings, re-advertisements, the overlay batch built — and the
    /// overlay batch applied, with no transaction around them.
    ///
    /// Direct callers get no rollback — the transactional entry points
    /// ([`process_update`](Self::process_update),
    /// [`apply_changed_prefixes`](Self::apply_changed_prefixes)) are what
    /// non-test code should use.
    pub fn apply_delta(
        &mut self,
        delta: &DeltaResult,
        fabric: &mut Fabric,
    ) -> Result<(), SdxError> {
        let overlay = self.stage_delta(delta, fabric, &mut UndoLog::discarding())?;
        if !overlay.is_empty() {
            let reg = self.telemetry.clone();
            let applied = reg.time("flowtable.apply", || fabric.apply_flowmods(&overlay));
            let stats = applied.map_err(|e| {
                SdxError::InvalidCommit(format!("fast-path flow-mod batch rejected: {e}"))
            })?;
            self.journal_batch(overlay.epoch, stats);
        }
        Ok(())
    }

    /// The fast path's stage: computes and validates the burst's delta,
    /// then stages it through `log` ([`stage_delta`](Self::stage_delta)).
    fn stage_burst(
        &mut self,
        changed: &[Prefix],
        fabric: &mut Fabric,
        log: &mut UndoLog,
    ) -> Result<(FlowModBatch, DeltaResult), SdxError> {
        let reg = self.telemetry.clone();
        let delta = reg.time("fastpath.delta", || {
            self.compiler
                .fast_update_burst(&self.rs, &mut self.vnh, changed)
        })?;
        reg.time("txn.validate", || crate::txn::validate_delta(&delta))?;
        let overlay = reg.time("fastpath.apply", || self.stage_delta(&delta, fabric, log))?;
        Ok((overlay, delta))
    }

    /// Stages a fast-path delta's control plane through `log` — its ARP
    /// bindings, then the re-advertisement of its prefixes — and returns
    /// its overlay: one epoch-tagged, cookie-stamped batch of `Add`s above
    /// every standing overlay, built but not applied. The control plane
    /// goes first, as a recompile's does (add-before-reference): when the
    /// overlay lands, everything it serves is already in place.
    fn stage_delta(
        &mut self,
        delta: &DeltaResult,
        fabric: &mut Fabric,
        log: &mut UndoLog,
    ) -> Result<FlowModBatch, SdxError> {
        for &(vnh, vmac) in &delta.arp_bindings {
            log.bind_arp(fabric, vnh, vmac);
            if let Some(id) = vmac.fec_id() {
                self.live_delta_ids.push(FecId(id));
            }
        }
        // Mid-stage fault point: the bindings are in but the FIBs are not
        // re-advertised — a firing here leaves the fabric torn unless the
        // enclosing transaction rolls back.
        self.faults.check(InjectionPoint::FabricCommit)?;
        // Last entry wins, as one UPDATE per entry would have it.
        let vnh: BTreeMap<(ParticipantId, Prefix), Option<Ipv4Addr>> = delta
            .vnh_updates
            .iter()
            .map(|&(viewer, prefix, vnh)| ((viewer, prefix), vnh))
            .collect();
        let prefixes: BTreeSet<Prefix> = delta.prefixes.iter().copied().collect();
        let pairs = vnh
            .into_iter()
            .map(|((viewer, prefix), vnh)| (viewer, prefix, vnh));
        let rs = &self.rs;
        let sync = self.telemetry.time("fibsync", || {
            Self::readvertise(rs, fabric, log, &prefixes, pairs.collect())
        });
        self.count_sync(sync);
        if delta.rules.is_empty() {
            return Ok(FlowModBatch::new(self.epoch));
        }
        self.delta_layers += 1;
        let overlay = crate::incremental::delta_classifier(delta.rules.clone());
        // Install only the real rules; the overlay's synthetic catch-all
        // would blackhole the base table.
        let n = overlay.rules().len() as u32;
        let base = self.next_delta_priority;
        self.next_delta_priority = base.saturating_add(n + 1);
        self.epoch += 1;
        let mut batch = FlowModBatch::new(self.epoch);
        for (i, r) in overlay.rules().iter().enumerate() {
            if r.matches.is_wildcard() && r.is_drop() {
                continue;
            }
            batch.push(sdx_openflow::FlowMod::Add(
                sdx_openflow::table::FlowEntry::new(
                    base + n - i as u32,
                    r.matches,
                    r.actions.iter().map(|a| a.mods.clone()).collect(),
                )
                .with_cookie(crate::reconcile::cookie_of(&r.matches)),
            ));
        }
        Ok(batch)
    }

    /// Journals a flow-mod batch that landed.
    fn journal_batch(&self, epoch: u64, stats: BatchStats) {
        self.telemetry.record_event(Event::FlowModBatchApplied {
            epoch,
            adds: stats.adds,
            modifies: stats.modifies,
            deletes: stats.deletes,
        });
    }

    /// Runs the full (background) pipeline and patches the fabric:
    /// [`prepare`](Self::prepare) with an atomic [`Change::Recompile`],
    /// then [`commit`](Self::commit) with no hook — the base table patched
    /// by one atomic flow-mod batch, fresh ARP bindings, FIB re-sync,
    /// overlays retired.
    ///
    /// All or nothing: any failure (compilation, validation, an injected
    /// fault, a refused patch wave) rolls the fabric and the
    /// controller bookkeeping back to the pre-call state byte-for-byte,
    /// returning the typed error.
    ///
    /// VNH recycling: the previous compilation's group ids and every
    /// fast-path delta id are released back to the pool here — by the end
    /// of this call no switch rule, FIB entry, or ARP binding references
    /// them (the table is patched, the FIBs are reconciled to the new VNH
    /// map, and the retired addresses are unbound from the responder
    /// every router resolves through), so a long-lived controller never
    /// exhausts the pool under sustained churn.
    pub fn reoptimize(&mut self, fabric: &mut Fabric) -> Result<&CompileReport, SdxError> {
        let prepared = self.prepare(fabric, Change::Recompile(Waves::Atomic))?;
        self.commit(fabric, prepared, None)?;
        self.report
            .as_ref()
            // Unreachable by construction: staging always sets the report.
            .ok_or_else(|| SdxError::InvalidCommit("reoptimize committed without a report".into()))
    }

    /// The first half of every update, both of §4.3.2's stages: stages
    /// `change` in one transaction and plans its data-plane half, applying
    /// none of it. A [`Change::Burst`] runs the fast path — delta,
    /// validation, ARP bindings, re-advertisements — and plans its overlay
    /// as one atomic wave; a [`Change::Recompile`] compiles, validates,
    /// retires the overlays, diffs and flips the control plane, and plans
    /// the patch its [`Waves`]' way. The returned update holds the
    /// still-open transaction; hand it to [`commit`](Self::commit), which
    /// lands it or rolls it all back. A failure here is rolled back before
    /// it is returned.
    pub fn prepare(
        &mut self,
        fabric: &mut Fabric,
        change: Change<'_>,
    ) -> Result<PreparedUpdate, SdxError> {
        let t0 = Instant::now();
        let timer = change.timer();
        let reg = self.telemetry.clone();
        let mut txn = reg.time("txn.begin", || FabricTxn::begin(self, fabric));
        let staged = match change {
            Change::Burst(changed) => {
                self.stage_burst(changed, fabric, &mut txn.log)
                    .map(|(overlay, delta)| {
                        let rules = delta.additional_rules();
                        (Waves::Atomic, overlay, Close::Burst { rules }, Some(delta))
                    })
            }
            Change::Recompile(waves) => self
                .stage(fabric, &mut txn)
                .map(|(patch, retire)| (waves, patch, Close::Recompile(retire), None)),
        };
        match staged {
            Ok((waves, batch, close, delta)) => Ok(PreparedUpdate {
                plan: waves.plan(fabric.switch.table(), batch),
                delta,
                txn,
                close,
                timer,
                t0,
            }),
            Err(e) => {
                reg.observe_duration(timer, t0.elapsed());
                self.settle("prepare", fabric, txn, Err(e))
            }
        }
    }

    /// The second half: drives the prepared waves through `fabric`
    /// ([`drive`], default [`ScheduleOpts`]), calling `hook` after each
    /// one lands, then closes the change — a burst journals its overlay, a
    /// recompile retires the stale ARP/VNH state — and journals the
    /// completion. The change's stage timer (`fastpath.total` or
    /// `reoptimize.total`) is observed once, from the start of
    /// [`prepare`](Self::prepare), either way.
    ///
    /// All or nothing: a failed wave (injected, refused by the hook or
    /// rejected by the switch) rewinds every landed wave and rolls the held
    /// transaction back, so this controller and `fabric` are exactly as
    /// they were before `prepare`. A hook's error is returned as the hook
    /// gave it.
    pub fn commit(
        &mut self,
        fabric: &mut Fabric,
        prepared: PreparedUpdate,
        hook: Option<&mut WaveHook<'_>>,
    ) -> Result<ScheduleReport, SdxError> {
        let PreparedUpdate {
            plan,
            txn,
            close,
            timer,
            t0,
            ..
        } = prepared;
        let reg = self.telemetry.clone();
        // The hook reads this controller while the driver advances the
        // fault plan: drive with the plan taken out.
        let mut faults = std::mem::take(&mut self.faults);
        let mut refusal = None;
        let outcome = {
            let (ctl, waves, refused) = (&*self, &plan.waves, &mut refusal);
            let mut check = hook.map(|hook| {
                move |f: &Fabric, i: usize| {
                    hook(ctl, f, i, &waves[i]).map_err(|e| {
                        let why = e.to_string();
                        *refused = Some(e);
                        why
                    })
                }
            });
            let check = check.as_mut().map(|c| c as &mut WaveChecker<'_>);
            drive(
                &plan,
                fabric,
                &mut faults,
                &reg,
                &ScheduleOpts::default(),
                check,
            )
        };
        self.faults = faults;
        let outcome = outcome.map_err(|e| refusal.unwrap_or(e));
        let result = self.settle("commit", fabric, txn, outcome);
        if result.is_ok() {
            match close {
                Close::Burst { rules } => {
                    if let Some(overlay) = plan.waves.first() {
                        self.journal_batch(overlay.epoch, overlay.stats());
                    }
                    reg.record_event(Event::DeltaApplied {
                        rules,
                        latency_ns: nanos(t0.elapsed()),
                    });
                    reg.set_gauge("controller.delta_layers", i64::from(self.delta_layers));
                }
                Close::Recompile(retire) => self.retire(fabric, retire, t0.elapsed()),
            }
        }
        reg.observe_duration(timer, t0.elapsed());
        result
    }

    /// The one recompile every update runs: releases the fast-path ids,
    /// compiles, validates, retires the overlays from the local table,
    /// diffs the base table against the new classifier, and flips the
    /// control plane (ARP, report, FIBs) to the new configuration. The
    /// returned patch is **not yet applied**; [`retire`](Self::retire)
    /// cleans up after it has landed.
    ///
    /// Ordering is add-before-reference at the system level: ARP bindings
    /// for the new report are installed *alongside* the old ones (nothing
    /// is unbound yet) and the FIBs are synchronized to the new VNH map
    /// *before* any flow-mod lands, so every intermediate table a caller
    /// produces while applying the patch is evaluated under one coherent
    /// control plane.
    ///
    /// Not transactional by itself: every write goes through `txn`, and
    /// callers roll that back on `Err`.
    fn stage(
        &mut self,
        fabric: &mut Fabric,
        txn: &mut FabricTxn,
    ) -> Result<(FlowModBatch, Retire), SdxError> {
        let reg = self.telemetry.clone();
        let log = &mut txn.log;
        let overlays = self.delta_layers;
        // The old report and the fast-path ids move into the transaction:
        // a rollback moves them back, and the reconciliation below reads
        // the old VNH map and groups from there without a deep copy.
        let taken = txn.taken.insert(Taken {
            report: self.report.take(),
            delta_ids: std::mem::take(&mut self.live_delta_ids),
        });
        // Fast-path delta ids are keyless allocations: release them
        // *before* compiling so a pool exhausted by fast-path churn can
        // recover here. Safe under the transaction: a rollback restores
        // the allocator, and the overlay rules referencing them are
        // removed below. Keyed ids stay mapped through the compile — that
        // is exactly what keeps unchanged FEC groups on their previous
        // VNH/VMAC.
        for &id in &taken.delta_ids {
            self.vnh.release(id);
        }
        let old_report = taken.report.as_ref();
        let report = self.compiler.compile_all(&self.rs, &mut self.vnh)?;
        reg.time("txn.validate", || crate::txn::validate_report(&report))?;
        // Overlay retirement is the one table mutation made outside the
        // flow-mod protocol (so it is in no logged batch — whoever mirrors
        // this table elsewhere must retire there too): it happens before
        // the diff, so the patch is computed against, and any waves are
        // planned and verified from, the overlay-free base table. The diff
        // against the keyed-identity recompile touches only the rules
        // whose pattern, buckets, or cookie changed.
        log.retire_overlays(fabric, DELTA_BASE);
        self.epoch += 1;
        let diff = reg.time("reconcile.diff", || {
            crate::reconcile::diff_base_table(fabric.switch.table(), &report.classifier, self.epoch)
        });
        reg.add("reconcile.unchanged.count", diff.unchanged as u64);
        if diff.rebased {
            reg.inc("reconcile.rebase.count");
        }
        self.delta_layers = 0;
        self.next_delta_priority = DELTA_BASE;
        // Mid-commit fault point: the overlays are gone but ARP and FIBs
        // are not yet synchronized — the torn state a firing here produces
        // must be rolled back by the enclosing transaction.
        self.faults.check(InjectionPoint::FabricCommit)?;
        // Control-plane flip, new bindings first: the old VMACs stay
        // resolvable until the patch has retired their rules.
        for cfg in self.compiler.participants().values() {
            for port in &cfg.ports {
                log.bind_arp(fabric, port.addr, port.mac);
            }
        }
        // Everything from here on visits only the viewers whose groups
        // moved: a viewer holding the very piece the old report holds has
        // its bindings in place, its ids live and its advertisements
        // current — unless this fabric's table never advertised to it (a
        // fabric deployed after the old report was compiled): its
        // bindings are made here.
        let adverts = fabric.adj_rib_outs();
        let moved = moved_viewers(old_report, &report, |v| !adverts.is_subscribed(v));
        for g in moved.iter().flat_map(|&(_, new)| new) {
            log.bind_arp(fabric, g.vnh, g.vmac);
        }
        // Keyed identity keeps surviving groups on their exact VNH, so
        // only ids whose key vanished actually retire — and a fast-path id
        // only if the compile did not draw it again. An id is unique among
        // the live ones, so one that a moved viewer or the fast path gave
        // up can only have been taken by a moved viewer.
        let new_ids: BTreeSet<FecId> = (moved.iter().flat_map(|&(_, new)| new))
            .map(|g| g.id)
            .collect();
        let stale_ids: Vec<FecId> = (moved.iter().flat_map(|&(old, _)| old))
            .map(|g| g.id)
            .filter(|id| !new_ids.contains(id))
            .collect();
        let retired_addrs: Vec<Ipv4Addr> = (taken.delta_ids.iter().chain(&stale_ids))
            .filter(|id| !new_ids.contains(id))
            .map(|&id| self.vnh.vnh_of(id))
            .collect();
        self.report = Some(report);
        reg.time("fibsync", || self.sync_fibs(fabric, old_report, log));
        let retire = Retire {
            patched: diff.batch.stats(),
            overlays,
            stale_ids,
            retired_addrs,
        };
        Ok((diff.batch, retire))
    }

    /// Closes an update whose patch has fully landed: the data plane is
    /// on the new rules, so retire what nothing references any more and
    /// journal the completion.
    fn retire(&mut self, fabric: &mut Fabric, retire: Retire, latency: Duration) {
        let reg = self.telemetry.clone();
        self.journal_batch(self.epoch, retire.patched);
        // Unbind the retired addresses from the responder: routers resolve
        // every packet through it, so a retired VNH stops resolving at
        // once, and every surviving binding is untouched.
        for addr in &retire.retired_addrs {
            fabric.arp.unbind(*addr);
        }
        // Stale keyed ids release only now: through the compile they were
        // still mapped, which is what kept live keys off their slots.
        for id in retire.stale_ids {
            self.vnh.release(id);
        }
        if retire.overlays > 0 {
            reg.record_event(Event::OverlaysRetired {
                layers: retire.overlays,
            });
        }
        reg.set_gauge("controller.delta_layers", 0);
        if let Some(r) = self.report.as_ref() {
            reg.record_event(Event::ReoptimizeCompleted {
                rules: r.stats.rule_count,
                groups: r.stats.group_count,
                latency_ns: nanos(latency),
            });
            reg.set_gauge("fabric.rules", r.stats.rule_count as i64);
        }
    }

    /// Re-advertises `prefixes`: for each, the route server's decision is
    /// taken **once** — the top-ranked route becomes the base every viewer
    /// without a slot of its own is advertised, under the route's own next
    /// hop — and then only the viewers that can differ are looked at one
    /// by one: those the top route is withheld from (they fall through to
    /// the best route they are exported, or to none), those holding a slot
    /// at the prefix already, and the `(viewer, prefix, vnh)` entries of
    /// `pairs` (pairs whose virtual next hop changed; their prefix need not
    /// be among `prefixes`). A pair is advertised under the virtual next
    /// hop one of its entries in `pairs` names, else under the route's own.
    ///
    /// Every write is one walk of the fabric's Adj-RIB-Outs, which are
    /// also its routers' FIBs: every router of a viewer ends where one
    /// UPDATE per moved advertisement would have left it.
    fn readvertise(
        rs: &RouteServer,
        fabric: &mut Fabric,
        log: &mut UndoLog,
        prefixes: &BTreeSet<Prefix>,
        mut pairs: Vec<(ParticipantId, Prefix, Option<Ipv4Addr>)>,
    ) -> FibSync {
        type Want<'a> = (&'a Arc<PathAttributes>, Ipv4Addr);
        let same = |have: &Advert, &(route, next_hop): &Want| have.is(route, next_hop);
        let build = |&(route, next_hop): &Want| Advert {
            route: Arc::clone(route),
            next_hop,
        };
        let adverts = fabric.adj_rib_outs_mut();
        let mut sync = FibSync::default();
        for &prefix in prefixes {
            sync.examined += 1;
            let top = rs.top_route(prefix);
            let route = top.map(|top| (&top.attrs, top.attrs.next_hop));
            let undo = log.advert_undo(adverts);
            if adverts.write_base(prefix, route, same, |want| build(&want), undo) {
                sync.sent += 1;
            }
            let withheld = top.map_or(Vec::new(), |top| rs.withheld_from(top, prefix));
            pairs.extend(withheld.into_iter().map(|viewer| (viewer, prefix, None)));
            pairs.extend(adverts.holders(prefix).map(|viewer| (viewer, prefix, None)));
        }
        pairs.sort_unstable();
        pairs.dedup_by(|later, kept| {
            let same_pair = (later.0, later.1) == (kept.0, kept.1);
            if same_pair {
                kept.2 = kept.2.or(later.2);
            }
            same_pair
        });
        sync.examined += pairs.len();
        for (viewer, prefix, vnh) in pairs {
            let route = rs.best_for(viewer, prefix).map(|best| {
                let next_hop = vnh.unwrap_or(best.attrs.next_hop);
                (&best.attrs, next_hop)
            });
            let undo = log.advert_undo(adverts);
            sync.sent += adverts.write_slots(&[viewer], prefix, route, same, build, undo);
        }
        sync
    }

    /// Brings `fabric`'s Adj-RIB-Outs, which are its border routers' FIBs,
    /// to the best routes under the current report's VNH map — the
    /// initial convergence / post-reoptimization sync, sent as the
    /// minimal BGP diff (including withdrawals of prefixes that vanished
    /// from the Loc-RIB), exactly like a real route-server session.
    ///
    /// `since` is the report the Adj-RIB-Outs were last synchronized to.
    /// Given one, the synchronization is *incremental*: under keyed VNH
    /// identity a FEC group that is in both reports under the same id has
    /// the same viewer, prefixes and VNH, so the only advertisements that
    /// can have moved are those of the route server's dirty prefixes (best
    /// route changed: the base is re-decided and the prefix's exceptions
    /// re-examined) and the members of the groups that are in one report
    /// only — exactly those are examined, never the exchange. With `None`,
    /// or when a viewer is advertised to for the first time, every prefix
    /// of the Loc-RIB and of the Adj-RIB-Outs is, and every pair in the
    /// report's VNH map.
    ///
    /// This is where the route server's dirty set is drained, after the
    /// compile read it; `log` keeps the drained set, so a rollback puts it
    /// back.
    fn sync_fibs(
        &mut self,
        fabric: &mut Fabric,
        since: Option<&CompileReport>,
        log: &mut UndoLog,
    ) -> FibSync {
        let dirty = self.rs.take_dirty_prefixes();
        let joined = self.sync_viewers(fabric, log);
        let report = self.report.as_ref();
        let empty = VnhMap::default();
        let vnh_of = report.map_or(&empty, |r| &r.vnh_of);
        let all: BTreeSet<Prefix>;
        let (prefixes, pairs) = match (since, report) {
            (Some(old), Some(new)) if !joined => {
                // The members of a group only `new` has are advertised its
                // VNH; those of a group only `old` has, whatever `new`
                // gives them — a group of `new`'s, listed too, or none.
                let (stale, fresh) = moved_groups(old, new);
                let mut pairs: Vec<(ParticipantId, Prefix, Option<Ipv4Addr>)> = Vec::new();
                for (groups, current) in [(stale, false), (fresh, true)] {
                    for g in groups {
                        let vnh = current.then_some(g.vnh);
                        pairs.extend(g.prefixes.iter().map(|&p| (g.viewer, p, vnh)));
                    }
                }
                // A fast-path pass since `old` may have taken a dirty
                // prefix's VNH away from a viewer whose group the
                // recompile then kept: ask the map, for the viewers that
                // have groups at all.
                let tagged = new.groups.iter().filter(|(_, groups)| !groups.is_empty());
                for (&viewer, _) in tagged {
                    let held = dirty
                        .iter()
                        .filter_map(|&p| Some((viewer, p, Some(*vnh_of.get(&(viewer, p))?))));
                    pairs.extend(held);
                }
                (&dirty, pairs)
            }
            _ => {
                all = self
                    .rs
                    .all_prefixes()
                    .into_iter()
                    .chain(fabric.adj_rib_outs().prefixes())
                    .collect();
                let pairs = vnh_of
                    .iter()
                    .map(|((viewer, p), vnh)| (viewer, p, Some(vnh)));
                (&all, pairs.collect())
            }
        };
        let sync = Self::readvertise(&self.rs, fabric, log, prefixes, pairs);
        log.drained(dirty);
        self.count_sync(sync);
        let (reg, stored) = (&self.telemetry, fabric.adj_rib_outs().stored());
        reg.add(
            "fibsync.skipped.count",
            stored.saturating_sub(sync.examined) as u64,
        );
        reg.set_gauge("ribout.stored.entries", stored as i64);
        sync
    }

    /// Counts a re-advertisement's pairs examined and sent.
    fn count_sync(&self, sync: FibSync) {
        self.telemetry
            .add("fibsync.examined.count", sync.examined as u64);
        self.telemetry.add("fibsync.sent.count", sync.sent as u64);
    }

    /// Makes the route server's participants the viewers of the fabric's
    /// Adj-RIB-Outs: a new participant starts seeing the bases, one that
    /// is gone stops and loses its slots (its routers' routes are
    /// withdrawn). Returns whether anyone was added.
    fn sync_viewers(&mut self, fabric: &mut Fabric, log: &mut UndoLog) -> bool {
        let adverts = fabric.adj_rib_outs();
        let gone: Vec<ParticipantId> = (adverts.subscribers())
            .filter(|&viewer| self.rs.adj_rib_in(viewer).is_none())
            .collect();
        let writes: Vec<_> = gone.into_iter().flat_map(|v| adverts.forget(v)).collect();
        let joined: Vec<_> = (self.rs.participants())
            .filter(|&viewer| !adverts.is_subscribed(viewer))
            .map(|viewer| Write::Subscription {
                viewer,
                subscribed: true,
            })
            .collect();
        let any_joined = !joined.is_empty();
        for write in writes.into_iter().chain(joined) {
            log.write_advert(fabric, write);
        }
        any_joined
    }

    /// Builds a fabric with one border router per participant port,
    /// compiles, and fully syncs — the one-call deployment used by the
    /// examples and the deployment experiments. A controller that
    /// deployed before syncs the new fabric in full too: its table has
    /// advertised to no one yet.
    pub fn deploy(&mut self) -> Result<Fabric, SdxError> {
        let mut fabric = Fabric::new();
        fabric.set_telemetry(self.telemetry.clone());
        for cfg in self.compiler.participants().values() {
            for p in &cfg.ports {
                fabric.attach(BorderRouter::new(PortId::Phys(cfg.id, p.index), p.mac));
            }
        }
        self.reoptimize(&mut fabric)?;
        Ok(fabric)
    }

    /// Current number of installed delta layers (0 right after
    /// re-optimization).
    pub fn delta_layers(&self) -> u32 {
        self.delta_layers
    }

    /// The wide-area server load-balancing application (§3.1, Figure 4b):
    /// a *remote* participant `owner` has announced the `anycast` prefix
    /// and asks the SDX to rewrite the destination of matching request
    /// traffic per source block. The SDX verifies ownership (the paper
    /// would check the RPKI; we check the route server actually heard
    /// `owner` originate the prefix), installs the rewrite as a global
    /// policy fragment, and re-optimizes.
    pub fn install_wide_area_lb(
        &mut self,
        owner: ParticipantId,
        anycast: Prefix,
        mappings: &[(Prefix, Ipv4Addr)],
        fabric: &mut Fabric,
    ) -> Result<(), LbError> {
        let owns = self
            .rs
            .adj_rib_in(owner)
            .is_some_and(|rib| rib.get(anycast).is_some());
        if !owns {
            return Err(LbError::NotOwner(owner, anycast));
        }
        // Mappings apply first-match (the natural way to write "these
        // clients there, everyone else here"), so each clause carries the
        // negation of every earlier source filter — keeping the compiled
        // policy disjoint and unicast.
        let mut rewrite = sdx_policy::Policy::drop();
        let mut not_earlier = sdx_policy::Pred::Any;
        for &(src, instance) in mappings {
            let src_test = sdx_policy::Pred::Test(sdx_net::FieldMatch::NwSrc(src));
            let clause = sdx_policy::Policy::filter(
                sdx_policy::Pred::Test(sdx_net::FieldMatch::NwDst(anycast))
                    & src_test.clone()
                    & not_earlier.clone(),
            ) >> sdx_policy::Policy::modify(sdx_net::Mod::SetNwDst(instance));
            rewrite = rewrite + clause;
            not_earlier = not_earlier & !src_test;
        }
        self.compiler.clear_global_policies(owner);
        self.compiler.add_global_policy(owner, rewrite);
        self.reoptimize(fabric).map_err(LbError::Compile)?;
        Ok(())
    }
}

/// A per-wave hook for [`SdxController::commit`], called after each wave
/// lands on the driving fabric with the controller, that fabric, the
/// wave's index and the wave. An error fails the commit, which rolls
/// everything back and returns it. The oracle verifies each intermediate
/// table through one; the daemon fans each wave out to its switch agents
/// through one, and its return is the per-wave barrier.
pub type WaveHook<'a> =
    dyn FnMut(&SdxController, &Fabric, usize, &FlowModBatch) -> Result<(), SdxError> + 'a;

/// What [`SdxController::prepare`] stages: one of §4.3.2's two update
/// stages. Both are one transaction, one drive and one failure rule.
#[derive(Clone, Copy, Debug)]
pub enum Change<'a> {
    /// The fast path over a burst's changed prefixes (the route server
    /// already holds the routes): delta overlay rules, landed as one
    /// atomic wave above every standing overlay.
    Burst(&'a [Prefix]),
    /// The full recompile, its patch of the base table planned this way.
    Recompile(Waves),
}

impl Change<'_> {
    /// The stage timer the change is observed under, from the start of
    /// `prepare` to the end of `commit`.
    fn timer(self) -> &'static str {
        match self {
            Change::Burst(_) => "fastpath.total",
            Change::Recompile(_) => "reoptimize.total",
        }
    }
}

/// A change [`SdxController::prepare`] staged and nothing has applied
/// yet: the control plane (ARP, FIB, for a recompile the report) already
/// points at the new configuration, [`plan`](Self::plan) holds the waves
/// that will change the data plane, and the transaction that undoes it
/// all is still open. [`SdxController::commit`] lands it or rolls it back.
#[derive(Debug)]
#[must_use = "a prepared update stays half applied until it is committed"]
pub struct PreparedUpdate {
    /// The waves that change the data plane.
    pub plan: UpdatePlan,
    /// A burst's fast-path delta, whose overlay the plan lands (`None`
    /// for a recompile). `commit` does not read it.
    pub delta: Option<DeltaResult>,
    txn: FabricTxn,
    close: Close,
    timer: &'static str,
    t0: Instant,
}

/// What [`SdxController::commit`] does once the waves have landed.
#[derive(Debug)]
enum Close {
    /// Journal the overlay, with the delta's additional rules.
    Burst { rules: usize },
    /// Retire what the recompile left unreferenced.
    Recompile(Retire),
}

/// What [`SdxController::stage`] leaves for after its patch has landed:
/// the patch's size, the overlay layers staging removed, and the ids and
/// addresses nothing will reference once the old rules are gone (none of
/// them one the new report binds).
#[derive(Debug)]
struct Retire {
    patched: BatchStats,
    overlays: u32,
    stale_ids: Vec<FecId>,
    retired_addrs: Vec<Ipv4Addr>,
}

/// What one FIB synchronization did — a recompile's, inside
/// [`SdxController::reoptimize`] and every other recompile. The counters
/// named below also count what each fast-path pass re-advertises.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FibSync {
    /// Advertisements compared with what the route server now decides:
    /// one per prefix whose base was re-decided, plus one per
    /// (viewer, prefix) exception looked at (`fibsync.examined.count`).
    pub examined: usize,
    /// Of those, the ones that had moved and were written to the
    /// Adj-RIB-Outs, the routers' FIBs (`fibsync.sent.count`).
    pub sent: usize,
}

/// The viewers whose FEC groups can differ between two compilations —
/// every viewer but those holding one shared piece in both — as each
/// one's groups in `old` and in `new` (none where it is in one only). A
/// viewer holding one piece in both that `fresh` names counts as moved,
/// with no groups in `old`.
fn moved_viewers<'a>(
    old: Option<&'a CompileReport>,
    new: &'a CompileReport,
    fresh: impl Fn(ParticipantId) -> bool,
) -> Vec<(&'a [FecGroup], &'a [FecGroup])> {
    let mut moved: Vec<(&[FecGroup], &[FecGroup])> = Vec::new();
    for (&viewer, had) in old.iter().flat_map(|old| &old.groups) {
        match new.groups.get(&viewer) {
            Some(has) if has.same_piece(had) => {
                if fresh(viewer) {
                    moved.push((&[], has));
                }
            }
            Some(has) => moved.push((had, has)),
            None => moved.push((had, &[])),
        }
    }
    let joined = |viewer| !old.is_some_and(|old| old.groups.contains_key(viewer));
    for (_, has) in new.groups.iter().filter(|&(viewer, _)| joined(viewer)) {
        moved.push((&[], has));
    }
    moved
}

/// The FEC groups that are in one of two compilations only — an id the
/// other does not have, or the same id over different content (possible
/// only when the allocator was replaced in between) — as those only
/// `old` has and those only `new` has. The members of these are the
/// (viewer, prefix) pairs whose VNH differs between the two reports'
/// `vnh_of` maps.
fn moved_groups<'a>(
    old: &'a CompileReport,
    new: &'a CompileReport,
) -> (Vec<&'a FecGroup>, Vec<&'a FecGroup>) {
    let (mut old_ids, mut new_ids) = (BTreeMap::new(), BTreeMap::new());
    for (had, has) in moved_viewers(Some(old), new, |_| false) {
        old_ids.extend(had.iter().map(|g| (g.id, g)));
        new_ids.extend(has.iter().map(|g| (g.id, g)));
    }
    let only = |here: &BTreeMap<FecId, &'a FecGroup>, there: &BTreeMap<FecId, &FecGroup>| {
        here.iter()
            .filter(|&(id, g)| there.get(id) != Some(g))
            .map(|(_, &g)| g)
            .collect()
    };
    (only(&old_ids, &new_ids), only(&new_ids, &old_ids))
}

/// Errors from the wide-area load-balancer application.
#[derive(Debug)]
pub enum LbError {
    /// The requesting participant never announced the anycast prefix.
    NotOwner(ParticipantId, Prefix),
    /// The resulting policy failed to compile or commit.
    Compile(SdxError),
}

impl std::fmt::Display for LbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LbError::NotOwner(p, pfx) => {
                write!(f, "{p} does not originate {pfx}; refusing LB policy")
            }
            LbError::Compile(e) => write!(f, "LB policy failed to compile: {e}"),
        }
    }
}

impl std::error::Error for LbError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::TransformError;
    use sdx_net::{ip, prefix, FieldMatch, Packet, PortId};
    use sdx_policy::Policy as P;

    fn pid(n: u32) -> ParticipantId {
        ParticipantId(n)
    }

    /// Figure 4a's setup, miniaturized: client ISP C forwards port-80
    /// traffic via B, everything else default (via A, the best route).
    fn deployment() -> (SdxController, Fabric) {
        let mut ctl = SdxController::new();
        let a = ParticipantConfig::new(1, 65001, 1);
        let b = ParticipantConfig::new(2, 65002, 1);
        let c = ParticipantConfig::new(3, 65003, 1)
            .with_outbound(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2))));
        ctl.add_participant(a.clone(), ExportPolicy::allow_all());
        ctl.add_participant(b.clone(), ExportPolicy::allow_all());
        ctl.add_participant(c, ExportPolicy::allow_all());
        // A and B both announce the AWS prefix; A's path is shorter.
        ctl.rs
            .process_update(pid(1), &a.announce([prefix("54.0.0.0/8")], &[65001, 7]));
        ctl.rs
            .process_update(pid(2), &b.announce([prefix("54.0.0.0/8")], &[65002, 9, 7]));
        let fabric = ctl.deploy().expect("deploy");
        (ctl, fabric)
    }

    #[test]
    fn deploy_wires_everything() {
        let (_ctl, fabric) = deployment();
        // Port-80 traffic from C reaches B.
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
        // Other traffic follows the best route to A.
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 443),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(1), 1));
        let stuck = fabric.telemetry().counter("fabric.stuck_at_virtual.count");
        assert_eq!(stuck.get(), 0);
    }

    #[test]
    fn withdrawal_shifts_traffic_synchronously_with_bgp() {
        // The Figure 5a event: B withdraws; port-80 traffic must shift to A
        // because forwarding must stay consistent with BGP.
        let (mut ctl, mut fabric) = deployment();
        let delta = ctl
            .process_update(
                pid(2),
                &UpdateMessage::withdraw([prefix("54.0.0.0/8")]),
                &mut fabric,
            )
            .expect("fast path");
        assert!(ctl.delta_layers() >= 1 || delta.rules.is_empty());
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].loc,
            PortId::Phys(pid(1), 1),
            "withdrawn next-hop must not receive traffic"
        );
        // Background reoptimization converges to the same behaviour.
        ctl.reoptimize(&mut fabric).unwrap();
        assert_eq!(ctl.delta_layers(), 0);
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out[0].loc, PortId::Phys(pid(1), 1));
    }

    #[test]
    fn reoptimize_forwards_identically_and_patches_the_dirty_prefix() {
        let (mut ctl, mut fabric) = deployment();
        ctl.reoptimize(&mut fabric).unwrap();
        // Same forwarding behaviour as the deploy.
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
        let snap = ctl.telemetry.snapshot();
        let before = snap.counters["compile.shard.recompiled.count"];
        // A new prefix C's clause reaches: C's map is patched with it, not
        // rebuilt, and re-partitioned.
        let b_cfg = ctl.compiler.participant(pid(2)).unwrap().clone();
        ctl.rs
            .process_update(pid(2), &b_cfg.announce([prefix("91.0.0.0/8")], &[65002, 3]));
        let units = ctl.reoptimize(&mut fabric).unwrap().stats.pieces.units;
        assert_eq!((units.recomputed, units.reused), (0, 1), "patched");
        let snap = ctl.telemetry.snapshot();
        let recompiled = snap.counters["compile.shard.recompiled.count"] - before;
        assert_eq!(recompiled, 1, "the one viewer is re-partitioned");
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("91.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
    }

    #[test]
    fn policy_change_takes_effect_on_reoptimize() {
        let (mut ctl, mut fabric) = deployment();
        // Drop C's policy: everything should follow the best route (A).
        ctl.set_outbound(pid(3), None);
        ctl.reoptimize(&mut fabric).unwrap();
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out[0].loc, PortId::Phys(pid(1), 1));
    }

    #[test]
    fn announcement_reroutes_via_fast_path() {
        let (mut ctl, mut fabric) = deployment();
        // A new, better route appears at B for a new prefix; C's policy
        // applies to it immediately via the fast path.
        let b_cfg = ctl.compiler.participant(pid(2)).unwrap().clone();
        ctl.process_update(
            pid(2),
            &b_cfg.announce([prefix("91.0.0.0/8")], &[65002, 3]),
            &mut fabric,
        )
        .unwrap();
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("91.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
    }

    #[test]
    fn wide_area_load_balancer() {
        // Figure 4b: clients behind A address an anycast IP announced by
        // the remote AWS tenant D; instances live behind transit B.
        let mut ctl = SdxController::new();
        let a = ParticipantConfig::new(1, 65001, 1);
        let b = ParticipantConfig::new(2, 65002, 1);
        let d = ParticipantConfig::new(4, 65004, 1);
        ctl.add_participant(a.clone(), ExportPolicy::allow_all());
        ctl.add_participant(b.clone(), ExportPolicy::allow_all());
        ctl.add_participant(d.clone(), ExportPolicy::allow_all());
        ctl.rs.process_update(
            pid(2),
            &b.announce([prefix("54.198.0.0/24")], &[65002, 14618]),
        );
        ctl.rs.process_update(
            pid(2),
            &b.announce([prefix("54.230.0.0/24")], &[65002, 14618]),
        );
        ctl.rs
            .process_update(pid(4), &d.announce([prefix("74.125.1.0/24")], &[65004]));
        let mut fabric = ctl.deploy().expect("deploy");

        // Ownership check: B may not install LB for D's prefix.
        assert!(matches!(
            ctl.install_wide_area_lb(
                pid(2),
                prefix("74.125.1.0/24"),
                &[(prefix("0.0.0.0/0"), ip("54.198.0.10"))],
                &mut fabric,
            ),
            Err(LbError::NotOwner(..))
        ));

        // Before the policy: anycast traffic defaults to D (the origin).
        let out = fabric.send(
            PortId::Phys(pid(1), 1),
            Packet::udp(ip("204.57.0.67"), ip("74.125.1.1"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(4), 1));

        // D installs the LB policy: its sources split across instances.
        ctl.install_wide_area_lb(
            pid(4),
            prefix("74.125.1.0/24"),
            &[
                (prefix("204.57.0.0/16"), ip("54.230.0.10")),
                (prefix("0.0.0.0/1"), ip("54.198.0.10")),
            ],
            &mut fabric,
        )
        .expect("LB installs");

        // Traffic from 204.57/16 is rewritten to instance #2 and exits via
        // B (the instance prefix's BGP next hop).
        let out = fabric.send(
            PortId::Phys(pid(1), 1),
            Packet::udp(ip("204.57.0.67"), ip("74.125.1.1"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
        assert_eq!(out[0].pkt.nw_dst, ip("54.230.0.10"));

        // Other low-half sources go to instance #1.
        let out = fabric.send(
            PortId::Phys(pid(1), 1),
            Packet::udp(ip("99.0.0.10"), ip("74.125.1.1"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
        assert_eq!(out[0].pkt.nw_dst, ip("54.198.0.10"));
    }

    #[test]
    fn remove_participant_cleans_up() {
        let (mut ctl, mut fabric) = deployment();
        // B carries the policy traffic; removing it must leave no rule
        // forwarding toward it and shift traffic to A.
        assert_eq!(ctl.remove_participant(pid(2), &mut fabric), Ok(true));
        assert_eq!(
            ctl.remove_participant(pid(2), &mut fabric),
            Ok(false),
            "idempotent"
        );
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc.participant(), pid(1));
        // No rule references the removed participant's ports.
        let report = ctl.report.as_ref().expect("compiled");
        for r in report.classifier.rules() {
            for a in r.actions.iter() {
                for m in &a.mods {
                    if let sdx_net::Mod::SetLoc(p) = m {
                        assert_ne!(p.participant(), pid(2), "stale rule {r}");
                    }
                }
            }
        }
        // It is no longer a viewer: the route server does not list it,
        // nothing is advertised to it, and its router holds no route.
        assert!(ctl.rs.participants().all(|p| p != pid(2)));
        assert!(fabric.adj_rib_out(pid(2)).is_none());
        let router = fabric
            .router(PortId::Phys(pid(2), 1))
            .expect("still attached");
        assert_eq!(router.fib_len(), 0);
        // The others still are, and still see the surviving route.
        assert_eq!(fabric.adj_rib_out(pid(3)).expect("a viewer").len(), 1);
    }

    #[test]
    fn remove_participant_surfaces_a_failed_recompile() {
        let (mut ctl, mut fabric) = deployment();
        let before = fabric.clone();
        // A's policy multicasts, which the unicast restriction rejects.
        let multicast = P::fwd(PortId::Virt(pid(2))) + P::fwd(PortId::Virt(pid(3)));
        ctl.set_outbound(pid(1), Some(multicast));
        let err = ctl
            .remove_participant(pid(2), &mut fabric)
            .expect_err("the recompile rejects A's policy");
        assert_eq!(
            err,
            SdxError::Transform(TransformError::MulticastOutbound(pid(1)))
        );
        // The book forgot B, but the rolled-back fabric still forwards to it.
        assert!(ctl.compiler.participant(pid(2)).is_none());
        assert_eq!(fabric, before);
        // With A's policy gone, the next re-optimization converges:
        // port-80 traffic shifts to A.
        ctl.set_outbound(pid(1), None);
        ctl.reoptimize(&mut fabric).expect("converges");
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc.participant(), pid(1));
    }

    /// Figure 1 of the paper, on this crate's own types.
    fn figure1() -> SdxController {
        let mut ctl = SdxController::new();
        let cfgs = [
            ParticipantConfig::new(1, 65001, 1).with_outbound(
                (P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2))))
                    + (P::match_(FieldMatch::TpDst(443)) >> P::fwd(PortId::Virt(pid(3)))),
            ),
            ParticipantConfig::new(2, 65002, 2),
            ParticipantConfig::new(3, 65003, 1),
            ParticipantConfig::new(4, 65004, 1),
        ];
        for cfg in &cfgs {
            ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
        }
        for (i, pfx) in ["10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8", "40.0.0.0/8"]
            .into_iter()
            .enumerate()
        {
            for (cfg, hops) in [(&cfgs[1], 2 + i % 2), (&cfgs[2], 3 - i % 2)] {
                let path: Vec<u32> = (0..hops as u32).map(|h| cfg.asn.0 + 100 * h).collect();
                ctl.rs
                    .process_update(cfg.id, &cfg.announce([prefix(pfx)], &path));
            }
        }
        ctl
    }

    /// An exchange of ixp50's size on this crate's own types: 50
    /// participants (every fifth on two ports), 3 000 prefixes with two
    /// announcers each, web and https steered by every third participant.
    fn exchange50() -> SdxController {
        let mut ctl = SdxController::new();
        let cfgs: Vec<ParticipantConfig> = (1..=50u32)
            .map(|i| {
                let cfg = ParticipantConfig::new(i, 65000 + i, if i % 5 == 0 { 2 } else { 1 });
                if i % 3 != 0 {
                    return cfg;
                }
                cfg.with_outbound(
                    (P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(i % 50 + 1))))
                        + (P::match_(FieldMatch::TpDst(443))
                            >> P::fwd(PortId::Virt(pid((i + 6) % 50 + 1)))),
                )
            })
            .collect();
        for cfg in &cfgs {
            ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
        }
        for i in 0..3000u32 {
            let p = Prefix::new(Ipv4Addr((60 << 24) | (i << 8)), 24);
            for (cfg, hops) in [
                (&cfgs[(i % 50) as usize], 2),
                (&cfgs[((i * 7 + 3) % 50) as usize], 3),
            ] {
                let path: Vec<u32> = (0..hops).map(|h| cfg.asn.0 + 100 * h).collect();
                ctl.rs.process_update(cfg.id, &cfg.announce([p], &path));
            }
        }
        ctl
    }

    /// Everything a transaction may touch, as comparable values.
    fn image(ctl: &SdxController, fabric: &Fabric) -> impl PartialEq + std::fmt::Debug {
        let report = ctl
            .report
            .as_ref()
            .map(|r| (&r.classifier, &r.groups, &r.arp_bindings, &r.vnh_of));
        (
            fabric.clone(),
            format!("{:?}", ctl.vnh),
            format!("{report:?}"),
            ctl.rs.clone().take_dirty_prefixes(),
            (
                ctl.delta_layers,
                ctl.next_delta_priority,
                ctl.live_delta_ids.clone(),
            ),
        )
    }

    /// Deploys `build()`, lays fast-path overlays for a route `announcer`
    /// newly offers and changes `editor`'s policy, then lets `stage`
    /// *succeed* — FIBs and Adj-RIB-Outs written, the patch landed — and
    /// rolls back: nothing may remember the transaction.
    fn staged_rollback_is_exact(build: fn() -> SdxController, announcer: u32, editor: u32) {
        let perturbed = || {
            let mut ctl = build();
            let mut fabric = ctl.deploy().expect("deploy");
            let cfg = ctl.compiler.participant(pid(announcer)).unwrap().clone();
            let fresh = [prefix("99.1.0.0/16"), prefix("99.2.0.0/16")];
            ctl.process_update(cfg.id, &cfg.announce(fresh, &[cfg.asn.0]), &mut fabric)
                .expect("fast path");
            assert!(ctl.delta_layers() > 0, "fixture: overlays to retire");
            // In the Loc-RIB but never fast-pathed: dirty at the sync.
            ctl.rs
                .process_update(cfg.id, &cfg.announce([prefix("99.3.0.0/16")], &[cfg.asn.0]));
            ctl.set_outbound(
                pid(editor),
                Some(P::match_(FieldMatch::TpDst(22)) >> P::fwd(PortId::Virt(pid(announcer)))),
            );
            // Traffic, which writes nothing the image holds.
            for port in fabric.ports().collect::<Vec<_>>() {
                fabric.send(port, Packet::tcp(ip("9.9.9.9"), ip("99.1.2.3"), 5, 22));
            }
            (ctl, fabric)
        };
        let (mut ctl, mut fabric) = perturbed();
        let before = image(&ctl, &fabric);
        let fibs_before = fabric.clone();

        let mut txn = FabricTxn::begin(&mut ctl, &fabric);
        let (patch, _retire) = ctl.stage(&mut fabric, &mut txn).expect("stage succeeds");
        // The patch lands as one wave, which the driver would rewind
        // before the log rolls back.
        let (_, wave) = fabric.apply_flowmods_undoable(&patch).expect("patch lands");
        let moved = fabric
            .ports()
            .filter(|&p| fabric.router(p) != fibs_before.router(p))
            .count();
        assert!(moved > 0, "fixture: staging must write FIBs");
        let adverts_before = fibs_before.adj_rib_outs();
        assert!(ctl.rs.dirty_len() == 0 && fabric.adj_rib_outs() != adverts_before);
        assert!(txn.undo_entries() > moved);
        fabric.rewind_wave(wave);
        txn.rollback(&mut ctl, &mut fabric);
        assert_eq!(image(&ctl, &fabric), before);

        // The next re-optimization lands where one that was never rolled
        // back lands, and that is the from-scratch table.
        let (mut twin, mut twin_fabric) = perturbed();
        ctl.reoptimize(&mut fabric).expect("converges");
        twin.reoptimize(&mut twin_fabric).expect("twin");
        assert_eq!(image(&ctl, &fabric), image(&twin, &twin_fabric));
        let pool = VnhAllocator::default_pool();
        let scratch = ctl
            .compiler
            .compile_all(&ctl.rs, &mut VnhAllocator::new(pool))
            .expect("scratch compile");
        let canonical = |r: &CompileReport| {
            let c = crate::fec::canonicalize_report(r, pool);
            (c.classifier, c.vnh_of)
        };
        assert_eq!(canonical(ctl.report.as_ref().unwrap()), canonical(&scratch));
    }

    #[test]
    fn rolling_back_a_staged_update_on_figure1_forgets_it() {
        staged_rollback_is_exact(figure1, 2, 3);
    }

    #[test]
    fn rolling_back_a_staged_update_at_ixp50_scale_forgets_it() {
        staged_rollback_is_exact(exchange50, 7, 11);
    }

    #[test]
    fn vnh_pool_is_recycled_across_reoptimizations() {
        // A deliberately tiny pool: without recycling at reoptimize, the
        // churn loop below would exhaust it and panic.
        let (mut ctl, mut fabric) = deployment();
        ctl.vnh = crate::vnh::VnhAllocator::new(prefix("172.16.128.0/26")); // 63 ids
        ctl.reoptimize(&mut fabric).expect("rebase onto tiny pool");
        let b_cfg = ctl.compiler.participant(pid(2)).unwrap().clone();
        for round in 0..30u32 {
            // Each update forces a fresh VNH for the affected viewer.
            ctl.process_update(
                pid(2),
                &b_cfg.announce([prefix("54.0.0.0/8")], &[65002, 1000 + round]),
                &mut fabric,
            )
            .expect("fast path");
            ctl.reoptimize(&mut fabric).expect("recycles ids");
        }
        // Behaviour still correct after heavy recycling.
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc.participant(), pid(2));
    }

    /// Flow-mods the journal says were applied since it was last cleared.
    fn journaled_flowmods(ctl: &SdxController) -> usize {
        (ctl.telemetry.journal().entries().iter())
            .filter_map(|e| match e.event {
                Event::FlowModBatchApplied {
                    adds,
                    modifies,
                    deletes,
                    ..
                } => Some(adds + modifies + deletes),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn policy_delta_recompiles_only_affected_viewer() {
        let (mut ctl, mut fabric) = deployment();
        // A second viewer, whose map must stay held through C's edits.
        let ssh = P::match_(FieldMatch::TpDst(22)) >> P::fwd(PortId::Virt(pid(2)));
        let delta = PolicyDelta::new().install_outbound(pid(1), ssh);
        ctl.apply_policy_delta(&delta, &mut fabric).unwrap();
        let counter = |ctl: &SdxController, key: &str| {
            let snap = ctl.telemetry.snapshot();
            snap.counters.get(key).copied().unwrap_or(0)
        };
        let r0 = counter(&ctl, "compile.shard.recompiled.count");
        let d0 = counter(&ctl, "policy.dirty_units.count");
        // C retargets port-80 traffic to A — a pure policy event with no
        // route churn riding along.
        let retarget = P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(1)));
        let delta = PolicyDelta::new().replace_outbound(pid(3), retarget.clone());
        let units = ctl.apply_policy_delta(&delta, &mut fabric).unwrap();
        let units = units.stats.pieces.units;
        assert_eq!(
            counter(&ctl, "compile.shard.recompiled.count") - r0,
            1,
            "only the editor is re-partitioned"
        );
        assert_eq!(
            counter(&ctl, "policy.dirty_units.count") - d0,
            1,
            "exactly the editing viewer's map is rebuilt"
        );
        assert_eq!(
            (units.recomputed, units.reused),
            (1, 1),
            "no other viewer's map is rebuilt"
        );
        assert_eq!(counter(&ctl, "policy.applied.count"), 2);
        // Behaviour actually changed: port 80 now exits via A.
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(1), 1));
        // The same policy again moves C's stamp: its map is rebuilt, and
        // since nothing it computes differs, the patch is empty.
        ctl.telemetry.journal().clear();
        let delta = PolicyDelta::new().replace_outbound(pid(3), retarget);
        let units = ctl.apply_policy_delta(&delta, &mut fabric).unwrap();
        let units = units.stats.pieces.units;
        assert_eq!((units.recomputed, units.reused), (1, 1));
        assert_eq!(
            journaled_flowmods(&ctl),
            0,
            "an identical policy patches nothing"
        );
    }

    #[test]
    fn a_delta_the_compiler_would_reject_is_refused_at_staging() {
        let (mut ctl, mut fabric) = deployment();
        let versions = ctl.compiler.policy_versions().clone();
        let book = format!("{:?}", ctl.compiler.participants());
        // C multicasts: the unicast restriction refuses it — even behind a
        // well-formed operation of the same delta.
        let multicast = P::fwd(PortId::Virt(pid(1))) + P::fwd(PortId::Virt(pid(2)));
        let delta = PolicyDelta::new()
            .install_outbound(
                pid(1),
                P::match_(FieldMatch::TpDst(22)) >> P::fwd(PortId::Virt(pid(2))),
            )
            .replace_outbound(pid(3), multicast);
        assert_eq!(
            ctl.stage_policy_delta(&delta),
            Err(SdxError::Transform(TransformError::MulticastOutbound(pid(
                3
            ))))
        );
        // B's inbound policy forwards into C's virtual switch: stage-2
        // isolation refuses it.
        let delta = PolicyDelta::new().install_inbound(pid(2), P::fwd(PortId::Virt(pid(3))));
        assert_eq!(
            ctl.stage_policy_delta(&delta),
            Err(SdxError::Transform(TransformError::InboundEscapesSwitch(
                pid(2),
                PortId::Virt(pid(3))
            )))
        );
        assert_eq!(ctl.compiler.policy_versions(), &versions);
        assert_eq!(format!("{:?}", ctl.compiler.participants()), book);
        // The exchange goes on: the next re-optimization compiles, and a
        // route update for an unrelated prefix takes the fast path.
        ctl.reoptimize(&mut fabric).expect("reoptimize");
        let b_cfg = ctl.compiler.participant(pid(2)).unwrap().clone();
        ctl.process_update(
            pid(2),
            &b_cfg.announce([prefix("91.0.0.0/8")], &[65002, 3]),
            &mut fabric,
        )
        .expect("fast path");
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("91.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));

        // What is checked is the *effective* policy: under a global
        // fragment rewriting 54/8, C's own port-80 policy — the one it
        // deployed with — multicasts port-80 traffic to 54/8.
        ctl.apply_policy_delta(&PolicyDelta::new().retract_outbound(pid(3)), &mut fabric)
            .expect("retract");
        let rewrite = P::match_(FieldMatch::NwDst(prefix("54.0.0.0/8")))
            >> P::modify(sdx_net::Mod::SetNwDst(ip("54.0.0.1")));
        ctl.compiler.add_global_policy(pid(1), rewrite);
        ctl.reoptimize(&mut fabric)
            .expect("the fragment alone compiles");
        let web = P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2)));
        assert_eq!(
            ctl.stage_policy_delta(&PolicyDelta::new().install_outbound(pid(3), web)),
            Err(SdxError::Transform(TransformError::MulticastOutbound(pid(
                3
            ))))
        );
        ctl.reoptimize(&mut fabric).expect("still compiles");
    }

    #[test]
    fn invalid_policy_delta_is_rejected_and_stages_nothing() {
        let (mut ctl, mut fabric) = deployment();
        let before = ctl.compiler.policy_versions().clone();
        // Unknown participant.
        let delta = PolicyDelta::new().install_outbound(pid(42), P::fwd(PortId::Virt(pid(1))));
        match ctl.apply_policy_delta(&delta, &mut fabric) {
            Err(SdxError::PolicyRejected(sdx_policy::DslError::UnknownParticipant(p))) => {
                assert_eq!(p, pid(42));
            }
            other => panic!("expected UnknownParticipant rejection, got {other:?}"),
        }
        // Unresolvable physical port on an enrolled participant.
        let delta = PolicyDelta::new().install_outbound(pid(3), P::fwd(PortId::Phys(pid(1), 9)));
        match ctl.apply_policy_delta(&delta, &mut fabric) {
            Err(SdxError::PolicyRejected(sdx_policy::DslError::UnresolvablePort(p, idx))) => {
                assert_eq!((p, idx), (pid(1), 9));
            }
            other => panic!("expected UnresolvablePort rejection, got {other:?}"),
        }
        // Rejection is atomic: nothing was staged, no version moved.
        assert_eq!(ctl.compiler.policy_versions(), &before);
    }

    #[test]
    fn ordered_policy_delta_converges_like_plain_path() {
        let (mut ctl, mut fabric) = deployment();
        ctl.reoptimize(&mut fabric).unwrap();
        let delta = PolicyDelta::new().retract_outbound(pid(3));
        ctl.stage_policy_delta(&delta).expect("stage");
        let prepared = ctl
            .prepare(&mut fabric, Change::Recompile(Waves::Ordered))
            .expect("prepare");
        ctl.commit(&mut fabric, prepared, None)
            .expect("waves commit");
        // With C's policy retracted, port-80 traffic follows the best
        // route (A) — same outcome the plain path produces.
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(1), 1));
        let snap = ctl.telemetry.snapshot();
        assert_eq!(snap.counters.get("policy.retracted.count"), Some(&1));
    }

    #[test]
    fn reoptimize_rolls_back_a_patch_whose_wave_fails() {
        let (mut ctl, mut fabric) = deployment();
        fabric.enable_batch_log();
        let b_cfg = ctl.compiler.participant(pid(2)).unwrap().clone();
        ctl.process_update(
            pid(2),
            &b_cfg.announce([prefix("54.0.0.0/8")], &[65002, 7]),
            &mut fabric,
        )
        .expect("fast path");
        assert!(ctl.delta_layers() > 0, "fixture: overlays to retire");
        ctl.set_outbound(pid(3), None);
        let _ = fabric.drain_batches();
        let before = image(&ctl, &fabric);
        let timed = ctl.telemetry.histogram("reoptimize.total").count();
        ctl.faults = FaultPlan::disabled().fail_nth(InjectionPoint::FlowModApply { wave: 0 }, 1);
        let err = ctl
            .reoptimize(&mut fabric)
            .expect_err("the patch wave fails");
        assert_eq!(
            err,
            SdxError::Injected(InjectionPoint::FlowModApply { wave: 0 })
        );
        assert_eq!(image(&ctl, &fabric), before);
        assert!(fabric.drain_batches().is_empty(), "nothing left to stream");
        let timed_now = ctl.telemetry.histogram("reoptimize.total").count();
        assert_eq!(timed_now, timed + 1, "a failed pass is timed once");
        ctl.reoptimize(&mut fabric).expect("the next pass lands");
        assert_eq!(ctl.delta_layers(), 0);
    }

    #[test]
    fn a_burst_whose_overlay_wave_fails_rolls_back() {
        let (mut ctl, mut fabric) = deployment();
        fabric.enable_batch_log();
        let b_cfg = ctl.compiler.participant(pid(2)).unwrap().clone();
        ctl.process_update(
            pid(2),
            &b_cfg.announce([prefix("54.0.0.0/8")], &[65002, 7]),
            &mut fabric,
        )
        .expect("fast path");
        let layers = ctl.delta_layers();
        assert!(layers > 0, "fixture: an overlay the burst stacks on");
        // A prefix C's web policy reaches via B, in the Loc-RIB only.
        let fresh = prefix("91.0.0.0/8");
        ctl.rs
            .process_update(pid(2), &b_cfg.announce([fresh], &[65002, 3]));
        let _ = fabric.drain_batches();
        let before = image(&ctl, &fabric);
        let timed = ctl.telemetry.histogram("fastpath.total").count();
        ctl.faults = FaultPlan::disabled().fail_nth(InjectionPoint::FlowModApply { wave: 0 }, 1);
        let err = ctl
            .apply_changed_prefixes(&[fresh], &mut fabric)
            .expect_err("the overlay wave fails");
        assert_eq!(
            err,
            SdxError::Injected(InjectionPoint::FlowModApply { wave: 0 })
        );
        // Report, allocator, overlay counters, Adj-RIB-Outs, table, ARP,
        // shared FIB: all as before the call, and nothing to stream.
        assert_eq!(image(&ctl, &fabric), before);
        assert!(fabric.drain_batches().is_empty(), "nothing left to stream");
        let timed_now = ctl.telemetry.histogram("fastpath.total").count();
        assert_eq!(timed_now, timed + 1, "a failed burst is timed once");
        let delta = ctl
            .apply_changed_prefixes(&[fresh], &mut fabric)
            .expect("the next burst lands");
        assert!(delta.additional_rules() > 0);
        assert_eq!(ctl.delta_layers(), layers + 1);
        let out = fabric.send(
            PortId::Phys(pid(3), 1),
            Packet::tcp(ip("99.0.0.1"), ip("91.1.2.3"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
    }

    #[test]
    fn flowtable_apply_is_timed_into_the_controllers_registry() {
        let (mut ctl, mut fabric) = deployment();
        let own = SharedRegistry::new();
        fabric.set_telemetry(own.clone());
        let before = ctl.telemetry.histogram("flowtable.apply").count();
        let b_cfg = ctl.compiler.participant(pid(2)).unwrap().clone();
        let events = ctl
            .rs
            .process_update(pid(2), &b_cfg.announce([prefix("91.0.0.0/8")], &[65002, 3]));
        let changed: Vec<Prefix> = events
            .into_iter()
            .filter_map(|e| match e {
                RouteServerEvent::PrefixChanged(p) => Some(p),
                RouteServerEvent::SessionReset(_) => None,
            })
            .collect();
        let delta = ctl
            .compiler
            .fast_update_burst(&ctl.rs, &mut ctl.vnh, &changed)
            .expect("delta");
        assert!(delta.additional_rules() > 0, "fixture: an overlay to apply");
        ctl.apply_delta(&delta, &mut fabric).expect("overlay");
        ctl.set_outbound(pid(3), None);
        ctl.reoptimize(&mut fabric).expect("patch");
        let timed = ctl.telemetry.histogram("flowtable.apply").count();
        assert_eq!(timed, before + 2, "the overlay and the patch wave");
        assert_eq!(own.histogram("flowtable.apply").count(), 0);
    }
}
