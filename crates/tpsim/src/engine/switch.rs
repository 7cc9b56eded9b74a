//! What changes the system under the transactions: drain-and-swap CC
//! switching (scheduled or decided by the meta policy) and station faults.

use alc_core::measure::Measurement;
use alc_core::meta::MetaPolicy;
use alc_trace::{cat as tcat, name as tname, Args as TraceArgs};

use super::Simulator;
use crate::cc::make_cc;
use crate::config::CcKind;
use crate::txn::TxnState;

/// One completed CC-protocol switch, as recorded in the switch-event
/// trace: scheduled (`cc.phases`) and policy-driven (adaptive) switches
/// both land here. `decided_at_ms` is when the switch was requested
/// (the scheduled time, or the sample at which the meta-policy decided);
/// `completed_at_ms` is when the drain reached in-flight-zero and the
/// protocol actually swapped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// Decision time, ms.
    pub decided_at_ms: f64,
    /// Swap-completion time (end of the drain), ms.
    pub completed_at_ms: f64,
    /// Protocol in force before the swap.
    pub from: CcKind,
    /// Protocol installed by the swap.
    pub to: CcKind,
}

/// The engine half of the meta-control loop: the candidate protocols and
/// the `alc_core::meta` policy choosing among them by index.
pub(super) struct MetaCc {
    pub(super) candidates: Vec<CcKind>,
    pub(super) policy: Box<dyn MetaPolicy>,
    /// The candidate index currently in force (tracks `cc_kind`).
    pub(super) active: usize,
}

impl Simulator {
    /// Closed-loop protocol selection, once per sample: the policy sees
    /// the interval's conflict state and may pick another candidate.
    /// Decisions are skipped while a previous switch still drains (the
    /// observation would measure the drain, not the workload; the
    /// policy's cooldown covers the intervals right after the swap). No
    /// RNG is consumed here, so runs without a policy are byte-identical
    /// to pre-meta builds.
    pub(super) fn meta_step(&mut self, m: &Measurement) {
        if self.drain_target.is_some() {
            return;
        }
        let Some(meta) = self.meta.as_mut() else {
            return;
        };
        if let Some(next) = meta.policy.decide(meta.active, m) {
            if next != meta.active {
                debug_assert!(next < meta.candidates.len());
                meta.active = next;
                let target = meta.candidates[next];
                self.begin_cc_switch(target);
            }
        }
    }

    /// Starts a protocol switch (scheduled or policy-driven): swap
    /// immediately if nothing is inside the CC layer, otherwise hold
    /// admissions and drain. A switch starting while an earlier one still
    /// drains retargets the drain (last switch wins).
    pub(super) fn begin_cc_switch(&mut self, target: CcKind) {
        self.tr_switch(tname::CC_DECIDE, target);
        self.drain_decided_ms = self.now().millis();
        if self.cc_active == 0 && self.drain_target.is_none() {
            self.complete_cc_switch(target);
        } else {
            self.drain_target = Some(target);
            self.gate.set_hold();
        }
    }

    /// The system is empty of in-CC transactions: install the target
    /// protocol (fresh state — nothing carries over by construction) and
    /// resume the held work in arrival order.
    pub(super) fn complete_cc_switch(&mut self, target: CcKind) {
        let completed_at = self.now().millis();
        self.trajectories.switches.push(SwitchEvent {
            decided_at_ms: self.drain_decided_ms,
            completed_at_ms: completed_at,
            from: self.cc_kind,
            to: target,
        });
        self.tr_switch(tname::CC_COMPLETE, target);
        // Re-anchor the policy's dwell/cooldown guards at the *swap*: a
        // drain can outlast a cooldown measured from the decision, and
        // the samples right after the swap measure the drain dip, not
        // the workload.
        if let Some(meta) = &mut self.meta {
            meta.policy.note_swap_complete(completed_at);
        }
        self.cc = make_cc(target, self.txns.len(), self.sys.db_size as usize);
        self.cc_kind = target;
        self.switches_completed += 1;
        // Parked restarts first: they kept their MPL slot through the
        // drain, so they re-enter execution before any new admission.
        // A parked transaction may have been *displaced* while waiting
        // (displacement victims include `RestartWait` slots): it is in
        // the gate queue now and will re-enter through the release
        // below — restarting it here too would double-start the slot.
        let mut parked = std::mem::take(&mut self.parked_restarts);
        for &i in &parked {
            if self.txns[i].state == TxnState::RestartWait {
                self.restart_now(i);
            }
        }
        parked.clear();
        self.parked_restarts = parked;
        let mut admitted = self.take_scratch();
        self.gate.release_hold_into(&mut admitted);
        self.admit_released(admitted, true);
    }

    /// Marks a step of the switch from the protocol in force to `target`.
    fn tr_switch(&mut self, name: &'static str, target: CcKind) {
        let (from, to) = (self.cc_kind.name(), target.name());
        self.tr_instant(name, tcat::CC, TraceArgs::Switch { from, to });
    }

    /// A scheduled station fault fires: apply the CPU-capacity delta and
    /// schedule completions for any queued jobs a restore dispatched.
    pub(super) fn on_fault(&mut self, delta: i32) {
        self.tr_instant(tname::FAULT, tcat::FAULT, TraceArgs::Delta(delta));
        let target = (i64::from(self.cpu.servers()) + i64::from(delta)).max(0) as u32;
        let now = self.now();
        let mut started = std::mem::take(&mut self.fault_scratch);
        let txns = &self.txns;
        self.cpu.set_servers_into(
            now,
            target,
            |j| j.generation != txns[j.txn].generation,
            &mut started,
        );
        for job in started.drain(..) {
            self.start_burst(job);
        }
        self.fault_scratch = started;
    }
}
