//! Reference model for cluster membership, the scaling trajectory, and
//! per-worker lifecycle legality.
//!
//! Membership is a CAS-guarded slot machine per target:
//!
//! ```text
//!        attach           draining            detach
//!  Empty ───────▶ Attached ───────▶ Draining ───────▶ Empty
//! ```
//!
//! Rules: `slot-cas` (attach only lands on an empty slot), `drain-never-kill`
//! (detach only after an observed drain — the reaper must never remove a
//! worker that was not drained first), `draining-unattached` /
//! `detach-empty-slot` (events must refer to occupied slots).
//!
//! Scale events must describe a continuous trajectory: `scale:up` strictly
//! grows, `scale:down` strictly shrinks, never below one worker, and each
//! event's `from` equals the previous event's `to`
//! (`scale-trajectory`).
//!
//! Worker lifecycle (`lifecycle:{draining,stopped,killed,recovered}`) is a
//! per-source machine: a worker is implicitly Running, may drain, must not
//! emit anything after `stopped`/`killed` except `recovered` (a new
//! incarnation), and never stops twice (`lifecycle-legality`).

use crate::ModelError;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    Attached,
    Draining,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LifeState {
    Running,
    Draining,
    Stopped,
    Killed,
}

/// The executable fleet/membership/lifecycle reference model.
#[derive(Debug, Default)]
pub struct FleetModel {
    slots: BTreeMap<String, SlotState>,
    life: BTreeMap<String, LifeState>,
    last_to: Option<u64>,
    pub attaches: u64,
    pub detaches: u64,
    pub scale_events: u64,
}

impl FleetModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// A worker present before the stream began (constructor-seeded slot).
    pub fn seed(&mut self, target: &str) {
        self.slots.insert(target.to_string(), SlotState::Attached);
    }

    /// `membership:attach`.
    pub fn attach(&mut self, target: &str) -> Result<(), ModelError> {
        if self.slots.contains_key(target) {
            return Err(ModelError::new(
                "slot-cas",
                format!("target `{target}` attached to an occupied slot"),
            ));
        }
        self.slots.insert(target.to_string(), SlotState::Attached);
        self.attaches += 1;
        Ok(())
    }

    /// `membership:draining`. Idempotent (scale-down re-marking a worker it
    /// already drains is legal).
    pub fn draining(&mut self, target: &str) -> Result<(), ModelError> {
        match self.slots.get_mut(target) {
            Some(s) => {
                *s = SlotState::Draining;
                Ok(())
            }
            None => Err(ModelError::new(
                "draining-unattached",
                format!("target `{target}` marked draining but holds no slot"),
            )),
        }
    }

    /// `membership:detach` — the reaper's kill. Only legal after draining.
    pub fn detach(&mut self, target: &str) -> Result<(), ModelError> {
        match self.slots.get(target) {
            Some(SlotState::Draining) => {
                self.slots.remove(target);
                self.detaches += 1;
                Ok(())
            }
            Some(SlotState::Attached) => Err(ModelError::new(
                "drain-never-kill",
                format!("target `{target}` detached without ever being marked draining"),
            )),
            None => Err(ModelError::new(
                "detach-empty-slot",
                format!("target `{target}` detached from an empty slot"),
            )),
        }
    }

    /// A `scale:{up,down}` event with its `from`/`to` worker counts.
    pub fn scale(&mut self, direction: &str, from: u64, to: u64) -> Result<(), ModelError> {
        self.scale_events += 1;
        // Adopt the event's `to` as the new baseline even on a violation,
        // so one bad event does not cascade into spurious follow-ups.
        let prev = self.last_to.replace(to);
        if let Some(prev) = prev {
            if from != prev {
                return Err(ModelError::new(
                    "scale-trajectory",
                    format!(
                        "scale event starts at {from} workers but the fleet last reported {prev}"
                    ),
                ));
            }
        }
        if to == 0 {
            return Err(ModelError::new(
                "scale-trajectory",
                "fleet scaled to zero workers".to_string(),
            ));
        }
        match direction {
            "up" if to > from => Ok(()),
            "down" if to < from => Ok(()),
            "up" | "down" => Err(ModelError::new(
                "scale-trajectory",
                format!("scale:{direction} moved {from} → {to}"),
            )),
            other => Err(ModelError::new(
                "scale-trajectory",
                format!("unknown scale direction `{other}`"),
            )),
        }
    }

    /// A `lifecycle:{state}` event from worker `source`.
    pub fn lifecycle(&mut self, source: &str, state: &str) -> Result<(), ModelError> {
        let cur = self.life.get(source).copied().unwrap_or(LifeState::Running);
        let next = match (cur, state) {
            // `running` is implicit; an explicit event is tolerated as a
            // no-op from Running only.
            (LifeState::Running, "running") => LifeState::Running,
            (LifeState::Running | LifeState::Draining, "draining") => LifeState::Draining,
            (LifeState::Running | LifeState::Draining, "stopped") => LifeState::Stopped,
            (LifeState::Running | LifeState::Draining, "killed") => LifeState::Killed,
            // A new incarnation may announce recovery from any prior fate.
            (_, "recovered") => LifeState::Running,
            (terminal, other) => {
                return Err(ModelError::new(
                    "lifecycle-legality",
                    format!("worker `{source}` emitted `{other}` while {terminal:?}"),
                ));
            }
        };
        self.life.insert(source.to_string(), next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_cas_and_drain_never_kill() {
        let mut f = FleetModel::new();
        f.attach("w1").unwrap();
        assert_eq!(f.attach("w1").unwrap_err().rule, "slot-cas");
        assert_eq!(f.detach("w1").unwrap_err().rule, "drain-never-kill");
        f.draining("w1").unwrap();
        f.draining("w1").unwrap(); // idempotent
        f.detach("w1").unwrap();
        assert_eq!(f.detach("w1").unwrap_err().rule, "detach-empty-slot");
        // Slot is free again.
        f.attach("w1").unwrap();
    }

    #[test]
    fn seeded_workers_hold_their_slot() {
        let mut f = FleetModel::new();
        f.seed("w0");
        assert_eq!(f.attach("w0").unwrap_err().rule, "slot-cas");
        f.draining("w0").unwrap();
        f.detach("w0").unwrap();
    }

    #[test]
    fn scale_trajectory_is_continuous() {
        let mut f = FleetModel::new();
        f.scale("up", 1, 3).unwrap();
        f.scale("up", 3, 4).unwrap();
        assert_eq!(f.scale("down", 3, 2).unwrap_err().rule, "scale-trajectory");
        f.scale("down", 2, 1).unwrap();
        assert_eq!(f.scale("down", 1, 0).unwrap_err().rule, "scale-trajectory");
    }

    #[test]
    fn lifecycle_terminal_states_are_terminal() {
        let mut f = FleetModel::new();
        f.lifecycle("w0", "draining").unwrap();
        f.lifecycle("w0", "stopped").unwrap();
        assert_eq!(
            f.lifecycle("w0", "draining").unwrap_err().rule,
            "lifecycle-legality"
        );
        // But a recovered incarnation starts a fresh machine.
        f.lifecycle("w0", "recovered").unwrap();
        f.lifecycle("w0", "stopped").unwrap();
    }

    #[test]
    fn kill_then_recover_is_the_crash_path() {
        let mut f = FleetModel::new();
        f.lifecycle("w0", "killed").unwrap();
        assert_eq!(
            f.lifecycle("w0", "stopped").unwrap_err().rule,
            "lifecycle-legality"
        );
        f.lifecycle("w0", "recovered").unwrap();
    }
}
