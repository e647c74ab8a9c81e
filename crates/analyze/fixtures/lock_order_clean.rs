//! Clean fixture for the `lock-order` pass: every body follows
//! `core → health`, including skipping a level.

impl Engine {
    /// Core only.
    fn core_only(&self) {
        let state = self.state.lock();
        drop(state);
    }

    /// Core, then one health acquisition for every counter change.
    fn full_protocol(&self, events: u64, healed: u64) {
        let state = self.lock_state();
        let mut health = self.lock_health();
        health.degraded_events += events;
        health.degraded_windows = health.degraded_windows.saturating_sub(healed);
        drop((health, state));
    }

    /// A raw `try_lock` on core, then the raw health mutex.
    fn raw_mutexes(&self) {
        let state = self.state.try_lock();
        let health = self.health.lock();
        drop((health, state));
    }

    /// Health alone, never touching core (the health-report shape).
    fn report(&self) -> Report {
        self.lock_health().clone()
    }

    /// One health acquisition per body is fine.
    fn reject(&self) {
        self.lock_health().nonfinite_input_rejections += 1;
    }
}
