//! Known-bad fixture for the `lock-order` pass: two protocol violations.
//! This file is never compiled — it only needs to lex.

impl Engine {
    /// VIOLATION (line below `lock_health`): the health lock is taken and
    /// then the core state mutex — the inversion that deadlocks against any
    /// writer holding core and waiting on health.
    fn health_before_core(&self, s: usize) {
        let mut health = self.lock_health();
        health.quarantined_by_series[s] += 1;
        let state = self.state.lock();
        drop(state);
    }

    /// VIOLATION: two health acquisitions in one body — the second blocks
    /// forever on the non-reentrant mutex the first guard still holds.
    fn double_health(&self) {
        let guard = self.lock_health();
        let again = self.health.lock();
        drop((guard, again));
    }

    /// Clean: the full protocol in order, for contrast.
    fn in_order(&self) {
        let state = self.state.lock();
        self.lock_health().poison_recoveries += 1;
        drop(state);
    }
}
