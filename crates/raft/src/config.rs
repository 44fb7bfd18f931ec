//! Tunables for a Raft node. All durations are expressed in *ticks*; the
//! embedder decides how long a tick is (the Beehive hive uses 50 ms,
//! the simulator uses one virtual tick).

/// Configuration for a [`crate::RaftNode`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Minimum election timeout, in ticks. A follower that hears nothing from
    /// a leader for a random duration in
    /// `[election_timeout_min, election_timeout_max]` becomes a candidate.
    pub election_timeout_min: u64,
    /// Maximum election timeout, in ticks.
    pub election_timeout_max: u64,
    /// Leader heartbeat interval, in ticks. Must be well below the minimum
    /// election timeout. Entries and commit indices do not wait for it:
    /// [`crate::RaftNode::replicate`] sends them as they are proposed and
    /// acknowledged. The heartbeat keeps followers from campaigning and
    /// lets one that lost an append refuse the next and get it again.
    pub heartbeat_interval: u64,
    /// Maximum number of entries shipped in one `AppendEntries`.
    pub max_entries_per_append: usize,
    /// Take a snapshot and truncate the log once it holds more than this many
    /// applied entries. `0` disables automatic compaction.
    pub snapshot_threshold: u64,
    /// Seed for the node's deterministic RNG (election jitter). Nodes should
    /// use distinct seeds; the harness derives them from a master seed.
    pub rng_seed: u64,
    /// Run the pre-vote phase before real elections (Raft §9.6): a
    /// partitioned node that rejoins won't inflate terms and depose a
    /// healthy leader unless it could actually win.
    pub pre_vote: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            election_timeout_min: 10,
            election_timeout_max: 20,
            heartbeat_interval: 3,
            max_entries_per_append: 128,
            snapshot_threshold: 8192,
            rng_seed: 0xBEE5,
            pre_vote: true,
        }
    }
}

impl Config {
    /// Validates invariants (timeout ordering, nonzero heartbeat).
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_interval == 0 {
            return Err("heartbeat_interval must be > 0".into());
        }
        if self.election_timeout_min < 2 * self.heartbeat_interval {
            return Err("election_timeout_min must be at least 2x heartbeat_interval".into());
        }
        if self.election_timeout_max < self.election_timeout_min {
            return Err("election_timeout_max must be >= election_timeout_min".into());
        }
        if self.max_entries_per_append == 0 {
            return Err("max_entries_per_append must be > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        Config::default().validate().unwrap();
    }

    #[test]
    fn rejects_inverted_timeouts() {
        let cfg = Config {
            election_timeout_max: 5,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_tight_heartbeat() {
        let cfg = Config {
            heartbeat_interval: 8,
            election_timeout_min: 10,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_batch() {
        let cfg = Config {
            max_entries_per_append: 0,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
    }
}
