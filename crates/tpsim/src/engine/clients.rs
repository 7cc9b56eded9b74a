//! The closed-loop client state machine (client mode only): issue,
//! timeout, retry or abandon, and the cancellation of an attempt
//! wherever on the floor it is. The data model is `crate::client`.

use alc_core::gatelog::GateEvent;
use alc_des::dist::Sample as _;
use alc_trace::name as tname;

use super::{Event, Simulator};
use crate::client::ClientPhase;
use crate::txn::TxnState;

impl Simulator {
    /// A client issues an attempt: first attempt of a fresh request when
    /// Thinking, retry of the outstanding request when in Backoff. Arms
    /// the patience timeout and submits the client's slot to the gate —
    /// unless retry shedding bounces the attempt at a saturated gate.
    pub(super) fn on_client_issue(&mut self, c: usize, generation: u64) {
        let Some(pool) = self.clients.as_mut() else {
            debug_assert!(false, "ClientIssue without a client pool");
            return;
        };
        if pool.clients[c].generation != generation {
            return; // stale: the client moved on
        }
        let retry = pool.clients[c].phase == ClientPhase::Backoff;
        if retry {
            pool.stats.retries += 1;
        } else {
            debug_assert_eq!(pool.clients[c].phase, ClientPhase::Thinking);
            pool.stats.issued += 1;
            pool.stats.first_attempts += 1;
            pool.stats.in_flight += 1;
            pool.clients[c].attempt = 0;
        }
        pool.stats.attempts += 1;
        pool.clients[c].attempt += 1;
        pool.clients[c].phase = ClientPhase::Waiting;
        let (shed_cfg, timeout_dist) = (pool.cfg.shed_retries, pool.cfg.timeout);
        if retry {
            // Close the retry-chain flow opened when the retry was
            // scheduled; a shed retry still completes its flow link.
            self.tr_retry_flow(false, c, generation);
        }
        // Retry shedding: a retry that meets a saturated (or held) gate
        // is bounced instead of queued — first attempts always queue. A
        // shed retry consumed no service, so it is invisible to the
        // sampler: the controller's clamp signal is the wasted work of
        // in-system cancellations, not the refusals that prevent it
        // (counting refusals as spent budget would pin the bound down
        // forever once it started shedding).
        if retry && shed_cfg && (self.gate.held() || self.gate.in_system() >= self.gate.bound()) {
            if let Some(pool) = self.clients.as_mut() {
                pool.stats.shed += 1;
            }
            self.tr_client_instant(tname::CLIENT_SHED, c);
            self.retry_or_abandon(c);
            return;
        }
        let patience = timeout_dist.sample(&mut self.rng.client_timeout);
        self.cal.schedule_in(
            patience,
            Event::ClientTimeout {
                client: c,
                generation,
            },
        );
        self.submit_attempt(c);
    }

    /// Patience expired: cancel the in-flight attempt, count the timeout
    /// as sampler-visible lost work, and let the retry policy decide
    /// what happens next.
    pub(super) fn on_client_timeout(&mut self, c: usize, generation: u64) {
        let Some(pool) = self.clients.as_mut() else {
            debug_assert!(false, "ClientTimeout without a client pool");
            return;
        };
        if pool.clients[c].generation != generation {
            return; // stale: the attempt already finished
        }
        debug_assert_eq!(pool.clients[c].phase, ClientPhase::Waiting);
        pool.stats.timeouts += 1;
        self.tr_client_instant(tname::CLIENT_TIMEOUT, c);
        // Only attempts that actually consumed service count as
        // sampler-visible wasted work; a cancellation straight out of the
        // gate queue is an admission refusal, exactly like a shed retry.
        if self.cancel_attempt(c) {
            let at_ms = self.now().millis();
            self.control_loop.feed(&GateEvent::Abort {
                at_ms,
                conflicts: 0,
            });
        }
        self.retry_or_abandon(c);
    }

    /// The population of the installed client pool (client mode only).
    pub(super) fn client_population(&self) -> usize {
        self.clients
            .as_ref()
            .map_or(0, |p| p.cfg.population as usize)
    }

    /// After a timeout or a shed retry: retry the outstanding request
    /// (per the pool's policy) or abandon it, scheduling the client's
    /// next issue event either way.
    fn retry_or_abandon(&mut self, c: usize) {
        let Some(pool) = self.clients.as_mut() else {
            debug_assert!(false, "retry decision without a client pool");
            return;
        };
        let attempt = pool.clients[c].attempt;
        // Retry until the request's retries run out.
        let delay = (attempt <= pool.cfg.max_retries).then(|| {
            let jitter = pool.cfg.retry.jitter;
            pool.backoff_base(attempt) * (1.0 - jitter * self.rng.retry_jitter.uniform01())
        });
        match delay {
            Some(d) => {
                pool.clients[c].phase = ClientPhase::Backoff;
                pool.clients[c].generation += 1; // tombstones the pending timeout
                let generation = pool.clients[c].generation;
                self.cal.schedule_in(
                    d,
                    Event::ClientIssue {
                        client: c,
                        generation,
                    },
                );
                // Open the retry-chain flow; the matching finish fires
                // when the scheduled retry issues (same client and
                // generation, so the id pairs without stored state).
                self.tr_retry_flow(true, c, generation);
            }
            None => {
                pool.stats.abandoned += 1;
                self.settle(c);
                self.tr_client_instant(tname::CLIENT_ABANDON, c);
            }
        }
    }

    /// Client `c`'s attempt committed (slot `c` is client `c`'s): settle
    /// the request.
    pub(super) fn on_client_commit(&mut self, c: usize) {
        let pool = self.clients.as_mut().expect("client mode");
        debug_assert_eq!(pool.clients[c].phase, ClientPhase::Waiting);
        pool.stats.committed += 1;
        self.settle(c);
    }

    /// Client `c`'s request is over (committed or abandoned): back to
    /// Thinking, with the next request one think time away.
    fn settle(&mut self, c: usize) {
        let pool = self.clients.as_mut().expect("client mode");
        pool.stats.in_flight -= 1;
        let client = &mut pool.clients[c];
        client.generation += 1; // tombstones the armed timeout
        let generation = client.generation;
        client.phase = ClientPhase::Thinking;
        client.attempt = 0;
        self.schedule_think(Event::ClientIssue {
            client: c,
            generation,
        });
    }

    /// Tears down an in-flight attempt on slot `i` after a client
    /// timeout: the run leaves whatever stage it
    /// occupies — gate queue, CC layer, CPU/disk, restart wait — without
    /// counting as an engine-level abort, and a freed MPL slot admits
    /// waiters exactly like a commit departure. Returns whether the
    /// attempt had been admitted (and so consumed service the sampler
    /// should see as wasted work).
    fn cancel_attempt(&mut self, i: usize) -> bool {
        let prior = self.txns[i].state;
        self.txns[i].generation += 1; // kill in-flight burst/restart events
        if prior == TxnState::Thinking {
            return false; // not on the floor
        }
        self.set_state(i, TxnState::Thinking, "cancel");
        match prior {
            TxnState::Queued => {
                let removed = self.gate.remove(i);
                debug_assert!(removed, "queued attempt missing from the gate queue");
                return false; // never admitted: no MPL slot to free
            }
            TxnState::Running { .. } | TxnState::Blocked { .. } => {
                let mut unblocked = self.take_scratch();
                self.cc.abort_into(i, &mut unblocked);
                self.resume_all(unblocked);
            }
            // RestartWait: already out of the CC layer, still holding
            // its MPL slot.
            _ => {}
        }
        self.depart();
        true
    }
}
