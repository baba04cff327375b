#include "fabric/ha.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "telemetry/metrics.hpp"

namespace sda::fabric {

HaMonitor::HaMonitor(sim::Simulator& simulator, HaConfig config,
                     std::vector<lisp::MapServerNode*> servers,
                     std::vector<lisp::MapServer*> databases, ControlSend control_send,
                     EventHook event_hook, std::uint64_t seed)
    : simulator_(simulator),
      config_(config),
      servers_(std::move(servers)),
      databases_(std::move(databases)),
      control_send_(std::move(control_send)),
      event_hook_(std::move(event_hook)) {
  state_.resize(servers_.size());
  election_.resize(servers_.size());
  sync_.resize(servers_.size());
  node_rng_.reserve(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    state_[i].probe_source = servers_[i]->rloc();
    node_rng_.emplace_back(seed ^ (0xE1EC7ull * (i + 1)));
  }
  if (config_.catchup_log_capacity > 0) {
    // Every replica keeps the bounded mutation log so any node can serve
    // delta replay when it drives anti-entropy (leadership moves).
    for (lisp::MapServer* db : databases_) db->set_log_capacity(config_.catchup_log_capacity);
  }
}

void HaMonitor::set_probe_source(std::size_t server, net::Ipv4Address edge_rloc) {
  state_[server].probe_source = edge_rloc;
}

void HaMonitor::start() {
  if (config_.failover) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      simulator_.schedule_after(config_.heartbeat_interval, [this, i] { heartbeat(i); });
    }
  }
  if (config_.anti_entropy_interval.count() > 0 && databases_.size() > 1) {
    simulator_.schedule_after(config_.anti_entropy_interval, [this] { anti_entropy_round(); });
  }
  if (election_enabled()) {
    const sim::SimTime now = simulator_.now();
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      election_[i].last_assert = now;
      election_[i].watchdog_timeout = config_.election_timeout;
      arm_watchdog(i);
    }
    simulator_.schedule_after(config_.election_heartbeat_interval, [this] { assert_tick(); });
  }
}

std::size_t HaMonitor::active_server_for(std::size_t home) const {
  if (!config_.failover) return home;
  const auto usable = [this](std::size_t i) {
    return state_[i].up && !(config_.dampening && state_[i].suppressed);
  };
  if (usable(home)) return home;
  const std::size_t n = state_.size();
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t candidate = (home + k) % n;
    if (usable(candidate)) return candidate;
  }
  // Everything usable is gone; a merely-suppressed live server beats a
  // dead one (traffic must go somewhere), and with all servers down the
  // home is returned (keep trying; retransmission covers the gap).
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t candidate = (home + k) % n;
    if (state_[candidate].up) return candidate;
  }
  return home;
}

// ---------------------------------------------------------------------------
// Heartbeats and flap dampening
// ---------------------------------------------------------------------------

void HaMonitor::heartbeat(std::size_t server) {
  ServerState& st = state_[server];
  ++counters_.heartbeats_sent;
  // Decay the dampening penalty on the heartbeat cadence so a suppressed
  // server is released as soon as it drops below the reuse threshold —
  // not only on its next transition.
  refresh_dampening(server);
  // The probe and its ack each ride the control plane, so loss, extra
  // delay, and partitions fail heartbeats exactly like Map-Requests. The
  // verdict is decided once per heartbeat: whichever of {ack arrival,
  // timeout} fires first wins (a late ack after the timeout is ignored,
  // as the miss was already charged): both carry the beat's number.
  const std::uint64_t beat = ++st.beat;
  const net::Ipv4Address source = st.probe_source;
  const net::Ipv4Address target = servers_[server]->rloc();
  control_send_(source, target, 64, [this, server, source, target, beat] {
    if (!servers_[server]->online()) return;  // a down server never answers
    control_send_(target, source, 64, [this, server, beat] {
      heartbeat_verdict(server, beat, /*answered=*/true);
    });
  });
  simulator_.schedule_after(config_.heartbeat_timeout, [this, server, beat] {
    heartbeat_verdict(server, beat, /*answered=*/false);
  });
  simulator_.schedule_after(config_.heartbeat_interval, [this, server] { heartbeat(server); });
}

void HaMonitor::heartbeat_verdict(std::size_t server, std::uint64_t beat, bool answered) {
  ServerState& st = state_[server];
  if (beat != st.beat) return;  // settled already, or superseded
  ++st.beat;                     // settled: the beat's other closure is stale
  if (answered) {
    st.misses = 0;
    if (!st.up && ++st.ack_streak >= config_.up_after_acks) {
      st.up = true;
      st.ack_streak = 0;
      if (config_.dampening) charge_flap(server);
      if (st.suppressed) {
        // Hold-down: the recovery is recorded, but traffic does not
        // return until the penalty decays below reuse.
        return;
      }
      ++counters_.failbacks;
      emit(telemetry::EventKind::Failback, server,
           "restored after " + std::to_string(config_.up_after_acks) + " acks");
    }
    return;
  }
  ++counters_.heartbeat_misses;
  st.ack_streak = 0;
  if (st.up && ++st.misses >= config_.down_after_misses) {
    st.up = false;
    st.misses = 0;
    const bool already_suppressed = st.suppressed;
    if (config_.dampening) charge_flap(server);
    if (already_suppressed) return;  // held down: nobody was routed here
    ++counters_.failovers;
    emit(telemetry::EventKind::Failover, server,
         "declared down after " + std::to_string(config_.down_after_misses) + " misses");
  }
}

double HaMonitor::decayed_penalty(const ServerState& st) const {
  if (st.penalty <= 0.0) return 0.0;
  const sim::Duration dt = simulator_.now() - st.penalty_at;
  const double half_lives = static_cast<double>(dt.count()) /
                            static_cast<double>(config_.dampening_half_life.count());
  return st.penalty * std::exp2(-half_lives);
}

double HaMonitor::penalty(std::size_t i) const { return decayed_penalty(state_[i]); }

void HaMonitor::charge_flap(std::size_t server) {
  ServerState& st = state_[server];
  st.penalty = decayed_penalty(st) + config_.dampening_penalty;
  st.penalty_at = simulator_.now();
  if (!st.suppressed && st.penalty >= config_.dampening_suppress) {
    st.suppressed = true;
    ++counters_.suppressions;
    emit(telemetry::EventKind::ServerSuppressed, server,
         "suppressed, penalty " + std::to_string(static_cast<long long>(st.penalty)));
  }
}

void HaMonitor::refresh_dampening(std::size_t server) {
  if (!config_.dampening) return;
  ServerState& st = state_[server];
  st.penalty = decayed_penalty(st);
  st.penalty_at = simulator_.now();
  if (st.suppressed && st.penalty < config_.dampening_reuse) {
    st.suppressed = false;
    emit(telemetry::EventKind::ServerSuppressed, server,
         "released, penalty " + std::to_string(static_cast<long long>(st.penalty)));
    if (st.up) {
      // The deferred fail-back: the server recovered during the hold-down
      // and only now rejoins the rotation.
      ++counters_.failbacks;
      emit(telemetry::EventKind::Failback, server, "dampening hold-down released");
    }
  }
}

// ---------------------------------------------------------------------------
// Leader election (bully-with-epochs over the control legs)
// ---------------------------------------------------------------------------

std::size_t HaMonitor::leader() const {
  if (!election_enabled()) return 0;
  // Consensus view: the belief of the highest-epoch *online* node that
  // believes any leader exists. Offline nodes are skipped so a crashed
  // ex-leader's stale belief cannot fill the gap before the next win, and
  // leaderless beliefs (candidates mid-claim, quorum-stalled minorities)
  // never mask a still-working majority leader at a lower term.
  std::size_t best = kNoLeader;
  for (std::size_t i = 0; i < election_.size(); ++i) {
    if (!servers_[i]->online() || election_[i].leader == kNoLeader) continue;
    if (best == kNoLeader || election_[i].epoch > election_[best].epoch) best = i;
  }
  return best == kNoLeader ? kNoLeader : election_[best].leader;
}

std::uint64_t HaMonitor::epoch() const {
  if (!election_enabled()) return 0;
  std::uint64_t best = 0;
  for (const ElectionState& el : election_) best = std::max(best, el.epoch);
  return best;
}

std::uint64_t HaMonitor::leadership_epoch() const {
  if (!election_enabled()) return 0;
  std::uint64_t best = 0;
  for (const ElectionState& el : election_) {
    if (el.leader == kNoLeader) continue;  // a stalled candidacy is not leadership
    best = std::max(best, el.epoch);
  }
  return best;
}

void HaMonitor::arm_watchdog(std::size_t node) {
  ElectionState& el = election_[node];
  // Decorrelated jitter de-synchronizes replicas that lose the leader at
  // the same instant — without it, same-priority claims would tie on
  // every round. Hearing an assert resets the base (receive_assert).
  el.watchdog_timeout =
      sim::decorrelated_backoff(node_rng_[node], el.watchdog_timeout,
                                config_.election_timeout, config_.election_timeout * 3);
  simulator_.schedule_after(el.watchdog_timeout, [this, node] {
    const ElectionState& now_el = election_[node];
    if (servers_[node]->online() && now_el.leader != node && !now_el.candidate &&
        simulator_.now() - now_el.last_assert >= now_el.watchdog_timeout &&
        !(config_.dampening && state_[node].suppressed)) {
      start_election(node);
    }
    arm_watchdog(node);
  });
}

void HaMonitor::assert_tick() {
  // Every node that currently believes it leads asserts its term to every
  // peer (normally exactly one node; during split-brain both sides do,
  // and the epoch fence resolves the loser).
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (election_[i].leader != i) continue;
    if (!servers_[i]->online()) continue;  // a dead leader asserts nothing
    for (std::size_t j = 0; j < servers_.size(); ++j) {
      if (j != i) send_assert(i, j);
    }
  }
  simulator_.schedule_after(config_.election_heartbeat_interval, [this] { assert_tick(); });
}

void HaMonitor::send_assert(std::size_t from, std::size_t to) {
  const std::uint64_t e = election_[from].epoch;
  const std::size_t leader_hint = election_[from].leader;
  control_send_(servers_[from]->rloc(), servers_[to]->rloc(), 48,
                [this, from, to, e, leader_hint] {
                  receive_assert(to, from, e, leader_hint);
                });
}

void HaMonitor::start_election(std::size_t node) {
  ElectionState& el = election_[node];
  el.epoch += 1;
  el.candidate = true;
  el.votes = 0;
  // A candidacy is leaderless: the node that opens a term has given up on
  // the old leader. A sitting leader restating its own claim (objection
  // path) keeps its authority until actually deposed.
  if (el.leader != node) el.leader = kNoLeader;
  ++counters_.elections_started;
  emit(telemetry::EventKind::ElectionStarted, node,
       "opened term " + std::to_string(el.epoch));
  const std::uint64_t claim = el.epoch;
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    if (j == node) continue;
    control_send_(servers_[node]->rloc(), servers_[j]->rloc(), 48,
                  [this, node, j, claim] { receive_claim(j, node, claim); });
  }
  simulator_.schedule_after(config_.election_claim_timeout, [this, node, claim] {
    ElectionState& cand = election_[node];
    // Unchallenged (no live lower-index peer objected with a newer term).
    if (!cand.candidate || cand.epoch != claim) return;
    if (config_.election_quorum && !quorum_reached(cand)) {
      // Quorum elections: a candidate that cannot confirm a strict
      // majority of the configured replicas (a minority partition) stalls
      // leaderless instead of asserting — the watchdog retries with a
      // fresh term until the partition heals.
      cand.candidate = false;
      cand.leader = kNoLeader;
      quorum_lost_ = true;
      ++counters_.quorum_stalls;
      emit(telemetry::EventKind::QuorumLost, node,
           "term " + std::to_string(claim) + " stalled with " +
               std::to_string(cand.votes + 1) + "/" + std::to_string(servers_.size()) +
               " replicas");
      return;
    }
    become_leader(node);
  });
}

void HaMonitor::receive_claim(std::size_t node, std::size_t from, std::uint64_t claim) {
  if (!servers_[node]->online()) return;
  ElectionState& el = election_[node];
  if (claim < el.epoch) {
    // Stale candidate (e.g. a healed partition replaying an old term):
    // answer with the current term so it stands down.
    ++counters_.epoch_rejections;
    emit(telemetry::EventKind::EpochRejected, node,
         "claim of term " + std::to_string(claim) + " from routing_server[" +
             std::to_string(from) + "], current " + std::to_string(el.epoch));
    send_assert(node, from);
    return;
  }
  if (config_.dampening && state_[from].suppressed) return;  // dampened: not electable
  // Bully objection: a live, unsuppressed lower-index node takes the
  // leadership by opening a newer term; everyone else defers.
  if (node < from && !(config_.dampening && state_[node].suppressed)) {
    el.epoch = claim;  // the counter-claim must supersede
    el.candidate = false;
    start_election(node);
    return;
  }
  el.epoch = claim;
  el.candidate = false;  // a concurrent same-term claim from a better index
  el.leader = kNoLeader;  // the old leader timed out somewhere; await the assert
  el.last_assert = simulator_.now();  // grant the candidate its claim window
  if (config_.election_quorum) {
    // Quorum vote: ack the deferral so the candidate can count a majority.
    control_send_(servers_[node]->rloc(), servers_[from]->rloc(), 24,
                  [this, node, from, claim] { receive_vote(from, node, claim); });
  }
}

void HaMonitor::receive_vote(std::size_t candidate, std::size_t /*from*/,
                             std::uint64_t claim) {
  if (!servers_[candidate]->online()) return;
  ElectionState& el = election_[candidate];
  // Stale ballots (a newer term opened, or the claim already resolved)
  // must not count toward the live candidacy.
  if (!el.candidate || el.epoch != claim) return;
  ++el.votes;
}

void HaMonitor::receive_assert(std::size_t node, std::size_t from, std::uint64_t e,
                               std::size_t leader_hint) {
  if (!servers_[node]->online()) return;
  ElectionState& el = election_[node];
  if (e < el.epoch) {
    // Split-brain fence: a resurrected stale leader asserts its old term;
    // reject it and notify it of the current term so it steps down.
    ++counters_.epoch_rejections;
    emit(telemetry::EventKind::EpochRejected, node,
         "assert of term " + std::to_string(e) + " from routing_server[" +
             std::to_string(from) + "], current " + std::to_string(el.epoch));
    if (leader_hint == from) send_assert(node, from);
    return;
  }
  if (leader_hint != kNoLeader && config_.dampening && state_[leader_hint].suppressed &&
      leader_hint != node) {
    // A dampened server's leadership is not honored: by ignoring the
    // assert the watchdog expires and elects an unsuppressed replica.
    return;
  }
  if (e > el.epoch) {
    el.epoch = e;
    el.candidate = false;
    el.leader = leader_hint;  // also deposes this node if it believed it led
  } else if (leader_hint < el.leader) {
    el.leader = leader_hint;  // same-term tie-break: lowest index wins
  } else if (leader_hint != el.leader) {
    return;  // same-term higher-index pretender: ignore
  }
  el.last_assert = simulator_.now();
  el.watchdog_timeout = config_.election_timeout;  // re-jitter from the base
}

void HaMonitor::become_leader(std::size_t node) {
  if (!servers_[node]->online()) return;
  ElectionState& el = election_[node];
  // Breach audit for the no-minority-leader invariant: with quorum
  // elections on, every win must have confirmed a strict majority.
  if (config_.election_quorum && !quorum_reached(el)) ++counters_.minority_leaders;
  el.candidate = false;
  el.leader = node;
  ++counters_.leaders_elected;
  emit(telemetry::EventKind::LeaderElected, node, "term " + std::to_string(el.epoch));
  if (quorum_lost_) {
    quorum_lost_ = false;
    emit(telemetry::EventKind::QuorumRegained, node, "term " + std::to_string(el.epoch));
  }
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    if (j != node) send_assert(node, j);
  }
  // The fabric re-homes the pub/sub feed and the acking authority, and
  // advertises the new epoch to the edges (stale-ack fence).
  if (leader_changed_) leader_changed_(node, el.epoch);
}

// ---------------------------------------------------------------------------
// Anti-entropy (driven by whoever currently believes it leads)
// ---------------------------------------------------------------------------

void HaMonitor::anti_entropy_round() {
  ++counters_.anti_entropy_rounds;
  last_divergence_ = 0;
  for (std::size_t d = 0; d < servers_.size(); ++d) {
    if (!node_believes_leader(d) || !servers_[d]->online()) continue;
    for (std::size_t i = 0; i < databases_.size(); ++i) {
      if (i != d) anti_entropy_with(d, i);
    }
  }
  simulator_.schedule_after(config_.anti_entropy_interval, [this] { anti_entropy_round(); });
}

void HaMonitor::anti_entropy_with(std::size_t driver, std::size_t replica) {
  const net::Ipv4Address driver_rloc = servers_[driver]->rloc();
  const std::uint64_t digest_epoch = node_epoch(driver);
  // Digest query out to the replica; only a live replica answers. The
  // repair exchange is one more round trip carrying the differing
  // entries (modeled as a single reconcile at arrival — both sides
  // converge to the newest-registration-wins merge).
  control_send_(driver_rloc, servers_[replica]->rloc(),
                72, [this, driver, replica, driver_rloc, digest_epoch] {
    if (!servers_[replica]->online() || !servers_[driver]->online()) return;
    if (digest_epoch != 0 && digest_epoch < election_[replica].epoch) {
      // Split-brain fence: this replica has seen a newer term; the
      // driver is deposed and must not reconcile state into us.
      ++counters_.epoch_rejections;
      emit(telemetry::EventKind::EpochRejected, replica,
           "anti-entropy digest of term " + std::to_string(digest_epoch) +
               " from routing_server[" + std::to_string(driver) + "], current " +
               std::to_string(election_[replica].epoch));
      return;
    }
    if (databases_[driver]->digest() == databases_[replica]->digest()) {
      // In sync: note how far this replica tracks the driver's log so a
      // later lag can be repaired by delta replay, and close any catch-up
      // operation that was converging.
      note_synced(driver, replica);
      close_catchup(replica);
      return;
    }
    ++counters_.digest_mismatches;
    open_catchup(replica);
    lisp::MapServer& db = *databases_[driver];
    const SyncState& sync = sync_[replica];
    const std::uint64_t resume = sync.applied_seq + 1;
    // Delta replay is possible when the replica was last synced against
    // this driver's log, has not cold-restarted since (generation), and
    // the bounded log still covers the suffix it missed.
    const bool replayable = config_.catchup_log_capacity > 0 && sync.driver == driver &&
                            sync.generation == databases_[replica]->generation() &&
                            db.log_covers(resume) && resume < db.log_next_seq();
    if (replayable) {
      // Ship only the log suffix the replica missed instead of exchanging
      // full tables (the catchup_vs_snapshot drill measures the saving).
      auto entries = std::make_shared<std::vector<lisp::MapServer::LogEntry>>();
      db.replay_log(resume, [&entries](const lisp::MapServer::LogEntry& e) {
        entries->push_back(e);
      });
      const std::uint64_t tail = db.log_next_seq() - 1;
      const std::size_t bytes = 64 + 40 * entries->size();
      counters_.catchup_replay_bytes += bytes;
      control_send_(driver_rloc, servers_[replica]->rloc(), bytes,
                    [this, driver, replica, entries, tail] {
        if (!servers_[replica]->online() || !servers_[driver]->online()) return;
        for (const lisp::MapServer::LogEntry& e : *entries) {
          databases_[replica]->apply_log_entry(e);
        }
        sync_[replica].applied_seq = tail;
        sync_[replica].via_snapshot = false;
        ++counters_.catchup_replays;
        counters_.catchup_entries_replayed += entries->size();
        counters_.anti_entropy_repairs += entries->size();
        last_divergence_ += entries->size();
        emit(telemetry::EventKind::AntiEntropy, replica,
             "replayed " + std::to_string(entries->size()) + " log entries from leader " +
                 std::to_string(driver));
        // If the digests still disagree (the replica holds state this log
        // never saw), the next round falls back to the snapshot exchange.
        if (databases_[driver]->digest() == databases_[replica]->digest()) {
          close_catchup(replica);
        }
      });
      return;
    }
    if (config_.catchup_log_capacity > 0) ++counters_.catchup_snapshot_fallbacks;
    // Snapshot exchange: the replica ships its full table for diffing and
    // the repairs come back — billed as both tables in flight, which is
    // what makes delta replay measurably cheaper.
    const std::size_t bytes =
        64 + 48 * (databases_[driver]->mapping_count() + databases_[replica]->mapping_count());
    counters_.snapshot_bytes += bytes;
    control_send_(servers_[replica]->rloc(), driver_rloc, bytes, [this, driver, replica] {
      if (!servers_[replica]->online() || !servers_[driver]->online()) return;
      const lisp::MapServer::ReconcileStats stats = databases_[driver]->reconcile_with(
          *databases_[replica], simulator_.now());
      const std::uint64_t repaired = stats.total();
      counters_.anti_entropy_repairs += repaired;
      last_divergence_ += repaired;
      if (repaired > 0) {
        emit(telemetry::EventKind::AntiEntropy, replica,
             "reconciled " + std::to_string(repaired) + " entries with leader " +
                 std::to_string(driver));
      }
      note_synced(driver, replica);
      sync_[replica].via_snapshot = true;
      if (databases_[driver]->digest() == databases_[replica]->digest()) {
        close_catchup(replica);
      }
    });
  });
}

void HaMonitor::note_synced(std::size_t driver, std::size_t replica) {
  SyncState& sync = sync_[replica];
  sync.driver = driver;
  sync.applied_seq = databases_[driver]->log_next_seq() - 1;
  sync.generation = databases_[replica]->generation();
}

void HaMonitor::open_catchup(std::size_t replica) {
  SyncState& sync = sync_[replica];
  if (sync.open) return;
  sync.open = true;
  sync.via_snapshot = false;
  if (catchup_begin_) catchup_begin_(replica);
}

void HaMonitor::close_catchup(std::size_t replica) {
  SyncState& sync = sync_[replica];
  if (!sync.open) return;
  sync.open = false;
  if (catchup_end_) catchup_end_(replica, sync.via_snapshot);
}

void HaMonitor::emit(telemetry::EventKind kind, std::size_t server, std::string detail) {
  if (!event_hook_) return;
  event_hook_(kind, "routing_server[" + std::to_string(server) + "]", std::move(detail));
}

void HaMonitor::register_metrics(telemetry::MetricsRegistry& registry,
                                 const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "heartbeats_sent"),
                            [this] { return counters_.heartbeats_sent; });
  registry.register_counter(telemetry::join(prefix, "heartbeat_misses"),
                            [this] { return counters_.heartbeat_misses; });
  registry.register_counter(telemetry::join(prefix, "failovers"),
                            [this] { return counters_.failovers; });
  registry.register_counter(telemetry::join(prefix, "failbacks"),
                            [this] { return counters_.failbacks; });
  registry.register_counter(telemetry::join(prefix, "anti_entropy_rounds"),
                            [this] { return counters_.anti_entropy_rounds; });
  registry.register_counter(telemetry::join(prefix, "digest_mismatches"),
                            [this] { return counters_.digest_mismatches; });
  registry.register_counter(telemetry::join(prefix, "anti_entropy_repairs"),
                            [this] { return counters_.anti_entropy_repairs; });
  registry.register_counter(telemetry::join(prefix, "elections_started"),
                            [this] { return counters_.elections_started; });
  registry.register_counter(telemetry::join(prefix, "leaders_elected"),
                            [this] { return counters_.leaders_elected; });
  registry.register_counter(telemetry::join(prefix, "epoch_rejections"),
                            [this] { return counters_.epoch_rejections; });
  registry.register_counter(telemetry::join(prefix, "suppressions"),
                            [this] { return counters_.suppressions; });
  registry.register_counter(telemetry::join(prefix, "quorum_stalls"),
                            [this] { return counters_.quorum_stalls; });
  registry.register_counter(telemetry::join(prefix, "minority_leaders"),
                            [this] { return counters_.minority_leaders; });
  registry.register_counter(telemetry::join(prefix, "catchup.replays"),
                            [this] { return counters_.catchup_replays; });
  registry.register_counter(telemetry::join(prefix, "catchup.entries_replayed"),
                            [this] { return counters_.catchup_entries_replayed; });
  registry.register_counter(telemetry::join(prefix, "catchup.snapshot_fallbacks"),
                            [this] { return counters_.catchup_snapshot_fallbacks; });
  registry.register_counter(telemetry::join(prefix, "catchup.replay_bytes"),
                            [this] { return counters_.catchup_replay_bytes; });
  registry.register_counter(telemetry::join(prefix, "catchup.snapshot_bytes"),
                            [this] { return counters_.snapshot_bytes; });
  registry.register_gauge(telemetry::join(prefix, "servers_up"), [this] {
    std::size_t up = 0;
    for (const ServerState& st : state_) up += st.up ? 1 : 0;
    return static_cast<double>(up);
  });
  registry.register_gauge(telemetry::join(prefix, "replica_divergence"),
                          [this] { return static_cast<double>(last_divergence_); });
  registry.register_gauge(telemetry::join(prefix, "election.term"),
                          [this] { return static_cast<double>(epoch()); });
  registry.register_gauge(telemetry::join(prefix, "election.leader"), [this] {
    if (!election_enabled()) return -1.0;
    const std::size_t l = leader();
    return l == kNoLeader ? -1.0 : static_cast<double>(l);  // -1: leaderless
  });
  registry.register_gauge(telemetry::join(prefix, "election.quorum"), [this] {
    if (!election_enabled()) return -1.0;
    return quorum_lost_ ? 0.0 : 1.0;
  });
  registry.register_gauge(telemetry::join(prefix, "dampening.suppressed"), [this] {
    std::size_t suppressed = 0;
    for (const ServerState& st : state_) suppressed += st.suppressed ? 1 : 0;
    return static_cast<double>(suppressed);
  });
}

}  // namespace sda::fabric
