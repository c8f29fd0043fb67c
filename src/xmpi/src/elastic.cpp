/// @file elastic.cpp
/// @brief The membership-epoch state machine of elastic worlds (elastic.hpp).
#include "xmpi/elastic.hpp"

#include <algorithm>

#include "coll.hpp"
#include "xmpi/chaos.hpp"
#include "xmpi/error.hpp"
#include "xmpi/profile.hpp"
#include "xmpi/world.hpp"

namespace xmpi {
namespace {

using detail::MemberState;

char const* cause_literal(bool grow, bool shrink, bool failure) {
    // Spans reference transition causes as static literals (they never own
    // their strings); index = grow | shrink<<1 | failure<<2. A transition
    // with no membership change was forced by a bare revocation.
    static constexpr char const* table[8] = {
        "revoked",      "grow",           "shrink",          "grow+shrink",
        "failure",      "grow+failure",   "shrink+failure",  "grow+shrink+failure",
    };
    return table[(grow ? 1 : 0) | (shrink ? 2 : 0) | (failure ? 4 : 0)];
}

/// Profiled elastic entry point: bumps the rank's call counter and gives an
/// armed chaos plan its reproducible injection window (kill a rank mid-join,
/// kill a leaver mid-leave). Mirrors the api.cpp count_call, but keyed by an
/// explicit rank so it also covers World-level (non-XMPI_*) entry points.
void count_elastic_call(World& world, int world_rank, profile::Call call) {
    auto const count = world.counters(world_rank)
                           .calls[static_cast<std::size_t>(call)]
                           .fetch_add(1, std::memory_order_relaxed)
                       + 1;
    if (auto* engine = world.chaos_engine(); engine != nullptr) {
        if (engine->on_call(world_rank, call, static_cast<std::uint64_t>(count))) {
            world.kill_current_rank(); // throws RankKilled
        }
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Epoch gating of in-flight messages
// ---------------------------------------------------------------------------

void World::register_context_epoch(int context, std::uint64_t epoch) {
    std::unique_lock lock(context_epoch_mutex_);
    context_epochs_.emplace(context, epoch);
}

bool World::context_is_stale(int context) const {
    std::shared_lock lock(context_epoch_mutex_);
    auto const it = context_epochs_.find(context);
    return it != context_epochs_.end()
           && it->second != membership_epoch_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Transition machinery (all *_locked: caller holds the elastic mutex)
// ---------------------------------------------------------------------------

void World::create_rank_slot_locked(int slot) {
    counters_[static_cast<std::size_t>(slot)] = std::make_unique<profile::RankCounters>();
    // The joiner's own scan bound (slot + 1) covers every possible sender;
    // the *other* mailboxes learn about the new slot at the transition.
    mailboxes_[static_cast<std::size_t>(slot)] = std::make_unique<detail::Mailbox>(
        this, &payload_pool_, counters_[static_cast<std::size_t>(slot)].get(), slot, slot + 1);
    // Release-publish the slot count after the slot contents: readers
    // iterating [0, rank_slots()) (wake_all, profile snapshots) synchronize
    // on this store.
    rank_slots_.store(slot + 1, std::memory_order_release);
}

bool World::needs_transition_locked() const {
    auto const& es = *elastic_;
    return !es.pending_joiners.empty() || !es.pending_leavers.empty()
           || es.current->revoked() || es.current->any_member_failed();
}

bool World::round_complete_locked() const {
    auto const& es = *elastic_;
    for (int slot = 0; slot < es.next_slot; ++slot) {
        auto const state = es.members[static_cast<std::size_t>(slot)];
        bool const required = (state == MemberState::active || state == MemberState::leaving)
                              && !is_failed(slot);
        if (required
            && std::find(es.arrived.begin(), es.arrived.end(), slot) == es.arrived.end()) {
            return false;
        }
    }
    return true;
}

void World::arrive_locked(int slot) {
    auto& es = *elastic_;
    if (std::find(es.arrived.begin(), es.arrived.end(), slot) != es.arrived.end()) {
        return;
    }
    es.arrived.push_back(slot);
    wake_all();
    // Chaos window: die *after* arriving at the transition round but
    // *before* it produces the next epoch — the remaining participants must
    // fold this failure into the same round.
    chaos::hit_hook(*this, slot, chaos::Hook::ft_elastic_sync);
}

void World::request_transition_locked() {
    transition_pending_.store(true, std::memory_order_release);
    // The scaling path reuses the ULFM abort machinery verbatim: revoking
    // the current epoch's communicator kicks every member out of blocked
    // operations with XMPI_ERR_REVOKED, so they reach epoch_sync instead of
    // deadlocking the membership rendezvous. (ulfm_revoke is idempotent.)
    detail::ulfm_revoke(*elastic_->current);
}

void World::perform_transition_locked(int producer) {
    auto& es = *elastic_;
    bool grow = false;
    bool shrink = false;
    bool failure = false;
    // Fold every pending join and leave into this transition; a requester
    // that died in between is excluded by the same transition (the unified
    // failure path — no separate bookkeeping).
    for (int slot: es.pending_joiners) {
        if (is_failed(slot)) {
            es.members[static_cast<std::size_t>(slot)] = MemberState::failed;
            failure = true;
        } else {
            es.members[static_cast<std::size_t>(slot)] = MemberState::active;
            grow = true;
        }
    }
    es.pending_joiners.clear();
    for (int slot: es.pending_leavers) {
        if (is_failed(slot)) {
            es.members[static_cast<std::size_t>(slot)] = MemberState::failed;
            failure = true;
        } else {
            es.members[static_cast<std::size_t>(slot)] = MemberState::left;
            shrink = true;
        }
    }
    es.pending_leavers.clear();
    std::vector<int> members;
    for (int slot = 0; slot < es.next_slot; ++slot) {
        if (es.members[static_cast<std::size_t>(slot)] != MemberState::active) {
            continue;
        }
        if (is_failed(slot)) {
            es.members[static_cast<std::size_t>(slot)] = MemberState::failed;
            failure = true;
        } else {
            members.push_back(slot);
        }
    }
    es.epoch += 1;
    es.last_cause = cause_literal(grow, shrink, failure);
    auto* fresh = new Comm(this, std::move(members));
    fresh->set_epoch_gate(es.epoch);
    register_context_epoch(fresh->pt2pt_context(), es.epoch);
    register_context_epoch(fresh->collective_context(), es.epoch);
    register_context_epoch(fresh->nbc_context(), es.epoch);
    // Admitted ranks may now publish to everyone: raise every live mailbox's
    // ring-scan bound to cover the new slots.
    for (int slot = 0; slot < es.next_slot; ++slot) {
        if (mailboxes_[static_cast<std::size_t>(slot)] != nullptr) {
            mailboxes_[static_cast<std::size_t>(slot)]->grow_world_size(es.next_slot);
        }
    }
    // Park (not free) the superseded comm: operations aborting with
    // XMPI_ERR_REVOKED may still be unwinding through it. ~World releases
    // the parked epochs once all rank threads are gone.
    es.retired.push_back(es.current);
    es.current = fresh;
    // Publishing the epoch *after* registering the fresh contexts means
    // delivery never misclassifies a fresh-context message as stale.
    membership_epoch_.store(es.epoch, std::memory_order_release);
    transition_pending_.store(false, std::memory_order_release);
    counters(producer).epoch_transitions.fetch_add(1, std::memory_order_relaxed);
    if (profile::tracing_enabled()) {
        profile::Span span;
        span.op = "epoch_transition";
        span.algorithm = es.last_cause;
        span.world_rank = producer;
        span.epoch = es.epoch;
        span.start_s = wtime();
        profile::record_span(span);
    }
    es.arrived.clear();
    wake_all();
}

// ---------------------------------------------------------------------------
// Public membership API
// ---------------------------------------------------------------------------

Comm* World::epoch_sync() {
    if (elastic_ == nullptr) {
        throw UsageError("epoch_sync: world is not elastic (construct it with a capacity)");
    }
    int const me = detail::current_world_rank();
    count_elastic_call(*this, me, profile::Call::epoch_sync);
    auto& es = *elastic_;
    std::unique_lock lock(es.mutex);
    if (es.members[static_cast<std::size_t>(me)] != MemberState::active) {
        throw UsageError("epoch_sync: calling rank is not an active member of this world");
    }
    detail::wait_locked(waiter(me), lock, [&] {
        if (!needs_transition_locked()) {
            // Nothing to do (or someone already performed the transition):
            // hand out the current epoch. Clears the pending hint a folded
            // failure may have left behind.
            transition_pending_.store(false, std::memory_order_release);
            return true;
        }
        arrive_locked(me);
        if (round_complete_locked()) {
            perform_transition_locked(me);
            return true;
        }
        return false;
    });
    // The epoch-0 communicator is the world communicator: the World owns it
    // and XMPI_Comm_free refuses it, so it is handed out unretained. Every
    // later epoch's communicator is retained for the caller to free.
    if (es.current != world_comm()) {
        es.current->retain();
    }
    return es.current;
}

int World::open_session() {
    if (elastic_ == nullptr) {
        throw UsageError("open_session: world is not elastic (construct it with a capacity)");
    }
    auto& context = detail::current_context();
    if (context.world != nullptr) {
        throw UsageError("open_session: thread is already attached to a world");
    }
    auto& es = *elastic_;
    int slot = UNDEFINED;
    {
        std::lock_guard lock(es.mutex);
        if (es.next_slot >= capacity_) {
            throw UsageError("open_session: world capacity exhausted");
        }
        slot = es.next_slot++;
        es.members[static_cast<std::size_t>(slot)] = MemberState::joining;
        create_rank_slot_locked(slot);
        es.pending_joiners.push_back(slot);
        request_transition_locked();
    }
    attach_current_thread(slot);
    // The join is announced; a chaos plan killing at Call::session_open
    // fires here — the canonical kill-mid-join window, leaving a dead
    // joiner for the transition to exclude.
    count_elastic_call(*this, slot, profile::Call::session_open);
    std::unique_lock lock(es.mutex);
    detail::wait_locked(waiter(slot), lock, [&] {
        // Normally a member performs the transition; if no live member is
        // left to do so (all failed or leaving), the joiner completes it.
        if (es.members[static_cast<std::size_t>(slot)] == MemberState::joining
            && round_complete_locked()) {
            perform_transition_locked(slot);
        }
        return es.members[static_cast<std::size_t>(slot)] != MemberState::joining;
    });
    return slot;
}

void World::leave_session() {
    if (elastic_ == nullptr) {
        throw UsageError("leave_session: world is not elastic (construct it with a capacity)");
    }
    int const me = detail::current_world_rank();
    auto& es = *elastic_;
    {
        std::lock_guard lock(es.mutex);
        if (es.members[static_cast<std::size_t>(me)] != MemberState::active) {
            throw UsageError("leave_session: calling rank is not an active member (double leave?)");
        }
        es.members[static_cast<std::size_t>(me)] = MemberState::leaving;
        es.pending_leavers.push_back(me);
        request_transition_locked();
    }
    // The leave is announced; a chaos plan killing at Call::session_leave
    // fires here — a dead leaver, excluded as a failure by the transition.
    count_elastic_call(*this, me, profile::Call::session_leave);
    {
        std::unique_lock lock(es.mutex);
        detail::wait_locked(waiter(me), lock, [&] {
            if (es.members[static_cast<std::size_t>(me)] != MemberState::leaving) {
                return true;
            }
            // Leavers participate in the round like members (they are
            // required arrivals until the transition retires them).
            arrive_locked(me);
            if (round_complete_locked()) {
                perform_transition_locked(me);
            }
            return es.members[static_cast<std::size_t>(me)] != MemberState::leaving;
        });
    }
    detach_current_thread();
}

bool World::membership_pending() const {
    if (elastic_ == nullptr) {
        return false;
    }
    if (transition_pending_.load(std::memory_order_acquire)) {
        return true;
    }
    std::lock_guard lock(elastic_->mutex);
    return needs_transition_locked();
}

char const* World::last_transition_cause() const {
    if (elastic_ == nullptr) {
        return "";
    }
    std::lock_guard lock(elastic_->mutex);
    return elastic_->last_cause;
}

void World::run_session(std::function<void(int)> session_main) {
    try {
        int const rank = open_session();
        session_main(rank);
        leave_session();
    } catch (RankKilled const&) {
        // Injected failure: the rank is already marked failed; just unbind
        // the thread (open_session may or may not have attached it yet).
        if (detail::current_context().world == this) {
            detach_current_thread();
        }
    } catch (...) {
        // Parity with run_ranked: a session that dies with an exception is
        // observed by the others as a process failure, not a deadlock.
        auto& context = detail::current_context();
        if (context.world == this) {
            mark_failed(context.world_rank);
            detach_current_thread();
        }
        throw;
    }
}

} // namespace xmpi
