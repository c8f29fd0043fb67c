/// @file elastic.hpp
/// @brief Elastic worlds: sessions-style dynamic membership behind a single
/// membership-epoch state machine.
///
/// A World constructed with a capacity (`World(size, model, capacity)`) can
/// grow and shrink while running: an unattached thread joins it via
/// `World::open_session()` and becomes a brand-new rank, an attached rank
/// retires via `World::leave_session()`, and a failed rank is excluded — all
/// three are *the same* kind of event, a membership transition, handled by
/// one state machine instead of three ad-hoc paths.
///
/// ## The state machine
///
/// Every rank slot moves through
///
///     unused → joining → active → { leaving → left | failed }
///
/// and slots are never reused (a left rank's slot stays `left` forever), so
/// a world rank id names the same logical rank for the world's lifetime.
/// The world's *membership epoch* counts transitions: epoch 0 is the initial
/// membership; each transition folds every pending join, leave, and failure
/// into one new epoch with one fresh epoch-gated communicator.
///
/// ## How a transition runs (revoke-at-request)
///
/// A join or leave request revokes the current epoch's communicator exactly
/// like `XMPI_Comm_revoke` does (mark revoked, fail queued progress-engine
/// work, wake everyone) — so members blocked deep inside sends, receives, or
/// collectives abort with XMPI_ERR_REVOKED instead of deadlocking the
/// rendezvous, and a failure (which already aborts everything) needs no
/// extra mechanics: the ULFM path and the scaling path literally share the
/// abort machinery. Each member then calls `World::epoch_sync()`, which
/// arrives at the open transition round; when every live member has arrived,
/// the last arriver performs the transition — admitting joiners, retiring
/// leavers, excluding the failed — bumps the epoch, and everyone (joiners
/// included) picks up a retained handle to the fresh communicator.
///
/// ## Epoch gating
///
/// The per-epoch communicators are *epoch-gated* (Comm::set_epoch_gate): an
/// operation on a superseded epoch's comm reports XMPI_ERR_EPOCH at the API
/// boundary, and a message already in flight on a superseded epoch's context
/// is dropped at delivery (counted in `stale_epoch_drops`), so traffic from
/// before a transition can never match receives from after it. Non-elastic
/// worlds pay a single predictable branch for all of this.
///
/// ## Capacity
///
/// The transport's lock-free structures (per-peer rings, payload-pool
/// shards, failure flags) cannot be resized under concurrent readers, so an
/// elastic world allocates them for `capacity` ranks up front and only ever
/// grows the set of live slots; `open_session` throws UsageError once the
/// capacity is exhausted.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace xmpi {
class Comm;
}

namespace xmpi::detail {

/// @brief Lifecycle of one rank slot (see file header; slots never regress
/// and are never reused).
enum class MemberState : int {
    unused,  ///< slot not yet handed out
    joining, ///< open_session announced, waiting for the admitting transition
    active,  ///< member of the current epoch's communicator
    leaving, ///< leave_session announced, waiting for the excluding transition
    left,    ///< retired cleanly; the slot is permanently out of the world
    failed,  ///< excluded by failure (possibly while joining or leaving)
};

/// @brief Shared state of the membership-epoch machine; one per elastic
/// world, guarded by @c mutex. Ranks wait for it on their own Waiter, which
/// every arrival and epoch publish notifies (World::wake_all).
struct ElasticState {
    std::mutex mutex;
    std::uint64_t epoch = 0;          ///< mirrors World::membership_epoch()
    std::vector<MemberState> members; ///< per slot, sized to capacity
    int next_slot = 0;                ///< first never-handed-out slot
    std::vector<int> pending_joiners; ///< slots waiting to be admitted
    std::vector<int> pending_leavers; ///< slots waiting to be excluded
    std::vector<int> arrived;         ///< slots arrived at the open round
    Comm* current = nullptr;          ///< retained comm of the current epoch
    std::vector<Comm*> retired;       ///< superseded epochs, freed in ~World
    char const* last_cause = "";      ///< static literal, e.g. "grow+failure"
};

} // namespace xmpi::detail
