/// @file ulfm.cpp
/// @brief User-level failure mitigation: revoke, shrink, agree.
///
/// Shrink and agree must complete among the *surviving* members even when the
/// communicator is revoked or members have failed, so they are implemented as
/// a shared-memory rendezvous on the communicator's FtSync structure rather
/// than over the regular transport (which reports errors for failed peers).
///
/// The rendezvous is survivor-aware: round membership is tracked as explicit
/// world-rank lists, and every wake re-evaluates the survivor set and prunes
/// ranks that died mid-round — after contributing, or with the result still
/// unconsumed — so a failure at any point of a round can no longer hang the
/// remaining members or leak the round's result into the next one.
#include <algorithm>
#include <mutex>

#include "coll.hpp"
#include "transport.hpp"
#include "xmpi/chaos.hpp"

namespace xmpi::detail {
namespace {

/// @brief Discounts ranks that have failed from the round membership lists.
void prune_dead(World const& world, FtSync& ft) {
    auto const dead = [&](int world_rank) { return world.is_failed(world_rank); };
    std::erase_if(ft.arrived_ranks, dead);
    std::erase_if(ft.pending_ranks, dead);
}

/// @brief Closes the round once the result is produced and no surviving
/// consumer is left to pick it up. Runs the round's retire callback (which
/// drops the round's own reference to the result), resets the agree
/// accumulator for the next round, and wakes ranks waiting to start one.
/// Must be called with ft.mutex held.
void maybe_finish_round(Comm const& comm, FtSync& ft) {
    if (ft.result == nullptr || !ft.pending_ranks.empty()) {
        return;
    }
    if (ft.retire) {
        ft.retire(ft.result);
        ft.retire = nullptr;
    }
    ft.result = nullptr;
    ft.agree_accumulator = ~0;
    comm.notify_members();
}

/// @brief Rendezvous among the surviving members: everyone contributes via
/// @c contribute (called under the lock), the first rank to observe that all
/// survivors arrived produces the round result via @c produce, and every
/// survivor picks it up via @c consume. The round closes after the last
/// surviving consumer leaves — ranks that die mid-round are pruned on every
/// wake instead of being waited for.
template <typename Contribute, typename Produce, typename Consume>
void* ft_rendezvous(Comm& comm, Contribute&& contribute, Produce&& produce, Consume&& consume) {
    auto& world = comm.world();
    int const me = current_world_rank();
    auto& ft = comm.ft_sync();
    auto& waiter = world.waiter(me);
    std::unique_lock lock(ft.mutex);
    // Let a previous round drain before joining a new one. If its remaining
    // consumers all died, nobody is left to close it: prune and close it
    // here instead of waiting forever.
    wait_locked(waiter, lock, [&] {
        prune_dead(world, ft);
        maybe_finish_round(comm, ft);
        return ft.result == nullptr;
    });
    contribute(ft);
    ft.arrived_ranks.push_back(me);
    comm.notify_members();
    // The mid-round failure window: contributed, result not yet consumed.
    // A chaos plan targeting Hook::ft_contributed kills the rank right here
    // (the throw unwinds through the unique_lock).
    chaos::hit_hook(world, me, chaos::Hook::ft_contributed);
    // Failures notify every rank (World::wake_all), so the survivor set is
    // re-evaluated and dead contributors are discounted on every wake.
    wait_locked(waiter, lock, [&] {
        if (ft.result != nullptr) {
            return true;
        }
        prune_dead(world, ft);
        // Post-prune, arrived_ranks is a subset of the survivors; equal
        // sizes mean every surviving member has contributed.
        return ft.arrived_ranks.size() >= comm.surviving_members().size();
    });
    if (ft.result == nullptr) {
        ft.result = produce(ft);
        ft.pending_ranks = std::move(ft.arrived_ranks);
        ft.arrived_ranks.clear();
        comm.notify_members();
    }
    void* const result = ft.result;
    consume(ft, result);
    std::erase(ft.pending_ranks, me);
    prune_dead(world, ft);
    maybe_finish_round(comm, ft);
    return result;
}

} // namespace

int ulfm_revoke(Comm& comm) {
    comm.mark_revoked();
    // Parked fibers re-check their predicates on this wake and see the
    // revocation like any blocked wait does.
    comm.world().wake_all();
    return XMPI_SUCCESS;
}

int ulfm_shrink(Comm& comm, Comm** newcomm) {
    void* const result = ft_rendezvous(
        comm, [](FtSync&) {},
        [&](FtSync& ft) -> void* {
            auto* shrunken = new Comm(&comm.world(), comm.surviving_members());
            // The round itself holds the creation reference; each surviving
            // consumer retains its own at pickup, and retire drops the
            // round's when the round closes. A consumer that dies before
            // pickup therefore never pins the new communicator.
            ft.retire = [](void* round_result) { static_cast<Comm*>(round_result)->release(); };
            return shrunken;
        },
        [](FtSync&, void* round_result) { static_cast<Comm*>(round_result)->retain(); });
    *newcomm = static_cast<Comm*>(result);
    return XMPI_SUCCESS;
}

int ulfm_agree(Comm& comm, int* flag) {
    // The agreed value is the bitwise AND over the survivors' flags; the
    // accumulator lives in FtSync and resets with the round. The result is
    // heap-allocated so that every accumulator value — including ~0, which a
    // pointer-bias encoding cannot represent without aliasing null — marks
    // the round as produced.
    int agreed = 0;
    ft_rendezvous(
        comm, [&](FtSync& ft) { ft.agree_accumulator &= *flag; },
        [](FtSync& ft) -> void* {
            ft.retire = [](void* round_result) { delete static_cast<int*>(round_result); };
            return new int(ft.agree_accumulator);
        },
        [&](FtSync&, void* round_result) { agreed = *static_cast<int*>(round_result); });
    *flag = agreed;
    return XMPI_SUCCESS;
}

} // namespace xmpi::detail
