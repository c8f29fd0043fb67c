/// @file ledger.hpp
/// @brief The replicated task ledger: every rank's record of which tasks
/// have completed, and the reproducible checksum that proves the replicas
/// agree.
///
/// The ledger is what makes rank death recoverable without a central
/// server: completions are broadcast in batches (NBX rounds, see
/// scheduler.hpp), so every rank holds a near-current replica. When a rank
/// dies, the survivors OR-merge their replicas (a bitwise-OR allreduce over
/// the done bits) — any completion at least one survivor witnessed becomes
/// global — and every task still pending afterwards is re-queued under the
/// new membership. A task is therefore re-executed iff *no survivor* saw it
/// complete; the ledger never records a completion twice (mark_done is
/// idempotent and reports duplicates). A replica is one bit per task.
///
/// The checksum fixes the summation order with the fixed-binary-tree kernel
/// shared with the ReproducibleReduce plugin (apps/repro_sum.hpp): each rank
/// computes it purely locally over its replica, one tree-aligned chunk of
/// contributions at a time, and agreement is checked with a MIN/MAX
/// allreduce pair — bit-identical for every p and every completion arrival
/// order.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "apps/kasched/task.hpp"
#include "apps/repro_sum.hpp"
#include "kassert/kassert.hpp"

namespace apps::kasched {

class Ledger {
public:
    explicit Ledger(std::uint64_t n_tasks) : size_(n_tasks), words_((n_tasks + 63) / 64, 0) {}

    [[nodiscard]] std::uint64_t done_count() const { return done_count_; }
    [[nodiscard]] bool is_done(TaskId id) const { return (words_[id / 64] >> (id % 64) & 1) != 0; }

    /// @brief Records a completion. @return false iff it was already
    /// recorded (a duplicate — only possible through failure recovery, and
    /// counted by the caller as such).
    bool mark_done(TaskId id) {
        KASSERT(id < size_, "ledger: task id out of range");
        if (is_done(id)) {
            return false;
        }
        words_[id / 64] |= std::uint64_t{1} << (id % 64);
        ++done_count_;
        return true;
    }

    /// @brief The replica's done bits (task id is bit id % 64 of word
    /// id / 64), the payload of the recovery OR-merge.
    [[nodiscard]] std::vector<std::uint64_t> const& words() const { return words_; }

    /// @brief OR-merges another replica's words into this one (recovery:
    /// a completion any survivor witnessed becomes global).
    void merge(std::vector<std::uint64_t> const& other) {
        KASSERT(other.size() == words_.size(), "ledger: replica size mismatch");
        std::uint64_t count = 0;
        for (std::size_t i = 0; i < words_.size(); ++i) {
            words_[i] |= other[i];
            count += static_cast<std::uint64_t>(std::popcount(words_[i]));
        }
        done_count_ = count;
    }

    /// @brief Calls @c visit(id), in id order, for every task still pending
    /// in this replica whose home is @c rank among @c n_ranks (owner_of) —
    /// the recovery scan that feeds re-queueing.
    template <typename Visit>
    void for_each_owned_pending(int rank, int n_ranks, int skew_shares, Visit&& visit) const {
        for (TaskId id = 0; id < size_; ++id) {
            if (!is_done(id) && owner_of(id, n_ranks, skew_shares) == rank) {
                visit(id);
            }
        }
    }

    /// @brief Reproducible replica checksum: the fixed-tree sum of the
    /// contributions of all completed tasks. Purely local; bit-identical
    /// across ranks iff the replicas agree, independent of p and of the
    /// order completions arrived in.
    [[nodiscard]] double checksum() const {
        return repro::fixed_tree_sum<double>(
            size_, [this](std::uint64_t begin, std::uint64_t n, double* out) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    out[i] = is_done(begin + i) ? contribution(begin + i) : 0.0;
                }
            });
    }

private:
    std::uint64_t size_;
    std::vector<std::uint64_t> words_;
    std::uint64_t done_count_ = 0;
};

} // namespace apps::kasched
