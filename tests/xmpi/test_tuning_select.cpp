/// @file test_tuning_select.cpp
/// @brief The collective-algorithm registry: the four selection layers
/// (force, tuning table, alpha/beta model, static preference), hierarchical
/// gating on the node grouping, the ring entries' preference, env-knob
/// parsing, and recovery when a hierarchy leader dies mid-collective or a
/// rank dies mid ring allreduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "kamping/plugin/plugins.hpp"
#include "xmpi/xmpi.hpp"

namespace {

namespace tuning = xmpi::tuning;
namespace chaos = xmpi::chaos;
using tuning::CollOp;
using xmpi::World;

/// @brief Every test leaves the process-wide selection knobs as it found
/// them: node grouping off, no force, no table.
class TuningSelect : public ::testing::Test {
protected:
    void TearDown() override {
        tuning::coll().node_size = 0;
        tuning::coll().force_algorithm = nullptr;
        tuning::unload_tuning_table();
        xmpi::profile::set_tracing_enabled(false);
    }
};

/// @brief A selection context without a network model: the static-preference
/// layer decides (the common in-process configuration).
tuning::SelectCtx ctx_of(int p, std::size_t block_bytes, bool commutative = true) {
    tuning::SelectCtx ctx;
    ctx.p = p;
    ctx.block_bytes = block_bytes;
    ctx.commutative = commutative;
    return ctx;
}

std::string pick(CollOp op, tuning::SelectCtx const& ctx) {
    return tuning::select(op, ctx).algorithm;
}

// ---------------------------------------------------------------------------
// Layer 4: the static preference matrix (no model, no table, no force)
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, DefaultMatrixReproducesTheThresholds) {
    // alltoall: Bruck below the byte threshold at enough ranks, else pairwise.
    EXPECT_EQ(pick(CollOp::alltoall, ctx_of(8, 64)), "bruck");
    EXPECT_EQ(pick(CollOp::alltoall, ctx_of(8, tuning::bruck_alltoall_max_bytes)), "bruck");
    EXPECT_EQ(pick(CollOp::alltoall, ctx_of(8, tuning::bruck_alltoall_max_bytes + 1)), "pairwise");
    EXPECT_EQ(
        pick(CollOp::alltoall, ctx_of(tuning::bruck_alltoall_min_ranks - 1, 64)), "pairwise");

    // allgather: recursive doubling for power-of-two p and small blocks.
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(8, 1024)), "recursive_doubling");
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(8, tuning::rd_allgather_max_bytes + 1)), "ring");
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(6, 1024)), "ring") << "non-power-of-two p";
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(2, 1024)), "ring") << "doubling needs p >= 4";

    // scatter: binomial tree for small blocks at p >= 4.
    EXPECT_EQ(pick(CollOp::scatter, ctx_of(8, 512)), "binomial_tree");
    EXPECT_EQ(pick(CollOp::scatter, ctx_of(8, tuning::binomial_scatter_max_bytes + 1)), "linear");
    EXPECT_EQ(pick(CollOp::scatter, ctx_of(2, 512)), "linear");

    // Reductions: the tree/doubling algorithms need commutativity.
    EXPECT_EQ(pick(CollOp::reduce, ctx_of(8, 64)), "binomial_tree");
    EXPECT_EQ(pick(CollOp::reduce, ctx_of(8, 64, /*commutative=*/false)), "linear");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(8, 64)), "recursive_doubling");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(8, 64, /*commutative=*/false)), "reduce_bcast");

    // Single-algorithm ops always resolve to their fallback entry.
    EXPECT_EQ(pick(CollOp::barrier, ctx_of(8, 0)), "dissemination");
    EXPECT_EQ(pick(CollOp::bcast, ctx_of(8, 64)), "binomial");
    EXPECT_EQ(pick(CollOp::gather, ctx_of(8, 64)), "linear");
    EXPECT_EQ(pick(CollOp::scan, ctx_of(8, 64)), "hillis_steele");
    EXPECT_EQ(pick(CollOp::reduce_scatter, ctx_of(8, 64)), "reduce_then_scatter");

    // No layer above fired.
    auto const selection = tuning::select(CollOp::alltoall, ctx_of(8, 64));
    EXPECT_FALSE(selection.from_table);
    EXPECT_FALSE(selection.forced);
}

TEST_F(TuningSelect, CandidatesListApplicableEntriesInPreferenceOrder) {
    auto const flat = tuning::candidates(CollOp::allgather, ctx_of(8, 1024));
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_STREQ(flat[0], "recursive_doubling");
    EXPECT_STREQ(flat[1], "ring");

    tuning::coll().node_size = 4;
    auto const hier = tuning::candidates(CollOp::allgather, ctx_of(8, 1024));
    ASSERT_EQ(hier.size(), 3u);
    EXPECT_STREQ(hier[0], "hier_ring") << "hierarchical entries lead the walk";

    auto const noncomm = tuning::candidates(CollOp::reduce, ctx_of(8, 64, false));
    ASSERT_EQ(noncomm.size(), 1u);
    EXPECT_STREQ(noncomm[0], "linear");
}

// ---------------------------------------------------------------------------
// Layer 3: the alpha/beta model (argmin over modeled costs)
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, ModelArgminOverridesTheStaticThresholds) {
    // Pure-latency network: Bruck's log2(p) rounds beat pairwise's p-1
    // messages at any payload — including far past the static threshold.
    auto latency = ctx_of(8, 1 << 20);
    latency.model_enabled = true;
    latency.alpha = 30e-6;
    latency.beta = 0.0;
    EXPECT_EQ(pick(CollOp::alltoall, latency), "bruck");

    // Bandwidth-bound network: Bruck moves each byte log2(p)/2 times, so
    // pairwise wins for large blocks even below the static rank threshold.
    auto bandwidth = latency;
    bandwidth.beta = 1e-6;
    EXPECT_EQ(pick(CollOp::alltoall, bandwidth), "pairwise");

    // Small blocks under a realistic model: latency still dominates.
    auto small = ctx_of(8, 64);
    small.model_enabled = true;
    small.alpha = 30e-6;
    small.beta = 1e-9;
    EXPECT_EQ(pick(CollOp::alltoall, small), "bruck");
    EXPECT_EQ(pick(CollOp::allgather, small), "recursive_doubling");

    // The rings trade 2(p-1) latencies for moving 2(p-1)/p of the vector:
    // doubling wins latency-bound cells, the ring bandwidth-bound ones.
    EXPECT_EQ(pick(CollOp::allreduce, small), "recursive_doubling");
    auto large = ctx_of(8, 1 << 20);
    large.model_enabled = true;
    large.alpha = 1e-6;
    large.beta = 1e-9;
    EXPECT_EQ(pick(CollOp::allreduce, large), "ring");
    EXPECT_EQ(pick(CollOp::reduce_scatter, small), "reduce_then_scatter");
    EXPECT_EQ(pick(CollOp::reduce_scatter, large), "ring");
}

// ---------------------------------------------------------------------------
// Hierarchical gating: node grouping + payload preference
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, HierEntriesActivateOnlyUnderANodeGrouping) {
    // Default: no grouping, flat algorithms.
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(16, 64)), "recursive_doubling");
    EXPECT_EQ(pick(CollOp::bcast, ctx_of(16, 64)), "binomial");

    tuning::coll().node_size = 4;
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(16, 64)), "hier_recursive_doubling");
    EXPECT_EQ(pick(CollOp::bcast, ctx_of(16, 64)), "hier_binomial");
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(16, 1024)), "hier_ring");

    // Past the latency-bound window the flat algorithms take over again.
    EXPECT_EQ(
        pick(CollOp::allreduce, ctx_of(16, tuning::hier_allreduce_max_bytes + 1)),
        "recursive_doubling");
    EXPECT_EQ(
        pick(CollOp::allgather, ctx_of(16, tuning::hier_allgather_max_bytes + 1)), "ring");

    // Non-commutative reductions never go hierarchical (reduce_over folds
    // out of order).
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(16, 64, false)), "reduce_bcast");

    // A grouping that degenerates (g >= p: one node) disables hierarchy.
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(4, 64)), "recursive_doubling");
    EXPECT_EQ(pick(CollOp::bcast, ctx_of(3, 64)), "binomial");
}

TEST_F(TuningSelect, NodeSizeResolution) {
    EXPECT_EQ(tuning::node_size_for(16), 0) << "grouping disabled by default";

    tuning::coll().node_size = 4;
    EXPECT_EQ(tuning::node_size_for(16), 4);
    EXPECT_EQ(tuning::node_size_for(5), 4);
    EXPECT_EQ(tuning::node_size_for(4), 0) << "g >= p is one node: no hierarchy";
    EXPECT_EQ(tuning::node_size_for(2), 0);

    tuning::coll().node_size = -1; // auto: the grid plugin's ceil(sqrt p)
    EXPECT_EQ(tuning::node_size_for(16), 4);
    EXPECT_EQ(tuning::node_size_for(10), 4);
    EXPECT_EQ(tuning::node_size_for(5), 3);
    EXPECT_EQ(tuning::node_size_for(4), 2);
    EXPECT_EQ(tuning::node_size_for(2), 0) << "sqrt grouping trivial below p = 4";
}

TEST_F(TuningSelect, ParseNodeSizeWarnsAndClamps) {
    EXPECT_EQ(tuning::parse_node_size("auto", 0), -1);
    EXPECT_EQ(tuning::parse_node_size("8", 0), 8);
    EXPECT_EQ(tuning::parse_node_size("0", 5), 0) << "explicit off";
    EXPECT_EQ(tuning::parse_node_size("1", 0), 2) << "1 is clamped to the smallest group";
    EXPECT_EQ(tuning::parse_node_size("banana", 7), 7) << "malformed keeps the fallback";
    EXPECT_EQ(tuning::parse_node_size("-3", 7), 7) << "negative keeps the fallback";
    EXPECT_EQ(tuning::parse_node_size("", 7), 7);
}

// ---------------------------------------------------------------------------
// Layer 2: the measured tuning table
// ---------------------------------------------------------------------------

/// @brief Writes @c text to a temp file and returns its path.
std::string write_table(char const* name, std::string const& text) {
    std::string const path = ::testing::TempDir() + name;
    std::FILE* file = std::fopen(path.c_str(), "w");
    EXPECT_NE(file, nullptr);
    std::fputs(text.c_str(), file);
    std::fclose(file);
    return path;
}

TEST_F(TuningSelect, TableCellsOverrideTheModelAndPreference) {
    auto const path = write_table(
        "table_override.json",
        R"({"version": 1, "cells": [
             {"op": "alltoall", "p": 8, "max_bytes": 1024, "algorithm": "pairwise"},
             {"op": "allgather", "p": 0, "max_bytes": 0, "algorithm": "ring"},
             {"op": "allgather", "p": 8, "max_bytes": 0, "algorithm": "recursive_doubling"}
           ]})");
    ASSERT_TRUE(tuning::load_tuning_table(path.c_str()));
    ASSERT_TRUE(tuning::tuning_table_loaded());

    // The cell overrides the static preference (which would say Bruck)...
    auto const in_bucket = tuning::select(CollOp::alltoall, ctx_of(8, 512));
    EXPECT_STREQ(in_bucket.algorithm, "pairwise");
    EXPECT_TRUE(in_bucket.from_table);

    // ... and the model layer (which would also say Bruck).
    auto modeled = ctx_of(8, 512);
    modeled.model_enabled = true;
    modeled.alpha = 30e-6;
    EXPECT_EQ(pick(CollOp::alltoall, modeled), "pairwise");

    // Outside the cell's size bucket the table is silent.
    auto const past_bucket = tuning::select(CollOp::alltoall, ctx_of(8, 2000));
    EXPECT_STREQ(past_bucket.algorithm, "bruck");
    EXPECT_FALSE(past_bucket.from_table);

    // Exact-p cells beat wildcard (p == 0) cells; the wildcard covers the rest.
    EXPECT_STREQ(tuning::table_algorithm(CollOp::allgather, 8, 64), "recursive_doubling");
    EXPECT_STREQ(tuning::table_algorithm(CollOp::allgather, 16, 64), "ring");
    EXPECT_EQ(tuning::table_algorithm(CollOp::alltoall, 4, 64), nullptr) << "no covering cell";

    tuning::unload_tuning_table();
    EXPECT_FALSE(tuning::tuning_table_loaded());
    EXPECT_EQ(pick(CollOp::alltoall, ctx_of(8, 512)), "bruck");
}

TEST_F(TuningSelect, TableBucketResolutionPicksTheTightestCell) {
    auto const path = write_table(
        "table_buckets.json",
        R"({"version": 1, "cells": [
             {"op": "alltoall", "p": 8, "max_bytes": 0, "algorithm": "pairwise"},
             {"op": "alltoall", "p": 8, "max_bytes": 1024, "algorithm": "bruck"}
           ]})");
    ASSERT_TRUE(tuning::load_tuning_table(path.c_str()));
    EXPECT_STREQ(tuning::table_algorithm(CollOp::alltoall, 8, 512), "bruck")
        << "the smallest covering max_bytes bucket wins";
    EXPECT_STREQ(tuning::table_algorithm(CollOp::alltoall, 8, 4096), "pairwise")
        << "max_bytes == 0 is the unbounded bucket";
}

TEST_F(TuningSelect, TableCellNamingAnInapplicableAlgorithmIsIgnored) {
    // recursive_doubling requires a power-of-two p: a measured table must
    // not be able to violate a hard correctness constraint.
    auto const path = write_table(
        "table_inapplicable.json",
        R"({"version": 1, "cells": [
             {"op": "allgather", "p": 6, "max_bytes": 0, "algorithm": "recursive_doubling"}
           ]})");
    ASSERT_TRUE(tuning::load_tuning_table(path.c_str()));
    auto const selection = tuning::select(CollOp::allgather, ctx_of(6, 64));
    EXPECT_STREQ(selection.algorithm, "ring");
    EXPECT_FALSE(selection.from_table);
}

TEST_F(TuningSelect, MalformedTableWarnsAndFallsBackToTheModel) {
    auto const path = write_table("table_malformed.json", "{\"version\": 1, \"cells\": [oops");
    EXPECT_FALSE(tuning::load_tuning_table(path.c_str()));
    EXPECT_FALSE(tuning::tuning_table_loaded());
    EXPECT_FALSE(tuning::load_tuning_table("/nonexistent/tuning_table.json"));

    // Selection is fully functional without a table.
    EXPECT_EQ(pick(CollOp::alltoall, ctx_of(8, 64)), "bruck");

    // Cells that do not parse into a known op are dropped, not fatal.
    auto const partial = write_table(
        "table_partial.json",
        R"({"version": 1, "cells": [
             {"op": "frobnicate", "p": 8, "max_bytes": 0, "algorithm": "bruck"},
             {"op": "alltoall", "p": 8, "max_bytes": 0, "algorithm": "pairwise"}
           ]})");
    ASSERT_TRUE(tuning::load_tuning_table(partial.c_str()));
    EXPECT_EQ(tuning::table_algorithm(CollOp::alltoall, 8, 64), std::string("pairwise"));
}

// ---------------------------------------------------------------------------
// Layer 1: the force override
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, ForceWinsWhenApplicableAndFallsThroughOtherwise) {
    tuning::coll().force_algorithm = "ring";
    auto const forced = tuning::select(CollOp::allgather, ctx_of(8, 64));
    EXPECT_STREQ(forced.algorithm, "ring") << "force overrides the rd preference";
    EXPECT_TRUE(forced.forced);

    // A force that would violate a hard constraint is ignored.
    tuning::coll().force_algorithm = "recursive_doubling";
    auto const inapplicable = tuning::select(CollOp::allgather, ctx_of(6, 64));
    EXPECT_STREQ(inapplicable.algorithm, "ring");
    EXPECT_FALSE(inapplicable.forced);

    // The force also beats a loaded table.
    auto const path = write_table(
        "table_vs_force.json",
        R"({"version": 1, "cells": [
             {"op": "allgather", "p": 8, "max_bytes": 0, "algorithm": "recursive_doubling"}
           ]})");
    ASSERT_TRUE(tuning::load_tuning_table(path.c_str()));
    tuning::coll().force_algorithm = "ring";
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(8, 64)), "ring");
}

// ---------------------------------------------------------------------------
// The ring entries across all four layers
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, RingTakesLargeReductionsFromThreeRanksOn) {
    constexpr std::size_t k64KiB = 64 * 1024;
    constexpr std::size_t kMin = tuning::ring_allreduce_min_bytes;
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(3, k64KiB)), "ring");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(3, kMin)), "ring");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(4, kMin)), "ring");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(2, k64KiB)), "recursive_doubling")
        << "p = 2 is one exchange either way";
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(3, kMin - 1)), "recursive_doubling");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(3, k64KiB, /*commutative=*/false)), "reduce_bcast");
    // Beyond p = 4 the bound keeps the ring's per-step block at kMin / 4.
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(16, kMin)), "recursive_doubling");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(16, 4 * kMin)), "ring");

    // reduce_scatter sizes one rank's block; the ring pays off at the same
    // whole-vector size.
    EXPECT_EQ(pick(CollOp::reduce_scatter, ctx_of(3, k64KiB / 3)), "ring");
    EXPECT_EQ(pick(CollOp::reduce_scatter, ctx_of(3, 64)), "reduce_then_scatter");
    EXPECT_EQ(pick(CollOp::reduce_scatter, ctx_of(2, k64KiB)), "reduce_then_scatter");
    EXPECT_EQ(
        pick(CollOp::reduce_scatter, ctx_of(3, k64KiB, /*commutative=*/false)),
        "reduce_then_scatter");

    // A table cell and a force still override the ring's preference.
    auto const path = write_table(
        "table_ring.json",
        R"({"version": 1, "cells": [
             {"op": "allreduce", "p": 3, "max_bytes": 0, "algorithm": "recursive_doubling"}
           ]})");
    ASSERT_TRUE(tuning::load_tuning_table(path.c_str()));
    auto const tabled = tuning::select(CollOp::allreduce, ctx_of(3, k64KiB));
    EXPECT_STREQ(tabled.algorithm, "recursive_doubling");
    EXPECT_TRUE(tabled.from_table);
    tuning::unload_tuning_table();
    tuning::coll().force_algorithm = "reduce_bcast";
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(3, k64KiB)), "reduce_bcast");
    tuning::coll().force_algorithm = "ring";
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(2, 64)), "ring");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(3, 64, /*commutative=*/false)), "reduce_bcast")
        << "a force never overrides commutative_only";
}

// ---------------------------------------------------------------------------
// Hierarchical collectives: functional correctness + tracing names
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, HierarchicalCollectivesMatchFlatResults) {
    // p = 10 with g = 4: nodes {0..3}, {4..7}, {8, 9} — a ragged last node,
    // and a non-leader bcast root to exercise the leader substitution.
    constexpr int kRanks = 10;
    constexpr int kCount = 8;
    tuning::coll().node_size = 4;
    xmpi::profile::set_tracing_enabled(true);
    World::run_ranked(kRanks, [&](int rank) {
        (void)xmpi::profile::take_algorithm(); // drop stale notes

        std::vector<int> sum(kCount, rank);
        ASSERT_EQ(
            XMPI_Allreduce(
                XMPI_IN_PLACE, sum.data(), kCount, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD),
            XMPI_SUCCESS);
        for (int value: sum) {
            EXPECT_EQ(value, kRanks * (kRanks - 1) / 2);
        }
        EXPECT_STREQ(xmpi::profile::take_algorithm(), "hier_recursive_doubling");

        int payload = rank == 3 ? 42 : 0;
        ASSERT_EQ(XMPI_Bcast(&payload, 1, XMPI_INT, 3, XMPI_COMM_WORLD), XMPI_SUCCESS);
        EXPECT_EQ(payload, 42);
        EXPECT_STREQ(xmpi::profile::take_algorithm(), "hier_binomial");

        std::vector<int> gathered(kRanks, -1);
        ASSERT_EQ(
            XMPI_Allgather(&rank, 1, XMPI_INT, gathered.data(), 1, XMPI_INT, XMPI_COMM_WORLD),
            XMPI_SUCCESS);
        for (int i = 0; i < kRanks; ++i) {
            EXPECT_EQ(gathered[i], i);
        }
        EXPECT_STREQ(xmpi::profile::take_algorithm(), "hier_ring");
    });
}

TEST_F(TuningSelect, PersistentPlansCaptureTheAlgorithmAtInit) {
    // The plan selects at init time; selection-knob changes afterwards must
    // not retarget an initialized plan (MPI's persistent-collective rule).
    xmpi::profile::set_tracing_enabled(true);
    tuning::coll().force_algorithm = "reduce_bcast";
    World::run_ranked(4, [&](int rank) {
        int const value = rank + 1;
        int sum = 0;
        XMPI_Request request = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Allreduce_init(
                &value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        XMPI_Barrier(XMPI_COMM_WORLD); // everyone initialized under the force
        if (rank == 0) {
            tuning::coll().force_algorithm = nullptr;
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
        (void)xmpi::profile::take_algorithm();

        // A fresh one-shot selects the default again...
        int oneshot = 0;
        ASSERT_EQ(
            XMPI_Allreduce(&value, &oneshot, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD),
            XMPI_SUCCESS);
        EXPECT_EQ(oneshot, 10);
        EXPECT_STREQ(xmpi::profile::take_algorithm(), "recursive_doubling");

        // ... but the plan replays the algorithm captured at init.
        for (int round = 0; round < 2; ++round) {
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(sum, 10);
            EXPECT_STREQ(xmpi::profile::take_algorithm(), "reduce_bcast");
        }
        XMPI_Request_free(&request);
    });
    tuning::coll().force_algorithm = nullptr;
}

TEST_F(TuningSelect, PersistentRingAllreduceRestartsWithoutPoolMisses) {
    // 64 KiB at p = 3: the plan captures the ring at init (a later force does
    // not retarget it), its receive block lives in the plan's hoisted
    // scratch, and every block send reuses a pooled payload buffer — after
    // the first round a restart allocates nothing.
    constexpr int kInts = 64 * 1024 / sizeof(int);
    xmpi::profile::set_tracing_enabled(true);
    World::run_ranked(3, [&](int rank) {
        std::vector<int> in(kInts, rank + 1);
        std::vector<int> out(kInts, 0);
        XMPI_Request request = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Allreduce_init(
                in.data(), out.data(), kInts, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        XMPI_Barrier(XMPI_COMM_WORLD);
        if (rank == 0) {
            tuning::coll().force_algorithm = "recursive_doubling";
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
        (void)xmpi::profile::take_algorithm();
        ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        EXPECT_STREQ(xmpi::profile::take_algorithm(), "ring");
        auto const misses = xmpi::profile::my_snapshot().pool_misses;
        for (int round = 0; round < 5; ++round) {
            std::fill(out.begin(), out.end(), 0);
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(std::count(out.begin(), out.end(), 6), kInts);
            EXPECT_STREQ(xmpi::profile::take_algorithm(), "ring");
        }
        EXPECT_EQ(xmpi::profile::my_snapshot().pool_misses, misses)
            << "a restart allocated a payload buffer";
        XMPI_Request_free(&request);
    });
}

// ---------------------------------------------------------------------------
// Fault tolerance: a hierarchy leader dies mid-allreduce
// ---------------------------------------------------------------------------

/// @brief One revoke+shrink recovery step, replacing *comm in place (the
/// test_chaos.cpp recovery idiom).
void revoke_and_shrink(XMPI_Comm* comm, bool* owned) {
    int revoked = 0;
    XMPI_Comm_is_revoked(*comm, &revoked);
    if (revoked == 0) {
        XMPI_Comm_revoke(*comm);
    }
    XMPI_Comm shrunk = XMPI_COMM_NULL;
    ASSERT_EQ(XMPI_Comm_shrink(*comm, &shrunk), XMPI_SUCCESS);
    if (*owned) {
        XMPI_Comm_free(comm);
    }
    *comm = shrunk;
    *owned = true;
}

TEST_F(TuningSelect, LeaderDeathMidHierarchicalAllreduceShrinksAndRetries) {
    // p = 8 with g = 4: rank 4 leads node {4..7}. Killing it mid-allreduce
    // strands its followers in the intra-node phase and its peer leader in
    // the doubling phase — both must observe the failure, shrink, and
    // complete on the 7-rank survivor communicator (where the grouping is
    // {0..3}, {4..6} and the hierarchical path stays selected).
    constexpr int kRanks = 8;
    constexpr int kVictim = 4;
    tuning::coll().node_size = 4;
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(13).kill_at_call(kVictim, chaos::Call::allreduce, 2));
    World::run_ranked(kRanks, [&](int) {
        XMPI_Comm comm = XMPI_COMM_WORLD;
        bool owned = false;
        bool saw_error = false;
        int err = XMPI_ERR_OTHER;
        double const deadline = xmpi::wtime() + 60.0;
        while (xmpi::wtime() < deadline) {
            int value = 1;
            int sum = 0;
            err = XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, comm);
            if (err == XMPI_SUCCESS) {
                int size = 0;
                XMPI_Comm_size(comm, &size);
                if (size == kRanks - 1) {
                    EXPECT_EQ(sum, kRanks - 1);
                    break;
                }
                continue;
            }
            saw_error = true;
            revoke_and_shrink(&comm, &owned);
        }
        EXPECT_EQ(err, XMPI_SUCCESS) << "survivors must complete after shrink";
        EXPECT_TRUE(saw_error) << "every survivor must observe the leader's death";
        if (owned) {
            XMPI_Comm_free(&comm);
        }
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, kVictim);
    EXPECT_EQ(fired[0].call, chaos::Call::allreduce);
}

// ---------------------------------------------------------------------------
// Fault tolerance: a rank dies mid ring allreduce
// ---------------------------------------------------------------------------

constexpr int kRingRanks = 5;
constexpr int kRingVictim = 2;
constexpr int kRingInts = 64 * 1024 / sizeof(int); ///< the ring at p = 5 and at p = 4

TEST_F(TuningSelect, KillMidRingAllreduceFailsEverySurvivorAndShrinkRetries) {
    // Rank 2 dies entering its second 64 KiB allreduce. Its successor waits
    // on it directly; the others wait on predecessors that are alive but
    // bailed out. Every survivor must return PROC_FAILED or REVOKED instead
    // of hanging, shrink, and complete on the 4-rank survivor communicator
    // (where the ring stays selected).
    ASSERT_STREQ(
        tuning::select(CollOp::allreduce, ctx_of(kRingRanks, kRingInts * sizeof(int))).algorithm,
        "ring");
    xmpi::profile::set_tracing_enabled(true);
    (void)chaos::take_fired_log();
    chaos::arm_next_world(
        chaos::FaultPlan(17).kill_at_call(kRingVictim, chaos::Call::allreduce, 2));
    World::run_ranked(kRingRanks, [&](int) {
        XMPI_Comm comm = XMPI_COMM_WORLD;
        bool owned = false;
        bool saw_error = false;
        int err = XMPI_ERR_OTHER;
        std::vector<int> in(kRingInts, 1);
        std::vector<int> out(kRingInts, 0);
        double const deadline = xmpi::wtime() + 60.0;
        while (xmpi::wtime() < deadline) {
            err = XMPI_Allreduce(in.data(), out.data(), kRingInts, XMPI_INT, XMPI_SUM, comm);
            if (err == XMPI_SUCCESS) {
                int size = 0;
                XMPI_Comm_size(comm, &size);
                if (size == kRingRanks - 1) {
                    EXPECT_EQ(std::count(out.begin(), out.end(), size), kRingInts);
                    EXPECT_STREQ(xmpi::profile::take_algorithm(), "ring");
                    break;
                }
                continue;
            }
            EXPECT_TRUE(err == XMPI_ERR_PROC_FAILED || err == XMPI_ERR_REVOKED)
                << "survivor returned " << err;
            saw_error = true;
            revoke_and_shrink(&comm, &owned);
        }
        EXPECT_EQ(err, XMPI_SUCCESS) << "survivors must complete after shrink";
        EXPECT_TRUE(saw_error) << "every survivor must observe the death";
        if (owned) {
            XMPI_Comm_free(&comm);
        }
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, kRingVictim);
    EXPECT_EQ(fired[0].call, chaos::Call::allreduce);
}

TEST_F(TuningSelect, KillMidRingAllreduceConvergesUnderWithElastic) {
    // The same kill in an elastic world, recovered by the kamping
    // with_elastic loop: the body (two chained 64 KiB allreduces, so the
    // kill lands inside it whichever allreduce a survivor is in) re-runs on
    // the survivors' epoch and converges.
    (void)chaos::take_fired_log();
    chaos::arm_next_world(
        chaos::FaultPlan(19).kill_at_call(kRingVictim, chaos::Call::allreduce, 2));
    World world(kRingRanks, {}, kRingRanks);
    std::vector<std::thread> ranks;
    for (int rank = 0; rank < kRingRanks; ++rank) {
        ranks.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            try {
                kamping::FullCommunicator comm;
                int attempts = 0;
                auto const result = comm.with_elastic([&](kamping::FullCommunicator& c) {
                    ++attempts;
                    std::vector<int> data(kRingInts, 1);
                    data = c.allreduce(kamping::send_recv_buf(std::move(data)), kamping::op(std::plus<>{}));
                    return c.allreduce(kamping::send_recv_buf(std::move(data)), kamping::op(std::plus<>{}));
                });
                EXPECT_NE(rank, kRingVictim);
                EXPECT_EQ(comm.size_signed(), kRingRanks - 1);
                EXPECT_GE(attempts, 2) << "the kill must abort one attempt";
                int const expected = (kRingRanks - 1) * (kRingRanks - 1);
                EXPECT_EQ(std::count(result.begin(), result.end(), expected), kRingInts);
            } catch (xmpi::RankKilled const&) {
                EXPECT_EQ(rank, kRingVictim);
            }
            world.detach_current_thread();
        });
    }
    for (auto& thread: ranks) {
        thread.join();
    }
    EXPECT_TRUE(world.is_failed(kRingVictim));
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, kRingVictim);
}

} // namespace
