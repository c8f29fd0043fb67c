/// @file layers.cpp
/// @brief Direct single-thread calls into the innermost layers: one
/// PeerRing push+pop of an 8 B message entry, one 8 B coalescing append,
/// and one registry selection over the collectives round's SelectCtx mix.
/// These are the bottom rungs of the traced run's layer budgets.
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "xmpi/ring.hpp"
#include "xmpi/tuning.hpp"

namespace perfbench {
namespace {

constexpr int kChunk = 1000;

/// @brief Median over chunks of the per-operation time of @c op, in ns.
template <typename Op>
double median_ns_per_op(int chunks, Op&& op) {
    std::vector<double> per_op;
    per_op.reserve(static_cast<std::size_t>(chunks));
    for (int c = 0; c < chunks; ++c) {
        per_op.push_back(op() * 1e9 / kChunk);
    }
    return median(per_op);
}

} // namespace

DirectLayers measure_direct_layers(Options const& options) {
    using xmpi::detail::Envelope;
    using xmpi::detail::PeerRing;
    using xmpi::detail::PooledBlock;
    using xmpi::detail::RingEntry;
    int const chunks = options.tiny ? 5 : 400;
    DirectLayers direct;
    std::uint64_t failures = 0;

    // Push + pop of one message entry carrying a shared payload block.
    {
        PeerRing ring(xmpi::tuning::transport().ring_capacity);
        auto const block = std::make_shared<PooledBlock>(nullptr, std::vector<std::byte>(8));
        RingEntry popped;
        std::size_t batch_bytes = 0;
        direct.ring_push_pop_ns = median_ns_per_op(chunks, [&] {
            double const t0 = wall_s();
            for (int i = 0; i < kChunk; ++i) {
                RingEntry entry;
                entry.kind = RingEntry::Kind::message;
                entry.env = Envelope{0, 0, i};
                entry.bytes = 8;
                entry.block = block;
                failures += ring.try_push(std::move(entry)) ? 0 : 1;
                failures += ring.try_pop(popped, batch_bytes) ? 0 : 1;
                failures += popped.env.tag == i ? 0 : 1;
            }
            return wall_s() - t0;
        });
    }

    // 8 B appends into an open batch slot; a full batch is popped and a
    // fresh one published outside the timed appends.
    {
        PeerRing ring(xmpi::tuning::transport().ring_capacity);
        std::size_t const capacity = xmpi::tuning::transport().coalesce_watermark;
        auto const publish = [&] {
            RingEntry entry;
            entry.kind = RingEntry::Kind::batch;
            entry.block = std::make_shared<PooledBlock>(nullptr, std::vector<std::byte>(capacity));
            failures += ring.try_push(std::move(entry), 0) ? 0 : 1;
        };
        publish();
        std::byte const payload[8] = {};
        RingEntry popped;
        std::size_t batch_bytes = 0;
        bool fresh = true;
        direct.ring_append_ns = median_ns_per_op(chunks, [&] {
            double elapsed = 0.0;
            int done = 0;
            while (done < kChunk) {
                double const t0 = wall_s();
                int appended = 0;
                while (done + appended < kChunk && ring.try_append(Envelope{0, 0, 0}, payload, 8)) {
                    ++appended;
                }
                elapsed += wall_s() - t0;
                done += appended;
                if (done < kChunk) {
                    if (appended == 0 && fresh) {
                        throw std::runtime_error("direct layer calls: no append fits a fresh batch");
                    }
                    failures += ring.try_pop(popped, batch_bytes) ? 0 : 1;
                    publish();
                }
                fresh = done < kChunk;
            }
            return elapsed;
        });
    }

    // Registry selection over the collectives workload's per-round mix.
    {
        using xmpi::tuning::CollOp;
        using xmpi::tuning::SelectCtx;
        struct Probe {
            CollOp op;
            std::size_t bytes;
        };
        Probe const mix[] = {
            {CollOp::allreduce, 8},   {CollOp::allreduce, 65536}, {CollOp::bcast, 8192},
            {CollOp::allgatherv, 2048}, {CollOp::alltoallv, 1024}, {CollOp::allreduce, 512},
        };
        std::size_t sink = 0;
        direct.select_ns = median_ns_per_op(chunks, [&] {
            double const t0 = wall_s();
            for (int i = 0; i < kChunk; ++i) {
                Probe const& probe = mix[static_cast<std::size_t>(i) % std::size(mix)];
                SelectCtx ctx;
                ctx.p = 3;
                ctx.block_bytes = probe.bytes;
                sink += reinterpret_cast<std::uintptr_t>(xmpi::tuning::select(probe.op, ctx).algorithm);
            }
            return wall_s() - t0;
        });
        failures += sink == 0 ? 1 : 0;
    }
    if (failures != 0) {
        throw std::runtime_error("direct layer calls: a ring push, pop or append failed");
    }
    return direct;
}

} // namespace perfbench
