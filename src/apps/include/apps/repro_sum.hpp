/// @file repro_sum.hpp
/// @brief The reproducible-sum kernel: fixed-binary-tree reduction over
/// global element indices (Stelz 2022, inspired by Villa et al., CUG 2009).
///
/// IEEE 754 addition is not associative, so the result of a parallel
/// reduction usually depends on the number of processors. This kernel fixes
/// the evaluation order by reducing over a *fixed binary tree shaped only by
/// the total element count n*, never by p:
///
///   - `decompose` splits a contiguous block of the global array into
///     maximal index-aligned power-of-two subtrees, reducing each of them
///     in tree order (`tree_reduce`);
///   - `stitch` evaluates the remaining top of the tree from a stream of
///     subtree results sorted by start index.
///
/// Shared by the kamping ReproducibleReduce plugin (the distributed
/// reduction: decompose locally, gather partials, stitch on the root) and
/// the kasched task ledger (a *local* fixed-tree checksum over the
/// replicated ledger, streamed one chunk at a time and bit-identical on
/// every rank for every p — see `fixed_tree_sum`).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "kassert/kassert.hpp"

namespace apps::repro {

/// @brief One reduced subtree: the tree node [start, start+size) and its
/// value. Trivially copyable so partials can travel as raw bytes.
template <typename T>
struct Partial {
    std::uint64_t start;
    std::uint64_t size; // power of two (tree-aligned)
    T value;
};

/// @brief Reduces an aligned block [start, start+size) in fixed tree order;
/// elements at global index >= hi (the virtual padding) do not exist and are
/// skipped structurally, never computed.
template <typename T, typename Op>
T tree_reduce(T const* data, std::uint64_t start, std::uint64_t size, std::uint64_t hi, Op combine) {
    if (size == 1) {
        return data[0];
    }
    std::uint64_t const half = size / 2;
    T const left = tree_reduce(data, start, half, hi, combine);
    if (start + half >= hi) {
        return left;
    }
    T const right = tree_reduce(data + half, start + half, half, hi, combine);
    return combine(left, right);
}

/// @brief Decomposes the block [offset, offset+count) of the global array
/// into maximal index-aligned power-of-two subtrees and reduces each of them
/// in tree order. O(log count) partials.
template <typename T, typename Op>
std::vector<Partial<T>> decompose(T const* block, std::uint64_t offset, std::uint64_t count, Op combine) {
    std::vector<Partial<T>> partials;
    std::uint64_t lo = offset;
    std::uint64_t const hi = offset + count;
    while (lo < hi) {
        std::uint64_t size = 1;
        // Largest aligned block starting at lo that fits into [lo, hi).
        while ((lo % (2 * size)) == 0 && lo + 2 * size <= hi) {
            size *= 2;
        }
        partials.push_back(
            Partial<T>{lo, size, tree_reduce(block + (lo - offset), lo, size, hi, combine)});
        lo += size;
    }
    return partials;
}

/// @brief Evaluates the fixed tree node [lo, lo+size), lo < total, from the
/// stream of partials sorted by start index, consuming them through
/// @c cursor. Like tree_reduce, a right child at or past @c total does not
/// exist and is skipped structurally.
template <typename T, typename Op>
T stitch(
    Partial<T> const* partials, std::size_t n_partials, std::size_t& cursor, std::uint64_t lo,
    std::uint64_t size, std::uint64_t total, Op combine) {
    if (cursor < n_partials && partials[cursor].start == lo && partials[cursor].size == size) {
        return partials[cursor++].value;
    }
    std::uint64_t const half = size / 2;
    KASSERT(half >= 1, "stitch descended below a leaf; inconsistent partials");
    T const left = stitch(partials, n_partials, cursor, lo, half, total, combine);
    if (lo + half >= total) {
        return left;
    }
    T const right = stitch(partials, n_partials, cursor, lo + half, half, total, combine);
    return combine(left, right);
}

/// @brief Evaluates the whole fixed tree over @c total elements from sorted
/// partials (the root side of the distributed reduction).
template <typename T, typename Op>
T stitch_all(Partial<T> const* partials, std::size_t n_partials, std::uint64_t total, Op combine) {
    if (total == 0) {
        return T{};
    }
    std::size_t cursor = 0;
    T const result = stitch(partials, n_partials, cursor, 0, std::bit_ceil(total), total, combine);
    KASSERT(cursor == n_partials, "reproducible reduce consumed a partial twice");
    return result;
}

/// @brief Purely local fixed-tree reduction of @c count elements, produced
/// one tree-aligned chunk at a time by @c fill(begin, n, out) and decomposed
/// as they come: only one chunk is held, and the value is the one any
/// distributed decompose/gather/stitch over the same array would produce.
/// The kasched ledger checksums its replicas with this.
template <typename T, typename Fill, typename Op = std::plus<T>>
T fixed_tree_sum(std::uint64_t count, Fill fill, Op combine = {}) {
    // A power of two, so every full chunk is exactly one node of the tree.
    constexpr std::uint64_t chunk_size = 4096;
    std::vector<T> chunk(std::min(count, chunk_size));
    std::vector<Partial<T>> partials;
    for (std::uint64_t begin = 0; begin < count; begin += chunk_size) {
        std::uint64_t const n = std::min(chunk_size, count - begin);
        fill(begin, n, chunk.data());
        auto const chunk_partials = decompose(chunk.data(), begin, n, combine);
        partials.insert(partials.end(), chunk_partials.begin(), chunk_partials.end());
    }
    return stitch_all(partials.data(), partials.size(), count, combine);
}

} // namespace apps::repro
