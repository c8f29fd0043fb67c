#include "xmpi/op.hpp"

#include <cstddef>
#include <type_traits>

#include "kassert/kassert.hpp"
#include "xmpi/datatype.hpp"

namespace xmpi {
namespace {

/// @brief One ReduceRun placed over a buffer pair: for each of @c elements
/// elements (@c extent bytes apart), @c blocks blocks (@c stride bytes
/// apart) of @c n values each.
struct Runs {
    std::byte const* in;
    std::byte* inout;
    std::size_t n;
    std::size_t blocks;
    std::ptrdiff_t stride;
    std::size_t elements;
    std::ptrdiff_t extent;
};

/// @brief inout = f(in, inout) over every value of @p runs, in order. The
/// inner loop is a plain array loop, so the compiler vectorizes it.
template <typename T, typename F>
void combine_runs(F f, Runs const& runs) {
    for (std::size_t e = 0; e < runs.elements; ++e) {
        for (std::size_t b = 0; b < runs.blocks; ++b) {
            std::ptrdiff_t const shift = static_cast<std::ptrdiff_t>(e) * runs.extent
                                         + static_cast<std::ptrdiff_t>(b) * runs.stride;
            auto const* in = reinterpret_cast<T const*>(runs.in + shift);
            auto* inout = reinterpret_cast<T*>(runs.inout + shift);
            for (std::size_t i = 0; i < runs.n; ++i) {
                inout[i] = f(in[i], inout[i]);
            }
        }
    }
}

template <typename T>
void combine_typed(BuiltinOp op, Runs const& runs) {
    switch (op) {
        case BuiltinOp::sum:
            return combine_runs<T>([](T a, T b) { return static_cast<T>(a + b); }, runs);
        case BuiltinOp::prod:
            return combine_runs<T>([](T a, T b) { return static_cast<T>(a * b); }, runs);
        case BuiltinOp::min:
            return combine_runs<T>([](T a, T b) { return a < b ? a : b; }, runs);
        case BuiltinOp::max:
            return combine_runs<T>([](T a, T b) { return a > b ? a : b; }, runs);
        case BuiltinOp::land:
            return combine_runs<T>([](T a, T b) { return static_cast<T>(a && b); }, runs);
        case BuiltinOp::lor:
            return combine_runs<T>([](T a, T b) { return static_cast<T>(a || b); }, runs);
        case BuiltinOp::lxor:
            return combine_runs<T>([](T a, T b) { return static_cast<T>(!a != !b); }, runs);
        default:
            break;
    }
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
        switch (op) {
            case BuiltinOp::band:
                return combine_runs<T>([](T a, T b) { return static_cast<T>(a & b); }, runs);
            case BuiltinOp::bor:
                return combine_runs<T>([](T a, T b) { return static_cast<T>(a | b); }, runs);
            case BuiltinOp::bxor:
                return combine_runs<T>([](T a, T b) { return static_cast<T>(a ^ b); }, runs);
            default:
                break;
        }
    }
    // The API entry points reject these combinations (Op::accepts).
    KASSERT(false, "bitwise op dispatched to non-integral combine");
}

/// @brief Applies a builtin op to @p runs of elements of kind @p elem.
void combine(BuiltinOp op, BuiltinType elem, Runs const& runs) {
    switch (elem) {
        case BuiltinType::byte_:
        case BuiltinType::char_:
            return combine_typed<char>(op, runs);
        case BuiltinType::signed_char:
            return combine_typed<signed char>(op, runs);
        case BuiltinType::unsigned_char:
            return combine_typed<unsigned char>(op, runs);
        case BuiltinType::short_:
            return combine_typed<short>(op, runs);
        case BuiltinType::unsigned_short:
            return combine_typed<unsigned short>(op, runs);
        case BuiltinType::int_:
            return combine_typed<int>(op, runs);
        case BuiltinType::unsigned_int:
            return combine_typed<unsigned>(op, runs);
        case BuiltinType::long_:
            return combine_typed<long>(op, runs);
        case BuiltinType::unsigned_long:
            return combine_typed<unsigned long>(op, runs);
        case BuiltinType::long_long:
            return combine_typed<long long>(op, runs);
        case BuiltinType::unsigned_long_long:
            return combine_typed<unsigned long long>(op, runs);
        case BuiltinType::float_:
            return combine_typed<float>(op, runs);
        case BuiltinType::double_:
            return combine_typed<double>(op, runs);
        case BuiltinType::long_double:
            return combine_typed<long double>(op, runs);
        case BuiltinType::bool_:
            return combine_typed<bool>(op, runs);
    }
}

[[nodiscard]] bool is_bitwise(BuiltinOp op) {
    return op == BuiltinOp::band || op == BuiltinOp::bor || op == BuiltinOp::bxor;
}

} // namespace

bool Op::accepts(Datatype const& datatype) const {
    return !is_bitwise(builtin_) || datatype.is_integral();
}

void Op::apply(void const* in, void* inout, std::size_t count, Datatype const& datatype) const {
    if (!is_builtin()) {
        int len = static_cast<int>(count);
        Datatype* type_handle = const_cast<Datatype*>(&datatype);
        function_(const_cast<void*>(in), inout, &len, &type_handle);
        return;
    }
    if (count == 0) {
        return; // count-0 reductions may pass null buffers
    }
    auto const* in_bytes = static_cast<std::byte const*>(in);
    auto* inout_bytes = static_cast<std::byte*>(inout);
    std::ptrdiff_t const extent = datatype.extent();
    auto const place = [&](ReduceRun const& run, std::ptrdiff_t shift, std::size_t elements) {
        return Runs{in_bytes + shift + run.offset, inout_bytes + shift + run.offset, run.count,
                    run.blocks, run.stride, elements, extent};
    };
    switch (datatype.reduce_layout()) {
        case Datatype::ReduceLayout::dense: {
            ReduceRun const& run = datatype.reduce_runs().front();
            combine(
                builtin_, run.elem, Runs{in_bytes, inout_bytes, count * run.count, 1, 0, 1, 0});
            return;
        }
        case Datatype::ReduceLayout::block_major:
            for (ReduceRun const& run: datatype.reduce_runs()) {
                combine(builtin_, run.elem, place(run, 0, count));
            }
            return;
        case Datatype::ReduceLayout::overlapping:
            for (std::size_t i = 0; i < count; ++i) {
                for (ReduceRun const& run: datatype.reduce_runs()) {
                    combine(
                        builtin_, run.elem,
                        place(run, static_cast<std::ptrdiff_t>(i) * extent, 1));
                }
            }
            return;
    }
}

Op const* predefined_op(BuiltinOp op) {
    static Op const* const ops[] = {
        nullptr,
        new Op(BuiltinOp::sum),
        new Op(BuiltinOp::prod),
        new Op(BuiltinOp::min),
        new Op(BuiltinOp::max),
        new Op(BuiltinOp::land),
        new Op(BuiltinOp::lor),
        new Op(BuiltinOp::lxor),
        new Op(BuiltinOp::band),
        new Op(BuiltinOp::bor),
        new Op(BuiltinOp::bxor),
    };
    return ops[static_cast<std::size_t>(op)];
}

} // namespace xmpi
