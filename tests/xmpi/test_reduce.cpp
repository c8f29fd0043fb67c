/// @file test_reduce.cpp
/// @brief Builtin reductions over compiled datatype layouts, and the argument
/// checks of the reduce-family entry points.
///
/// The equivalence tests compare Op::apply against the element loop kept
/// below as the reference: for each element, for each typemap block, for
/// each value, inout = op(in, inout).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

using xmpi::BuiltinOp;
using xmpi::BuiltinType;
using xmpi::Datatype;
using xmpi::World;
using ReduceLayout = Datatype::ReduceLayout;

constexpr BuiltinType kKinds[] = {
    BuiltinType::byte_,         BuiltinType::char_,          BuiltinType::signed_char,
    BuiltinType::unsigned_char, BuiltinType::short_,         BuiltinType::unsigned_short,
    BuiltinType::int_,          BuiltinType::unsigned_int,   BuiltinType::long_,
    BuiltinType::unsigned_long, BuiltinType::long_long,      BuiltinType::unsigned_long_long,
    BuiltinType::float_,        BuiltinType::double_,        BuiltinType::long_double,
    BuiltinType::bool_,
};

constexpr BuiltinOp kOps[] = {
    BuiltinOp::sum, BuiltinOp::prod, BuiltinOp::min,  BuiltinOp::max, BuiltinOp::land,
    BuiltinOp::lor, BuiltinOp::lxor, BuiltinOp::band, BuiltinOp::bor, BuiltinOp::bxor,
};

bool is_bitwise(BuiltinOp op) {
    return op == BuiltinOp::band || op == BuiltinOp::bor || op == BuiltinOp::bxor;
}

// ---------------------------------------------------------------------------
// Reference: one value at a time
// ---------------------------------------------------------------------------

template <typename T>
T reference_value(BuiltinOp op, T a, T b) {
    switch (op) {
        case BuiltinOp::sum:
            return static_cast<T>(a + b);
        case BuiltinOp::prod:
            return static_cast<T>(a * b);
        case BuiltinOp::min:
            return a < b ? a : b;
        case BuiltinOp::max:
            return a > b ? a : b;
        case BuiltinOp::land:
            return static_cast<T>(a && b);
        case BuiltinOp::lor:
            return static_cast<T>(a || b);
        case BuiltinOp::lxor:
            return static_cast<T>(!a != !b);
        default:
            break;
    }
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
        switch (op) {
            case BuiltinOp::band:
                return static_cast<T>(a & b);
            case BuiltinOp::bor:
                return static_cast<T>(a | b);
            case BuiltinOp::bxor:
                return static_cast<T>(a ^ b);
            default:
                break;
        }
    }
    ADD_FAILURE() << "op not defined on this kind";
    return b;
}

/// Calls f(T*) with the value at @p p typed by @p kind.
template <typename F>
void with_kind(BuiltinType kind, std::byte* p, F&& f) {
    switch (kind) {
        case BuiltinType::byte_:
        case BuiltinType::char_:
            return f(reinterpret_cast<char*>(p));
        case BuiltinType::signed_char:
            return f(reinterpret_cast<signed char*>(p));
        case BuiltinType::unsigned_char:
            return f(reinterpret_cast<unsigned char*>(p));
        case BuiltinType::short_:
            return f(reinterpret_cast<short*>(p));
        case BuiltinType::unsigned_short:
            return f(reinterpret_cast<unsigned short*>(p));
        case BuiltinType::int_:
            return f(reinterpret_cast<int*>(p));
        case BuiltinType::unsigned_int:
            return f(reinterpret_cast<unsigned*>(p));
        case BuiltinType::long_:
            return f(reinterpret_cast<long*>(p));
        case BuiltinType::unsigned_long:
            return f(reinterpret_cast<unsigned long*>(p));
        case BuiltinType::long_long:
            return f(reinterpret_cast<long long*>(p));
        case BuiltinType::unsigned_long_long:
            return f(reinterpret_cast<unsigned long long*>(p));
        case BuiltinType::float_:
            return f(reinterpret_cast<float*>(p));
        case BuiltinType::double_:
            return f(reinterpret_cast<double*>(p));
        case BuiltinType::long_double:
            return f(reinterpret_cast<long double*>(p));
        case BuiltinType::bool_:
            return f(reinterpret_cast<bool*>(p));
    }
}

/// Visits every value of @p count elements at @p base, in typemap order:
/// f(kind, pointer, running index).
template <typename F>
void for_each_value(Datatype const& type, std::size_t count, std::byte* base, F&& f) {
    std::size_t index = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::byte* const element = base + static_cast<std::ptrdiff_t>(i) * type.extent();
        for (auto const& block: type.typemap()) {
            std::size_t const width = xmpi::builtin_size(block.elem);
            for (std::size_t j = 0; j < block.count; ++j) {
                f(block.elem, element + block.offset + static_cast<std::ptrdiff_t>(j * width),
                  index++);
            }
        }
    }
}

/// The element loop Op::apply ran before layouts were compiled.
void reference_apply(
    BuiltinOp op, Datatype const& type, std::size_t count, std::byte* in, std::byte* inout) {
    for_each_value(type, count, inout, [&](BuiltinType kind, std::byte* dst, std::size_t) {
        std::byte* const src = in + (dst - inout);
        with_kind(kind, dst, [&](auto* d) {
            auto const* s = reinterpret_cast<decltype(d)>(src);
            *d = reference_value(op, *s, *d);
        });
    });
}

/// Small values: signed sums and products stay in range, and the logical
/// ops see zeros and non-zeros.
template <typename T>
T sample(std::size_t index, int salt) {
    int const v = static_cast<int>((index * 7 + static_cast<std::size_t>(salt) * 3) % 7);
    if constexpr (std::is_same_v<T, bool>) {
        return v % 2 == 0;
    } else if constexpr (std::is_floating_point_v<T>) {
        return static_cast<T>(v) * T(0.5) - T(1.5);
    } else if constexpr (std::is_signed_v<T>) {
        return static_cast<T>(v - 3);
    } else {
        return static_cast<T>(v);
    }
}

/// A buffer that holds @p count elements of @p type wherever their typemaps
/// reach, including below the base (negative offsets or extents).
struct LayoutBuffer {
    LayoutBuffer(Datatype const& type, std::size_t count, int salt) {
        std::ptrdiff_t lo = 0;
        std::ptrdiff_t hi = 0;
        for (std::size_t i = 0; i < count; ++i) {
            std::ptrdiff_t const shift = static_cast<std::ptrdiff_t>(i) * type.extent();
            for (auto const& block: type.typemap()) {
                auto const begin = shift + block.offset;
                auto const end =
                    begin
                    + static_cast<std::ptrdiff_t>(block.count * xmpi::builtin_size(block.elem));
                lo = std::min(lo, begin);
                hi = std::max(hi, end);
            }
        }
        constexpr std::ptrdiff_t kAlign = alignof(std::max_align_t);
        std::ptrdiff_t const below = (-lo + kAlign - 1) / kAlign * kAlign;
        storage.resize(static_cast<std::size_t>(below + hi) / sizeof(std::max_align_t) + 1);
        std::memset(storage.data(), 0x5a, storage.size() * sizeof(std::max_align_t));
        base = reinterpret_cast<std::byte*>(storage.data()) + below;
        for_each_value(type, count, base, [&](BuiltinType kind, std::byte* p, std::size_t index) {
            with_kind(kind, p, [&](auto* v) {
                *v = sample<std::remove_pointer_t<decltype(v)>>(index, salt);
            });
        });
    }

    std::vector<std::max_align_t> storage;
    std::byte* base = nullptr;
};

/// Values of @p count elements as long double (exact for every sample).
std::vector<long double> values_of(Datatype const& type, std::size_t count, std::byte* base) {
    std::vector<long double> out;
    for_each_value(type, count, base, [&](BuiltinType kind, std::byte* p, std::size_t) {
        with_kind(kind, p, [&](auto* v) { out.push_back(static_cast<long double>(*v)); });
    });
    return out;
}

/// Owns a derived type for the duration of a test.
struct TypeHandle {
    explicit TypeHandle(Datatype* t) : type(t) {}
    TypeHandle(TypeHandle&& other) noexcept : type(other.type), name(std::move(other.name)) {
        other.type = nullptr;
    }
    TypeHandle(TypeHandle const&) = delete;
    ~TypeHandle() {
        if (type != nullptr) {
            type->release();
        }
    }
    Datatype* type;
    std::string name;
};

TypeHandle named(Datatype* type, std::string name) {
    TypeHandle handle(type);
    handle.name = std::move(name);
    return handle;
}

/// The layouts of one element kind, with the reduce layout each compiles to.
std::vector<std::pair<TypeHandle, ReduceLayout>> layouts_of(BuiltinType kind) {
    Datatype* const builtin = xmpi::predefined_type(kind); // release() is a no-op
    Datatype const& base = *builtin;
    auto const width = static_cast<std::ptrdiff_t>(xmpi::builtin_size(kind));
    std::vector<std::pair<TypeHandle, ReduceLayout>> out;
    out.emplace_back(named(builtin, "builtin"), ReduceLayout::dense);
    out.emplace_back(named(Datatype::contiguous(5, base), "contiguous5"), ReduceLayout::dense);
    // 3 blocks of 2 with stride 4: a gap of 2 values after each block.
    out.emplace_back(named(Datatype::vector(3, 2, 4, base), "vector_gaps"),
                     ReduceLayout::block_major);
    // Same typemap, lb moved below the base and the extent widened.
    {
        Datatype* pair = Datatype::contiguous(2, base);
        out.emplace_back(
            named(Datatype::create_resized(*pair, -width, 4 * width), "resized"),
            ReduceLayout::block_major);
        pair->release();
    }
    // Blocks at 0, -2, -4 values. The vector's own extent is shorter than
    // its span, so footprints can overlap; resized to 6 values they cannot.
    {
        Datatype* backwards = Datatype::vector(3, 1, -2, base);
        out.emplace_back(
            named(Datatype::create_resized(*backwards, 0, 6 * width), "negative_stride"),
            ReduceLayout::block_major);
        out.emplace_back(named(backwards, "negative_stride_overlapping"),
                         ReduceLayout::overlapping);
    }
    // Irregular displacements; the first two blocks share a value, which is
    // combined twice, in typemap order.
    {
        int const lengths[] = {2, 2, 2};
        int const displacements[] = {0, 1, 5};
        out.emplace_back(
            named(Datatype::indexed(3, lengths, displacements, base), "indexed_irregular"),
            ReduceLayout::block_major);
    }
    // Extent of one value over a span of three: neighbours share bytes.
    {
        Datatype* triple = Datatype::contiguous(3, base);
        out.emplace_back(
            named(Datatype::create_resized(*triple, 0, width), "resized_overlapping"),
            ReduceLayout::overlapping);
        triple->release();
    }
    return out;
}

/// struct { int; <gap>; double; char; <gap> }, or with long instead of
/// double when the struct must stay integral.
TypeHandle struct_with_gaps(bool integral) {
    int const blocklengths[] = {1, 1, 1};
    std::ptrdiff_t const displacements[] = {0, 8, 16};
    Datatype* const types[] = {
        xmpi::predefined_type(BuiltinType::int_),
        xmpi::predefined_type(integral ? BuiltinType::long_long : BuiltinType::double_),
        xmpi::predefined_type(BuiltinType::char_),
    };
    Datatype* fields = Datatype::create_struct(3, blocklengths, displacements, types);
    Datatype* padded = Datatype::create_resized(*fields, 0, 24);
    fields->release();
    return named(padded, integral ? "struct_integral" : "struct_int_double_char");
}

void expect_matches_reference(BuiltinOp op, Datatype const& type) {
    for (std::size_t const count: {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
        LayoutBuffer const in(type, count, 1);
        LayoutBuffer actual(type, count, 2);
        LayoutBuffer expected(type, count, 2);
        xmpi::predefined_op(op)->apply(in.base, actual.base, count, type);
        reference_apply(op, type, count, in.base, expected.base);
        EXPECT_EQ(values_of(type, count, actual.base), values_of(type, count, expected.base))
            << "op=" << static_cast<int>(op) << " count=" << count;
    }
}

// ---------------------------------------------------------------------------
// Compiled layouts
// ---------------------------------------------------------------------------

TEST(ReduceLayout, EveryConstructorCompilesToTheExpectedWalk) {
    for (BuiltinType const kind: kKinds) {
        for (auto const& [handle, layout]: layouts_of(kind)) {
            EXPECT_EQ(handle.type->reduce_layout(), layout)
                << handle.name << " kind=" << static_cast<int>(kind);
        }
    }
    TypeHandle bytes(Datatype::contiguous_bytes(24));
    EXPECT_EQ(bytes.type->reduce_layout(), ReduceLayout::dense);
    EXPECT_EQ(struct_with_gaps(false).type->reduce_layout(), ReduceLayout::block_major);
}

TEST(ReduceLayout, RegularBlocksCompileIntoOneStridedRun) {
    auto const width = static_cast<std::ptrdiff_t>(sizeof(int));
    TypeHandle vector(Datatype::vector(3, 2, 4, *XMPI_INT));
    ASSERT_EQ(vector.type->reduce_runs().size(), 1u);
    xmpi::ReduceRun const run = vector.type->reduce_runs().front();
    EXPECT_EQ(run.offset, 0);
    EXPECT_EQ(run.count, 2u);
    EXPECT_EQ(run.blocks, 3u);
    EXPECT_EQ(run.stride, 4 * width);

    TypeHandle backwards(Datatype::vector(4, 1, -2, *XMPI_INT));
    ASSERT_EQ(backwards.type->reduce_runs().size(), 1u);
    EXPECT_EQ(backwards.type->reduce_runs().front().blocks, 4u);
    EXPECT_EQ(backwards.type->reduce_runs().front().stride, -2 * width);

    // Blocks at 0, 1 and 5: the third breaks the distance, so it starts a run.
    int const lengths[] = {2, 2, 2};
    int const displacements[] = {0, 1, 5};
    TypeHandle indexed(Datatype::indexed(3, lengths, displacements, *XMPI_INT));
    ASSERT_EQ(indexed.type->reduce_runs().size(), 2u);
    EXPECT_EQ(indexed.type->reduce_runs()[0].blocks, 2u);
    EXPECT_EQ(indexed.type->reduce_runs()[1].offset, 5 * width);

    // Different kinds never share a run.
    EXPECT_EQ(struct_with_gaps(false).type->reduce_runs().size(), 3u);
}

TEST(ReduceLayout, IntegralMeansNoFloatOrBoolBlock) {
    EXPECT_TRUE(XMPI_INT->is_integral());
    EXPECT_TRUE(XMPI_BYTE->is_integral());
    EXPECT_FALSE(XMPI_FLOAT->is_integral());
    EXPECT_FALSE(XMPI_LONG_DOUBLE->is_integral());
    EXPECT_FALSE(XMPI_CXX_BOOL->is_integral());
    EXPECT_TRUE(struct_with_gaps(true).type->is_integral());
    EXPECT_FALSE(struct_with_gaps(false).type->is_integral());
}

TEST(ReduceLayout, EveryOpOnEveryKindMatchesTheElementLoop) {
    for (BuiltinType const kind: kKinds) {
        bool const integral = xmpi::predefined_type(kind)->is_integral();
        for (auto const& [handle, layout]: layouts_of(kind)) {
            SCOPED_TRACE(handle.name);
            SCOPED_TRACE(static_cast<int>(kind));
            for (BuiltinOp const op: kOps) {
                if (is_bitwise(op) && !integral) {
                    continue;
                }
                expect_matches_reference(op, *handle.type);
            }
        }
    }
}

TEST(ReduceLayout, StructsWithGapsMatchTheElementLoop) {
    for (bool const integral: {false, true}) {
        TypeHandle const handle = struct_with_gaps(integral);
        SCOPED_TRACE(handle.name);
        for (BuiltinOp const op: kOps) {
            if (is_bitwise(op) && !integral) {
                continue;
            }
            expect_matches_reference(op, *handle.type);
        }
    }
}

TEST(ReduceLayout, UserOpIsCalledOncePerApplyWithTheCallersCount) {
    static int calls = 0;
    static int last_len = -1;
    xmpi::Op const op(
        [](void*, void*, int* len, Datatype* const*) {
            ++calls;
            last_len = *len;
        },
        true);
    TypeHandle vector(Datatype::vector(3, 2, 4, *XMPI_INT));
    std::vector<int> in(64, 1);
    std::vector<int> inout(64, 2);
    for (Datatype const* type: {XMPI_INT, vector.type}) {
        for (int const count: {0, 1, 5}) {
            calls = 0;
            op.apply(in.data(), inout.data(), static_cast<std::size_t>(count), *type);
            EXPECT_EQ(calls, 1);
            EXPECT_EQ(last_len, count);
        }
    }
}

// ---------------------------------------------------------------------------
// XMPI_ERR_OP at every entry point that takes an op
// ---------------------------------------------------------------------------

TEST(ReduceArgs, BitwiseOpOnNonIntegralTypeIsErrOpAtEveryEntryPoint) {
    World::run(2, [] {
        TypeHandle const mixed = struct_with_gaps(false);
        for (XMPI_Datatype const type:
             {XMPI_FLOAT, XMPI_DOUBLE, XMPI_LONG_DOUBLE, XMPI_CXX_BOOL, mixed.type}) {
            for (XMPI_Op const op: {XMPI_BAND, XMPI_BOR, XMPI_BXOR}) {
                std::vector<long double> in(8, 1.0L);
                std::vector<long double> out(8, 0.0L);
                EXPECT_EQ(
                    XMPI_Reduce(in.data(), out.data(), 1, type, op, 0, XMPI_COMM_WORLD),
                    XMPI_ERR_OP);
                EXPECT_EQ(
                    XMPI_Allreduce(in.data(), out.data(), 1, type, op, XMPI_COMM_WORLD),
                    XMPI_ERR_OP);
                XMPI_Request request = XMPI_REQUEST_NULL;
                EXPECT_EQ(
                    XMPI_Iallreduce(
                        in.data(), out.data(), 1, type, op, XMPI_COMM_WORLD, &request),
                    XMPI_ERR_OP);
                EXPECT_EQ(request, XMPI_REQUEST_NULL);
                EXPECT_EQ(
                    XMPI_Allreduce_init(
                        in.data(), out.data(), 1, type, op, XMPI_COMM_WORLD, &request),
                    XMPI_ERR_OP);
                EXPECT_EQ(request, XMPI_REQUEST_NULL);
                EXPECT_EQ(
                    XMPI_Reduce_scatter_block(
                        in.data(), out.data(), 1, type, op, XMPI_COMM_WORLD),
                    XMPI_ERR_OP);
                EXPECT_EQ(
                    XMPI_Scan(in.data(), out.data(), 1, type, op, XMPI_COMM_WORLD),
                    XMPI_ERR_OP);
                EXPECT_EQ(
                    XMPI_Exscan(in.data(), out.data(), 1, type, op, XMPI_COMM_WORLD),
                    XMPI_ERR_OP);
            }
        }

        // One-sided: the check runs ahead of the epoch and range checks.
        std::vector<double> window_mem(4, 0.0);
        XMPI_Win win = XMPI_WIN_NULL;
        ASSERT_EQ(
            XMPI_Win_create(
                window_mem.data(), static_cast<XMPI_Aint>(window_mem.size() * sizeof(double)),
                static_cast<int>(sizeof(double)), XMPI_COMM_WORLD, &win),
            XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        double value = 1.0;
        double result = 0.0;
        EXPECT_EQ(
            XMPI_Accumulate(&value, 1, XMPI_DOUBLE, 0, 0, 1, XMPI_DOUBLE, XMPI_BAND, win),
            XMPI_ERR_OP);
        EXPECT_EQ(
            XMPI_Fetch_and_op(&value, &result, XMPI_DOUBLE, 0, 0, XMPI_BXOR, win),
            XMPI_ERR_OP);
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        EXPECT_EQ(window_mem, std::vector<double>(4, 0.0));
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);

        // No rank moved a message for the rejected calls, so the world is
        // still in step and the accepted forms still work.
        unsigned const mine = 0b1100;
        unsigned both = 0;
        ASSERT_EQ(
            XMPI_Allreduce(&mine, &both, 1, XMPI_UNSIGNED, XMPI_BAND, XMPI_COMM_WORLD),
            XMPI_SUCCESS);
        EXPECT_EQ(both, 0b1100u);
        double sum = 0.0;
        double const one = 1.0;
        ASSERT_EQ(
            XMPI_Allreduce(&one, &sum, 1, XMPI_DOUBLE, XMPI_SUM, XMPI_COMM_WORLD), XMPI_SUCCESS);
        EXPECT_EQ(sum, 2.0);
    });
}

TEST(ReduceArgs, NullOpIsErrOp) {
    World::run(2, [] {
        int const in = 1;
        int out = 0;
        EXPECT_EQ(
            XMPI_Allreduce(&in, &out, 1, XMPI_INT, XMPI_OP_NULL, XMPI_COMM_WORLD), XMPI_ERR_OP);
        EXPECT_EQ(
            XMPI_Reduce(&in, &out, 1, XMPI_INT, XMPI_OP_NULL, 0, XMPI_COMM_WORLD), XMPI_ERR_OP);
        EXPECT_EQ(XMPI_Scan(&in, &out, 1, XMPI_INT, XMPI_OP_NULL, XMPI_COMM_WORLD), XMPI_ERR_OP);
    });
}

// ---------------------------------------------------------------------------
// Count 0 with null buffers
// ---------------------------------------------------------------------------

class ReduceZeroCount : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(
    WorldSizes, ReduceZeroCount, ::testing::Values(1, 3, 4),
    [](auto const& info) { return "p" + std::to_string(info.param); });

TEST_P(ReduceZeroCount, EveryReduceFamilyCallAcceptsNullBuffers) {
    int const p = GetParam();
    World::run(p, [p] {
        // A non-commutative user op takes the rank-ordered algorithms.
        XMPI_Op ordered = XMPI_OP_NULL;
        ASSERT_EQ(XMPI_Op_create([](void*, void*, int*, Datatype* const*) {}, 0, &ordered),
                  XMPI_SUCCESS);
        for (XMPI_Op const op: {XMPI_SUM, ordered}) {
            for (int root = 0; root < p; ++root) {
                EXPECT_EQ(
                    XMPI_Reduce(nullptr, nullptr, 0, XMPI_INT, op, root, XMPI_COMM_WORLD),
                    XMPI_SUCCESS);
            }
            EXPECT_EQ(
                XMPI_Allreduce(nullptr, nullptr, 0, XMPI_INT, op, XMPI_COMM_WORLD),
                XMPI_SUCCESS);
            XMPI_Request request = XMPI_REQUEST_NULL;
            ASSERT_EQ(
                XMPI_Iallreduce(nullptr, nullptr, 0, XMPI_INT, op, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            EXPECT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            ASSERT_EQ(
                XMPI_Allreduce_init(
                    nullptr, nullptr, 0, XMPI_INT, op, XMPI_COMM_WORLD, &request),
                XMPI_SUCCESS);
            for (int round = 0; round < 2; ++round) {
                ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
                EXPECT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            }
            EXPECT_EQ(XMPI_Request_free(&request), XMPI_SUCCESS);
            EXPECT_EQ(
                XMPI_Reduce_scatter_block(nullptr, nullptr, 0, XMPI_INT, op, XMPI_COMM_WORLD),
                XMPI_SUCCESS);
            EXPECT_EQ(
                XMPI_Scan(nullptr, nullptr, 0, XMPI_INT, op, XMPI_COMM_WORLD), XMPI_SUCCESS);
            EXPECT_EQ(
                XMPI_Exscan(nullptr, nullptr, 0, XMPI_INT, op, XMPI_COMM_WORLD), XMPI_SUCCESS);
        }
        EXPECT_EQ(XMPI_Op_free(&ordered), XMPI_SUCCESS);
    });
}

} // namespace
