/// @file op.hpp
/// @brief Reduction operations: the builtin MPI operations plus user-defined
/// operations with an MPI-compatible signature.
#pragma once

#include <cstdint>

#include "xmpi/datatype.hpp"

namespace xmpi {

class Datatype;

/// @brief Builtin reduction kinds.
enum class BuiltinOp : std::uint8_t {
    none,
    sum,
    prod,
    min,
    max,
    land,
    lor,
    lxor,
    band,
    bor,
    bxor,
};

/// @brief User-defined operation, MPI_User_function-compatible: combines
/// len elements of invec into inoutvec (inout = op(in, inout)).
using UserFunction = void (*)(void* invec, void* inoutvec, int* len, Datatype* const* datatype);

/// @brief A reduction operation handle: either builtin or user-defined.
class Op {
public:
    /// @brief Builtin op constructor (predefined handles only).
    explicit Op(BuiltinOp builtin) : builtin_(builtin), commutative_(true) {}

    /// @brief User-defined op.
    Op(UserFunction function, bool commutative)
        : function_(function),
          commutative_(commutative) {}

    [[nodiscard]] bool is_builtin() const { return builtin_ != BuiltinOp::none; }
    [[nodiscard]] BuiltinOp builtin() const { return builtin_; }
    [[nodiscard]] bool commutative() const { return commutative_; }

    /// @brief False iff this is a bitwise op (band, bor, bxor) and
    /// @p datatype holds a float, double, long double or bool block. The API
    /// entry points turn false into XMPI_ERR_OP before any message moves.
    [[nodiscard]] bool accepts(Datatype const& datatype) const;

    /// @brief Applies the operation: inout[i] = op(in[i], inout[i]) for
    /// count elements laid out according to @c datatype (user layout, i.e.
    /// extent-strided). Builtin ops walk the type's compiled reduce runs
    /// (Datatype::reduce_layout): one loop for dense types, one pass per run
    /// over all elements otherwise, element by element only when footprints
    /// can overlap. User ops are invoked once, with the MPI-style signature and
    /// the caller's count.
    void apply(void const* in, void* inout, std::size_t count, Datatype const& datatype) const;

private:
    BuiltinOp builtin_ = BuiltinOp::none;
    UserFunction function_ = nullptr;
    bool commutative_ = true;
};

/// @brief Returns the predefined op handle for a builtin kind.
Op const* predefined_op(BuiltinOp op);

} // namespace xmpi
