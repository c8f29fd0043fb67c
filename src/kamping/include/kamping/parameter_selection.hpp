/// @file parameter_selection.hpp
/// @brief Compile-time selection of named parameters from an argument pack.
///
/// This is the machinery behind "only the code paths for missing parameters
/// are instantiated" (paper, Section III-A): presence of a parameter is a
/// constexpr predicate on the pack, and defaults are constructed through a
/// factory that is only invoked (and compiled) when the parameter is absent.
#pragma once

#include <type_traits>
#include <utility>

#include "kamping/parameter_type.hpp"

namespace kamping::internal {

template <typename Arg>
concept named_parameter = requires { std::remove_cvref_t<Arg>::parameter_type; };

/// @brief True iff Arg is a named parameter of the given type.
template <ParameterType Type, typename Arg>
constexpr bool is_parameter_v = [] {
    if constexpr (named_parameter<Arg>) {
        return std::remove_cvref_t<Arg>::parameter_type == Type;
    } else {
        return false;
    }
}();

/// @brief True iff the pack contains a parameter of the given type.
template <ParameterType Type, typename... Args>
constexpr bool has_parameter_v = (is_parameter_v<Type, Args> || ...);

/// @brief Reference to the first parameter of the given type in the pack.
/// Only call when has_parameter_v is true.
template <ParameterType Type, typename First, typename... Rest>
constexpr decltype(auto) select_parameter(First&& first, Rest&&... rest) {
    if constexpr (is_parameter_v<Type, First>) {
        return std::forward<First>(first);
    } else {
        static_assert(
            sizeof...(Rest) > 0, "internal error: requested parameter not present in pack");
        return select_parameter<Type>(std::forward<Rest>(rest)...);
    }
}

/// @brief Moves the matching parameter object out of the pack, or constructs
/// a default via @c factory. The factory branch is only instantiated when
/// the parameter is absent — this is what makes omitted parameters free.
template <ParameterType Type, typename Factory, typename... Args>
constexpr auto take_parameter_or_default(Factory&& factory, Args&&... args) {
    if constexpr (has_parameter_v<Type, Args...>) {
        return std::move(select_parameter<Type>(args...));
    } else {
        return factory();
    }
}

/// @brief Discarding stand-in for an absent out-value parameter: set() is a
/// no-op and the value never reaches the result object.
template <ParameterType Type, typename T>
struct IgnoredOutParameter {
    static constexpr ParameterType parameter_type = Type;
    static constexpr BufferKind kind = BufferKind::out;
    static constexpr bool in_result = false;
    using value_type = T;
    void set(T const&) {}
};

/// @brief True iff @c Param is the stand-in for an out-value nobody asked for.
template <typename Param>
constexpr bool is_ignored_out_v = false;
template <ParameterType Type, typename T>
constexpr bool is_ignored_out_v<IgnoredOutParameter<Type, T>> = true;

/// @brief Moves the matching *out*-parameter from the pack, or yields an
/// IgnoredOutParameter. An in-flavoured parameter of the same type (e.g.
/// recv_count(5)) is also ignored here — it is read elsewhere.
template <ParameterType Type, typename T, typename... Args>
constexpr auto take_out_parameter_or_ignore(Args&&... args) {
    constexpr bool is_out = [] {
        if constexpr (has_parameter_v<Type, Args...>) {
            using Param = std::remove_cvref_t<decltype(select_parameter<Type>(
                std::declval<Args&>()...))>;
            return Param::kind == BufferKind::out;
        } else {
            return false;
        }
    }();
    if constexpr (is_out) {
        return std::move(select_parameter<Type>(args...));
    } else {
        return IgnoredOutParameter<Type, T>{};
    }
}

/// @brief Every named parameter in the pack must be one of the listed types;
/// trips a readable compile error otherwise (catches e.g. passing a
/// send_counts to a gather, which would silently be ignored).
template <typename Arg, ParameterType... Allowed>
constexpr bool parameter_allowed_v = ((std::remove_cvref_t<Arg>::parameter_type == Allowed) || ...);

#define KAMPING_CHECK_PARAMETERS(ARGS, FUNCTION, ...)                                            \
    static_assert(                                                                               \
        (::kamping::internal::parameter_allowed_v<ARGS, __VA_ARGS__> && ...),                    \
        FUNCTION " was passed a named parameter it does not accept — check the parameter list " \
                 "in the documentation")

} // namespace kamping::internal
