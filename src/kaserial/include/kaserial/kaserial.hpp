/// @file kaserial.hpp
/// @brief kaserial — a compact serialization library in the spirit of cereal.
///
/// The KaMPIng bindings use kaserial for the opt-in serialization path
/// (paper, Section III-D3): non-contiguous data such as std::string or
/// std::unordered_map is packed into a byte buffer before communication and
/// unpacked on the receiver.
///
/// Supported out of the box: arithmetic types, enums, std::string,
/// std::vector, std::array, std::pair, std::tuple, std::optional, std::map,
/// std::unordered_map, std::set, std::unordered_set, and — via reflection —
/// plain aggregates of serializable members. Custom types can provide either
/// a member `template <class Ar> void serialize(Ar&)` or a free function
/// `serialize(Archive&, T&)` found by ADL, exactly like cereal.
///
/// Two archive families demonstrate the configurability the paper mentions:
/// a compact binary format (the default for communication) and a
/// human-readable text format (debugging).
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kaserial/reflect.hpp"

namespace kaserial {

/// @brief Thrown when an input archive runs out of data or sees malformed
/// input.
class SerializationError : public std::runtime_error {
public:
    explicit SerializationError(std::string const& what) : std::runtime_error(what) {}
};

namespace internal {

template <typename T>
concept arithmetic_or_enum = std::is_arithmetic_v<T> || std::is_enum_v<T>;

template <typename Archive, typename T>
concept has_member_serialize = requires(Archive& archive, T& value) { value.serialize(archive); };

template <typename Archive, typename T>
concept has_adl_serialize = requires(Archive& archive, T& value) { serialize(archive, value); };

} // namespace internal

// ---------------------------------------------------------------------------
// Binary archives
// ---------------------------------------------------------------------------

/// @brief Serializes values into a growing byte buffer.
class BinaryOutputArchive {
public:
    explicit BinaryOutputArchive(std::vector<std::byte>& buffer) : buffer_(&buffer) {}

    static constexpr bool is_saving = true;
    static constexpr bool is_loading = false;
    /// Trivial element ranges may be written as one memcpy.
    static constexpr bool supports_bulk_bytes = true;

    /// @brief cereal-style call operator: archive(a, b, c).
    template <typename... Ts>
    BinaryOutputArchive& operator()(Ts&&... values);

    /// @name Primitive hooks used by the shared save/load layer
    /// @{
    template <typename T>
    void write_scalar(T const& value) {
        static_assert(std::is_trivially_copyable_v<T>);
        write_bytes(&value, sizeof(T));
    }

    void write_bytes(void const* data, std::size_t bytes) {
        if (bytes == 0) {
            return; // an empty container's data() may be null
        }
        auto const old_size = buffer_->size();
        buffer_->resize(old_size + bytes);
        std::memcpy(buffer_->data() + old_size, data, bytes);
    }
    /// @}

private:
    std::vector<std::byte>* buffer_;
};

/// @brief Deserializes values from a byte span.
class BinaryInputArchive {
public:
    explicit BinaryInputArchive(std::span<std::byte const> data) : data_(data) {}

    static constexpr bool is_saving = false;
    static constexpr bool is_loading = true;
    static constexpr bool supports_bulk_bytes = true;

    template <typename... Ts>
    BinaryInputArchive& operator()(Ts&&... values);

    /// @name Primitive hooks used by the shared save/load layer
    /// @{
    template <typename T>
    void read_scalar(T& value) {
        static_assert(std::is_trivially_copyable_v<T>);
        read_bytes(&value, sizeof(T));
    }

    void read_bytes(void* data, std::size_t bytes) {
        if (position_ + bytes > data_.size()) {
            throw SerializationError("binary archive exhausted");
        }
        if (bytes == 0) {
            return; // an empty container's data() may be null
        }
        std::memcpy(data, data_.data() + position_, bytes);
        position_ += bytes;
    }
    /// @}

    /// @brief Bytes consumed so far.
    [[nodiscard]] std::size_t position() const { return position_; }
    /// @brief True iff all input has been consumed.
    [[nodiscard]] bool exhausted() const { return position_ == data_.size(); }

private:
    std::span<std::byte const> data_;
    std::size_t position_ = 0;
};

// ---------------------------------------------------------------------------
// Generic serialize() for the supported type families. The functions are
// written once against a Save/Load pair of archive concepts so both the
// binary and the text archives share them.
// ---------------------------------------------------------------------------

namespace internal {

/// @brief Size header type: 64-bit so buffers > 4 GiB are representable.
using SizeTag = std::uint64_t;

template <typename Archive, typename T>
void save_value(Archive& archive, T const& value);
template <typename Archive, typename T>
void load_value(Archive& archive, T& value);

// --- save ---

template <typename Archive, typename T>
    requires arithmetic_or_enum<T>
void save_one(Archive& archive, T const& value) {
    archive.write_scalar(value);
}

template <typename Archive>
void save_one(Archive& archive, std::string const& value) {
    archive.write_scalar(static_cast<SizeTag>(value.size()));
    archive.write_bytes(value.data(), value.size());
}

template <typename Archive, typename T, typename Alloc>
void save_one(Archive& archive, std::vector<T, Alloc> const& value) {
    archive.write_scalar(static_cast<SizeTag>(value.size()));
    if constexpr (arithmetic_or_enum<T> && Archive::supports_bulk_bytes) {
        archive.write_bytes(value.data(), value.size() * sizeof(T));
    } else {
        for (auto const& element: value) {
            save_value(archive, element);
        }
    }
}

template <typename Archive, typename T, std::size_t N>
void save_one(Archive& archive, std::array<T, N> const& value) {
    for (auto const& element: value) {
        save_value(archive, element);
    }
}

template <typename Archive, typename A, typename B>
void save_one(Archive& archive, std::pair<A, B> const& value) {
    save_value(archive, value.first);
    save_value(archive, value.second);
}

template <typename Archive, typename... Ts>
void save_one(Archive& archive, std::tuple<Ts...> const& value) {
    std::apply([&](auto const&... elements) { (save_value(archive, elements), ...); }, value);
}

template <typename Archive, typename T>
void save_one(Archive& archive, std::optional<T> const& value) {
    archive.write_scalar(static_cast<std::uint8_t>(value.has_value() ? 1 : 0));
    if (value.has_value()) {
        save_value(archive, *value);
    }
}

template <typename Archive, typename Container>
void save_sized_range(Archive& archive, Container const& value) {
    archive.write_scalar(static_cast<SizeTag>(value.size()));
    for (auto const& element: value) {
        save_value(archive, element);
    }
}

template <typename Archive, typename K, typename V, typename C, typename A>
void save_one(Archive& archive, std::map<K, V, C, A> const& value) {
    save_sized_range(archive, value);
}
template <typename Archive, typename K, typename V, typename H, typename E, typename A>
void save_one(Archive& archive, std::unordered_map<K, V, H, E, A> const& value) {
    save_sized_range(archive, value);
}
template <typename Archive, typename K, typename C, typename A>
void save_one(Archive& archive, std::set<K, C, A> const& value) {
    save_sized_range(archive, value);
}
template <typename Archive, typename K, typename H, typename E, typename A>
void save_one(Archive& archive, std::unordered_set<K, H, E, A> const& value) {
    save_sized_range(archive, value);
}

// --- load ---

template <typename Archive, typename T>
    requires arithmetic_or_enum<T>
void load_one(Archive& archive, T& value) {
    archive.read_scalar(value);
}

template <typename Archive>
void load_one(Archive& archive, std::string& value) {
    SizeTag size = 0;
    archive.read_scalar(size);
    value.resize(static_cast<std::size_t>(size));
    archive.read_bytes(value.data(), value.size());
}

template <typename Archive, typename T, typename Alloc>
void load_one(Archive& archive, std::vector<T, Alloc>& value) {
    SizeTag size = 0;
    archive.read_scalar(size);
    value.resize(static_cast<std::size_t>(size));
    if constexpr (arithmetic_or_enum<T> && Archive::supports_bulk_bytes) {
        archive.read_bytes(value.data(), value.size() * sizeof(T));
    } else {
        for (auto& element: value) {
            load_value(archive, element);
        }
    }
}

template <typename Archive, typename T, std::size_t N>
void load_one(Archive& archive, std::array<T, N>& value) {
    for (auto& element: value) {
        load_value(archive, element);
    }
}

template <typename Archive, typename A, typename B>
void load_one(Archive& archive, std::pair<A, B>& value) {
    load_value(archive, value.first);
    load_value(archive, value.second);
}

template <typename Archive, typename... Ts>
void load_one(Archive& archive, std::tuple<Ts...>& value) {
    std::apply([&](auto&... elements) { (load_value(archive, elements), ...); }, value);
}

template <typename Archive, typename T>
void load_one(Archive& archive, std::optional<T>& value) {
    std::uint8_t engaged = 0;
    archive.read_scalar(engaged);
    if (engaged != 0) {
        T element{};
        load_value(archive, element);
        value = std::move(element);
    } else {
        value.reset();
    }
}

template <typename Archive, typename Container, typename Element>
void load_keyed_container(Archive& archive, Container& value) {
    SizeTag size = 0;
    archive.read_scalar(size);
    value.clear();
    for (SizeTag i = 0; i < size; ++i) {
        Element element{};
        load_value(archive, element);
        value.insert(std::move(element));
    }
}

template <typename Archive, typename K, typename V, typename C, typename A>
void load_one(Archive& archive, std::map<K, V, C, A>& value) {
    load_keyed_container<Archive, std::map<K, V, C, A>, std::pair<K, V>>(archive, value);
}
template <typename Archive, typename K, typename V, typename H, typename E, typename A>
void load_one(Archive& archive, std::unordered_map<K, V, H, E, A>& value) {
    load_keyed_container<Archive, std::unordered_map<K, V, H, E, A>, std::pair<K, V>>(
        archive, value);
}
template <typename Archive, typename K, typename C, typename A>
void load_one(Archive& archive, std::set<K, C, A>& value) {
    load_keyed_container<Archive, std::set<K, C, A>, K>(archive, value);
}
template <typename Archive, typename K, typename H, typename E, typename A>
void load_one(Archive& archive, std::unordered_set<K, H, E, A>& value) {
    load_keyed_container<Archive, std::unordered_set<K, H, E, A>, K>(archive, value);
}

// --- dispatch: custom serialize() > built-in family > reflected aggregate ---

template <typename Archive, typename T>
concept has_builtin_save = requires(Archive& archive, T const& value) { save_one(archive, value); };
template <typename Archive, typename T>
concept has_builtin_load = requires(Archive& archive, T& value) { load_one(archive, value); };

template <typename Archive, typename T>
void save_value(Archive& archive, T const& value) {
    using Decayed = std::remove_cvref_t<T>;
    if constexpr (has_member_serialize<Archive, Decayed>) {
        const_cast<Decayed&>(value).serialize(archive);
    } else if constexpr (has_adl_serialize<Archive, Decayed>) {
        serialize(archive, const_cast<Decayed&>(value));
    } else if constexpr (has_builtin_save<Archive, Decayed>) {
        save_one(archive, value);
    } else if constexpr (reflect::reflectable<Decayed>) {
        reflect::visit_members(
            value, [&](auto const&... members) { (save_value(archive, members), ...); });
    } else {
        static_assert(
            sizeof(T) == 0,
            "kaserial: type is not serializable — provide serialize(Archive&, T&) or a member "
            "serialize()");
    }
}

template <typename Archive, typename T>
void load_value(Archive& archive, T& value) {
    using Decayed = std::remove_cvref_t<T>;
    if constexpr (has_member_serialize<Archive, Decayed>) {
        value.serialize(archive);
    } else if constexpr (has_adl_serialize<Archive, Decayed>) {
        serialize(archive, value);
    } else if constexpr (has_builtin_load<Archive, Decayed>) {
        load_one(archive, value);
    } else if constexpr (reflect::reflectable<Decayed>) {
        reflect::visit_members(
            value, [&](auto&... members) { (load_value(archive, members), ...); });
    } else {
        static_assert(
            sizeof(T) == 0,
            "kaserial: type is not deserializable — provide serialize(Archive&, T&) or a member "
            "serialize()");
    }
}

} // namespace internal

template <typename... Ts>
BinaryOutputArchive& BinaryOutputArchive::operator()(Ts&&... values) {
    (internal::save_value(*this, values), ...);
    return *this;
}

template <typename... Ts>
BinaryInputArchive& BinaryInputArchive::operator()(Ts&&... values) {
    (internal::load_value(*this, values), ...);
    return *this;
}

// ---------------------------------------------------------------------------
// Convenience helpers
// ---------------------------------------------------------------------------

/// @brief Serializes a value into a fresh byte buffer (binary format).
template <typename T>
std::vector<std::byte> to_bytes(T const& value) {
    std::vector<std::byte> buffer;
    BinaryOutputArchive archive(buffer);
    archive(value);
    return buffer;
}

/// @brief Deserializes a value of type T from a byte span (binary format).
template <typename T>
T from_bytes(std::span<std::byte const> data) {
    T value{};
    BinaryInputArchive archive(data);
    archive(value);
    return value;
}

} // namespace kaserial
