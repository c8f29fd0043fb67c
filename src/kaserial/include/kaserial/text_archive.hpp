/// @file text_archive.hpp
/// @brief Human-readable text archives for kaserial.
///
/// Demonstrates the archive configurability the paper attributes to cereal
/// (Section III-D3: "users [can] specify custom serialization functions and
/// archives, e.g., binary formats, JSON, or XML"). The format is a flat
/// token stream: scalars as shortest-roundtrip decimal tokens, byte blocks
/// as length-prefixed raw bytes. Round-trip safe, diffable, debuggable.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>

#include "kaserial/kaserial.hpp"

namespace kaserial {

/// @brief Serializes values into a whitespace-separated text buffer.
class TextOutputArchive {
public:
    explicit TextOutputArchive(std::string& buffer) : buffer_(&buffer) {}

    static constexpr bool is_saving = true;
    static constexpr bool is_loading = false;
    /// Element-wise text output; no bulk memcpy path.
    static constexpr bool supports_bulk_bytes = false;

    template <typename... Ts>
    TextOutputArchive& operator()(Ts&&... values) {
        (internal::save_value(*this, values), ...);
        return *this;
    }

    /// @name Primitive hooks
    /// @{
    template <typename T>
    void write_scalar(T const& value) {
        char token[64];
        auto const numeric = to_numeric(value);
        auto const [end, errc] = std::to_chars(token, token + sizeof(token), numeric);
        buffer_->append(token, static_cast<std::size_t>(end - token));
        buffer_->push_back(' ');
    }

    void write_bytes(void const* data, std::size_t bytes) {
        buffer_->append(static_cast<char const*>(data), bytes);
        buffer_->push_back(' ');
    }
    /// @}

private:
    template <typename T>
    static auto to_numeric(T const& value) {
        if constexpr (std::is_enum_v<T>) {
            return static_cast<std::underlying_type_t<T>>(value);
        } else if constexpr (std::is_same_v<T, bool>) {
            return static_cast<int>(value);
        } else {
            return value;
        }
    }

    std::string* buffer_;
};

/// @brief Deserializes values from a text buffer produced by
/// TextOutputArchive.
class TextInputArchive {
public:
    explicit TextInputArchive(std::string_view data) : data_(data) {}

    static constexpr bool is_saving = false;
    static constexpr bool is_loading = true;
    static constexpr bool supports_bulk_bytes = false;

    template <typename... Ts>
    TextInputArchive& operator()(Ts&&... values) {
        (internal::load_value(*this, values), ...);
        return *this;
    }

    /// @name Primitive hooks
    /// @{
    template <typename T>
    void read_scalar(T& value) {
        auto const token_end = data_.find(' ', position_);
        if (token_end == std::string_view::npos) {
            throw SerializationError("text archive exhausted");
        }
        char const* const first = data_.data() + position_;
        char const* const last = data_.data() + token_end;
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw{};
            parse(first, last, raw);
            value = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, bool>) {
            int raw = 0;
            parse(first, last, raw);
            value = raw != 0;
        } else {
            parse(first, last, value);
        }
        position_ = token_end + 1;
    }

    void read_bytes(void* data, std::size_t bytes) {
        if (position_ + bytes + 1 > data_.size()) {
            throw SerializationError("text archive exhausted");
        }
        if (bytes != 0) { // an empty container's data() may be null
            std::memcpy(data, data_.data() + position_, bytes);
        }
        position_ += bytes + 1; // consume the trailing separator
    }
    /// @}

    [[nodiscard]] bool exhausted() const { return position_ >= data_.size(); }

private:
    template <typename T>
    static void parse(char const* first, char const* last, T& value) {
        auto const [ptr, errc] = std::from_chars(first, last, value);
        if (errc != std::errc{} || ptr != last) {
            throw SerializationError(
                "text archive: malformed token '" + std::string(first, last) + "'");
        }
    }

    std::string_view data_;
    std::size_t position_ = 0;
};

/// @brief Serializes a value into a fresh text buffer.
template <typename T>
std::string to_text(T const& value) {
    std::string buffer;
    TextOutputArchive archive(buffer);
    archive(value);
    return buffer;
}

/// @brief Deserializes a value of type T from a text buffer.
template <typename T>
T from_text(std::string_view data) {
    T value{};
    TextInputArchive archive(data);
    archive(value);
    return value;
}

} // namespace kaserial
