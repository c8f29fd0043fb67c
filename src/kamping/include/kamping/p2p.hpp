/// @file p2p.hpp
/// @brief Blocking point-to-point wrappers: send, ssend, recv, probe. All
/// dispatch through the call plan of pipeline.hpp.
#pragma once

#include <optional>

#include "kamping/pipeline.hpp"
#include "kamping/serialization.hpp"

namespace kamping::internal {

template <typename... Args>
int get_tag(Args&&... args) {
    if constexpr (has_parameter_v<ParameterType::tag, Args...>) {
        return select_parameter<ParameterType::tag>(args...).value;
    } else {
        return 0;
    }
}

/// @brief comm.send(send_buf(v), destination(d), [tag], [send_count]).
template <typename... Args>
void send_impl(XMPI_Comm comm, Args&&... args) {
    KAMPING_PLAN_REQUIRE((has_parameter_v<ParameterType::send_buf, Args...>), "send", "send_buf");
    KAMPING_PLAN_REQUIRE(
        (has_parameter_v<ParameterType::destination, Args...>), "send", "destination");
    KAMPING_CHECK_PARAMETERS(
        Args, "send", ParameterType::send_buf, ParameterType::destination, ParameterType::tag,
        ParameterType::send_count, ParameterType::send_mode);
    CollectivePlan<plan_ops::send, Args...> plan(comm);
    auto&& send = ResolveSend{}(plan, args...);
    using T = buffer_value_t<decltype(send)>;
    int const dest = select_parameter<ParameterType::destination>(args...).value;
    int count = static_cast<int>(send.size());
    if constexpr (has_parameter_v<ParameterType::send_count, Args...>) {
        count = select_parameter<ParameterType::send_count>(args...).value;
    }
    // send_mode selects the underlying MPI send flavour at compile time.
    constexpr bool synchronous = [] {
        if constexpr (has_parameter_v<ParameterType::send_mode, Args...>) {
            using Mode = typename std::remove_cvref_t<decltype(select_parameter<
                                                               ParameterType::send_mode>(
                std::declval<Args&>()...))>::value_type;
            return std::is_same_v<Mode, send_modes::synchronous_tag>;
        } else {
            return false;
        }
    }();
    if constexpr (synchronous) {
        Dispatch{}(plan, "XMPI_Ssend", [&] {
            return XMPI_Ssend(send.data(), count, mpi_datatype<T>(), dest, get_tag(args...), comm);
        });
    } else {
        Dispatch{}(plan, "XMPI_Send", [&] {
            return XMPI_Send(send.data(), count, mpi_datatype<T>(), dest, get_tag(args...), comm);
        });
    }
}

/// @brief Synchronous-mode send: completes only once the receive matched.
template <typename... Args>
void ssend_impl(XMPI_Comm comm, Args&&... args) {
    KAMPING_PLAN_REQUIRE((has_parameter_v<ParameterType::send_buf, Args...>), "ssend", "send_buf");
    KAMPING_PLAN_REQUIRE(
        (has_parameter_v<ParameterType::destination, Args...>), "ssend", "destination");
    CollectivePlan<plan_ops::ssend, Args...> plan(comm);
    auto&& send = ResolveSend{}(plan, args...);
    using T = buffer_value_t<decltype(send)>;
    int const dest = select_parameter<ParameterType::destination>(args...).value;
    Dispatch{}(plan, "XMPI_Ssend", [&] {
        return XMPI_Ssend(
            send.data(), static_cast<int>(send.size()), mpi_datatype<T>(), dest,
            get_tag(args...), comm);
    });
}

/// @brief comm.recv<T>([source], [tag], [recv_buf], [recv_count[_out]]).
///
/// When the element count is unknown, the message is probed first and the
/// receive buffer sized to fit — this is also how serialized receives
/// (recv_buf(as_deserializable<T>())) learn their payload size.
template <typename T, typename... Args>
auto recv_impl(XMPI_Comm comm, Args&&... args) {
    KAMPING_CHECK_PARAMETERS(
        Args, "recv", ParameterType::recv_buf, ParameterType::source, ParameterType::tag,
        ParameterType::recv_count, ParameterType::status);
    CollectivePlan<plan_ops::recv, Args...> plan(comm);
    int source_rank = XMPI_ANY_SOURCE;
    if constexpr (has_parameter_v<ParameterType::source, Args...>) {
        source_rank = select_parameter<ParameterType::source>(args...).value;
    }
    int tag_value = XMPI_ANY_TAG;
    if constexpr (has_parameter_v<ParameterType::tag, Args...>) {
        tag_value = select_parameter<ParameterType::tag>(args...).value;
    }

    int count = -1;
    if constexpr (has_parameter_v<ParameterType::recv_count, Args...>) {
        using CountParam = std::remove_cvref_t<
            decltype(select_parameter<ParameterType::recv_count>(args...))>;
        if constexpr (CountParam::kind == BufferKind::in) {
            count = select_parameter<ParameterType::recv_count>(args...).value;
        }
    }
    using V = buffer_value_t<decltype(take_parameter_or_default<ParameterType::recv_buf>(
        default_recv_buf_factory<T>(), args...))>;
    XMPI_Datatype const datatype = mpi_datatype<V>();
    if (count < 0) {
        // Probe to learn the payload size; then receive exactly that
        // message (matching the probed source/tag, which pins it under
        // wildcards by the non-overtaking rule).
        xmpi::Status status;
        plan.note_count_exchange();
        plan.dispatch(
            "XMPI_Probe",
            [&] { return XMPI_Probe(source_rank, tag_value, comm, &status); },
            PlanStage::infer_counts);
        int type_size = 0;
        XMPI_Type_size(datatype, &type_size);
        count = status.count(static_cast<std::size_t>(type_size));
        source_rank = status.source;
        tag_value = status.tag;
    }

    auto recv =
        PrepareRecv<T>{}(plan, static_cast<std::size_t>(count), /*participate=*/true, args...);
    // Optional out-values: the element count and the receive status. The
    // status is filled, and the count computed, only if one was asked for.
    auto count_param =
        take_out_parameter_or_ignore<ParameterType::recv_count, int>(args...);
    auto status_param =
        take_out_parameter_or_ignore<ParameterType::status, xmpi::Status>(args...);
    constexpr bool wants_count = !is_ignored_out_v<decltype(count_param)>;
    constexpr bool wants_status = !is_ignored_out_v<decltype(status_param)>;
    xmpi::Status status;
    Dispatch{}(plan, "XMPI_Recv", [&] {
        return XMPI_Recv(
            recv.data(), count, datatype, source_rank, tag_value, comm,
            wants_count || wants_status ? &status : XMPI_STATUS_IGNORE);
    });
    if constexpr (wants_count) {
        int type_size = 0;
        XMPI_Type_size(datatype, &type_size);
        count_param.set(status.count(static_cast<std::size_t>(type_size)));
    }
    if constexpr (wants_status) {
        status_param.set(status);
    }
    return AssembleResult{}(std::move(recv), std::move(count_param), std::move(status_param));
}

/// @brief comm.probe([source], [tag]) -> xmpi::Status.
template <typename... Args>
xmpi::Status probe_impl(XMPI_Comm comm, Args&&... args) {
    CollectivePlan<plan_ops::probe, Args...> plan(comm);
    int source_rank = XMPI_ANY_SOURCE;
    if constexpr (has_parameter_v<ParameterType::source, Args...>) {
        source_rank = select_parameter<ParameterType::source>(args...).value;
    }
    int tag_value = XMPI_ANY_TAG;
    if constexpr (has_parameter_v<ParameterType::tag, Args...>) {
        tag_value = select_parameter<ParameterType::tag>(args...).value;
    }
    xmpi::Status status;
    Dispatch{}(plan, "XMPI_Probe", [&] {
        return XMPI_Probe(source_rank, tag_value, comm, &status);
    });
    return status;
}

/// @brief comm.iprobe([source], [tag]) -> std::optional<xmpi::Status>.
template <typename... Args>
std::optional<xmpi::Status> iprobe_impl(XMPI_Comm comm, Args&&... args) {
    CollectivePlan<plan_ops::iprobe, Args...> plan(comm);
    int source_rank = XMPI_ANY_SOURCE;
    if constexpr (has_parameter_v<ParameterType::source, Args...>) {
        source_rank = select_parameter<ParameterType::source>(args...).value;
    }
    int tag_value = XMPI_ANY_TAG;
    if constexpr (has_parameter_v<ParameterType::tag, Args...>) {
        tag_value = select_parameter<ParameterType::tag>(args...).value;
    }
    xmpi::Status status;
    int flag = 0;
    Dispatch{}(plan, "XMPI_Iprobe", [&] {
        return XMPI_Iprobe(source_rank, tag_value, comm, &flag, &status);
    });
    if (flag == 0) {
        return std::nullopt;
    }
    return status;
}

} // namespace kamping::internal
