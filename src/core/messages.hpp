// P2P overlay messages (paper §2, §6).
//
// All messages derive from net::AppPayload and travel either inside the
// controlled broadcast (probes, captures) or as AODV unicast data
// (everything else). Sizes follow Gnutella 0.4 descriptor sizes where a
// counterpart exists.
#pragma once

#include <cstdint>

#include "content/zipf.hpp"
#include "net/types.hpp"

namespace p2p::core {

using content::FileId;
using net::NodeId;

enum class MsgType : std::uint8_t {
  kConnectProbe,   // flooded: "looking for connections within nhops"
  kConnectOffer,   // unicast answer to a probe
  kConnectRequest, // prober claims the offered slot (3-way step 2)
  kConnectAck,     // responder confirms/denies (3-way step 3)
  kPing,           // connection keep-alive
  kPong,           // keep-alive answer
  kQuery,          // Gnutella-like content search
  kQueryHit,       // answer, sent directly to the requirer
  kCapture,        // Hybrid: qualifier announcement
  kSlaveRequest,   // Hybrid: ask to become a slave (3-way step 1)
  kSlaveAccept,    // Hybrid: master grants the slot (step 2)
  kSlaveConfirm,   // Hybrid: slave commits (step 3)
  kSlaveReject,    // Hybrid: master has no capacity
  kBye,            // graceful connection close
};

/// Number of MsgType values (array-sized counters, dispatch tables).
inline constexpr std::size_t kNumMsgTypes = 14;

/// Messages belonging to connection (re)configuration — what Figures 7/8
/// count as "connect messages".
bool is_connect_message(MsgType type) noexcept;
/// Ping traffic — what Figures 9/10 count (ping + pong, as in Gnutella's
/// ping/pong descriptor family).
bool is_ping_message(MsgType type) noexcept;

/// What kind of slot a probe wants filled. Responder willingness and
/// capacity checks depend on it.
enum class ProbeWant : std::uint8_t {
  kBasic,   // Basic: every listener answers
  kRegular, // Regular/Random: nodes with spare capacity answer
  kRandom,  // Random's long link: same willingness as regular
  kMaster,  // Hybrid: only masters answer
};

/// Every P2P message stamps its MsgType into the payload kind tag at
/// construction, so receive dispatch is a switch on `type()` with a
/// static_cast — no RTTI (see net::AppPayload::kind).
struct P2pMessage : net::AppPayload {
  MsgType type() const noexcept { return static_cast<MsgType>(kind); }

 protected:
  explicit P2pMessage(MsgType t) noexcept { kind = static_cast<net::PayloadKind>(t); }
};
using P2pMessagePtr = net::Ref<const P2pMessage>;

struct ConnectProbe final : P2pMessage {
  ConnectProbe() noexcept : P2pMessage(MsgType::kConnectProbe) {}
  std::uint64_t probe_id = 0;
  ProbeWant want = ProbeWant::kRegular;
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct ConnectOffer final : P2pMessage {
  ConnectOffer() noexcept : P2pMessage(MsgType::kConnectOffer) {}
  std::uint64_t probe_id = 0;
  std::uint8_t hop_distance = 0;  // ad-hoc hops the probe traveled
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct ConnectRequest final : P2pMessage {
  ConnectRequest() noexcept : P2pMessage(MsgType::kConnectRequest) {}
  std::uint64_t probe_id = 0;
  ProbeWant want = ProbeWant::kRegular;
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct ConnectAck final : P2pMessage {
  ConnectAck() noexcept : P2pMessage(MsgType::kConnectAck) {}
  std::uint64_t probe_id = 0;
  bool accepted = false;
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct Ping final : P2pMessage {
  Ping() noexcept : P2pMessage(MsgType::kPing) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct Pong final : P2pMessage {
  Pong() noexcept : P2pMessage(MsgType::kPong) {}
  std::size_t size_bytes() const noexcept override { return 37; }
};

struct Query final : P2pMessage {
  Query() noexcept : P2pMessage(MsgType::kQuery) {}
  std::uint64_t query_id = 0;  // unique per origin
  NodeId origin = net::kInvalidNode;
  FileId file = 0;
  std::uint8_t ttl = 0;        // remaining p2p hops
  std::uint8_t p2p_hops = 0;   // overlay hops already traveled
  std::size_t size_bytes() const noexcept override { return 41; }
};

struct QueryHit final : P2pMessage {
  QueryHit() noexcept : P2pMessage(MsgType::kQueryHit) {}
  std::uint64_t query_id = 0;
  FileId file = 0;
  NodeId holder = net::kInvalidNode;
  std::uint8_t p2p_hops = 0;  // overlay hops the query traveled to the holder
  std::size_t size_bytes() const noexcept override { return 49; }
};

struct Capture final : P2pMessage {
  Capture() noexcept : P2pMessage(MsgType::kCapture) {}
  std::uint32_t qualifier = 0;
  std::size_t size_bytes() const noexcept override { return 27; }
};

struct SlaveRequest final : P2pMessage {
  SlaveRequest() noexcept : P2pMessage(MsgType::kSlaveRequest) {}
  std::uint32_t qualifier = 0;
  std::size_t size_bytes() const noexcept override { return 27; }
};

struct SlaveAccept final : P2pMessage {
  SlaveAccept() noexcept : P2pMessage(MsgType::kSlaveAccept) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct SlaveConfirm final : P2pMessage {
  SlaveConfirm() noexcept : P2pMessage(MsgType::kSlaveConfirm) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct SlaveReject final : P2pMessage {
  SlaveReject() noexcept : P2pMessage(MsgType::kSlaveReject) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct Bye final : P2pMessage {
  Bye() noexcept : P2pMessage(MsgType::kBye) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

}  // namespace p2p::core
