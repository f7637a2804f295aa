// Coordination service with a ZooKeeper-like API (paper §5.3).
//
// Clients coordinate through a hierarchical namespace of nodes carrying
// small data chunks. Unlike ZooKeeper, reads are strongly consistent: they
// are totally ordered like writes and executed in the single service
// thread — exactly the configuration the paper benchmarks in Figure 7.
//
// Operation encoding:
//   request : [op u8 | path bytes | data bytes]
//   reply   : [status u8 | version u32 | payload bytes]
// For kChildren the payload is a '\n'-separated list of child names.
#pragma once

#include <map>
#include <set>
#include <string>

#include "app/service.hpp"

namespace copbft::app {

enum class CoordOpCode : std::uint8_t {
  kCreate = 1,
  kDelete = 2,
  kSetData = 3,
  kGetData = 4,
  kChildren = 5,
  kExists = 6,
};

enum class CoordStatus : std::uint8_t {
  kOk = 0,
  kNoNode = 1,
  kNodeExists = 2,
  kNotEmpty = 3,
  kBadRequest = 4,
  kNoParent = 5,
};

struct CoordOp {
  CoordOpCode op = CoordOpCode::kGetData;
  std::string path;
  Bytes data;

  bool is_read() const {
    return op == CoordOpCode::kGetData || op == CoordOpCode::kChildren ||
           op == CoordOpCode::kExists;
  }

  Bytes encode() const;
  static std::optional<CoordOp> decode(ByteSpan payload);
};

struct CoordResult {
  CoordStatus status = CoordStatus::kOk;
  std::uint32_t version = 0;
  Bytes payload;

  Bytes encode() const;
  static std::optional<CoordResult> decode(ByteSpan payload);
};

class CoordinationService final : public Service {
 public:
  explicit CoordinationService(const crypto::CryptoProvider& crypto);

  Bytes execute(const protocol::Request& request) override;
  crypto::Digest state_digest() const override { return state_digest_; }
  bool pre_validate(const protocol::Request& request) override;

  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct ZNode {
    Bytes data;
    std::uint32_t version = 0;
    std::set<std::string> children;  ///< child *names*, not full paths
  };

  CoordResult apply(const CoordOp& op);
  static bool valid_path(const std::string& path);
  static std::pair<std::string, std::string> split_path(
      const std::string& path);

  crypto::Digest node_digest(const std::string& path, const ZNode& node) const;
  void xor_into_state(const crypto::Digest& d);

  const crypto::CryptoProvider& crypto_;
  std::map<std::string, ZNode> nodes_;
  crypto::Digest state_digest_;
};

}  // namespace copbft::app
