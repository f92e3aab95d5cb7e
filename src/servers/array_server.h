// The integer array server (paper Section 4.1).
//
// "The integer array server maintains an array of (one word) integers" with
// GetCell/SetCell operations — the simplest possible data server, using only
// two-phase read/write locking and value logging. The combined Pascal code
// for both operations was 50 lines; the structure below mirrors it: compute
// the cell's ObjectId by address arithmetic, lock it, PinAndBuffer, assign,
// LogAndUnPin.

#ifndef TABS_SERVERS_ARRAY_SERVER_H_
#define TABS_SERVERS_ARRAY_SERVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/placement/shard_map.h"
#include "src/server/data_server.h"

namespace tabs::servers {

class ArrayServer : public server::DataServer {
 public:
  ArrayServer(const server::ServerContext& ctx, std::uint32_t cells,
              size_t buffer_frames = 1024);
  // Sharded-service constructor: this instance holds its slice's share of a
  // `total_cells`-cell logical array (interleaved partitioning; the handle
  // routes global indices and sends local ones).
  ArrayServer(const server::ServerContext& ctx, placement::ShardSlice slice,
              std::uint64_t total_cells, size_t buffer_frames = 1024);

  std::uint32_t max_cell() const { return cells_; }
  const placement::ShardSlice& shard() const { return slice_; }

  // FUNCTION GetCell(cellNum: integer): integer
  Result<std::int32_t> GetCell(const server::Tx& tx, std::uint32_t cell);
  // PROCEDURE SetCell(cellNum: integer; value: integer)
  Status SetCell(const server::Tx& tx, std::uint32_t cell, std::int32_t value);

  // Asynchronous variants (the communication fast path): the cells are
  // pipelined when this server is remote from `tx`, travelling together in
  // chunks of the origin CM's op_coalesce_batch. One future per wire
  // message; AsyncOps joins them. A single cell is a one-op chunk.
  std::vector<sim::FuturePtr<Result<std::vector<Result<std::int32_t>>>>> AsyncGetCells(
      const server::Tx& tx, const std::vector<std::uint32_t>& cells);
  std::vector<sim::FuturePtr<Result<std::vector<Result<bool>>>>> AsyncSetCells(
      const server::Tx& tx, const std::vector<std::pair<std::uint32_t, std::int32_t>>& writes);

  // The cell's ObjectId (address arithmetic, exposed for tests/benches).
  ObjectId CellOid(std::uint32_t cell) const {
    return CreateObjectId(cell * sizeof(std::int32_t), sizeof(std::int32_t));
  }

 private:
  // The operation bodies, shared by the synchronous and pipelined entry
  // points (identical locking, paging, and logging either way).
  Op<std::int32_t> ReadOp(const server::Tx& tx, std::uint32_t cell);
  Op<bool> WriteOp(const server::Tx& tx, std::uint32_t cell, std::int32_t value);

  std::uint32_t cells_;
  placement::ShardSlice slice_;  // {0, 1} unless service-sharded
};

}  // namespace tabs::servers

#endif  // TABS_SERVERS_ARRAY_SERVER_H_
