#include "src/servers/array_server.h"

#include <cstring>

namespace tabs::servers {

namespace {
server::DataServer::Options MakeOptions(std::uint32_t cells, size_t buffer_frames) {
  server::DataServer::Options o;
  o.pages = (cells * sizeof(std::int32_t) + kPageSize - 1) / kPageSize;
  o.buffer_frames = buffer_frames;
  return o;
}
}  // namespace

ArrayServer::ArrayServer(const server::ServerContext& ctx, std::uint32_t cells,
                         size_t buffer_frames)
    : DataServer(ctx, MakeOptions(cells, buffer_frames)), cells_(cells) {}

ArrayServer::ArrayServer(const server::ServerContext& ctx, placement::ShardSlice slice,
                         std::uint64_t total_cells, size_t buffer_frames)
    : ArrayServer(ctx, static_cast<std::uint32_t>(slice.LocalSize(total_cells)),
                  buffer_frames) {
  slice_ = slice;
}

ArrayServer::Op<std::int32_t> ArrayServer::ReadOp(const server::Tx& tx, std::uint32_t cell) {
  return [this, tx, cell]() -> Result<std::int32_t> {
    if (cell >= cells_) {
      return Status::kOutOfRange;
    }
    ObjectId obj = CellOid(cell);
    Status s = LockObject(tx, obj, lock::kShared);
    if (s != Status::kOk) {
      return s;
    }
    Bytes v = ReadObject(obj);
    std::int32_t value;
    std::memcpy(&value, v.data(), sizeof value);
    return value;
  };
}

ArrayServer::Op<bool> ArrayServer::WriteOp(const server::Tx& tx, std::uint32_t cell,
                                           std::int32_t value) {
  return [this, tx, cell, value]() -> Result<bool> {
    if (cell >= cells_) {
      return Status::kOutOfRange;
    }
    ObjectId obj = CellOid(cell);
    Status s = LockObject(tx, obj, lock::kExclusive);
    if (s != Status::kOk) {
      return s;
    }
    PinAndBuffer(tx, obj);
    std::memcpy(Staged(tx, obj).data(), &value, sizeof value);  // obj.ptr^ := value
    LogAndUnPin(tx, obj);
    return true;
  };
}

Result<std::int32_t> ArrayServer::GetCell(const server::Tx& tx, std::uint32_t cell) {
  return Call<std::int32_t>(tx, "GetCell", ReadOp(tx, cell));
}

Status ArrayServer::SetCell(const server::Tx& tx, std::uint32_t cell, std::int32_t value) {
  auto r = Call<bool>(tx, "SetCell", WriteOp(tx, cell, value));
  return r.ok() ? Status::kOk : r.status();
}

std::vector<sim::FuturePtr<Result<std::vector<Result<std::int32_t>>>>>
ArrayServer::AsyncGetCells(const server::Tx& tx, const std::vector<std::uint32_t>& cells) {
  std::vector<Op<std::int32_t>> ops;
  ops.reserve(cells.size());
  for (std::uint32_t cell : cells) {
    ops.push_back(ReadOp(tx, cell));
  }
  return AsyncCallChunks<std::int32_t>(tx, "GetCells", std::move(ops));
}

std::vector<sim::FuturePtr<Result<std::vector<Result<bool>>>>> ArrayServer::AsyncSetCells(
    const server::Tx& tx, const std::vector<std::pair<std::uint32_t, std::int32_t>>& writes) {
  std::vector<Op<bool>> ops;
  ops.reserve(writes.size());
  for (const auto& [cell, value] : writes) {
    ops.push_back(WriteOp(tx, cell, value));
  }
  return AsyncCallChunks<bool>(tx, "SetCells", std::move(ops));
}

}  // namespace tabs::servers
