#include "exec/spill.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "ops/operators.h"
#include "util/fault_injection.h"

namespace foofah {
namespace exec {

namespace {

// ---------------------------------------------------------------------------
// Run-file encoding helpers.

constexpr char kCellTag = 0x01;
constexpr char kRowEndTag = 0x02;

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t GetU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// CRC-32 (IEEE, reflected), table built once. Standard polynomial so
// external tools can verify run pages.
uint32_t Crc32(const char* data, size_t n) {
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillRunWriter

SpillRunWriter::SpillRunWriter(std::string path, DiskGauge* gauge,
                               size_t page_bytes)
    : path_(std::move(path)), gauge_(gauge), page_bytes_(page_bytes) {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::Unavailable("spill write failed: cannot open " + path_);
  }
  page_.reserve(page_bytes_ + 1024);
}

SpillRunWriter::~SpillRunWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillRunWriter::FlushPage() {
  if (!status_.ok()) return status_;
  if (page_.empty()) return Status::OK();
  // The disk budget is checked before the bytes land, so exhausting it
  // stops the spill instead of overshooting it by a page.
  Status charged = gauge_->Charge(8 + page_.size());
  if (!charged.ok()) {
    status_ = charged;
    return status_;
  }
  if (FOOFAH_FAULT_FAIL(fault_points::kExecSpillWrite)) {
    status_ = Status::Unavailable("spill write failed: " + path_ +
                                  ": injected I/O failure (ENOSPC)");
    return status_;
  }
  char header[8];
  uint32_t len = static_cast<uint32_t>(page_.size());
  uint32_t crc = Crc32(page_.data(), page_.size());
  header[0] = static_cast<char>(len & 0xff);
  header[1] = static_cast<char>((len >> 8) & 0xff);
  header[2] = static_cast<char>((len >> 16) & 0xff);
  header[3] = static_cast<char>((len >> 24) & 0xff);
  header[4] = static_cast<char>(crc & 0xff);
  header[5] = static_cast<char>((crc >> 8) & 0xff);
  header[6] = static_cast<char>((crc >> 16) & 0xff);
  header[7] = static_cast<char>((crc >> 24) & 0xff);
  if (std::fwrite(header, 1, 8, file_) != 8 ||
      std::fwrite(page_.data(), 1, page_.size(), file_) != page_.size()) {
    status_ = Status::Unavailable("spill write failed: " + path_);
    return status_;
  }
  bytes_written_ += 8 + page_.size();
  page_.clear();
  return Status::OK();
}

Status SpillRunWriter::AppendCell(std::string_view cell) {
  if (!status_.ok()) return status_;
  page_ += kCellTag;
  PutU32(&page_, static_cast<uint32_t>(cell.size()));
  page_.append(cell.data(), cell.size());
  ++cells_in_row_;
  if (page_.size() >= page_bytes_) return FlushPage();
  return Status::OK();
}

Status SpillRunWriter::EndRow() {
  if (!status_.ok()) return status_;
  page_ += kRowEndTag;
  ++rows_;
  if (cells_in_row_ > max_width_) max_width_ = cells_in_row_;
  cells_in_row_ = 0;
  if (page_.size() >= page_bytes_) return FlushPage();
  return Status::OK();
}

Status SpillRunWriter::AppendRow(const std::string_view* cells,
                                 size_t num_cells) {
  for (size_t c = 0; c < num_cells; ++c) {
    Status appended = AppendCell(cells[c]);
    if (!appended.ok()) return appended;
  }
  return EndRow();
}

Status SpillRunWriter::Finish() {
  if (finished_) return status_;
  finished_ = true;
  Status flushed = FlushPage();
  if (!flushed.ok()) return flushed;
  if (file_ != nullptr) {
    if (std::fflush(file_) != 0 || std::fclose(file_) != 0) {
      std::fclose(file_);  // best effort if fflush failed
      file_ = nullptr;
      status_ = Status::Unavailable("spill write failed: " + path_);
      return status_;
    }
    file_ = nullptr;
  }
  return status_;
}

// ---------------------------------------------------------------------------
// SpillRunReader

SpillRunReader::SpillRunReader(const std::string& path) : path_(path) {
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    status_ = Status::Unavailable("spill read failed: cannot open " + path_);
  }
}

SpillRunReader::~SpillRunReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<bool> SpillRunReader::NextPage() {
  if (FOOFAH_FAULT_FAIL(fault_points::kExecSpillRead)) {
    return Status::Unavailable("spill read failed: " + path_ +
                               ": injected I/O failure");
  }
  unsigned char header[8];
  size_t got = std::fread(header, 1, 8, file_);
  if (got == 0 && std::feof(file_)) return false;
  if (got != 8) {
    return Status::Unavailable("spill read failed: truncated page header: " +
                               path_);
  }
  uint32_t len = GetU32(header);
  uint32_t crc = GetU32(header + 4);
  page_.resize(len);
  if (std::fread(page_.data(), 1, len, file_) != len) {
    return Status::Unavailable("spill read failed: truncated page: " + path_);
  }
  if (Crc32(page_.data(), page_.size()) != crc) {
    return Status::Unavailable("spill read failed: CRC mismatch: " + path_);
  }
  pos_ = 0;
  return true;
}

Result<bool> SpillRunReader::NextRow(const std::string_view** cells,
                                     size_t* num_cells) {
  if (!status_.ok()) return status_;
  size_t count = 0;
  uint64_t bytes = 0;
  for (;;) {
    if (pos_ >= page_.size()) {
      if (eof_) {
        // Unreachable after a clean false, but kept defensive.
        return false;
      }
      Result<bool> page = NextPage();
      if (!page.ok()) {
        status_ = page.status();
        return status_;
      }
      if (!page.value()) {
        eof_ = true;
        if (count > 0) {
          status_ =
              Status::Unavailable("spill read failed: truncated row: " + path_);
          return status_;
        }
        return false;
      }
      continue;
    }
    char tag = page_[pos_++];
    if (tag == kRowEndTag) {
      views_.clear();
      views_.reserve(count);
      for (size_t i = 0; i < count; ++i) views_.push_back(cell_storage_[i]);
      if (bytes + count * sizeof(std::string) > row_bytes_) {
        row_bytes_ = bytes + count * sizeof(std::string);
      }
      *cells = views_.data();
      *num_cells = count;
      return true;
    }
    if (tag != kCellTag || pos_ + 4 > page_.size()) {
      status_ = Status::Unavailable("spill read failed: corrupt record: " +
                                    path_);
      return status_;
    }
    uint32_t len =
        GetU32(reinterpret_cast<const unsigned char*>(page_.data()) + pos_);
    pos_ += 4;
    if (pos_ + len > page_.size()) {
      status_ = Status::Unavailable("spill read failed: corrupt record: " +
                                    path_);
      return status_;
    }
    if (count >= cell_storage_.size()) cell_storage_.emplace_back();
    cell_storage_[count].assign(page_.data() + pos_, len);
    bytes += len;
    pos_ += len;
    ++count;
  }
}

size_t SpillRunReader::buffered_bytes() const {
  return page_.capacity() + row_bytes_;
}

// ---------------------------------------------------------------------------
// SpillContext

uint64_t SpillContext::tile_budget() const {
  if (memory_budget_ > 0) {
    return std::max<uint64_t>(memory_budget_ / 2, 64u << 10);
  }
  if (threshold_ != kNeverSpill && threshold_ > 0) return threshold_;
  return 16u << 20;
}

Result<std::unique_ptr<SpillRunWriter>> SpillContext::NewRunWriter() {
  Result<std::string> dir = temp_dir_();
  if (!dir.ok()) return dir.status();
  std::string path =
      dir.value() + "/run-" + std::to_string(next_run_id_++) + ".spill";
  return std::make_unique<SpillRunWriter>(std::move(path), &disk_,
                                          page_bytes_);
}

void SpillContext::DiscardRun(const SpilledRun& run) {
  std::remove(run.path.c_str());
  disk_.Release(run.bytes);
}

// ---------------------------------------------------------------------------
// SpillableRelationBuilder

Status SpillableRelationBuilder::Push(const std::string_view* cells,
                                      size_t num_cells) {
  for (size_t c = 0; c < num_cells; ++c) {
    Status appended = AppendCell(cells[c]);
    if (!appended.ok()) return appended;
  }
  return EndRow();
}

Status SpillableRelationBuilder::AppendCell(std::string_view cell) {
  if (!status_.ok()) return status_;
  ++cells_in_row_;
  if (writer_ != nullptr) {
    Status appended = writer_->AppendCell(cell);
    if (!appended.ok()) status_ = appended;
    return status_;
  }
  rows_in_memory_.AppendCell(cell);
  return SpillIfOver();
}

Status SpillableRelationBuilder::EndRow() {
  if (!status_.ok()) return status_;
  if (cells_in_row_ > max_width_) max_width_ = cells_in_row_;
  cells_in_row_ = 0;
  ++rows_;
  if (writer_ != nullptr) {
    Status ended = writer_->EndRow();
    if (!ended.ok()) status_ = ended;
    return status_;
  }
  rows_in_memory_.EndRow();
  return SpillIfOver();
}

Status SpillableRelationBuilder::SpillIfOver() {
  if (ctx_->spill_enabled() &&
      rows_in_memory_.bytes_buffered() > ctx_->threshold()) {
    Status spilled = SpillNow();
    if (!spilled.ok()) status_ = spilled;
  }
  return status_;
}

Status SpillableRelationBuilder::SpillNow() {
  Result<std::unique_ptr<SpillRunWriter>> made = ctx_->NewRunWriter();
  if (!made.ok()) return made.status();
  writer_ = std::move(made).value();
  for (const Table::Row& row : rows_in_memory_.table().rows()) {
    for (const std::string& cell : row) {
      Status appended = writer_->AppendCell(cell);
      if (!appended.ok()) return appended;
    }
    Status ended = writer_->EndRow();
    if (!ended.ok()) return ended;
  }
  // Cells of the row still being assembled keep their order: they were
  // appended after every complete row.
  for (const std::string& cell : rows_in_memory_.open_row()) {
    Status appended = writer_->AppendCell(cell);
    if (!appended.ok()) return appended;
  }
  rows_in_memory_.Take();
  return Status::OK();
}

uint64_t SpillableRelationBuilder::bytes_buffered() const {
  return writer_ != nullptr ? writer_->buffered_bytes()
                            : rows_in_memory_.bytes_buffered();
}

Result<Relation> SpillableRelationBuilder::Take() {
  if (!status_.ok()) return status_;
  if (writer_ != nullptr) {
    Status finished = writer_->Finish();
    if (!finished.ok()) return finished;
    ctx_->stats().runs += 1;
    ctx_->stats().bytes += writer_->bytes_written();
    SpilledRun run;
    run.path = writer_->path();
    run.shape = Shape{rows_, max_width_};
    run.bytes = writer_->bytes_written();
    writer_.reset();
    return Relation::FromRun(std::move(run));
  }
  return Relation::FromTable(rows_in_memory_.Take());
}

// ---------------------------------------------------------------------------
// The blocking suffix

namespace {

// The suffix's relation as a RowSource: a Table scanned in place, or a
// run re-read from disk on every scan. Every 128 rows, and at the end of
// a scan, the memory gauge is charged with the run reader's buffers plus
// what the operator holds (which polls the token). An in-memory
// relation was charged when it was built, as every step's output is.
class RelationSource : public RowSource {
 public:
  RelationSource(Relation* relation, SpillContext* ctx)
      : relation_(relation), ctx_(ctx) {}

  uint64_t num_rows() const override { return relation_->shape().rows; }
  uint64_t num_cols() const override { return relation_->shape().cols; }
  const Table* table() const override {
    return relation_->spilled() ? nullptr : &relation_->table();
  }
  uint64_t tile_budget() const override { return ctx_->tile_budget(); }
  uint64_t scan_bytes() const override {
    return relation_->spilled() ? relation_->run().bytes : 0;
  }

  Status Scan(RowFn on_row, FunctionRef<uint64_t()> held) override {
    uint64_t count = 0;
    const SpillRunReader* reader = nullptr;
    auto charge = [&] {
      return ctx_->memory()->Update(
          (reader != nullptr ? reader->buffered_bytes() : 0) + held());
    };
    auto counted = [&](const std::string_view* cells, size_t n) {
      Status pushed = on_row(cells, n);
      if (!pushed.ok() || (++count & 127u) != 0) return pushed;
      return charge();
    };
    if (!relation_->spilled()) {
      Status scanned = TableSource(relation_->table()).Scan(counted, held);
      if (!scanned.ok()) return scanned;
      return charge();
    }
    SpillRunReader run_reader(relation_->run().path);
    reader = &run_reader;
    const std::string_view* cells = nullptr;
    size_t num_cells = 0;
    for (;;) {
      Result<bool> got = run_reader.NextRow(&cells, &num_cells);
      if (!got.ok()) return got.status();
      if (!got.value()) break;
      Status pushed = counted(cells, num_cells);
      if (!pushed.ok()) return pushed;
    }
    return charge();
  }

 private:
  Relation* relation_;
  SpillContext* ctx_;
};

// Deletes the relation's run file, if it has one.
void Discard(const Relation& relation, SpillContext* ctx) {
  if (relation.spilled()) ctx->DiscardRun(relation.run());
}

}  // namespace

Status ExecuteBlockingSuffix(const Program& program, size_t prefix,
                             Relation relation, SpillContext* ctx,
                             CsvChunkWriter* writer, uint64_t* rows_out) {
  CsvSink out(writer);
  RelationSource source(&relation, ctx);
  for (size_t i = prefix; i < program.size(); ++i) {
    CancellationToken* token = ctx->token();
    if (token->IsCancelled()) {
      return StatusFromCancelReason(token->reason(), "apply");
    }
    // The same validation Program::Execute performs, so an invalid
    // program fails with the identical Status.
    const Operation& op = program.operation(i);
    const Shape in = relation.shape();
    Status valid = ValidateOperation(op, static_cast<size_t>(in.cols),
                                     static_cast<size_t>(in.rows));
    if (!valid.ok()) return valid;
    if (i + 1 == program.size()) {
      Status ran = RunOperation(op, source, out);
      if (!ran.ok()) return ran;
      Discard(relation, ctx);
      *rows_out += out.rows();
      return Status::OK();
    }
    SpillableRelationBuilder builder(ctx);
    Status ran = RunOperation(op, source, builder);
    if (!ran.ok()) return ran;
    Status mem = ctx->memory()->Update(builder.bytes_buffered());
    if (!mem.ok()) return mem;
    Result<Relation> next = builder.Take();
    if (!next.ok()) return next.status();
    Discard(relation, ctx);
    relation = std::move(next).value();
  }
  // An empty suffix (the planner never builds one): write the relation
  // out as it is.
  Status scanned = source.Scan(
      [&](const std::string_view* cells, size_t n) {
        return out.Push(cells, n);
      },
      [&] { return out.bytes_buffered(); });
  if (!scanned.ok()) return scanned;
  Discard(relation, ctx);
  *rows_out += out.rows();
  return Status::OK();
}

}  // namespace exec
}  // namespace foofah
