#include "ops/row_kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "ops/operators.h"

namespace foofah {

namespace {

// A cell's bytes owned by a kernel: composed (Merge, Extract) or kept
// across rows (Fill, Fold, WrapEvery). Copying into it is inline, where
// std::string's assign and append run out of line at a cost per row as
// large as a whole streaming kernel.
class OwnedCell {
 public:
  void clear() { size_ = 0; }
  void append(std::string_view piece) {
    if (size_ + piece.size() > bytes_.size()) Grow(size_ + piece.size());
    if (!piece.empty()) {
      std::memcpy(bytes_.data() + size_, piece.data(), piece.size());
    }
    size_ += piece.size();
  }
  void assign(std::string_view value) {
    size_ = 0;
    append(value);
  }
  std::string_view view() const { return {bytes_.data(), size_}; }

 private:
  void Grow(size_t size) { bytes_.resize(std::max(size, 2 * bytes_.size())); }

  std::vector<char> bytes_;
  size_t size_ = 0;
};

// Scratch reused across calls: per thread for stack-built kernels (one
// runs at a time on a thread), per kernel for heap-built ones.
struct Scratch {
  std::vector<std::string_view> row;  ///< The output row's cells.
  OwnedCell text;                     ///< A cell the kernel composes.
  std::vector<OwnedCell> window;      ///< Owned cells kept across rows.
  std::cmatch match;                  ///< Extract's match state.
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

// What every kernel holds: the next sink, the input width W it pads
// short rows to, the operation's parameters, and the scratch its output
// row is built in. Kernels are called through their concrete type;
// OwnedKernel below is the virtual boundary the executor's chains need.
class Kernel {
 public:
  Kernel(RowSink* next, size_t width, Scratch* scratch, const Operation& op)
      : next_(next),
        width_(width),
        s_(scratch),
        col1_(static_cast<size_t>(op.col1)),
        col2_(static_cast<size_t>(op.col2)),
        param_(op.int_param),
        text_(op.text) {}
  Status Finish() { return next_->Finish(); }

 protected:
  // Room for an output row of up to `cells` cells.
  std::string_view* Out(size_t cells) {
    if (s_->row.size() < cells) s_->row.resize(cells);
    return s_->row.data();
  }
  // Pushes the output row Out() started, whose last cell is before `end`.
  Status Emit(const std::string_view* end) {
    const std::string_view* begin = s_->row.data();
    return next_->Push(begin, static_cast<size_t>(end - begin));
  }

  RowSink* next_;
  size_t width_;
  Scratch* s_;
  size_t col1_;
  size_t col2_;
  int param_;
  std::string_view text_;  ///< Merge's glue, Split's delimiter.
};

class DropKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    std::string_view* out = Out(width_);
    for (size_t c = 0; c < width_; ++c) {
      if (c != col1_) *out++ = PaddedCell(cells, n, c);
    }
    return Emit(out);
  }
};

class MoveKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    std::string_view* out = Out(width_);
    for (size_t c = 0; c < width_; ++c) out[c] = PaddedCell(cells, n, c);
    // The cell at col1 ends at col2; the cells between close up.
    if (col1_ < col2_) {
      std::rotate(out + col1_, out + col1_ + 1, out + col2_ + 1);
    } else {
      std::rotate(out + col2_, out + col1_, out + col1_ + 1);
    }
    return Emit(out + width_);
  }
};

class CopyKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    std::string_view* out = Out(width_ + 1);
    for (size_t c = 0; c < width_; ++c) out[c] = PaddedCell(cells, n, c);
    out[width_] = PaddedCell(cells, n, col1_);
    return Emit(out + width_ + 1);
  }
};

class MergeKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    std::string_view* out = Out(width_);
    for (size_t c = 0; c < width_; ++c) {
      if (c != col1_ && c != col2_) *out++ = PaddedCell(cells, n, c);
    }
    OwnedCell& merged = s_->text;
    merged.assign(PaddedCell(cells, n, col1_));
    merged.append(text_);
    merged.append(PaddedCell(cells, n, col2_));
    *out++ = merged.view();
    return Emit(out);
  }
};

class SplitKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    std::string_view* out = Out(width_ + 1);
    for (size_t c = 0; c < width_; ++c) {
      std::string_view value = PaddedCell(cells, n, c);
      if (c != col1_) {
        *out++ = value;
        continue;
      }
      // Split at the first occurrence; an absent delimiter yields
      // (value, "").
      size_t pos = value.find(text_);
      if (pos == std::string_view::npos) {
        *out++ = value;
        *out++ = std::string_view();
      } else {
        *out++ = value.substr(0, pos);
        *out++ = value.substr(pos + text_.size());
      }
    }
    return Emit(out);
  }
};

class FoldKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    const bool with_header = param_ != 0;
    std::vector<OwnedCell>& header = s_->window;
    if (with_header && !header_captured_) {
      // The header row, padded to W, is the window; it is consumed, not
      // emitted.
      header.resize(width_);
      for (size_t c = 0; c < width_; ++c) {
        header[c].assign(PaddedCell(cells, n, c));
      }
      header_captured_ = true;
      return Status();
    }
    // One output row per folded column: the kept columns, then the
    // header label, then the value.
    for (size_t c = col1_; c < width_; ++c) {
      std::string_view* out = Out(col1_ + 2);
      for (size_t keep = 0; keep < col1_; ++keep) {
        *out++ = PaddedCell(cells, n, keep);
      }
      if (with_header) *out++ = header[c].view();
      *out++ = PaddedCell(cells, n, c);
      Status pushed = Emit(out);
      if (!pushed.ok()) return pushed;
    }
    return Status();
  }

 private:
  bool header_captured_ = false;
};

class FillKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    OwnedCell& last = s_->text;  // Carried across rows and chunks.
    std::string_view value = PaddedCell(cells, n, col1_);
    if (!value.empty()) {
      last.assign(value);
      seen_value_ = true;
      return next_->Push(cells, n);
    }
    // Rows whose cell is set, and empty cells with nothing above them
    // to fill from, pass through unchanged.
    if (!seen_value_) return next_->Push(cells, n);
    // A filled row is extended with "" up to the written column, so its
    // stored width grows to at least col+1; longer rows keep theirs.
    const size_t out_n = std::max(n, col1_ + 1);
    std::string_view* out = Out(out_n);
    for (size_t c = 0; c < out_n; ++c) out[c] = PaddedCell(cells, n, c);
    out[col1_] = last.view();
    return Emit(out + out_n);
  }

 private:
  bool seen_value_ = false;
};

class DivideKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    const auto predicate = static_cast<DividePredicate>(param_);
    std::string_view* out = Out(width_ + 1);
    for (size_t c = 0; c < width_; ++c) {
      std::string_view value = PaddedCell(cells, n, c);
      if (c != col1_) {
        *out++ = value;
      } else if (EvalDividePredicate(predicate, value)) {
        *out++ = value;
        *out++ = std::string_view();
      } else {
        *out++ = std::string_view();
        *out++ = value;
      }
    }
    return Emit(out);
  }
};

class DeleteKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    // Survivors pass through with their stored width intact; the
    // result's width is recomputed from them, so dropping the widest
    // rows narrows it (see Table's width invariant).
    if (PaddedCell(cells, n, col1_).empty()) return Status();
    return next_->Push(cells, n);
  }
};

class ExtractKernel : public Kernel {
 public:
  ExtractKernel(RowSink* next, size_t width, Scratch* s, const Operation& op,
                const std::regex* re)
      : Kernel(next, width, s, op), re_(re) {}

  Status Push(const std::string_view* cells, size_t n) {
    std::string_view* out = Out(width_ + 1);
    for (size_t c = 0; c < width_; ++c) {
      std::string_view value = PaddedCell(cells, n, c);
      *out++ = value;
      if (c != col1_) continue;
      // An empty view may carry a null data(); regex iterators must be a
      // valid (possibly empty) range.
      const char* first = value.data() != nullptr ? value.data() : "";
      std::cmatch& match = s_->match;
      OwnedCell& extracted = s_->text;
      extracted.clear();
      if (std::regex_search(first, first + value.size(), match, *re_)) {
        // A capture group, when present, selects the extracted portion
        // (supports the Appendix B "prefix/suffix" usage).
        const auto& chosen =
            match.size() > 1 && match[1].matched ? match[1] : match[0];
        extracted.assign(std::string_view(
            chosen.first, static_cast<size_t>(chosen.second - chosen.first)));
      }
      *out++ = extracted.view();
    }
    return Emit(out);
  }

 private:
  const std::regex* re_;
};

class DeleteRowKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    // Survivors pass through unchanged, like Delete's.
    if (index_++ == param_) return Status();
    return next_->Push(cells, n);
  }

 private:
  int64_t index_ = 0;
};

class WrapEveryKernel : public Kernel {
 public:
  using Kernel::Kernel;
  Status Push(const std::string_view* cells, size_t n) {
    // The window: up to k padded rows, owned because a group can span
    // input chunks.
    const size_t k = static_cast<size_t>(param_);
    std::vector<OwnedCell>& group = s_->window;
    if (group.size() < k * width_) group.resize(k * width_);
    for (size_t c = 0; c < width_; ++c) {
      group[buffered_ * width_ + c].assign(PaddedCell(cells, n, c));
    }
    if (++buffered_ == k) return EmitGroup();
    return Status();
  }

  Status Finish() {
    if (buffered_ > 0) {
      Status emitted = EmitGroup();
      if (!emitted.ok()) return emitted;
    }
    return next_->Finish();
  }

 private:
  // One output row: the group's rows end to end (the last group may be
  // short).
  Status EmitGroup() {
    const size_t total = buffered_ * width_;
    std::string_view* out = Out(total);
    for (size_t i = 0; i < total; ++i) out[i] = s_->window[i].view();
    buffered_ = 0;
    return Emit(out + total);
  }

  size_t buffered_ = 0;
};

// Names the kernel type K of a row-local operator.
template <typename K>
struct KernelType {
  using type = K;
};

// Calls use(KernelType<K>(), extra...) for `op`'s kernel type K, which
// the caller constructs as K(next, width, scratch, op, extra...); fails
// for the blocking operators, which are not row-local.
template <typename Use>
Status WithRowKernel(const Operation& op, Use&& use) {
  switch (op.op) {
    case OpCode::kDrop:
      return use(KernelType<DropKernel>());
    case OpCode::kMove:
      return use(KernelType<MoveKernel>());
    case OpCode::kCopy:
      return use(KernelType<CopyKernel>());
    case OpCode::kMerge:
      return use(KernelType<MergeKernel>());
    case OpCode::kSplit:
      return use(KernelType<SplitKernel>());
    case OpCode::kFold:
      return use(KernelType<FoldKernel>());
    case OpCode::kFill:
      return use(KernelType<FillKernel>());
    case OpCode::kDivide:
      return use(KernelType<DivideKernel>());
    case OpCode::kDelete:
      return use(KernelType<DeleteKernel>());
    case OpCode::kExtract: {
      // Validation compiled the pattern, so this is a cache hit.
      Result<const std::regex*> re = CompileCachedRegex(op.text);
      if (!re.ok()) return re.status();
      return use(KernelType<ExtractKernel>(), re.value());
    }
    case OpCode::kDeleteRow:
      return use(KernelType<DeleteRowKernel>());
    case OpCode::kWrapEvery:
      return use(KernelType<WrapEveryKernel>());
    case OpCode::kUnfold:
    case OpCode::kTranspose:
    case OpCode::kWrapColumn:
    case OpCode::kWrapAll:
    case OpCode::kSplitAll:
      break;
  }
  return Status::Internal(
      std::string("no streaming kernel for blocking operator ") +
      OpCodeName(op.op));
}

// A kernel on the heap, for the executor's chains, built over scratch
// and a copy of the operation of its own.
template <typename K>
class OwnedKernel final : public RowSink {
 public:
  template <typename... Extra>
  OwnedKernel(RowSink* next, size_t width, const Operation& op, Extra... extra)
      : op_(op), kernel_(next, width, &scratch_, op_, extra...) {}
  Status Push(const std::string_view* cells, size_t num_cells) override {
    return kernel_.Push(cells, num_cells);
  }
  Status Finish() override { return kernel_.Finish(); }

 private:
  Scratch scratch_;
  Operation op_;
  K kernel_;
};

}  // namespace

Status RunRowKernel(const Operation& operation, RowSource& input,
                    RowSink& output) {
  return WithRowKernel(operation, [&](auto type, auto... extra) {
    using K = typename decltype(type)::type;
    K kernel(&output, static_cast<size_t>(input.num_cols()), &ThreadScratch(),
             operation, extra...);
    Status scanned = input.Scan(
        [&](const std::string_view* cells, size_t n) {
          return kernel.Push(cells, n);
        },
        [&] { return output.bytes_buffered(); });
    if (!scanned.ok()) return scanned;
    return kernel.Finish();
  });
}

Result<std::unique_ptr<RowSink>> MakeRowKernel(const Operation& operation,
                                               size_t width, RowSink* next) {
  std::unique_ptr<RowSink> made;
  Status built = WithRowKernel(operation, [&](auto type, auto... extra) {
    using K = typename decltype(type)::type;
    made = std::make_unique<OwnedKernel<K>>(next, width, operation, extra...);
    return Status();
  });
  if (!built.ok()) return built;
  return made;
}

}  // namespace foofah
