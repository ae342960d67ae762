#include "learn/snapshot.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace foofah {

namespace {

constexpr char kMagic[] = "foofah-guidance-snapshot";
/// Serialized name of GuidanceModel::kStartToken in ngram lines.
constexpr char kStartName[] = "^";

void AppendHex64(std::string* out, uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  *out += buf;
}

void AppendDouble(std::string* out, double value) {
  char buf[64];
  // %.17g round-trips every finite double and is locale-independent for
  // the values estimates take (finite, non-negative).
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void AppendScriptHex(std::string* out, const std::string& script) {
  static const char kHex[] = "0123456789abcdef";
  for (unsigned char byte : script) {
    out->push_back(kHex[byte >> 4]);
    out->push_back(kHex[byte & 0xF]);
  }
}

bool ParseHex64(std::string_view token, uint64_t* value) {
  if (token.empty() || token.size() > 16) return false;
  uint64_t v = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *value = v;
  return true;
}

bool ParseScriptHex(std::string_view token, std::string* script) {
  if (token.size() % 2 != 0) return false;
  script->clear();
  script->reserve(token.size() / 2);
  for (size_t i = 0; i < token.size(); i += 2) {
    uint64_t hi, lo;
    if (!ParseHex64(token.substr(i, 1), &hi) ||
        !ParseHex64(token.substr(i + 1, 1), &lo)) {
      return false;
    }
    script->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// Splits a line on single spaces. Snapshot tokens never contain spaces
/// (operator names are single words, scripts are hex-encoded).
std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t start = 0;
  while (start <= line.size()) {
    size_t end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    if (end > start) tokens.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  return tokens;
}

bool OpFromToken(std::string_view token, int* code) {
  if (token == kStartName) {
    *code = GuidanceModel::kStartToken;
    return true;
  }
  OpCode op;
  if (!OpCodeFromName(token, &op)) return false;
  *code = static_cast<int>(op);
  return true;
}

Status MalformedLine(size_t line_number, std::string_view line) {
  std::ostringstream msg;
  msg << "guidance snapshot: malformed line " << line_number << ": '" << line
      << "'";
  return Status::ParseError(msg.str());
}

}  // namespace

std::string SerializeGuidanceSnapshot(const GuidanceSnapshot& snapshot) {
  const GuidanceModel& m = snapshot.model;
  std::string payload;

  payload += "meta programs " + std::to_string(m.programs_mined) + "\n";
  payload += "meta operations " + std::to_string(m.operations_mined) + "\n";

  // Fixed iteration orders (enum order, then ordered-map order) plus
  // nonzero-only emission make the payload a pure function of the value.
  for (int c = 0; c < kNumOpCodes; ++c) {
    if (m.unigram[c] == 0) continue;
    payload += "unigram ";
    payload += OpCodeName(static_cast<OpCode>(c));
    payload += ' ';
    payload += std::to_string(m.unigram[c]);
    payload += '\n';
  }
  for (int p = 0; p <= kNumOpCodes; ++p) {
    const char* prev_name = p == GuidanceModel::kStartToken
                                ? kStartName
                                : OpCodeName(static_cast<OpCode>(p));
    for (int c = 0; c < kNumOpCodes; ++c) {
      if (m.ngram[p][c] == 0) continue;
      payload += "ngram ";
      payload += prev_name;
      payload += " ";
      payload += OpCodeName(static_cast<OpCode>(c));
      payload += ' ';
      payload += std::to_string(m.ngram[p][c]);
      payload += '\n';
    }
  }
  for (const auto& [bucket, counts] : m.profile) {
    for (int c = 0; c < kNumOpCodes; ++c) {
      if (counts[c] == 0) continue;
      payload += "profile ";
      payload += std::to_string(bucket);
      payload += ' ';
      payload += OpCodeName(static_cast<OpCode>(c));
      payload += ' ';
      payload += std::to_string(counts[c]);
      payload += '\n';
    }
  }
  for (const GuidanceSnapshot::HeuristicEntry& e : snapshot.heuristic_entries) {
    payload += "hcache ";
    AppendHex64(&payload, e.state_hash);
    payload += " ";
    AppendHex64(&payload, e.goal_hash);
    payload += " ";
    AppendHex64(&payload, e.checksum);
    payload += " ";
    AppendDouble(&payload, e.estimate);
    payload += "\n";
  }
  for (const GuidanceSnapshot::ProgramEntry& e : snapshot.program_entries) {
    payload += "program ";
    AppendHex64(&payload, e.input_hash);
    payload += " ";
    AppendHex64(&payload, e.input_shape);
    payload += " ";
    AppendHex64(&payload, e.output_hash);
    payload += " ";
    AppendHex64(&payload, e.output_shape);
    payload += " ";
    AppendScriptHex(&payload, e.script);
    payload += "\n";
  }

  std::string out = std::string(kMagic) + " v" +
                    std::to_string(kGuidanceSnapshotVersion) + "\n";
  out += "checksum ";
  AppendHex64(&out, Fnv1aHash(payload));
  out += "\n";
  out += payload;
  return out;
}

Result<GuidanceSnapshot> ParseGuidanceSnapshot(std::string_view text) {
  // Line 1: magic + version.
  size_t eol = text.find('\n');
  if (eol == std::string_view::npos) {
    return Status::ParseError("guidance snapshot: missing header line");
  }
  std::string_view header = text.substr(0, eol);
  std::string_view magic_prefix(kMagic);
  if (header.substr(0, magic_prefix.size()) != magic_prefix) {
    return Status::ParseError("guidance snapshot: bad magic");
  }
  std::string expected_version =
      " v" + std::to_string(kGuidanceSnapshotVersion);
  if (header.substr(magic_prefix.size()) != expected_version) {
    std::ostringstream msg;
    msg << "guidance snapshot: version mismatch: got '"
        << header.substr(magic_prefix.size()) << "', this build reads v"
        << kGuidanceSnapshotVersion;
    return Status::InvalidArgument(msg.str());
  }

  // Line 2: payload checksum.
  std::string_view rest = text.substr(eol + 1);
  eol = rest.find('\n');
  if (eol == std::string_view::npos) {
    return Status::ParseError("guidance snapshot: missing checksum line");
  }
  std::vector<std::string_view> checksum_tokens =
      SplitTokens(rest.substr(0, eol));
  uint64_t stored_checksum = 0;
  if (checksum_tokens.size() != 2 || checksum_tokens[0] != "checksum" ||
      !ParseHex64(checksum_tokens[1], &stored_checksum)) {
    return Status::ParseError("guidance snapshot: malformed checksum line");
  }
  std::string_view payload = rest.substr(eol + 1);
  const uint64_t actual_checksum = Fnv1aHash(payload);
  if (actual_checksum != stored_checksum) {
    std::ostringstream msg;
    msg << "guidance snapshot: checksum mismatch (stored " << std::hex
        << stored_checksum << ", payload hashes to " << actual_checksum
        << ") — the file was truncated or tampered with";
    return Status::ParseError(msg.str());
  }

  GuidanceSnapshot snapshot;
  GuidanceModel& m = snapshot.model;
  size_t line_number = 2;
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string_view::npos) end = payload.size();
    std::string_view line = payload.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string_view> tokens = SplitTokens(line);
    if (tokens.empty()) return MalformedLine(line_number, line);

    if (tokens[0] == "meta" && tokens.size() == 3) {
      uint64_t value = 0;
      for (char c : tokens[2]) {
        if (c < '0' || c > '9') return MalformedLine(line_number, line);
        value = value * 10 + static_cast<uint64_t>(c - '0');
      }
      if (tokens[1] == "programs") {
        m.programs_mined = value;
      } else if (tokens[1] == "operations") {
        m.operations_mined = value;
      } else {
        return MalformedLine(line_number, line);
      }
    } else if (tokens[0] == "unigram" && tokens.size() == 3) {
      int code;
      uint64_t count = 0;
      if (!OpFromToken(tokens[1], &code) ||
          code == GuidanceModel::kStartToken) {
        return MalformedLine(line_number, line);
      }
      for (char c : tokens[2]) {
        if (c < '0' || c > '9') return MalformedLine(line_number, line);
        count = count * 10 + static_cast<uint64_t>(c - '0');
      }
      m.unigram[code] = count;
    } else if (tokens[0] == "ngram" && tokens.size() == 4) {
      int prev, code;
      uint64_t count = 0;
      if (!OpFromToken(tokens[1], &prev) || !OpFromToken(tokens[2], &code) ||
          code == GuidanceModel::kStartToken) {
        return MalformedLine(line_number, line);
      }
      for (char c : tokens[3]) {
        if (c < '0' || c > '9') return MalformedLine(line_number, line);
        count = count * 10 + static_cast<uint64_t>(c - '0');
      }
      m.ngram[prev][code] = count;
    } else if (tokens[0] == "profile" && tokens.size() == 4) {
      uint32_t bucket = 0;
      int code;
      uint64_t count = 0;
      for (char c : tokens[1]) {
        if (c < '0' || c > '9') return MalformedLine(line_number, line);
        bucket = bucket * 10 + static_cast<uint32_t>(c - '0');
      }
      if (bucket >= kNumProfileBuckets || !OpFromToken(tokens[2], &code) ||
          code == GuidanceModel::kStartToken) {
        return MalformedLine(line_number, line);
      }
      for (char c : tokens[3]) {
        if (c < '0' || c > '9') return MalformedLine(line_number, line);
        count = count * 10 + static_cast<uint64_t>(c - '0');
      }
      m.profile[bucket][code] = count;
    } else if (tokens[0] == "hcache" && tokens.size() == 5) {
      GuidanceSnapshot::HeuristicEntry e;
      char* parse_end = nullptr;
      std::string estimate_str(tokens[4]);
      e.estimate = std::strtod(estimate_str.c_str(), &parse_end);
      if (!ParseHex64(tokens[1], &e.state_hash) ||
          !ParseHex64(tokens[2], &e.goal_hash) ||
          !ParseHex64(tokens[3], &e.checksum) || parse_end == nullptr ||
          *parse_end != '\0') {
        return MalformedLine(line_number, line);
      }
      snapshot.heuristic_entries.push_back(e);
    } else if (tokens[0] == "program" && tokens.size() == 6) {
      GuidanceSnapshot::ProgramEntry e;
      if (!ParseHex64(tokens[1], &e.input_hash) ||
          !ParseHex64(tokens[2], &e.input_shape) ||
          !ParseHex64(tokens[3], &e.output_hash) ||
          !ParseHex64(tokens[4], &e.output_shape) ||
          !ParseScriptHex(tokens[5], &e.script)) {
        return MalformedLine(line_number, line);
      }
      snapshot.program_entries.push_back(std::move(e));
    } else {
      return MalformedLine(line_number, line);
    }
  }
  return snapshot;
}

Status SaveGuidanceSnapshot(const GuidanceSnapshot& snapshot,
                            const std::string& path) {
  const std::string bytes = SerializeGuidanceSnapshot(snapshot);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("guidance snapshot: cannot open '" + tmp +
                              "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return Status::Internal("guidance snapshot: short write to '" + tmp +
                              "'");
    }
  }
  // Rename-into-place so a concurrent loader sees the old file or the new
  // one, never a torn prefix (the checksum would catch a tear anyway, but
  // a clean swap keeps warm replicas from transiently degrading).
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("guidance snapshot: rename('" + tmp + "' -> '" +
                            path + "') failed: " + std::strerror(errno));
  }
  return Status::OK();
}

Result<GuidanceSnapshot> LoadGuidanceSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("guidance snapshot: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseGuidanceSnapshot(buffer.str());
}

}  // namespace foofah
