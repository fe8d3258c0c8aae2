#include "common/token_codec.h"

#include <charconv>
#include <cstring>

namespace atena {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Appends `value` as exactly `digits` lowercase hex digits.
void AppendHex(std::string& out, uint64_t value, int digits) {
  char buf[16];
  for (int i = digits - 1; i >= 0; --i) {
    buf[i] = kHexDigits[value & 0xF];
    value >>= 4;
  }
  out.append(buf, static_cast<size_t>(digits));
}

/// Parses exactly `digits` lowercase hex digits, the form AppendHex writes —
/// strict, so any flipped byte in a checksum or bit pattern is detected.
bool ParseHex(std::string_view token, int digits, uint64_t* value) {
  if (token.size() != static_cast<size_t>(digits)) return false;
  uint64_t out = 0;
  for (char c : token) {
    if (c >= '0' && c <= '9') {
      out = out << 4 | static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      out = out << 4 | static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *value = out;
  return true;
}

bool IsSeparator(char c) { return c == ' ' || c == '\n'; }

}  // namespace

TokenWriter& TokenWriter::Word(std::string_view word) {
  Sep();
  out_ += word;
  return *this;
}

template <typename T>
TokenWriter& TokenWriter::Int(T value) {
  Sep();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  return *this;
}

template TokenWriter& TokenWriter::Int(int);
template TokenWriter& TokenWriter::Int(uint32_t);
template TokenWriter& TokenWriter::Int(int64_t);
template TokenWriter& TokenWriter::Int(uint64_t);

TokenWriter& TokenWriter::F64(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Sep();
  AppendHex(out_, bits, 16);
  return *this;
}

TokenWriter& TokenWriter::String(std::string_view value) {
  Int(value.size());
  out_ += ' ';
  out_ += value;
  return *this;
}

TokenWriter& TokenWriter::Rng(const RngState& rng) {
  for (const uint64_t word : rng.words) Int(word);
  return Bool(rng.has_spare_gaussian).F64(rng.spare_gaussian);
}

TokenWriter& TokenWriter::Crc(uint32_t crc) {
  Sep();
  AppendHex(out_, crc, 8);
  return *this;
}

Status TokenReader::Fail(const std::string& what) const {
  return Status::InvalidArgument("'" + source_ + "': " + what);
}

Status TokenReader::Malformed(const char* what) const {
  return Fail(std::string("truncated or malformed ") + what);
}

void TokenReader::SkipSeparators() {
  while (pos_ < text_.size() && IsSeparator(text_[pos_])) ++pos_;
}

bool TokenReader::AtEnd() {
  SkipSeparators();
  return pos_ == text_.size();
}

Status TokenReader::Token(std::string_view* token, const char* what) {
  SkipSeparators();
  const size_t start = pos_;
  while (pos_ < text_.size() && !IsSeparator(text_[pos_])) ++pos_;
  if (pos_ == start) return Malformed(what);
  *token = text_.substr(start, pos_ - start);
  return Status::OK();
}

Status TokenReader::ExpectKeyword(const char* keyword) {
  std::string_view token;
  const Status read = Token(&token, keyword);
  if (!read.ok() || token != keyword) {
    return Fail("expected section '" + std::string(keyword) + "', got '" +
                std::string(token) + "'");
  }
  return Status::OK();
}

template <typename T>
Status TokenReader::Read(T* value, const char* what) {
  std::string_view token;
  ATENA_RETURN_IF_ERROR(Token(&token, what));
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), *value);
  if (result.ec != std::errc() || result.ptr != token.data() + token.size()) {
    return Malformed(what);
  }
  return Status::OK();
}

template Status TokenReader::Read(int*, const char*);
template Status TokenReader::Read(uint32_t*, const char*);
template Status TokenReader::Read(int64_t*, const char*);
template Status TokenReader::Read(uint64_t*, const char*);

Status TokenReader::ReadBool(bool* value, const char* what) {
  std::string_view token;
  ATENA_RETURN_IF_ERROR(Token(&token, what));
  if (token != "0" && token != "1") {
    return Fail(std::string("non-boolean ") + what);
  }
  *value = token == "1";
  return Status::OK();
}

Status TokenReader::ReadCount(int64_t* count, const char* what) {
  ATENA_RETURN_IF_ERROR(Read(count, what));
  if (*count < 0 || static_cast<uint64_t>(*count) > text_.size()) {
    return Fail(std::string("implausible ") + what + " count " +
                std::to_string(*count));
  }
  return Status::OK();
}

Status TokenReader::ReadF64(double* value, const char* what) {
  std::string_view token;
  ATENA_RETURN_IF_ERROR(Token(&token, what));
  uint64_t bits = 0;
  if (!ParseHex(token, 16, &bits)) return Malformed(what);
  std::memcpy(value, &bits, sizeof(bits));
  return Status::OK();
}

Status TokenReader::ReadString(std::string* value, const char* what) {
  int64_t length = 0;
  ATENA_RETURN_IF_ERROR(ReadCount(&length, what));
  // Exactly one space separates the length from the bytes, which may
  // themselves contain separators.
  const size_t len = static_cast<size_t>(length);
  if (pos_ >= text_.size() || text_[pos_] != ' ' ||
      text_.size() - pos_ - 1 < len) {
    return Fail(std::string("truncated ") + what);
  }
  value->assign(text_.substr(pos_ + 1, len));
  pos_ += 1 + len;
  return Status::OK();
}

Status TokenReader::ReadRng(RngState* rng) {
  for (uint64_t& word : rng->words) {
    ATENA_RETURN_IF_ERROR(Read(&word, "rng word"));
  }
  ATENA_RETURN_IF_ERROR(ReadBool(&rng->has_spare_gaussian, "rng spare flag"));
  return ReadF64(&rng->spare_gaussian, "rng spare value");
}

Status TokenReader::ReadCrc(uint32_t* crc, const char* what) {
  std::string_view token;
  ATENA_RETURN_IF_ERROR(Token(&token, what));
  uint64_t value = 0;
  if (!ParseHex(token, 8, &value)) return Malformed(what);
  *crc = static_cast<uint32_t>(value);
  return Status::OK();
}

}  // namespace atena
