#ifndef ATENA_COMMON_TOKEN_CODEC_H_
#define ATENA_COMMON_TOKEN_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/random.h"
#include "common/status.h"

namespace atena {

/// The one token spelling every text file ATENA writes shares — trained
/// weights (ATENA-NN), training checkpoints (ATENA-CKPT) and the serving
/// journal (ATENA-SJL):
///
///   - tokens are separated by one space, lines end in '\n';
///   - integers are decimal (std::to_chars / std::from_chars);
///   - doubles are the 16-lowercase-hex-digit IEEE-754 bit pattern, so every
///     value (NaN payloads and -0.0 included) round-trips bit-exactly;
///   - strings are `<length> <bytes>`, so arbitrary bytes survive;
///   - booleans are `0`/`1`;
///   - an RngState is its four words, the spare flag and the spare value.
///
/// TokenWriter appends to a caller-owned string and inserts the separators
/// itself: every token after the first on a line is preceded by one space,
/// and Nl() ends the line.
class TokenWriter {
 public:
  /// Appends to `out`. The first token goes on with no separator, so start
  /// a writer where a line (or an already-separated phrase) begins.
  explicit TokenWriter(std::string& out) : out_(out) {}

  /// A literal token (a section keyword or a tag).
  TokenWriter& Word(std::string_view word);

  /// Defined for int, uint32_t, int64_t and uint64_t.
  template <typename T>
  TokenWriter& Int(T value);

  TokenWriter& Bool(bool value) { return Word(value ? "1" : "0"); }
  TokenWriter& F64(double value);
  TokenWriter& String(std::string_view value);
  TokenWriter& Rng(const RngState& rng);
  /// A CRC-32 as exactly 8 lowercase hex digits (the frame headers).
  TokenWriter& Crc(uint32_t crc);

  TokenWriter& Nl() {
    out_ += '\n';
    line_start_ = true;
    return *this;
  }

 private:
  void Sep() {
    if (!line_start_) out_ += ' ';
    line_start_ = false;
  }

  std::string& out_;
  bool line_start_ = true;
};

/// A checked cursor over text in the TokenWriter spelling. Every read
/// either succeeds or returns InvalidArgument naming `source` and the field
/// (`what`); nothing is ever read past the end of the view. The reader
/// does not own the text.
class TokenReader {
 public:
  TokenReader(std::string_view text, std::string source)
      : text_(text), source_(std::move(source)) {}

  /// InvalidArgument("'<source>': <what>").
  Status Fail(const std::string& what) const;

  /// The next space- or newline-delimited token.
  Status Token(std::string_view* token, const char* what);
  Status ExpectKeyword(const char* keyword);

  /// A decimal integer token; the whole token must parse and fit in T (so a
  /// negative number never reads as a huge unsigned one). Defined for int,
  /// uint32_t, int64_t and uint64_t.
  template <typename T>
  Status Read(T* value, const char* what);

  Status ReadBool(bool* value, const char* what);
  /// A non-negative count no larger than the whole text — anything bigger
  /// cannot describe elements that are actually present.
  Status ReadCount(int64_t* count, const char* what);
  Status ReadF64(double* value, const char* what);
  Status ReadString(std::string* value, const char* what);
  Status ReadRng(RngState* rng);
  Status ReadCrc(uint32_t* crc, const char* what);

  /// True once only separators remain.
  bool AtEnd();

 private:
  void SkipSeparators();
  Status Malformed(const char* what) const;

  std::string_view text_;
  size_t pos_ = 0;
  std::string source_;
};

}  // namespace atena

#endif  // ATENA_COMMON_TOKEN_CODEC_H_
