#ifndef SES_UTIL_CSV_H_
#define SES_UTIL_CSV_H_

/// \file
/// CSV reading/writing: a streaming line reader and a buffered writer
/// that instance and dataset persistence run on, plus RFC-4180 quoting
/// for the free-text fields of datasets and experiment reports.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ses::util {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Parses a single CSV line (no trailing newline) honoring double-quote
/// escaping. Returns ParseError on unbalanced quotes.
[[nodiscard]] Result<CsvRow> ParseCsvLine(std::string_view line);

/// Serializes \p row, quoting fields that contain separators, quotes or
/// newlines.
std::string FormatCsvRow(const CsvRow& row);

/// Closes a stdio stream; the owner of a LineReader/BufferedWriter file.
struct FileCloser {
  void operator()(std::FILE* file) const;
};

/// Streams the lines of a text file through one growable buffer, with
/// no allocation per line. Blank lines are skipped, a trailing '\r' is
/// stripped (CRLF files read like LF files), and a last line without a
/// '\n' is still returned. A line longer than the buffer grows it.
///
///   LineReader in(path);
///   std::string_view line;
///   while (in.Next(&line)) { ... in.Where() names path:line ... }
///   SES_RETURN_IF_ERROR(in.status());
class LineReader {
 public:
  /// Initial size of the read buffer; a longer line doubles it.
  static constexpr size_t kBufferBytes = size_t{1} << 20;

  /// Opens \p path for reading; status() reports a failure to open.
  explicit LineReader(const std::string& path);

  /// Advances to the next non-blank line. The view stays valid until
  /// the next call. Returns false at end of file or on a read error.
  bool Next(std::string_view* line);

  /// 1-based number of the line Next() returned last; 0 before the
  /// first call, the last line of the file after the end.
  int64_t line_no() const { return line_no_; }

  /// "<path>:<line_no>", the prefix of every error about a line.
  std::string Where() const;

  /// Ok, or IoError when the file could not be opened or read.
  const Status& status() const { return status_; }

 private:
  /// Moves the unread tail to the front of the buffer (doubling the
  /// buffer when the tail fills it) and reads more behind it.
  void Refill();

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // first unread byte
  size_t end_ = 0;    // one past the last byte read
  bool eof_ = false;
  int64_t line_no_ = 0;
  Status status_;
};

/// Buffered text output: appends go to one buffer that is written out
/// whenever it fills, and numbers are formatted with std::to_chars, so
/// writing a row allocates nothing. Call Close(): a writer destroyed
/// without it drops whatever is still buffered.
class BufferedWriter {
 public:
  /// Opens (truncates) \p path; a failure surfaces from Close().
  explicit BufferedWriter(const std::string& path);

  BufferedWriter& Append(std::string_view text);
  BufferedWriter& Append(char c);
  BufferedWriter& AppendUint(uint64_t value);
  /// Formats \p value exactly as printf("%.<precision>g") does
  /// (\p precision at most 40).
  BufferedWriter& AppendDouble(double value, int precision);

  /// Writes out the buffer and closes the file. Ok, or IoError when the
  /// open, any write or the close failed.
  [[nodiscard]] Status Close();

 private:
  void Flush();

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string buffer_;
  Status status_;
};

/// Writes \p rows (with optional \p header) to \p path, overwriting.
[[nodiscard]] Status WriteCsvFile(const std::string& path, const CsvRow& header,
                    const std::vector<CsvRow>& rows);

}  // namespace ses::util

#endif  // SES_UTIL_CSV_H_
