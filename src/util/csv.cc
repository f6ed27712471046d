#include "util/csv.h"

#include <charconv>
#include <cstring>

namespace ses::util {

Result<CsvRow> ParseCsvLine(std::string_view line) {
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        return Status::ParseError("quote in unquoted field: " +
                                  std::string(line));
      }
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
      ++i;
      continue;
    }
    field.push_back(c);
    ++i;
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quote: " + std::string(line));
  }
  row.push_back(std::move(field));
  return row;
}

std::string FormatCsvRow(const CsvRow& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(',');
    const std::string& field = row[i];
    const bool needs_quotes =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes) {
      out.append(field);
      continue;
    }
    out.push_back('"');
    for (char c : field) {
      if (c == '"') out.push_back('"');
      out.push_back(c);
    }
    out.push_back('"');
  }
  return out;
}

void FileCloser::operator()(std::FILE* file) const { std::fclose(file); }

LineReader::LineReader(const std::string& path)
    : path_(path),
      file_(std::fopen(path.c_str(), "rb")),
      buffer_(kBufferBytes) {
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for read: " + path);
  }
}

bool LineReader::Next(std::string_view* line) {
  while (status_.ok()) {
    const char* start = buffer_.data() + begin_;
    const void* newline = std::memchr(start, '\n', end_ - begin_);
    size_t length = 0;
    if (newline != nullptr) {
      length =
          static_cast<size_t>(static_cast<const char*>(newline) - start);
      begin_ += length + 1;
    } else if (!eof_) {
      Refill();
      continue;
    } else if (begin_ < end_) {
      length = end_ - begin_;
      begin_ = end_;
    } else {
      return false;
    }
    ++line_no_;
    if (length > 0 && start[length - 1] == '\r') --length;
    if (length == 0) continue;
    *line = std::string_view(start, length);
    return true;
  }
  return false;
}

void LineReader::Refill() {
  const size_t pending = end_ - begin_;
  std::memmove(buffer_.data(), buffer_.data() + begin_, pending);
  begin_ = 0;
  end_ = pending;
  if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  const size_t got = std::fread(buffer_.data() + end_, 1,
                                buffer_.size() - end_, file_.get());
  end_ += got;
  if (got == 0) {
    eof_ = true;
    if (std::ferror(file_.get()) != 0) {
      status_ = Status::IoError("read failed: " + path_);
    }
  }
}

std::string LineReader::Where() const {
  return path_ + ":" + std::to_string(line_no_);
}

namespace {
constexpr size_t kWriteBufferBytes = size_t{1} << 20;
}  // namespace

BufferedWriter::BufferedWriter(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "wb")) {
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for write: " + path);
  }
  buffer_.reserve(kWriteBufferBytes);
}

BufferedWriter& BufferedWriter::Append(std::string_view text) {
  buffer_.append(text);
  if (buffer_.size() >= kWriteBufferBytes) Flush();
  return *this;
}

BufferedWriter& BufferedWriter::Append(char c) {
  return Append(std::string_view(&c, 1));
}

BufferedWriter& BufferedWriter::AppendUint(uint64_t value) {
  char text[24];
  const auto result = std::to_chars(text, text + sizeof(text), value);
  return Append(
      std::string_view(text, static_cast<size_t>(result.ptr - text)));
}

BufferedWriter& BufferedWriter::AppendDouble(double value, int precision) {
  char text[64];
  const auto result = std::to_chars(text, text + sizeof(text), value,
                                    std::chars_format::general, precision);
  return Append(
      std::string_view(text, static_cast<size_t>(result.ptr - text)));
}

void BufferedWriter::Flush() {
  if (status_.ok() &&
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_.get()) !=
          buffer_.size()) {
    status_ = Status::IoError("write failed: " + path_);
  }
  buffer_.clear();
}

Status BufferedWriter::Close() {
  Flush();
  if (file_ != nullptr && std::fclose(file_.release()) != 0 && status_.ok()) {
    status_ = Status::IoError("close failed: " + path_);
  }
  return status_;
}

Status WriteCsvFile(const std::string& path, const CsvRow& header,
                    const std::vector<CsvRow>& rows) {
  BufferedWriter out(path);
  if (!header.empty()) out.Append(FormatCsvRow(header)).Append('\n');
  for (const CsvRow& row : rows) out.Append(FormatCsvRow(row)).Append('\n');
  return out.Close();
}

}  // namespace ses::util
