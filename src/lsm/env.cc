#include "lsm/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_set>

namespace fs = std::filesystem;

namespace rhino::lsm {

namespace {

/// Parent directory of a path ("" for top-level names).
std::string DirName(const std::string& path) {
  auto pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

/// EOF-clamped copy of `[offset, offset+n)` out of an in-memory buffer.
void RangeFrom(const std::string& content, uint64_t offset, size_t n,
               std::string* out) {
  out->clear();
  if (offset >= content.size()) return;
  size_t len = std::min<uint64_t>(n, content.size() - offset);
  out->assign(content, static_cast<size_t>(offset), len);
}

/// RandomAccessFile over a shared in-memory content buffer. Holding the
/// shared_ptr pins the content exactly like an extra hard link would.
class MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<const std::string> content)
      : content_(std::move(content)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    RangeFrom(*content_, offset, n, out);
    return Status::OK();
  }

  uint64_t Size() const override { return content_->size(); }

 private:
  std::shared_ptr<const std::string> content_;
};

/// RandomAccessFile over an open descriptor. The open descriptor keeps the
/// inode alive after unlink/rename, matching MemRandomAccessFile. Reads
/// are positional (`pread`), so concurrent readers of one handle — a
/// compaction and a foreground Get of the same table — never share a file
/// offset.
class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, uint64_t size) : fd_(fd), size_(size) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }
  PosixRandomAccessFile(const PosixRandomAccessFile&) = delete;
  PosixRandomAccessFile& operator=(const PosixRandomAccessFile&) = delete;

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->clear();
    if (offset >= size_) return Status::OK();
    size_t len = std::min<uint64_t>(n, size_ - offset);
    out->resize(len);
    size_t got = 0;
    while (got < len) {
      ssize_t r = ::pread(fd_, out->data() + got, len - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        out->clear();
        return Status::IOError(std::string("read: ") + std::strerror(errno));
      }
      if (r == 0) break;  // file shrank under us: short read
      got += static_cast<size_t>(r);
    }
    out->resize(got);
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  int fd_;
  uint64_t size_;
};

/// Buffered appender over a shared in-memory content buffer. Like its
/// POSIX sibling, the handle keeps targeting the content it was opened on:
/// a concurrent WriteFile replacing the name writes fresh content, and this
/// handle's appends keep going to the old "inode".
class MemWritableFile : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<std::string> content)
      : content_(std::move(content)) {}
  ~MemWritableFile() override { (void)Flush(); }

  Status Append(std::string_view data) override {
    buffer_.append(data);
    if (buffer_.size() >= kBufferBytes) return Flush();
    return Status::OK();
  }

  Status Flush() override {
    if (!buffer_.empty()) {
      content_->append(buffer_);
      buffer_.clear();
    }
    return Status::OK();
  }

  Status Sync() override { return Flush(); }

  uint64_t Size() const override { return content_->size() + buffer_.size(); }

 private:
  static constexpr size_t kBufferBytes = 64 * 1024;
  std::shared_ptr<std::string> content_;
  std::string buffer_;
};

/// Buffered appender over a stdio stream (stdio provides the buffer;
/// Flush maps to fflush, Sync additionally fsyncs the descriptor).
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path, uint64_t size)
      : file_(file), path_(std::move(path)), size_(size) {}
  ~PosixWritableFile() override { std::fclose(file_); }
  PosixWritableFile(const PosixWritableFile&) = delete;
  PosixWritableFile& operator=(const PosixWritableFile&) = delete;

  Status Append(std::string_view data) override {
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError("append " + path_);
    }
    size_ += data.size();
    return Status::OK();
  }

  Status Flush() override {
    if (std::fflush(file_) != 0) return Status::IOError("flush " + path_);
    return Status::OK();
  }

  Status Sync() override {
    // fflush pushes stdio's buffer to the kernel; page-cache durability is
    // sufficient for the simulated crash model (fail-stop of the process,
    // not the machine), so no fsync — matching WriteFile's semantics.
    return Flush();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::FILE* file_;
  std::string path_;
  uint64_t size_;
};

}  // namespace

// ---------------------------------------------------------------- MemEnv --

Status MemEnv::WriteFile(const std::string& path, std::string_view data) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = std::make_shared<std::string>(data);
  return Status::OK();
}

Status MemEnv::AppendFile(const std::string& path, std::string_view data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    it = files_.emplace(path, std::make_shared<std::string>()).first;
  }
  it->second->append(data);
  return Status::OK();
}

Status MemEnv::ReadFile(const std::string& path, std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  *out = *it->second;
  return Status::OK();
}

Status MemEnv::ReadFileRange(const std::string& path, uint64_t offset,
                             size_t n, std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  RangeFrom(*it->second, offset, n, out);
  return Status::OK();
}

Result<std::unique_ptr<RandomAccessFile>> MemEnv::NewRandomAccessFile(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  return std::unique_ptr<RandomAccessFile>(
      std::make_unique<MemRandomAccessFile>(it->second));
}

Result<std::unique_ptr<WritableFile>> MemEnv::NewWritableFile(
    const std::string& path, bool append) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end() || !append) {
    // Truncation creates fresh content (a new inode): hard links and open
    // handles keep the old bytes.
    it = files_.insert_or_assign(path, std::make_shared<std::string>()).first;
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<MemWritableFile>(it->second));
}

Result<uint64_t> MemEnv::GetFileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  return static_cast<uint64_t>(it->second->size());
}

bool MemEnv::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status MemEnv::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) return Status::NotFound(path);
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  // Record the directory and all ancestors; files don't strictly need
  // them, but ListDir consults the set to distinguish "empty dir" from
  // "missing dir".
  std::string cur;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty()) dirs_.insert(cur);
    }
    if (i < path.size()) cur.push_back(path[i]);
  }
  dirs_.insert(path);
  return Status::OK();
}

Status MemEnv::LinkFile(const std::string& src, const std::string& dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(src);
  if (it == files_.end()) return Status::NotFound(src);
  if (files_.count(dst)) return Status::AlreadyExists(dst);
  files_[dst] = it->second;  // shares content: a true hard link
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& src, const std::string& dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(src);
  if (it == files_.end()) return Status::NotFound(src);
  files_[dst] = it->second;
  files_.erase(it);
  return Status::OK();
}

Result<std::vector<std::string>> MemEnv::ListDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirs_.count(dir)) {
    // A directory also "exists" if any file lives directly under it.
    bool found = false;
    for (const auto& [path, _] : files_) {
      if (DirName(path) == dir) {
        found = true;
        break;
      }
    }
    if (!found) return Status::NotFound(dir);
  }
  std::vector<std::string> names;
  std::string prefix = dir;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  for (const auto& [path, _] : files_) {
    if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
        path.find('/', prefix.size()) == std::string::npos) {
      names.push_back(path.substr(prefix.size()));
    }
  }
  return names;
}

uint64_t MemEnv::UniqueContentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_set<const std::string*> seen;
  uint64_t total = 0;
  for (const auto& [_, content] : files_) {
    if (seen.insert(content.get()).second) total += content->size();
  }
  return total;
}

// -------------------------------------------------------------- PosixEnv --

Status PosixEnv::WriteFile(const std::string& path, std::string_view data) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("open " + tmp);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) return Status::IOError("write " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IOError("rename " + tmp + ": " + ec.message());
  return Status::OK();
}

Status PosixEnv::AppendFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return Status::IOError("open for append " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) return Status::IOError("append " + path);
  return Status::OK();
}

Status PosixEnv::ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return Status::OK();
}

Status PosixEnv::ReadFileRange(const std::string& path, uint64_t offset,
                               size_t n, std::string* out) {
  RHINO_ASSIGN_OR_RETURN(auto file, NewRandomAccessFile(path));
  return file->Read(offset, n, out);
}

Result<std::unique_ptr<RandomAccessFile>> PosixEnv::NewRandomAccessFile(
    const std::string& path) {
  std::error_code ec;
  auto size = fs::file_size(path, ec);
  if (ec) return Status::NotFound(path);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound(path);
  return std::unique_ptr<RandomAccessFile>(
      std::make_unique<PosixRandomAccessFile>(fd, size));
}

Result<std::unique_ptr<WritableFile>> PosixEnv::NewWritableFile(
    const std::string& path, bool append) {
  uint64_t size = 0;
  if (append) {
    std::error_code ec;
    auto existing = fs::file_size(path, ec);
    if (!ec) size = existing;
  }
  std::FILE* file = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (file == nullptr) return Status::IOError("open for write " + path);
  return std::unique_ptr<WritableFile>(
      std::make_unique<PosixWritableFile>(file, path, size));
}

Result<uint64_t> PosixEnv::GetFileSize(const std::string& path) {
  std::error_code ec;
  auto size = fs::file_size(path, ec);
  if (ec) return Status::NotFound(path);
  return static_cast<uint64_t>(size);
}

bool PosixEnv::FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Status PosixEnv::DeleteFile(const std::string& path) {
  std::error_code ec;
  if (!fs::remove(path, ec) || ec) return Status::NotFound(path);
  return Status::OK();
}

Status PosixEnv::CreateDir(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IOError("mkdir " + path + ": " + ec.message());
  return Status::OK();
}

Status PosixEnv::LinkFile(const std::string& src, const std::string& dst) {
  std::error_code ec;
  fs::create_hard_link(src, dst, ec);
  if (ec) return Status::IOError("link " + src + " -> " + dst + ": " + ec.message());
  return Status::OK();
}

Status PosixEnv::RenameFile(const std::string& src, const std::string& dst) {
  std::error_code ec;
  fs::rename(src, dst, ec);
  if (ec) return Status::IOError("rename: " + ec.message());
  return Status::OK();
}

Result<std::vector<std::string>> PosixEnv::ListDir(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> names;
  for (auto it = fs::directory_iterator(dir, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    names.push_back(it->path().filename().string());
  }
  if (ec) return Status::NotFound(dir);
  return names;
}

}  // namespace rhino::lsm
