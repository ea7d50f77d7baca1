#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/text_io.h"

namespace pcqe {

namespace {

constexpr char kMagic[8] = {'P', 'C', 'Q', 'E', 'W', 'A', 'L', '1'};
constexpr size_t kMagicSize = sizeof(kMagic);
constexpr size_t kFrameHeaderSize = 8;  // u32 len + u32 crc
/// Sanity bound on one payload; a "length" past this is treated as a torn
/// tail, not an allocation request.
constexpr uint32_t kMaxPayload = 1u << 26;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

double GetF64(const char* p) {
  uint64_t bits = GetU64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string EncodePayload(const WalRecord& record) {
  std::string payload;
  PutU64(&payload, record.lsn);
  payload.push_back(static_cast<char>(record.type));
  PutU64(&payload, record.version);
  if (record.type == WalRecordType::kCommit) {
    PutU32(&payload, static_cast<uint32_t>(record.actions.size()));
    for (const WalAction& a : record.actions) {
      PutU64(&payload, a.tuple);
      PutF64(&payload, a.from);
      PutF64(&payload, a.to);
      PutF64(&payload, a.cost);
    }
  }
  return payload;
}

constexpr size_t kPayloadFixed = 17;  // lsn + type + version
constexpr size_t kActionSize = 32;    // tuple + from + to + cost

Result<WalRecord> DecodePayload(const char* p, size_t size) {
  if (size < kPayloadFixed) {
    return Status::Internal(
        StrFormat("WAL payload of %zu bytes is shorter than the fixed header", size));
  }
  WalRecord record;
  record.lsn = GetU64(p);
  uint8_t type = static_cast<uint8_t>(p[8]);
  record.version = GetU64(p + 9);
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kVersionSet):
      record.type = WalRecordType::kVersionSet;
      if (size != kPayloadFixed) {
        return Status::Internal(
            StrFormat("version-set record carries %zu trailing bytes",
                      size - kPayloadFixed));
      }
      return record;
    case static_cast<uint8_t>(WalRecordType::kCommit): {
      record.type = WalRecordType::kCommit;
      if (size < kPayloadFixed + 4) {
        return Status::Internal("commit record truncated before its action count");
      }
      uint32_t count = GetU32(p + kPayloadFixed);
      if (size != kPayloadFixed + 4 + static_cast<size_t>(count) * kActionSize) {
        return Status::Internal(
            StrFormat("commit record of %zu bytes does not hold %u actions", size,
                      count));
      }
      record.actions.reserve(count);
      const char* a = p + kPayloadFixed + 4;
      for (uint32_t i = 0; i < count; ++i, a += kActionSize) {
        record.actions.push_back(
            {GetU64(a), GetF64(a + 8), GetF64(a + 16), GetF64(a + 24)});
      }
      return record;
    }
    default:
      return Status::Internal(StrFormat("unknown WAL record type %u", type));
  }
}

Status WriteAll(int fd, const char* data, size_t size, const std::string& path) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StrFormat("write to '%s' failed: %s", path.c_str(), std::strerror(errno)));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

uint32_t WalCrc32(const char* data, size_t size) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("cannot create WAL '%s': %s", path.c_str(), std::strerror(errno)));
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(path, fd, 0));
  PCQE_RETURN_NOT_OK(WriteAll(fd, kMagic, kMagicSize, path));
  if (::fsync(fd) != 0) {
    return Status::Internal(
        StrFormat("fsync of '%s' failed: %s", path.c_str(), std::strerror(errno)));
  }
  writer->file_size_ = kMagicSize;
  return writer;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Resume(const std::string& path,
                                                     uint64_t valid_bytes) {
  if (valid_bytes < kMagicSize) {
    return Status::InvalidArgument(
        StrFormat("cannot resume '%s' at offset %llu (before the magic)",
                  path.c_str(),
                  static_cast<unsigned long long>(valid_bytes)));
  }
  int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("cannot reopen WAL '%s': %s", path.c_str(), std::strerror(errno)));
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(path, fd, valid_bytes));
  // Drop any torn tail so new records land on a clean boundary.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    return Status::Internal(StrFormat("cannot truncate '%s' to %llu bytes: %s",
                                      path.c_str(),
                                      static_cast<unsigned long long>(valid_bytes),
                                      std::strerror(errno)));
  }
  if (::lseek(fd, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    return Status::Internal(
        StrFormat("cannot seek '%s': %s", path.c_str(), std::strerror(errno)));
  }
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(const WalRecord& record) {
  PCQE_INJECT_FAULT(fault_sites::kWalAppend);
  std::string payload = EncodePayload(record);
  PutU32(&buffer_, static_cast<uint32_t>(payload.size()));
  PutU32(&buffer_, WalCrc32(payload.data(), payload.size()));
  buffer_ += payload;
  return Status::OK();
}

Status WalWriter::Sync() {
  PCQE_INJECT_FAULT(fault_sites::kWalSync);
  PCQE_RETURN_NOT_OK(WriteAll(fd_, buffer_.data(), buffer_.size(), path_));
  if (::fsync(fd_) != 0) {
    return Status::Internal(
        StrFormat("fsync of '%s' failed: %s", path_.c_str(), std::strerror(errno)));
  }
  file_size_ += buffer_.size();
  buffer_.clear();
  return Status::OK();
}

void WalWriter::Rollback(size_t buffer_mark, uint64_t file_mark) {
  if (buffer_.size() > buffer_mark) buffer_.resize(buffer_mark);
  if (fd_ >= 0 && file_size_ >= file_mark) {
    // A failed Sync may have written part of the buffer before erroring;
    // trim the file back to the durable prefix. Best-effort — a leftover
    // torn tail is exactly what ReadWal already skips.
    (void)::ftruncate(fd_, static_cast<off_t>(file_mark));
    (void)::lseek(fd_, static_cast<off_t>(file_mark), SEEK_SET);
    file_size_ = file_mark;
  }
}

Result<WalReadResult> ReadWal(const std::string& path) {
  Result<std::string> read = ReadFile(path);
  if (!read.ok()) return Status::NotFound(StrFormat("cannot open WAL '%s'", path.c_str()));
  const std::string& data = *read;

  if (data.size() < kMagicSize || std::memcmp(data.data(), kMagic, kMagicSize) != 0) {
    // The magic is synced before a segment is ever referenced by a
    // manifest, so a missing/short magic is corruption, not a torn tail.
    return Status::Internal(StrFormat("'%s' is not a PCQE WAL segment", path.c_str()));
  }

  WalReadResult out;
  size_t off = kMagicSize;
  out.valid_bytes = off;
  while (data.size() - off >= kFrameHeaderSize) {
    uint32_t len = GetU32(data.data() + off);
    uint32_t crc = GetU32(data.data() + off + 4);
    if (len > kMaxPayload) break;                          // torn/garbage length
    if (data.size() - off - kFrameHeaderSize < len) break;  // torn payload
    const char* payload = data.data() + off + kFrameHeaderSize;
    if (WalCrc32(payload, len) != crc) break;  // torn or bit-rotted tail
    PCQE_ASSIGN_OR_RETURN(WalRecord record, DecodePayload(payload, len));
    out.records.push_back(std::move(record));
    off += kFrameHeaderSize + len;
    out.valid_bytes = off;
  }
  out.torn_bytes = data.size() - out.valid_bytes;
  return out;
}

}  // namespace pcqe
