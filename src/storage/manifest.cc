#include "storage/manifest.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/text_io.h"

namespace pcqe {

namespace {

/// Reads `prefix <value>` from `line`; empty optional-style failure is an
/// InvalidArgument (recovering from a half-written manifest is never safe).
Result<std::string> ManifestField(const std::string& line, const char* prefix) {
  std::string trimmed(TrimAscii(line));
  std::string want = std::string(prefix) + " ";
  if (trimmed.rfind(want, 0) != 0 || trimmed.size() <= want.size()) {
    return Status::InvalidArgument(StrFormat(
        "malformed manifest line '%s' (expected '%s <value>')", trimmed.c_str(),
        prefix));
  }
  return std::string(TrimAscii(trimmed.substr(want.size())));
}

}  // namespace

bool ManifestExists(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::exists(dir + "/" + kManifestFile, ec);
}

Result<DurabilityManifest> LoadManifest(const std::string& dir) {
  std::string path = dir + "/" + kManifestFile;
  PCQE_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  std::istringstream lines(text);

  std::string line;
  if (!std::getline(lines, line) || std::string(TrimAscii(line)) != "PCQE_MANIFEST 1") {
    return Status::InvalidArgument(
        StrFormat("'%s' is not a version-1 PCQE manifest", path.c_str()));
  }
  DurabilityManifest manifest;
  if (!std::getline(lines, line)) {
    return Status::InvalidArgument("truncated manifest: missing checkpoint line");
  }
  PCQE_ASSIGN_OR_RETURN(manifest.checkpoint, ManifestField(line, "checkpoint"));
  if (!std::getline(lines, line)) {
    return Status::InvalidArgument("truncated manifest: missing wal line");
  }
  PCQE_ASSIGN_OR_RETURN(manifest.wal, ManifestField(line, "wal"));
  if (!std::getline(lines, line)) {
    return Status::InvalidArgument("truncated manifest: missing truncate_lsn line");
  }
  PCQE_ASSIGN_OR_RETURN(std::string lsn_text, ManifestField(line, "truncate_lsn"));
  std::optional<uint64_t> lsn = ParseUint64(lsn_text);
  if (!lsn) {
    return Status::InvalidArgument(
        StrFormat("truncate_lsn '%s' is not an unsigned integer", lsn_text.c_str()));
  }
  manifest.truncate_lsn = *lsn;
  return manifest;
}

Status SaveManifest(const std::string& dir, const DurabilityManifest& manifest) {
  PCQE_INJECT_FAULT(fault_sites::kManifest);
  std::string text = StrFormat(
      "PCQE_MANIFEST 1\ncheckpoint %s\nwal %s\ntruncate_lsn %llu\n",
      manifest.checkpoint.c_str(), manifest.wal.c_str(),
      static_cast<unsigned long long>(manifest.truncate_lsn));

  std::string tmp = dir + "/" + kManifestFile + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("cannot write '%s': %s", tmp.c_str(), std::strerror(errno)));
  }
  const char* data = text.data();
  size_t left = text.size();
  while (left > 0) {
    ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::Internal(
          StrFormat("write to '%s' failed: %s", tmp.c_str(), std::strerror(err)));
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    return Status::Internal(
        StrFormat("fsync of '%s' failed: %s", tmp.c_str(), std::strerror(errno)));
  }

  std::string final_path = dir + "/" + kManifestFile;
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Status::Internal(StrFormat("cannot publish '%s': %s", final_path.c_str(),
                                      std::strerror(errno)));
  }
  // Make the rename itself durable.
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

}  // namespace pcqe
