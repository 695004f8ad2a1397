#include "checkpoint/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "checkpoint/codec.hpp"

namespace glr::ckpt {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error{"checkpoint '" + path + "': " + what};
}

[[noreturn]] void failErrno(const std::string& path, const std::string& what) {
  fail(path, what + " (errno " + std::to_string(errno) + ": " +
                 std::strerror(errno) + ")");
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

const Section& CheckpointFile::section(std::uint32_t id,
                                       const std::string& path) const {
  for (const Section& s : sections) {
    if (s.id == id) return s;
  }
  fail(path, "missing section id " + std::to_string(id));
}

void CheckpointFile::write(const std::string& path) const {
  Encoder e;
  e.u32(kCheckpointMagic);
  e.u16(kCheckpointVersion);
  e.u16(0);  // flags
  e.u64(configDigest);
  e.f64(simNow);
  e.u64(nextSeq);
  e.u64(executed);
  e.u32(static_cast<std::uint32_t>(sections.size()));
  e.u32(0);  // reserved
  for (std::size_t i = 0; i < sections.size(); ++i) {
    for (std::size_t j = i + 1; j < sections.size(); ++j) {
      if (sections[i].id == sections[j].id) {
        fail(path, "duplicate section id " + std::to_string(sections[i].id));
      }
    }
    e.u32(sections[i].id);
    e.u64(sections[i].bytes.size());
    e.bytes(sections[i].bytes.data(), sections[i].bytes.size());
  }
  const std::vector<unsigned char>& body = e.data();
  e.u64(fnv1a64(body.data(), body.size()));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) failErrno(path, "cannot open '" + tmp + "' for writing");
  const std::vector<unsigned char>& all = e.data();
  if (std::fwrite(all.data(), 1, all.size(), f) != all.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    failErrno(path, "short write to '" + tmp + "'");
  }
  if (std::fflush(f) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    failErrno(path, "flush of '" + tmp + "' failed");
  }
#if defined(__unix__) || defined(__APPLE__)
  if (fsync(fileno(f)) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    failErrno(path, "fsync of '" + tmp + "' failed");
  }
#endif
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    failErrno(path, "close of '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    failErrno(path, "rename of '" + tmp + "' failed");
  }
}

CheckpointFile CheckpointFile::read(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) failErrno(path, "cannot open for reading");
  std::vector<unsigned char> all;
  unsigned char buf[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(buf, 1, sizeof(buf), f);
    all.insert(all.end(), buf, buf + got);
    if (got < sizeof(buf)) {
      if (std::ferror(f) != 0) {
        std::fclose(f);
        failErrno(path, "read failed");
      }
      break;
    }
  }
  std::fclose(f);

  constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 8 + 8 + 8 + 8 + 4 + 4;
  if (all.size() < kHeaderBytes + 8) {
    fail(path, "file too short for header (" + std::to_string(all.size()) +
                   " bytes)");
  }
  // The trailing checksum covers everything before it; verify first so every
  // later structural error is a real layout defect, not bit rot.
  Decoder tail{all.data() + all.size() - 8, 8, "'" + path + "'"};
  const std::uint64_t storedSum = tail.u64();
  const std::uint64_t actualSum = fnv1a64(all.data(), all.size() - 8);
  if (storedSum != actualSum) {
    fail(path, "checksum mismatch (file is truncated or corrupt)");
  }

  Decoder d{all.data(), all.size() - 8, "'" + path + "'"};
  const std::uint32_t magic = d.u32();
  if (magic != kCheckpointMagic) {
    fail(path, "bad magic (not a checkpoint file)");
  }
  const std::uint16_t version = d.u16();
  if (version != kCheckpointVersion) {
    fail(path, "unsupported version " + std::to_string(version) +
                   " (expected " + std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint16_t flags = d.u16();
  if (flags != 0) fail(path, "unsupported flags " + std::to_string(flags));

  CheckpointFile out;
  out.configDigest = d.u64();
  out.simNow = d.f64();
  out.nextSeq = d.u64();
  out.executed = d.u64();
  const std::uint32_t sectionCount = d.u32();
  const std::uint32_t reserved = d.u32();
  if (reserved != 0) fail(path, "nonzero reserved header field");
  // Each section needs at least its 12-byte header, so a count the bytes
  // left cannot hold is refused before it sizes any allocation.
  if (sectionCount > d.remaining() / 12) {
    fail(path, "section count " + std::to_string(sectionCount) +
                   " exceeds what " + std::to_string(d.remaining()) +
                   " bytes can hold");
  }
  out.sections.reserve(sectionCount);
  for (std::uint32_t i = 0; i < sectionCount; ++i) {
    if (d.remaining() < 12) {
      fail(path, "truncated mid-section-header (section " +
                     std::to_string(i) + " of " +
                     std::to_string(sectionCount) + ")");
    }
    Section s;
    s.id = d.u32();
    const std::uint64_t len = d.u64();
    if (len > d.remaining()) {
      fail(path, "section id " + std::to_string(s.id) + " length " +
                     std::to_string(len) + " overruns file (" +
                     std::to_string(d.remaining()) + " bytes left)");
    }
    for (const Section& prev : out.sections) {
      if (prev.id == s.id) {
        fail(path, "duplicate section id " + std::to_string(s.id));
      }
    }
    s.bytes.resize(static_cast<std::size_t>(len));
    d.bytes(s.bytes.data(), s.bytes.size());
    out.sections.push_back(std::move(s));
  }
  if (d.remaining() != 0) {
    fail(path, std::to_string(d.remaining()) +
                   " trailing bytes after last section");
  }
  return out;
}

}  // namespace glr::ckpt
