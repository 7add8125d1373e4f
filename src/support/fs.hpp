#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

namespace lr::support {

/// Reads a whole file into memory; nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Writes `contents` atomically: the bytes go to `path + ".tmp"`, which is
/// then renamed over `path`. A reader (or a process resuming after a crash
/// mid-write) therefore sees either the previous complete file or the new
/// complete file, never a torn prefix. The temp file is removed on any
/// failure. Returns false when the write or the rename fails.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     const std::string& contents);

/// write_file_atomic() with the bytes streamed by `write` into the temp
/// file, so they need never be in memory at once. The write fails when
/// `write` leaves the stream in a failed state; if `write` throws, the temp
/// file is removed and the exception propagates.
[[nodiscard]] bool write_file_atomic(
    const std::string& path, const std::function<void(std::ostream&)>& write);

/// FNV-1a 64-bit hash of a byte string, rendered as "fnv1a:<16 hex digits>".
/// Used to fingerprint model files in batch checkpoint manifests; not
/// cryptographic, just cheap and stable across platforms.
[[nodiscard]] std::string content_hash(const std::string& bytes);

/// content_hash() of a file's bytes; nullopt when the file cannot be read.
[[nodiscard]] std::optional<std::string> hash_file(const std::string& path);

}  // namespace lr::support
