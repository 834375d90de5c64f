#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

/// \file change_log.h
/// Key-granular change log of one virtual node: the increment the
/// continuous replication stream ships instead of the vnode's whole blob.
///
/// Encoding (little-endian `BinaryWriter` format), one entry per changed
/// key, in key order, and nothing else:
///
///     u8 kind | string key | string value      (kind == kPut)
///     u8 kind | string key                     (kind == kDelete)
///
/// Logs concatenate: appending log B to log A yields the log of "A, then
/// B". A later entry for a key supersedes every earlier one.

namespace rhino::state {

enum class ChangeKind : uint8_t {
  kPut = 0,
  kDelete = 1,
};

/// Appends one entry to `log`. `value` is ignored for deletes.
void AppendChange(std::string* log, ChangeKind kind, std::string_view key,
                  std::string_view value);

using ChangeVisitor = std::function<Status(
    ChangeKind kind, std::string_view key, std::string_view value)>;

/// Calls `fn` on every entry of `log`, in order. Fails with `Corruption`
/// on truncation or on an unknown kind byte, before `fn` sees the bad
/// entry (entries before it have been visited).
Status ForEachChange(std::string_view log, const ChangeVisitor& fn);

/// Checks that `log` parses end to end (same errors as ForEachChange).
Status ValidateChangeLog(std::string_view log);

}  // namespace rhino::state
