#include "state/change_log.h"

#include "common/serde.h"

namespace rhino::state {

void AppendChange(std::string* log, ChangeKind kind, std::string_view key,
                  std::string_view value) {
  BinaryWriter w(log);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutString(key);
  if (kind == ChangeKind::kPut) w.PutString(value);
}

Status ForEachChange(std::string_view log, const ChangeVisitor& fn) {
  BinaryReader r(log);
  while (!r.AtEnd()) {
    uint8_t kind = 0;
    std::string_view key, value;
    RHINO_RETURN_NOT_OK(r.GetU8(&kind));
    if (kind != static_cast<uint8_t>(ChangeKind::kPut) &&
        kind != static_cast<uint8_t>(ChangeKind::kDelete)) {
      return Status::Corruption("change log: unknown entry kind " +
                                std::to_string(kind));
    }
    RHINO_RETURN_NOT_OK(r.GetString(&key));
    if (kind == static_cast<uint8_t>(ChangeKind::kPut)) {
      RHINO_RETURN_NOT_OK(r.GetString(&value));
    }
    RHINO_RETURN_NOT_OK(fn(static_cast<ChangeKind>(kind), key, value));
  }
  return Status::OK();
}

Status ValidateChangeLog(std::string_view log) {
  return ForEachChange(log, [](ChangeKind, std::string_view, std::string_view) {
    return Status::OK();
  });
}

}  // namespace rhino::state
