// The store layer's one tree walk, shared by LoadTree, StoreTree's
// mirror delete, the apply's extras scan, RecoverTree's temp sweep and
// the lenient recovery manifest.
#ifndef FSYNC_STORE_WALK_H_
#define FSYNC_STORE_WALK_H_

#include <filesystem>
#include <string>
#include <system_error>

#include "fsync/util/status.h"

namespace fsx::store {

/// What a walk does with a symlink (it never descends into one): fail
/// with kFailedPrecondition, leave it out, or visit it when it points at
/// a regular file.
enum class Symlinks { kRefuse, kSkip, kFollow };

/// Calls `visit(path, rel)` for every regular file under `root`: `path`
/// as the iterator spells it (`root / rel`), `rel` its '/'-separated name
/// relative to `root`, computed lexically. No canonicalisation and no
/// stat per file, and a symlink is named where it sits, not by its
/// target. Stops at the first non-OK status `visit` returns; a failed
/// directory read is kInternal.
template <typename Visit>
Status WalkTree(const std::filesystem::path& root, Symlinks links,
                Visit&& visit) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code type_ec;
    if (links != Symlinks::kFollow && it->is_symlink(type_ec)) {
      if (links == Symlinks::kRefuse) {
        return Status::FailedPrecondition("refusing symlink in tree: " +
                                          it->path().string());
      }
      continue;
    }
    if (it->is_regular_file(type_ec)) {
      FSYNC_RETURN_IF_ERROR(visit(
          it->path(), it->path().lexically_relative(root).generic_string()));
    }
  }
  return ec ? Status::Internal("walk failed: " + ec.message())
            : Status::Ok();
}

}  // namespace fsx::store

#endif  // FSYNC_STORE_WALK_H_
