// A store::Vfs decorator that counts the disk operations the durable
// apply path makes and forwards each to the Vfs it wraps. Installed with
// store::ScopedVfs for traced tree-mirror runs. Bulk content reads go
// through mmap (util/mapped_file.h) and bypass the seam, so reads are
// not counted.
#ifndef PERFBENCH_COUNTING_VFS_H_
#define PERFBENCH_COUNTING_VFS_H_

#include <atomic>
#include <cstdint>

#include "fsync/store/vfs.h"

namespace perfbench {

struct VfsCounts {
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> fsyncs{0};  // file fsyncs and path (dir) fsyncs
  std::atomic<uint64_t> renames{0};
  std::atomic<uint64_t> unlinks{0};
};

class CountingVfs : public fsx::store::Vfs {
 public:
  explicit CountingVfs(fsx::store::Vfs& base) : base_(base) {}
  CountingVfs(const CountingVfs&) = delete;
  CountingVfs& operator=(const CountingVfs&) = delete;

  fsx::StatusOr<std::unique_ptr<fsx::store::VfsFile>> Open(
      const std::filesystem::path& path, fsx::store::OpenMode mode) override;
  fsx::Status Rename(const std::filesystem::path& from,
                     const std::filesystem::path& to) override;
  fsx::StatusOr<bool> Unlink(const std::filesystem::path& path) override;
  fsx::Status Mkdir(const std::filesystem::path& path) override;
  fsx::Status FsyncPath(const std::filesystem::path& path) override;

  const VfsCounts& counts() const { return counts_; }

 private:
  fsx::store::Vfs& base_;
  VfsCounts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_VFS_H_
