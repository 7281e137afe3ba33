#include "counting_vfs.h"

#include <utility>

namespace perfbench {
namespace {

class CountingFile : public fsx::store::VfsFile {
 public:
  CountingFile(std::unique_ptr<fsx::store::VfsFile> base, VfsCounts& counts)
      : VfsFile(base->path()), base_(std::move(base)), counts_(counts) {}

  fsx::StatusOr<size_t> Read(void* buf, size_t n) override {
    return base_->Read(buf, n);
  }
  fsx::StatusOr<size_t> Pread(uint64_t offset, void* buf,
                              size_t n) override {
    return base_->Pread(offset, buf, n);
  }
  fsx::StatusOr<size_t> Write(const void* buf, size_t n) override {
    return Written(base_->Write(buf, n));
  }
  fsx::StatusOr<size_t> Pwrite(uint64_t offset, const void* buf,
                               size_t n) override {
    return Written(base_->Pwrite(offset, buf, n));
  }
  fsx::Status Fsync() override {
    ++counts_.fsyncs;
    return base_->Fsync();
  }
  fsx::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }
  fsx::Status Close() override { return base_->Close(); }

 private:
  fsx::StatusOr<size_t> Written(fsx::StatusOr<size_t> n) {
    if (n.ok()) {
      counts_.bytes_written += *n;
    }
    return n;
  }

  std::unique_ptr<fsx::store::VfsFile> base_;
  VfsCounts& counts_;
};

}  // namespace

fsx::StatusOr<std::unique_ptr<fsx::store::VfsFile>> CountingVfs::Open(
    const std::filesystem::path& path, fsx::store::OpenMode mode) {
  ++counts_.opens;
  auto file = base_.Open(path, mode);
  if (!file.ok()) {
    return file.status();
  }
  return std::unique_ptr<fsx::store::VfsFile>(
      std::make_unique<CountingFile>(std::move(*file), counts_));
}

fsx::Status CountingVfs::Rename(const std::filesystem::path& from,
                                const std::filesystem::path& to) {
  ++counts_.renames;
  return base_.Rename(from, to);
}

fsx::StatusOr<bool> CountingVfs::Unlink(const std::filesystem::path& path) {
  ++counts_.unlinks;
  return base_.Unlink(path);
}

fsx::Status CountingVfs::Mkdir(const std::filesystem::path& path) {
  return base_.Mkdir(path);
}

fsx::Status CountingVfs::FsyncPath(const std::filesystem::path& path) {
  ++counts_.fsyncs;
  return base_.FsyncPath(path);
}

}  // namespace perfbench
