// Declared sizes in encoded streams are claims, not budgets: a decoder
// may allocate up front only what the input it holds can back, and must
// grow its output as bytes actually decode. Each case runs in a forked
// child (the testing/crash.h runner) that caps its own address space at
// 1 GiB, so a decoder that reserve()s a declared 4 GiB dies there with
// std::bad_alloc instead of passing on an overcommitting host. Labeled
// `hostile`.
#include <gtest/gtest.h>

#include <functional>
#include <new>

#include "fsync/compress/codec.h"
#include "fsync/delta/bsdiff.h"
#include "fsync/delta/vcdiff.h"
#include "fsync/delta/zd.h"
#include "fsync/testing/crash.h"
#include "fsync/util/bit_io.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define FSYNC_HAS_RLIMIT 1
#endif

namespace fsx {
namespace {

// Sanitizer runtimes reserve terabytes of shadow address space, so an
// address-space cap cannot be set under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr uint64_t kAddressCap = uint64_t{1} << 30;

constexpr int kBadAllocExit = 3;

// Runs `decode` in a forked child whose address space is capped at
// kAddressCap. Succeeds when the child ran to completion and `decode`
// held; otherwise says how the child ended: exit code 1 when a check
// failed, kBadAllocExit when an allocation failed under the cap. (The
// child leaves at once on std::bad_alloc: left to unwind, the exception
// would reach the test framework, which would go on running tests in
// the child.)
::testing::AssertionResult RunCapped(const std::function<bool()>& decode) {
#ifdef FSYNC_HAS_RLIMIT
  testing::CrashRunResult r = testing::RunWithCrashAt(-1, [&] {
    struct rlimit cap;
    cap.rlim_cur = kAddressCap;
    cap.rlim_max = kAddressCap;
    try {
      return ::setrlimit(RLIMIT_AS, &cap) == 0 && decode();
    } catch (const std::bad_alloc&) {
      ::_exit(kBadAllocExit);
    }
  });
  if (r.outcome == testing::CrashRunResult::Outcome::kCompleted) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "capped child: " << r.error;
#else
  (void)decode;
  return ::testing::AssertionFailure() << "no setrlimit";
#endif
}

// Replaces the varint that starts `offset` bytes into `stream` with
// `declared`. Every decoder here reads its header as byte-aligned
// varints, so the rest of the stream is untouched.
Bytes WithDeclaredSize(const Bytes& stream, uint64_t declared,
                       size_t offset = 0) {
  BitReader in(ByteSpan(stream).subspan(offset));
  StatusOr<uint64_t> old = in.ReadVarint();
  EXPECT_TRUE(old.ok());
  BitWriter out;
  out.WriteBytes(ByteSpan(stream).first(offset));
  out.WriteVarint(declared);
  out.WriteBytes(ByteSpan(stream).subspan(offset + in.bits_consumed() / 8));
  return out.Finish();
}

// A reference file and an edited target: the valid stream every delta
// case inflates.
struct EditedPair {
  Bytes reference;
  Bytes target;
};

EditedPair MakeEditedPair(uint64_t seed) {
  Rng rng(seed);
  EditedPair p;
  p.reference = SynthSourceFile(rng, 48 * 1024);
  EditProfile edits;
  edits.num_edits = 12;
  p.target = ApplyEdits(p.reference, edits, rng);
  return p;
}

bool IsDataLoss(const Status& status) {
  return status.code() == StatusCode::kDataLoss;
}

class DecodeBounds : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kSanitized) {
      GTEST_SKIP() << "address-space caps do not work under sanitizers";
    }
#ifndef FSYNC_HAS_RLIMIT
    GTEST_SKIP() << "needs fork() and setrlimit()";
#endif
  }
};

TEST_F(DecodeBounds, DecompressNineByteBombIsTypedDataLoss) {
  // A 5-byte varint declaring 2^32 - 1 raw bytes, the "compressed" flag,
  // and three bytes of block: nothing that could back 4 GiB.
  const Bytes bomb = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00, 0x00, 0x00, 0x00};
  Rng rng(5);
  const Bytes text = SynthSourceFile(rng, 64 * 1024);
  EXPECT_TRUE(RunCapped([&] {
    StatusOr<Bytes> back = Decompress(Compress(text));  // the cap allows it
    StatusOr<Bytes> r = Decompress(bomb);
    return back.ok() && *back == text && !r.ok() && IsDataLoss(r.status());
  }));
}

TEST_F(DecodeBounds, DecompressInflatedDeclaredSizeIsTypedDataLoss) {
  // A valid compressed stream whose header claims 4 GiB: the blocks
  // decode in full, then the size check rejects it.
  Rng rng(7);
  const Bytes packed = Compress(SynthSourceFile(rng, 32 * 1024));
  const Bytes bomb = WithDeclaredSize(packed, (uint64_t{1} << 32) - 1);
  EXPECT_TRUE(RunCapped([&] {
    StatusOr<Bytes> r = Decompress(bomb);
    return !r.ok() && IsDataLoss(r.status());
  }));
}

TEST_F(DecodeBounds, ZdDecodeInflatedTargetSizeIsTypedDataLoss) {
  // A valid zd delta whose header claims a 4 GiB target.
  const EditedPair p = MakeEditedPair(11);
  StatusOr<Bytes> delta = ZdEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  const Bytes bomb = WithDeclaredSize(*delta, uint64_t{1} << 32);
  EXPECT_TRUE(RunCapped([&] {
    StatusOr<Bytes> back = ZdDecode(p.reference, *delta);
    StatusOr<Bytes> r = ZdDecode(p.reference, bomb);
    return back.ok() && *back == p.target && !r.ok() &&
           IsDataLoss(r.status());
  }));
}

TEST_F(DecodeBounds, BsdiffDecodeInflatedTargetSizeIsTypedDataLoss) {
  // A valid bsdiff delta whose header claims a 4 GiB target: more than
  // its diff and extra sections could ever produce.
  const EditedPair p = MakeEditedPair(13);
  StatusOr<Bytes> delta = BsdiffEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  const Bytes bomb = WithDeclaredSize(*delta, uint64_t{1} << 32);
  EXPECT_TRUE(RunCapped([&] {
    StatusOr<Bytes> back = BsdiffDecode(p.reference, *delta);
    StatusOr<Bytes> r = BsdiffDecode(p.reference, bomb);
    return back.ok() && *back == p.target && !r.ok() &&
           IsDataLoss(r.status());
  }));
}

TEST_F(DecodeBounds, VcdiffDecodeInflatedTargetSizeIsTypedDataLoss) {
  // A valid vcdiff delta whose header (4-byte magic, source size, then
  // target size) claims a 4 GiB target.
  const EditedPair p = MakeEditedPair(17);
  StatusOr<Bytes> delta = VcdiffEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  BitReader header(ByteSpan(*delta).subspan(4));
  ASSERT_TRUE(header.ReadVarint().ok());  // the source size
  const Bytes bomb = WithDeclaredSize(*delta, uint64_t{1} << 32,
                                      4 + header.bits_consumed() / 8);
  EXPECT_TRUE(RunCapped([&] {
    StatusOr<Bytes> back = VcdiffDecode(p.reference, *delta);
    StatusOr<Bytes> r = VcdiffDecode(p.reference, bomb);
    return back.ok() && *back == p.target && !r.ok() &&
           IsDataLoss(r.status());
  }));
}

}  // namespace
}  // namespace fsx
