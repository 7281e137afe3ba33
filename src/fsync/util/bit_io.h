// Bit-granular serialization. The synchronization protocol transmits hash
// fields of arbitrary bit widths (2..32 bits); BitWriter/BitReader pack them
// densely so the measured wire cost matches the analytical cost.
#ifndef FSYNC_UTIL_BIT_IO_H_
#define FSYNC_UTIL_BIT_IO_H_

#include <cstdint>

#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Packs little-endian-bit-order fields into a byte buffer.
///
/// Bits are appended LSB-first within each byte. A field written with
/// WriteBits(v, n) stores the n low-order bits of v.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the `num_bits` low-order bits of `value`. `num_bits` must be in
  /// [0, 64].
  void WriteBits(uint64_t value, int num_bits);

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends an unsigned LEB128-style variable-length integer (7 bits per
  /// group, high bit = continuation). Byte-aligned groups are NOT forced;
  /// groups are bit-packed like any other field.
  void WriteVarint(uint64_t value);

  /// Appends raw bytes, bit-packed at the current position.
  void WriteBytes(ByteSpan bytes);

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Total number of bits written so far.
  size_t bit_count() const { return bit_count_; }

  /// Finishes the stream (pads to a byte boundary) and returns the buffer.
  Bytes Finish();

 private:
  Bytes buf_;
  uint64_t acc_ = 0;  // pending bits, LSB-first
  int acc_bits_ = 0;
  size_t bit_count_ = 0;
};

/// Reads fields written by BitWriter, with range checking.
class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}

  /// Reads `num_bits` bits into the low-order bits of the result.
  StatusOr<uint64_t> ReadBits(int num_bits);

  /// Reads a single bit.
  StatusOr<bool> ReadBit();

  /// Reads a varint written by BitWriter::WriteVarint.
  StatusOr<uint64_t> ReadVarint();

  /// Reads `n` raw bytes.
  StatusOr<Bytes> ReadBytes(size_t n);

  /// Returns a view of the next `n` bytes without copying them. The
  /// stream must sit on a byte boundary (it fails otherwise), as it does
  /// throughout a message built only from varints and whole bytes.
  StatusOr<ByteSpan> ReadByteSpan(size_t n);

  /// Skips to the next byte boundary.
  void AlignToByte();

  /// Number of bits consumed so far.
  size_t bits_consumed() const { return bit_pos_; }

  /// Number of bits remaining.
  size_t bits_remaining() const { return data_.size() * 8 - bit_pos_; }

 private:
  ByteSpan data_;
  size_t bit_pos_ = 0;
};

}  // namespace fsx

#endif  // FSYNC_UTIL_BIT_IO_H_
