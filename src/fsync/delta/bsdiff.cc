#include "fsync/delta/bsdiff.h"

#include <algorithm>

#include "fsync/compress/codec.h"
#include "fsync/compress/range_coder.h"
#include "fsync/delta/suffix_array.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t UnZigZag(uint64_t z) {
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

// Each section picks the better entropy backend: the LZ+Huffman codec
// (repetition-heavy extra section) or the adaptive range coder (the
// near-zero diff section, where adaptivity beats static tables).
void PutSection(BitWriter& out, const Bytes& section) {
  Bytes lz = Compress(section);
  Bytes rc = RangeCompress(section);
  bool use_rc = rc.size() < lz.size();
  const Bytes& packed = use_rc ? rc : lz;
  out.WriteBit(use_rc);
  out.WriteVarint(packed.size());
  out.WriteBytes(packed);
}

StatusOr<Bytes> GetSection(BitReader& in) {
  FSYNC_ASSIGN_OR_RETURN(bool use_rc, in.ReadBit());
  FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes packed, in.ReadBytes(len));
  return use_rc ? RangeDecompress(packed) : Decompress(packed);
}

void PutVarintBytes(Bytes& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

StatusOr<uint64_t> GetVarintBytes(ByteSpan data, size_t& pos) {
  uint64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= data.size()) {
      return Status::DataLoss("bsdiff: truncated varint");
    }
    uint8_t b = data[pos++];
    result |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      return result;
    }
    shift += 7;
  }
  return Status::DataLoss("bsdiff: varint too long");
}

}  // namespace

StatusOr<Bytes> BsdiffEncode(ByteSpan source, ByteSpan target) {
  const int64_t oldsize = static_cast<int64_t>(source.size());
  const int64_t newsize = static_cast<int64_t>(target.size());
  SuffixArray sa(source);

  Bytes ctrl;
  Bytes diff;
  Bytes extra;

  // Percival's scan: find exact anchors via the suffix array, then grow
  // approximate regions around them so scattered single-byte changes
  // land in the (highly compressible) diff section.
  int64_t scan = 0;
  int64_t len = 0;
  int64_t pos = 0;
  int64_t lastscan = 0;
  int64_t lastpos = 0;
  int64_t lastoffset = 0;
  while (scan < newsize) {
    int64_t oldscore = 0;
    for (int64_t scsc = (scan += len); scan < newsize; ++scan) {
      size_t match_pos = 0;
      len = static_cast<int64_t>(
          sa.LongestMatch(target.subspan(scan), match_pos));
      pos = static_cast<int64_t>(match_pos);
      for (; scsc < scan + len; ++scsc) {
        if (scsc + lastoffset < oldsize && scsc + lastoffset >= 0 &&
            source[scsc + lastoffset] == target[scsc]) {
          ++oldscore;
        }
      }
      if ((len == oldscore && len != 0) || len > oldscore + 8) {
        break;
      }
      if (scan + lastoffset < oldsize && scan + lastoffset >= 0 &&
          source[scan + lastoffset] == target[scan]) {
        --oldscore;
      }
    }

    if (len != oldscore || scan == newsize) {
      // Forward extension of the previous anchor.
      int64_t s = 0;
      int64_t sf = 0;
      int64_t lenf = 0;
      for (int64_t i = 0; lastscan + i < scan && lastpos + i < oldsize;) {
        if (source[lastpos + i] == target[lastscan + i]) {
          ++s;
        }
        ++i;
        if (s * 2 - i > sf * 2 - lenf) {
          sf = s;
          lenf = i;
        }
      }
      // Backward extension of the new anchor.
      int64_t lenb = 0;
      if (scan < newsize) {
        s = 0;
        int64_t sb = 0;
        for (int64_t i = 1; scan >= lastscan + i && pos >= i; ++i) {
          if (source[pos - i] == target[scan - i]) {
            ++s;
          }
          if (s * 2 - i > sb * 2 - lenb) {
            sb = s;
            lenb = i;
          }
        }
      }
      // Overlap resolution.
      if (lastscan + lenf > scan - lenb) {
        int64_t overlap = (lastscan + lenf) - (scan - lenb);
        s = 0;
        int64_t ss = 0;
        int64_t lens = 0;
        for (int64_t i = 0; i < overlap; ++i) {
          if (target[lastscan + lenf - overlap + i] ==
              source[lastpos + lenf - overlap + i]) {
            ++s;
          }
          if (target[scan - lenb + i] == source[pos - lenb + i]) {
            --s;
          }
          if (s > ss) {
            ss = s;
            lens = i + 1;
          }
        }
        lenf += lens - overlap;
        lenb -= lens;
      }

      int64_t diff_len = lenf;
      int64_t extra_len = (scan - lenb) - (lastscan + lenf);
      int64_t seek = (pos - lenb) - (lastpos + lenf);

      PutVarintBytes(ctrl, static_cast<uint64_t>(diff_len));
      PutVarintBytes(ctrl, static_cast<uint64_t>(extra_len));
      PutVarintBytes(ctrl, ZigZag(seek));
      for (int64_t i = 0; i < diff_len; ++i) {
        diff.push_back(static_cast<uint8_t>(target[lastscan + i] -
                                            source[lastpos + i]));
      }
      for (int64_t i = 0; i < extra_len; ++i) {
        extra.push_back(target[lastscan + lenf + i]);
      }

      lastscan = scan - lenb;
      lastpos = pos - lenb;
      lastoffset = pos - scan;
    }
  }

  BitWriter out;
  out.WriteVarint(target.size());
  out.WriteVarint(source.size());
  PutSection(out, ctrl);
  PutSection(out, diff);
  PutSection(out, extra);
  return out.Finish();
}

StatusOr<Bytes> BsdiffDecode(ByteSpan source, ByteSpan delta) {
  BitReader in(delta);
  FSYNC_ASSIGN_OR_RETURN(uint64_t target_size, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(uint64_t source_size, in.ReadVarint());
  if (source_size != source.size()) {
    return Status::InvalidArgument("bsdiff: source size mismatch");
  }
  if (target_size > (uint64_t{1} << 32)) {
    return Status::DataLoss("bsdiff: implausible target size");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes ctrl, GetSection(in));
  FSYNC_ASSIGN_OR_RETURN(Bytes diff, GetSection(in));
  FSYNC_ASSIGN_OR_RETURN(Bytes extra, GetSection(in));
  // Every output byte comes from the diff or the extra section, so a
  // larger declared target is a lie; checking first bounds the reserve
  // by the input.
  if (target_size > diff.size() + extra.size()) {
    return Status::DataLoss("bsdiff: target exceeds diff + extra sections");
  }

  Bytes out;
  out.reserve(target_size);
  size_t cpos = 0;
  size_t dpos = 0;
  size_t epos = 0;
  int64_t oldpos = 0;
  while (out.size() < target_size) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t diff_len, GetVarintBytes(ctrl, cpos));
    FSYNC_ASSIGN_OR_RETURN(uint64_t extra_len, GetVarintBytes(ctrl, cpos));
    FSYNC_ASSIGN_OR_RETURN(uint64_t zz, GetVarintBytes(ctrl, cpos));
    int64_t seek = UnZigZag(zz);

    if (out.size() + diff_len + extra_len > target_size ||
        dpos + diff_len > diff.size() || epos + extra_len > extra.size()) {
      return Status::DataLoss("bsdiff: section overrun");
    }
    if (oldpos < 0 ||
        oldpos + static_cast<int64_t>(diff_len) >
            static_cast<int64_t>(source.size())) {
      return Status::DataLoss("bsdiff: source position out of range");
    }
    for (uint64_t i = 0; i < diff_len; ++i) {
      out.push_back(static_cast<uint8_t>(diff[dpos + i] +
                                         source[oldpos + i]));
    }
    dpos += diff_len;
    oldpos += static_cast<int64_t>(diff_len);
    Append(out, ByteSpan(extra).subspan(epos, extra_len));
    epos += extra_len;
    oldpos += seek;
  }
  if (out.size() != target_size) {
    return Status::DataLoss("bsdiff: size mismatch");
  }
  return out;
}

}  // namespace fsx
