#include "fsync/delta/vcdiff.h"

#include <algorithm>
#include <array>
#include <vector>

namespace fsx {

namespace {

constexpr uint8_t kMagic[4] = {0xD6, 0xC3, 0xC4, 0x00};

constexpr int kNearSlots = 4;
constexpr int kSameSlots = 3;
constexpr uint32_t kMinMatch = 4;
constexpr uint32_t kMaxChain = 64;
constexpr uint32_t kHashBits = 16;
constexpr uint32_t kHashSize = 1u << kHashBits;

// Opcodes (simplified single-instruction table).
constexpr uint8_t kOpAdd = 1;
constexpr uint8_t kOpRun = 2;
constexpr uint8_t kOpCopyBase = 3;  // 3 + mode, mode in 0..1+kNear+kSame*?

// Address modes.
constexpr int kModeSelf = 0;
constexpr int kModeHere = 1;
// 2..2+kNearSlots-1: near cache; then kSameSlots "same" modes.
constexpr int kNumModes = 2 + kNearSlots + kSameSlots;

// RFC 3284 address cache.
class AddressCache {
 public:
  AddressCache() { Reset(); }

  void Reset() {
    near_.fill(0);
    same_.assign(kSameSlots * 256, 0);
    next_near_ = 0;
  }

  /// Picks the cheapest encoding mode for `addr` at position `here`.
  /// Returns the mode and the value to emit (varint, or single byte for
  /// same-cache modes).
  void Choose(uint64_t addr, uint64_t here, int& mode,
              uint64_t& value) const {
    mode = kModeSelf;
    value = addr;
    auto varint_len = [](uint64_t v) {
      int len = 1;
      while (v >= 0x80) {
        v >>= 7;
        ++len;
      }
      return len;
    };
    int best_cost = varint_len(addr);
    uint64_t here_delta = here - addr;  // addr < here always
    if (varint_len(here_delta) < best_cost) {
      best_cost = varint_len(here_delta);
      mode = kModeHere;
      value = here_delta;
    }
    for (int i = 0; i < kNearSlots; ++i) {
      if (addr >= near_[i]) {
        uint64_t d = addr - near_[i];
        if (varint_len(d) < best_cost) {
          best_cost = varint_len(d);
          mode = 2 + i;
          value = d;
        }
      }
    }
    size_t same_idx = addr % (kSameSlots * 256);
    if (same_[same_idx] == addr && best_cost > 1) {
      mode = 2 + kNearSlots + static_cast<int>(same_idx / 256);
      value = addr % 256;  // single byte
    }
  }

  /// Resolves a decoded (mode, value) pair back to an address.
  StatusOr<uint64_t> Resolve(int mode, uint64_t value, uint64_t here) const {
    if (mode == kModeSelf) {
      return value;
    }
    if (mode == kModeHere) {
      if (value > here) {
        return Status::DataLoss("vcdiff: HERE address underflow");
      }
      return here - value;
    }
    if (mode >= 2 && mode < 2 + kNearSlots) {
      return near_[mode - 2] + value;
    }
    if (mode >= 2 + kNearSlots && mode < kNumModes) {
      size_t slot = static_cast<size_t>(mode - 2 - kNearSlots);
      if (value >= 256) {
        return Status::DataLoss("vcdiff: same-cache byte out of range");
      }
      return same_[slot * 256 + value];
    }
    return Status::DataLoss("vcdiff: bad address mode");
  }

  void Update(uint64_t addr) {
    near_[next_near_] = addr;
    next_near_ = (next_near_ + 1) % kNearSlots;
    same_[addr % (kSameSlots * 256)] = addr;
  }

 private:
  std::array<uint64_t, kNearSlots> near_;
  std::vector<uint64_t> same_;
  int next_near_ = 0;
};

void PutVarint(Bytes& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

StatusOr<uint64_t> GetVarint(ByteSpan data, size_t& pos) {
  uint64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= data.size()) {
      return Status::DataLoss("vcdiff: truncated varint");
    }
    uint8_t b = data[pos++];
    result |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      return result;
    }
    shift += 7;
  }
  return Status::DataLoss("vcdiff: varint too long");
}

inline uint32_t HashAt(const uint8_t* p) {
  uint32_t v = static_cast<uint32_t>(p[0]) |
               (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16) |
               (static_cast<uint32_t>(p[3]) << 24);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

inline uint64_t MatchLength(const uint8_t* a, const uint8_t* b,
                            uint64_t max_len) {
  uint64_t len = 0;
  while (len < max_len && a[len] == b[len]) {
    ++len;
  }
  return len;
}

}  // namespace

StatusOr<Bytes> VcdiffEncode(ByteSpan source, ByteSpan target) {
  // Address space per RFC: [0, source.size()) is the source window,
  // [source.size(), source.size() + out_pos) is the produced target.
  Bytes data_sec;
  Bytes inst_sec;
  Bytes addr_sec;
  AddressCache cache;

  // Hash chains over source, and over target as it is consumed.
  std::vector<int64_t> src_head(kHashSize, -1);
  std::vector<int64_t> src_chain(source.size(), -1);
  if (source.size() >= kMinMatch) {
    for (size_t i = 0; i + kMinMatch <= source.size(); ++i) {
      uint32_t h = HashAt(source.data() + i);
      src_chain[i] = src_head[h];
      src_head[h] = static_cast<int64_t>(i);
    }
  }
  std::vector<int64_t> tgt_head(kHashSize, -1);
  std::vector<int64_t> tgt_chain(target.size(), -1);
  auto tgt_insert = [&](size_t i) {
    if (i + kMinMatch <= target.size()) {
      uint32_t h = HashAt(target.data() + i);
      tgt_chain[i] = tgt_head[h];
      tgt_head[h] = static_cast<int64_t>(i);
    }
  };

  size_t pos = 0;
  size_t lit_start = 0;  // start of the pending ADD run
  auto flush_add = [&](size_t end) {
    if (end > lit_start) {
      inst_sec.push_back(kOpAdd);
      PutVarint(inst_sec, end - lit_start);
      data_sec.insert(data_sec.end(), target.begin() + lit_start,
                      target.begin() + end);
    }
  };

  const uint8_t* tgt = target.data();
  const size_t n = target.size();
  while (pos < n) {
    // RUN detection.
    uint64_t run_len = 1;
    while (pos + run_len < n && tgt[pos + run_len] == tgt[pos]) {
      ++run_len;
    }
    // COPY search.
    uint64_t best_len = kMinMatch - 1;
    uint64_t best_addr = 0;
    bool found = false;
    if (pos + kMinMatch <= n) {
      uint32_t probes = kMaxChain;
      for (int64_t cand = src_head[HashAt(tgt + pos)];
           cand >= 0 && probes-- > 0; cand = src_chain[cand]) {
        uint64_t cap = std::min<uint64_t>(
            n - pos, source.size() - static_cast<size_t>(cand));
        uint64_t len = MatchLength(source.data() + cand, tgt + pos, cap);
        if (len > best_len) {
          best_len = len;
          best_addr = static_cast<uint64_t>(cand);
          found = true;
        }
      }
      probes = kMaxChain;
      for (int64_t cand = tgt_head[HashAt(tgt + pos)];
           cand >= 0 && probes-- > 0; cand = tgt_chain[cand]) {
        uint64_t len = MatchLength(tgt + cand, tgt + pos, n - pos);
        if (len > best_len) {
          best_len = len;
          best_addr = source.size() + static_cast<uint64_t>(cand);
          found = true;
        }
      }
    }

    if (run_len >= kMinMatch && run_len >= best_len) {
      flush_add(pos);
      inst_sec.push_back(kOpRun);
      PutVarint(inst_sec, run_len);
      data_sec.push_back(tgt[pos]);
      for (size_t i = pos; i < pos + run_len; ++i) {
        tgt_insert(i);
      }
      pos += run_len;
      lit_start = pos;
      continue;
    }
    if (found) {
      flush_add(pos);
      uint64_t here = source.size() + pos;
      int mode;
      uint64_t value;
      cache.Choose(best_addr, here, mode, value);
      inst_sec.push_back(static_cast<uint8_t>(kOpCopyBase + mode));
      PutVarint(inst_sec, best_len);
      if (mode >= 2 + kNearSlots) {
        addr_sec.push_back(static_cast<uint8_t>(value));
      } else {
        PutVarint(addr_sec, value);
      }
      cache.Update(best_addr);
      for (size_t i = pos; i < pos + best_len; ++i) {
        tgt_insert(i);
      }
      pos += best_len;
      lit_start = pos;
      continue;
    }
    tgt_insert(pos);
    ++pos;  // extend the pending ADD
  }
  flush_add(n);

  Bytes out(kMagic, kMagic + 4);
  PutVarint(out, source.size());
  PutVarint(out, target.size());
  PutVarint(out, data_sec.size());
  PutVarint(out, inst_sec.size());
  PutVarint(out, addr_sec.size());
  Append(out, data_sec);
  Append(out, inst_sec);
  Append(out, addr_sec);
  return out;
}

StatusOr<Bytes> VcdiffDecode(ByteSpan source, ByteSpan delta) {
  if (delta.size() < 4 || !std::equal(kMagic, kMagic + 4, delta.begin())) {
    return Status::DataLoss("vcdiff: bad magic");
  }
  size_t pos = 4;
  FSYNC_ASSIGN_OR_RETURN(uint64_t src_size, GetVarint(delta, pos));
  FSYNC_ASSIGN_OR_RETURN(uint64_t tgt_size, GetVarint(delta, pos));
  FSYNC_ASSIGN_OR_RETURN(uint64_t data_len, GetVarint(delta, pos));
  FSYNC_ASSIGN_OR_RETURN(uint64_t inst_len, GetVarint(delta, pos));
  FSYNC_ASSIGN_OR_RETURN(uint64_t addr_len, GetVarint(delta, pos));
  if (src_size != source.size()) {
    return Status::InvalidArgument("vcdiff: source size mismatch");
  }
  if (tgt_size > (uint64_t{1} << 32)) {
    return Status::DataLoss("vcdiff: implausible target size");
  }
  if (pos + data_len + inst_len + addr_len != delta.size()) {
    return Status::DataLoss("vcdiff: section lengths inconsistent");
  }
  ByteSpan data_sec = delta.subspan(pos, data_len);
  ByteSpan inst_sec = delta.subspan(pos + data_len, inst_len);
  ByteSpan addr_sec = delta.subspan(pos + data_len + inst_len, addr_len);

  // The output grows as instructions decode: tgt_size is a claim checked
  // against every instruction, never an up-front allocation.
  Bytes out;
  AddressCache cache;
  size_t dp = 0, ip = 0, ap = 0;

  while (ip < inst_sec.size()) {
    uint8_t op = inst_sec[ip++];
    if (op == kOpAdd) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, GetVarint(inst_sec, ip));
      if (dp + len > data_sec.size() || out.size() + len > tgt_size) {
        return Status::DataLoss("vcdiff: ADD overruns");
      }
      Append(out, data_sec.subspan(dp, len));
      dp += len;
    } else if (op == kOpRun) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, GetVarint(inst_sec, ip));
      if (dp >= data_sec.size() || out.size() + len > tgt_size) {
        return Status::DataLoss("vcdiff: RUN overruns");
      }
      out.insert(out.end(), len, data_sec[dp++]);
    } else if (op >= kOpCopyBase && op < kOpCopyBase + kNumModes) {
      int mode = op - kOpCopyBase;
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, GetVarint(inst_sec, ip));
      uint64_t value;
      if (mode >= 2 + kNearSlots) {
        if (ap >= addr_sec.size()) {
          return Status::DataLoss("vcdiff: address section exhausted");
        }
        value = addr_sec[ap++];
      } else {
        FSYNC_ASSIGN_OR_RETURN(value, GetVarint(addr_sec, ap));
      }
      uint64_t here = source.size() + out.size();
      FSYNC_ASSIGN_OR_RETURN(uint64_t addr, cache.Resolve(mode, value, here));
      cache.Update(addr);
      if (out.size() + len > tgt_size) {
        return Status::DataLoss("vcdiff: COPY overruns target");
      }
      if (addr < source.size()) {
        if (addr + len > source.size()) {
          return Status::DataLoss("vcdiff: COPY crosses source boundary");
        }
        Append(out, source.subspan(addr, len));
      } else {
        uint64_t t0 = addr - source.size();
        if (t0 >= out.size()) {
          return Status::DataLoss("vcdiff: COPY from unwritten target");
        }
        for (uint64_t k = 0; k < len; ++k) {
          out.push_back(out[t0 + k]);  // overlap allowed
        }
      }
    } else {
      return Status::DataLoss("vcdiff: bad opcode");
    }
  }
  if (out.size() != tgt_size) {
    return Status::DataLoss("vcdiff: target size mismatch");
  }
  return out;
}

}  // namespace fsx
