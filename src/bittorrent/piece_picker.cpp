#include "bittorrent/piece_picker.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

#ifdef STRAT_PICK_AVX512
#include <immintrin.h>
#endif

namespace strat::bt {

Bitfield::Bitfield(std::size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

bool Bitfield::test(PieceId i) const {
  if (i >= bits_) throw std::out_of_range("Bitfield::test: bad piece");
  return (words_[i >> 6] >> (i & 63)) & 1u;
}

void Bitfield::set(PieceId i) {
  if (i >= bits_) throw std::out_of_range("Bitfield::set: bad piece");
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  if (!(words_[i >> 6] & bit)) {
    words_[i >> 6] |= bit;
    ++count_;
  }
}

void Bitfield::reset(PieceId i) {
  if (i >= bits_) throw std::out_of_range("Bitfield::reset: bad piece");
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  if (words_[i >> 6] & bit) {
    words_[i >> 6] &= ~bit;
    --count_;
  }
}

Bitfield Bitfield::from_words(std::size_t bits, std::vector<std::uint64_t> words) {
  if (words.size() != (bits + 63) / 64) {
    throw std::invalid_argument("Bitfield::from_words: word count mismatch");
  }
  if (bits % 64 != 0 && !words.empty() &&
      (words.back() & ~((std::uint64_t{1} << (bits % 64)) - 1)) != 0) {
    throw std::invalid_argument("Bitfield::from_words: bits set beyond size");
  }
  Bitfield out;
  out.bits_ = bits;
  out.words_ = std::move(words);
  out.count_ = 0;
  for (const std::uint64_t w : out.words_) {
    out.count_ += static_cast<std::size_t>(std::popcount(w));
  }
  return out;
}

Bitfield Bitfield::bernoulli(std::size_t bits, double p, graph::Rng& rng) {
  // uniform() is (draw >> 11) * 2^-53, so uniform() < p iff
  // (draw >> 11) < p * 2^53: both sides are scaled by a power of two,
  // which is exact, and the comparison becomes branch-free.
  const double threshold = p * 0x1.0p53;
  std::vector<std::uint64_t> words((bits + 63) / 64, 0);
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t width = std::min<std::size_t>(64, bits - w * 64);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < width; ++i) {
      const bool hit = static_cast<double>(rng() >> 11) < threshold;
      word |= static_cast<std::uint64_t>(hit) << i;
    }
    words[w] = word;
  }
  return from_words(bits, std::move(words));
}

bool Bitfield::interested_in(const Bitfield& other) const {
  if (other.bits_ != bits_) throw std::invalid_argument("Bitfield::interested_in: size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (other.words_[w] & ~words_[w]) return true;
  }
  return false;
}

PiecePicker::PiecePicker(std::size_t num_pieces) : availability_(num_pieces, 0) {}

void PiecePicker::add_availability(PieceId piece) { ++availability_.at(piece); }

void PiecePicker::remove_availability(PieceId piece) {
  std::uint32_t& copies = availability_.at(piece);
  if (copies == 0) throw std::logic_error("PiecePicker::remove_availability: already zero");
  --copies;
}

void PiecePicker::add_bitfield(const Bitfield& have) {
  if (have.size() != availability_.size()) {
    throw std::invalid_argument("PiecePicker::add_bitfield: size mismatch");
  }
  const std::span<const std::uint64_t> words = have.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t mask = words[w];
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      ++availability_[piece];
    }
  }
}

namespace {

/// kByteSpread[b] holds bit i of b in byte lane i: adding it to a u64
/// bumps the 8 per-piece byte counters of one bitfield byte at once.
constexpr std::array<std::uint64_t, 256> kByteSpread = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    for (std::size_t i = 0; i < 8; ++i) table[b] |= std::uint64_t{(b >> i) & 1u} << (8 * i);
  }
  return table;
}();

}  // namespace

void PiecePicker::add_bitfields(std::span<const Bitfield> haves) {
  const std::size_t pieces = availability_.size();
  for (const Bitfield& have : haves) {
    if (have.size() != pieces) {
      throw std::invalid_argument("PiecePicker::add_bitfields: size mismatch");
    }
  }
  // lanes[k] byte i counts piece 8k + i; a byte saturates after 255 rows.
  std::vector<std::uint64_t> lanes((pieces + 63) / 64 * 8, 0);
  const auto flush = [&] {
    for (std::size_t k = 0; k * 8 < pieces; ++k) {
      const std::size_t width = std::min<std::size_t>(8, pieces - k * 8);
      for (std::size_t i = 0; i < width; ++i) {
        availability_[k * 8 + i] += static_cast<std::uint32_t>((lanes[k] >> (8 * i)) & 0xFF);
      }
      lanes[k] = 0;
    }
  };
  std::size_t pending = 0;
  for (const Bitfield& have : haves) {
    const std::span<const std::uint64_t> words = have.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::size_t j = 0; j < 8; ++j) {
        lanes[w * 8 + j] += kByteSpread[(words[w] >> (8 * j)) & 0xFF];
      }
    }
    if (++pending == 255) {
      flush();
      pending = 0;
    }
  }
  flush();
}

void PiecePicker::remove_bitfield(const Bitfield& have) {
  if (have.size() != availability_.size()) {
    throw std::invalid_argument("PiecePicker::remove_bitfield: size mismatch");
  }
  const std::span<const std::uint64_t> words = have.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t mask = words[w];
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      remove_availability(piece);
    }
  }
}

std::uint32_t PiecePicker::availability(PieceId piece) const { return availability_.at(piece); }

namespace {

/// Rarest-first over the candidate words (remote \ local, minus an
/// optional exclusion mask) — the swarm simulator's hottest loop. Both
/// kernels find the minimum availability and its tie count without the
/// RNG, make one rng.below(ties) draw (none for a single tie) and walk
/// in piece order to the k-th tie: exactly uniform over the ties, and
/// the same pick and RNG draws on every machine.
template <typename WordFn>
std::optional<PieceId> pick_scalar(const std::uint32_t* availability, std::size_t words,
                                   WordFn&& candidate_word, graph::Rng& rng) {
  std::uint32_t best_avail = 0;
  std::uint64_t ties = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t mask = candidate_word(w);
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      const std::uint32_t avail = availability[piece];
      if (ties == 0 || avail < best_avail) {
        best_avail = avail;
        ties = 1;
      } else if (avail == best_avail) {
        ++ties;
      }
    }
  }
  if (ties == 0) return std::nullopt;
  std::uint64_t k = ties == 1 ? 0 : rng.below(ties);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t mask = candidate_word(w);
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      if (availability[piece] == best_avail) {
        if (k == 0) return piece;
        --k;
      }
    }
  }
  return std::nullopt;  // unreachable: pass 2 revisits pass 1's candidates
}

#ifdef STRAT_PICK_AVX512

// GCC's own avx512fintrin.h trips -W(maybe-)uninitialized when the
// masked loads and the reductions (_mm256_undefined_si256) inline.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/// Each 16-piece group of a word is one masked load, flat in candidate
/// density; a word with no candidate is skipped whole (one branch per
/// word, none per group), so sparse picks touch only the words they
/// need. The sweep keeps a per-lane running minimum and tie count
/// (masked compare, move and add). Starting from UINT32_MAX with count
/// 0, a candidate at UINT32_MAX still counts and an empty lane adds 0.
/// The walk skips whole words by their tie count.
/// Lanes past num_pieces are never candidates (Bitfield keeps them
/// zero), so the masked loads never touch them.
template <typename WordFn>
__attribute__((target("avx512f"))) std::optional<PieceId> pick_avx512(
    const std::uint32_t* availability, std::size_t words, WordFn&& candidate_word,
    graph::Rng& rng) {
  const __m512i one = _mm512_set1_epi32(1);
  __m512i lane_min = _mm512_set1_epi32(-1);
  __m512i lane_ties = _mm512_setzero_si512();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t mask = candidate_word(w);
    if (mask == 0) continue;
    for (int j = 0; j < 4; ++j) {
      const auto m = static_cast<__mmask16>(mask >> (16 * j));
      const __m512i v = _mm512_maskz_loadu_epi32(m, availability + w * 64 + 16 * j);
      const __mmask16 lt = _mm512_mask_cmplt_epu32_mask(m, v, lane_min);
      const __mmask16 eq = _mm512_mask_cmpeq_epu32_mask(m, v, lane_min);
      lane_min = _mm512_mask_mov_epi32(lane_min, lt, v);
      lane_ties = _mm512_mask_mov_epi32(lane_ties, lt, one);
      lane_ties = _mm512_mask_add_epi32(lane_ties, eq, lane_ties, one);
    }
  }
  const std::uint32_t best = _mm512_reduce_min_epu32(lane_min);
  const __m512i vbest = _mm512_set1_epi32(static_cast<int>(best));
  const auto ties = static_cast<std::uint32_t>(
      _mm512_mask_reduce_add_epi32(_mm512_cmpeq_epu32_mask(lane_min, vbest), lane_ties));
  if (ties == 0) return std::nullopt;
  std::uint64_t k = ties == 1 ? 0 : rng.below(ties);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t mask = candidate_word(w);
    if (mask == 0) continue;
    std::uint64_t hits = 0;
    for (int j = 0; j < 4; ++j) {
      const auto m = static_cast<__mmask16>(mask >> (16 * j));
      const __m512i v = _mm512_maskz_loadu_epi32(m, availability + w * 64 + 16 * j);
      hits |= std::uint64_t{_mm512_mask_cmpeq_epu32_mask(m, v, vbest)} << (16 * j);
    }
    const auto count = static_cast<std::uint64_t>(std::popcount(hits));
    if (k < count) {
      for (; k != 0; --k) hits &= hits - 1;
      return static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(hits)));
    }
    k -= count;
  }
  return std::nullopt;  // unreachable: the walk revisits the sweep's candidates
}

#pragma GCC diagnostic pop
#endif  // STRAT_PICK_AVX512

template <typename WordFn>
std::optional<PieceId> pick_words(const std::uint32_t* availability, std::size_t words,
                                  WordFn&& candidate_word, graph::Rng& rng) {
#ifdef STRAT_PICK_AVX512
  static const bool avx512 = __builtin_cpu_supports("avx512f");
  if (avx512) return pick_avx512(availability, words, candidate_word, rng);
#endif
  return pick_scalar(availability, words, candidate_word, rng);
}

}  // namespace

std::optional<PieceId> detail::pick_rarest_scalar(std::span<const std::uint32_t> availability,
                                                  std::span<const std::uint64_t> candidates,
                                                  graph::Rng& rng) {
  return pick_scalar(
      availability.data(), candidates.size(), [&](std::size_t w) { return candidates[w]; }, rng);
}

#ifdef STRAT_PICK_AVX512
std::optional<PieceId> detail::pick_rarest_avx512(std::span<const std::uint32_t> availability,
                                                  std::span<const std::uint64_t> candidates,
                                                  graph::Rng& rng) {
  return pick_avx512(
      availability.data(), candidates.size(), [&](std::size_t w) { return candidates[w]; }, rng);
}
#endif

std::optional<PieceId> PiecePicker::pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                graph::Rng& rng) const {
  if (local.size() != remote.size() || local.size() != availability_.size()) {
    throw std::invalid_argument("PiecePicker::pick_rarest: size mismatch");
  }
  const std::span<const std::uint64_t> lw = local.words();
  const std::span<const std::uint64_t> rw = remote.words();
  return pick_words(
      availability_.data(), rw.size(), [&](std::size_t w) { return rw[w] & ~lw[w]; }, rng);
}

std::optional<PieceId> PiecePicker::pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                const Bitfield& excluded, graph::Rng& rng) const {
  if (local.size() != remote.size() || local.size() != availability_.size() ||
      excluded.size() != local.size()) {
    throw std::invalid_argument("PiecePicker::pick_rarest: size mismatch");
  }
  const std::span<const std::uint64_t> lw = local.words();
  const std::span<const std::uint64_t> rw = remote.words();
  const std::span<const std::uint64_t> ew = excluded.words();
  return pick_words(
      availability_.data(), rw.size(), [&](std::size_t w) { return rw[w] & ~lw[w] & ~ew[w]; }, rng);
}

}  // namespace strat::bt
