// Piece bookkeeping and rarest-first selection.
//
// BitTorrent's "download rarest first" policy equalizes block
// repartition across the swarm, which is exactly the paper's §6
// assumption that content availability does not constrain the
// acceptance graph in the post-flash-crowd phase. The swarm simulator
// uses this module for per-peer piece bitfields and piece selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STRAT_PICK_AVX512 1
#endif

namespace strat::bt {

using PieceId = std::uint32_t;

/// Compact piece bitfield.
class Bitfield {
 public:
  Bitfield() = default;
  explicit Bitfield(std::size_t bits);

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] bool test(PieceId i) const;
  void set(PieceId i);
  void reset(PieceId i);
  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// True when every piece is held.
  [[nodiscard]] bool complete() const noexcept { return count_ == bits_; }
  /// True if `other` holds at least one piece this bitfield lacks
  /// (the BitTorrent "interested" predicate).
  [[nodiscard]] bool interested_in(const Bitfield& other) const;

  /// Raw 64-bit words (bit i of word w = piece w*64+i); bits beyond
  /// size() are always zero. Lets pick_rarest skip non-candidate
  /// pieces a word at a time.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Rebuilds a bitfield from raw words (the checkpoint path). The
  /// word count must match `bits` and bits beyond `bits` must be zero
  /// — a corrupt tail would silently break interested_in()/count()
  /// invariants — else std::invalid_argument. The set-bit count is
  /// recomputed, never trusted from the caller.
  [[nodiscard]] static Bitfield from_words(std::size_t bits, std::vector<std::uint64_t> words);

  /// Independent Bernoulli(p) bitfield: exactly one rng() per piece in
  /// ascending order, piece i set iff that draw's uniform() < p — the
  /// same bits and final generator state as a per-piece
  /// rng.bernoulli(p) + set() loop, filled a word at a time.
  [[nodiscard]] static Bitfield bernoulli(std::size_t bits, double p, graph::Rng& rng);

 private:
  std::size_t bits_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Tracks global piece availability and picks rarest-first.
class PiecePicker {
 public:
  explicit PiecePicker(std::size_t num_pieces);

  /// Registers that one more peer holds `piece`.
  void add_availability(PieceId piece);

  /// Registers that a holder of `piece` left the swarm. Throws
  /// std::logic_error if the availability is already zero.
  void remove_availability(PieceId piece);

  /// Registers every piece of a joining peer's (partial) bitfield.
  /// Throws std::invalid_argument on a size mismatch.
  void add_bitfield(const Bitfield& have);

  /// add_bitfield() over many rows at once (the resume cross-check):
  /// counts a byte of each row at a time into 8 byte-lane counters,
  /// flushed into the counts every 255 rows. Every size is checked
  /// before anything is counted, so a mismatch throws
  /// std::invalid_argument with the counts unchanged.
  void add_bitfields(std::span<const Bitfield> haves);

  /// Drops every piece of a departing peer's bitfield. Throws
  /// std::logic_error if any counter is already zero.
  void remove_bitfield(const Bitfield& have);

  /// Number of holders of `piece`.
  [[nodiscard]] std::uint32_t availability(PieceId piece) const;

  /// Chooses the rarest piece that `remote` has and `local` lacks; ties
  /// broken uniformly at random. nullopt when the remote has nothing
  /// useful. O(num_pieces).
  [[nodiscard]] std::optional<PieceId> pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                   graph::Rng& rng) const;

  /// pick_rarest restricted to pieces outside `excluded` — the
  /// non-endgame request discipline (don't target a piece another
  /// neighbor is already delivering). Same tie-breaking RNG consumption
  /// for a given candidate set as the unrestricted overload.
  [[nodiscard]] std::optional<PieceId> pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                   const Bitfield& excluded,
                                                   graph::Rng& rng) const;

 private:
  std::vector<std::uint32_t> availability_;
};

namespace detail {

/// The kernels behind PiecePicker::pick_rarest, over raw availability
/// counts and caller-built candidate words (bit i of word w = piece
/// w*64+i; ceil(n/64) words, none set at or past n). pick_rarest runs
/// the AVX-512 one where the CPU has AVX-512F, else the scalar one;
/// both give the same pick and RNG draws. Exposed so tests pin each.
[[nodiscard]] std::optional<PieceId> pick_rarest_scalar(
    std::span<const std::uint32_t> availability, std::span<const std::uint64_t> candidates,
    graph::Rng& rng);
#ifdef STRAT_PICK_AVX512
[[nodiscard]] std::optional<PieceId> pick_rarest_avx512(
    std::span<const std::uint32_t> availability, std::span<const std::uint64_t> candidates,
    graph::Rng& rng);
#endif

}  // namespace detail

}  // namespace strat::bt
