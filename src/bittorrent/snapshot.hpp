// Versioned swarm checkpoints: durable, resumable, forkable runs.
//
// A snapshot is a third representation of swarm run state, next to the
// flat data plane and the map-based ReferenceSwarm — and like those
// two it is held to a bitwise contract: Swarm::save() between any two
// rounds, then Swarm::resume(), continues the run bitwise-identically
// to the uninterrupted one at any SwarmConfig::threads value (the
// resume-equivalence differential test tier proves it against both the
// uninterrupted flat run and the oracle). That works because the
// determinism model is explicit state: counter-based per-peer choke
// streams (key + round suffice), one sequential structural generator
// (xoshiro words are captured and restored), and row/slot orders that
// are themselves serialized rather than re-derived.
//
// Format (version 2, little-endian, not endian-portable — the magic
// word doubles as the byte-order probe): u64 magic, u32 version, then
// tagged sections in fixed order, closed by a 64-bit running checksum
// of every byte written. Each section is written once, as a field list
// — `template <class Ar, class Self> static void fields(Ar&, Self&)`,
// naming every serialized field in stream order — that Writer runs on
// save and Reader on load:
//
//   config     SwarmConfig::fields (FaultSpec::fields nested)
//   rng        choke key + Rng::State::fields of the structural rng
//   table      id space, live ids in row order, row generations
//   counters   round, leecher, arrival, departure, retired counters
//   slots      the edge-slot pool arrays
//   peers      per row: PeerStats::fields, bitfield words,
//              TftChoker::State::fields, unchoke set, sorted adjacency
//              + slots, partial pieces
//   retired    retirement-order ids, their PeerStats, mutual pairs
//   avail      per-piece availability cross-check
//   faults     FaultState::fields (a mid-outage save resumes with
//              every backoff deadline intact)
//
// Swarm::fields (snapshot.cpp) strings the sections together. Members
// stored transformed (peer table, the retired-order inverse map, the
// availability cross-check) travel as Swarm::Wire: save() derives it,
// resume() validates it after the checksum and rebuilds the members.
// Slot indices are u32 in memory and on the wire, so they are spanned
// directly. SwarmConfig::fields also drives resume()'s config-override
// check. The bandwidth-rank cache is not stored: a resumed swarm
// rebuilds it on the first stratification()/reciprocated_pairs().
//
// Loading rejects bad magic, unknown versions, truncation, checksum
// mismatches, a config the Swarm constructor would reject and any
// structurally inconsistent state (every index is bounds-checked
// before the swarm is wired together), throwing
// SnapshotError with a message naming the failure; a corrupt snapshot
// can never produce a swarm with broken invariants, let alone UB.
// Deliberately *not* serialized: phase-profile wall clocks, per-worker
// scratch buffers, and the transient per-round accumulators that are
// provably zero between rounds (now_in_/now_out_) — none of them feed
// back into simulation state. See README "Snapshot format and resume
// contract".
//
// ChurnDriver state (ChurnDriver::fields: lifetime deadlines +
// capacity-pool cursor) rides in a companion section via
// save_churn_driver()/restore_churn_driver() — the driver's
// spec/config/pool are construction inputs the resuming caller
// supplies, the snapshot carries only the mutable remainder.
//
// fork_snapshot() opens warm-started what-if sweeps: resume one
// equilibrated snapshot into N independent (rng, swarm) pairs and
// drive each under a divergent ChurnSpec without re-simulating the
// ramp-up. It and resume_from_string() parse the caller's string in
// place; stream loaders read through a refilled read-ahead window.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bittorrent/scenario.hpp"
#include "bittorrent/swarm.hpp"
#include "core/types.hpp"
#include "graph/rng.hpp"

namespace strat::bt {

/// Any snapshot failure: bad magic, version/config mismatch,
/// truncation, checksum failure, structural inconsistency, stream
/// errors. The message names the offending field.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// "STRATSWM" — also the byte-order probe: a big-endian reader sees
/// garbage and rejects the stream at the first field.
inline constexpr std::uint64_t kSnapshotMagic = 0x535452415453574DULL;
/// "STRATCHN" for the churn-driver companion section.
inline constexpr std::uint64_t kChurnMagic = 0x535452415443484EULL;
/// Version 2 added the fault-injection spec to the config section and
/// the tagged fault-state section (kTagFaults).
inline constexpr std::uint32_t kSnapshotVersion = 2;

namespace snapshot_detail {

inline constexpr std::size_t kIoBuf = 64 * 1024;
// Odd multiplier (golden-ratio constant): any change to any lane
// changes the polynomial sum mod 2^64, so every single-lane corruption
// is detected even before the final avalanche.
inline constexpr std::uint64_t kFoldMul = 0x9E3779B97F4A7C15ULL;

/// SplitMix64 finalizer, applied once when the checksum footer is
/// emitted / verified: the per-lane fold below is a plain
/// multiply-accumulate (one mul per 8 bytes — an avalanche round per
/// lane would serialize a ~15-cycle dependency chain and cost more
/// than the serialization itself at 10^5 peers), and this final pass
/// supplies the diffusion.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Folds `n` bytes into `hash`, 8-byte lanes plus a zero-padded,
/// length-salted tail. Writer and Reader call this once per *logical*
/// field/array, so both sides fold identical lane sequences regardless
/// of I/O buffering. Inline (with the small-op fast paths below)
/// because a 10^5-peer snapshot makes ~2M logical writes — per-call
/// overhead would dominate the pass.
inline std::uint64_t fold_bytes(std::uint64_t hash, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 8) {
    std::uint64_t lane;
    std::memcpy(&lane, p, 8);
    hash = hash * kFoldMul + lane;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, p, n);
    hash = hash * kFoldMul + (lane + n);
  }
  return hash;
}

template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

/// A struct that lists its own snapshot fields.
template <class T, class Ar>
concept HasFields = requires(Ar& ar, T& v) { std::remove_const_t<T>::fields(ar, v); };

/// Checksummed little-endian binary writer — the save side of the
/// archive surface the field lists are written against (Reader is the
/// load side, with the same calls):
///
///   header(magic, name)  magic word + kSnapshotVersion
///   section(tag, name)   u32 section tag
///   io(field)            one scalar, a pair as its two halves, or a
///                        struct through its static fields() list
///   span(vec)            u64 count + the elements' bytes, one write
///   seq(vec)             u64 count + io() per element
///   raw(vec)             the elements' bytes, length implied by
///                        earlier fields (the reader pre-sizes `vec`)
///
/// A field list is `template <class Ar, class Self> static void
/// fields(Ar&, Self&)`; Self is const on save. `Ar::kLoading` selects
/// the per-side code of members stored in a transformed form.
///
/// Small writes coalesce into an internal buffer (one ostream call per
/// ~64 KB, not per field); the string-sink constructor appends straight
/// to the string instead, skipping the ostream machinery entirely (it
/// costs more than the serialization itself at 10^5 peers). The running
/// 64-bit hash folds every *logical* write — one fold per call above,
/// per element for seq() — so buffering never changes the checksum.
/// finish() appends the checksum.
class Writer {
 public:
  static constexpr bool kLoading = false;

  explicit Writer(std::ostream& out);
  explicit Writer(std::string& sink);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void header(std::uint64_t magic, const char* /*name*/) {
    io(magic);
    io(kSnapshotVersion);
  }
  void section(std::uint32_t tag, const char* /*name*/) { io(tag); }

  template <class T>
  void io(const T& v) {
    if constexpr (HasFields<const T, Writer>) {
      T::fields(*this, v);
    } else if constexpr (kIsPair<T>) {
      io(v.first);
      io(v.second);
    } else if constexpr (std::is_same_v<T, bool>) {
      const std::uint8_t b = v ? 1 : 0;
      bytes(&b, 1);
    } else {
      static_assert(std::is_arithmetic_v<T>, "no wire encoding for this field type");
      bytes(&v, sizeof v);  // in-memory width: size_t travels as u64 (LP64)
    }
  }
  template <class C>
  void span(const C& c) {
    io(static_cast<std::uint64_t>(std::size(c)));
    raw(c);
  }
  template <class C>
  void seq(const C& c) {
    io(static_cast<std::uint64_t>(std::size(c)));
    for (const auto& e : c) io(e);
  }
  template <class C>
  void raw(const C& c) {
    bytes(std::data(c), std::size(c) * sizeof(*std::data(c)));
  }

  /// Writes the checksum footer and flushes. Must be the last call.
  void finish();

 private:
  void bytes(const void* data, std::size_t n) {
    if (n == 0) return;
    hash_ = fold_bytes(hash_, data, n);
    if (sink_ != nullptr) {
      sink_->append(static_cast<const char*>(data), n);
      return;
    }
    write_stream(data, n);
  }
  /// ostream mode: coalesces into buf_, one ostream call per ~64 KB.
  void write_stream(const void* data, std::size_t n);
  void flush();

  std::ostream* out_ = nullptr;  // exactly one of out_/sink_ is set
  std::string* sink_ = nullptr;
  std::vector<unsigned char> buf_;  // ostream mode only
  std::uint64_t hash_;
  bool finished_ = false;
};

/// Checksummed reader, the load side of Writer's surface: every read
/// throws SnapshotError("...truncated") on a short input, and
/// verify_checksum() compares the running hash with the stored footer.
/// Reads are served from a byte window. The memory constructor points
/// the window at the caller's bytes, so a string snapshot is parsed in
/// place with no copy (the caller keeps the bytes alive while reading).
/// The stream constructor refills the window from a ~64 KB read-ahead
/// buffer on seekable streams (one istream call per refill, not per
/// field — per-call overhead would otherwise dominate a 10^5-peer
/// load); verify_checksum() seeks the stream back over any unconsumed
/// read-ahead so a companion section can follow on the same stream.
///
/// A corrupt length prefix cannot force a giant allocation: in memory
/// and on a seekable stream it is checked against the bytes actually
/// remaining before anything is sized; on a non-seekable stream
/// buffers grow in bounded chunks and a lying prefix dies on the first
/// short read.
class Reader {
 public:
  static constexpr bool kLoading = true;

  explicit Reader(std::istream& in);
  explicit Reader(std::string_view bytes);

  /// Throws "<name>: bad magic" / "<name>: unsupported version".
  void header(std::uint64_t magic, const char* name);
  /// Throws "snapshot: missing section tag '<name>'".
  void section(std::uint32_t tag, const char* name);

  template <class T>
  void io(T& v) {
    if constexpr (HasFields<T, Reader>) {
      T::fields(*this, v);
    } else if constexpr (kIsPair<T>) {
      io(v.first);
      io(v.second);
    } else if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      bytes(&b, 1);
      v = b != 0;
    } else {
      static_assert(std::is_arithmetic_v<T>, "no wire encoding for this field type");
      bytes(&v, sizeof v);
    }
  }
  /// Allocates the result exactly once in memory or on a seekable
  /// stream (zero capacity slack); folds once over the assembled
  /// buffer, matching the writer's single write.
  template <class T>
  void span(std::vector<T>& v) {
    const std::uint64_t n = count();
    std::vector<T> out;
    if (remaining_known_) {
      if (n > remaining_ / sizeof(T)) throw SnapshotError("snapshot: truncated stream");
      out.resize(static_cast<std::size_t>(n));
      raw_read(out.data(), out.size() * sizeof(T));
    } else {
      const std::size_t chunk = std::max<std::size_t>(1, (std::size_t{1} << 20) / sizeof(T));
      while (out.size() < n) {
        const std::size_t have = out.size();
        out.resize(have + static_cast<std::size_t>(std::min<std::uint64_t>(chunk, n - have)));
        raw_read(out.data() + have, (out.size() - have) * sizeof(T));
      }
      out.shrink_to_fit();  // loaded state should carry no growth slack
    }
    fold(out.data(), out.size() * sizeof(T));
    v = std::move(out);
  }
  template <class T>
  void seq(std::vector<T>& v) {
    const std::uint64_t n = count();
    // Every element occupies at least one byte of the stream.
    if (remaining_known_ && n > remaining_) throw SnapshotError("snapshot: truncated stream");
    v.clear();
    v.reserve(static_cast<std::size_t>(remaining_known_ ? n : std::min<std::uint64_t>(n, 4096)));
    for (std::uint64_t i = 0; i < n; ++i) io(v.emplace_back());
  }
  template <class T>
  void raw(std::vector<T>& v) {
    bytes(v.data(), v.size() * sizeof(T));
  }

  void verify_checksum();

 private:
  void bytes(void* data, std::size_t n) {
    raw_read(data, n);
    fold(data, n);
  }
  std::uint64_t count() {
    std::uint64_t n = 0;
    io(n);
    return n;
  }
  /// Reads without folding (span() folds the assembled buffer once);
  /// reads the window holds are one memcpy out of it.
  void raw_read(void* data, std::size_t n) {
    if (n == 0) return;
    if (remaining_known_) remaining_ -= std::min<std::uint64_t>(remaining_, n);
    if (n <= static_cast<std::size_t>(end_ - pos_)) {
      std::memcpy(data, pos_, n);
      pos_ += n;
      return;
    }
    raw_read_slow(data, n);
  }
  /// Window exhausted: truncation in memory; on a stream, drain the
  /// window, then refill it (seekable) or read the stream directly
  /// (large reads, non-seekable streams).
  void raw_read_slow(void* data, std::size_t n);
  /// Folds `n` bytes into the running checksum without reading.
  void fold(const void* data, std::size_t n) {
    if (n == 0) return;
    hash_ = fold_bytes(hash_, data, n);
  }

  std::istream* in_ = nullptr;  // null in memory mode
  std::uint64_t hash_;
  std::uint64_t remaining_ = 0;   // bytes left of the *logical* position
  bool remaining_known_ = false;  // false on pipes: fall back to chunked reads
  const unsigned char* pos_ = nullptr;  // the window: caller bytes or rbuf_
  const unsigned char* end_ = nullptr;
  std::vector<unsigned char> rbuf_;  // read-ahead, seekable streams only
};

}  // namespace snapshot_detail

/// Serializes a ChurnDriver's mutable state (ChurnDriver::fields:
/// sorted lifetime deadlines + capacity-pool cursor) as a checksummed
/// companion section, typically appended to the same stream right
/// after Swarm::save(). The driver's spec/config/pool are construction
/// inputs, not state — the resuming side must rebuild the driver with
/// the same ones (and the same Rng the swarm resumes into) before
/// calling restore_churn_driver().
template <typename SwarmT>
void save_churn_driver(std::ostream& out, const ChurnDriver<SwarmT>& driver) {
  snapshot_detail::Writer w(out);
  w.header(kChurnMagic, "churn snapshot");
  w.io(driver);
  w.finish();
  if (!out) throw SnapshotError("churn snapshot: stream write failed");
}

/// Restores state saved by save_churn_driver() into a freshly
/// constructed driver. Throws SnapshotError on bad magic, version
/// mismatch, truncation, unordered/duplicate deadline ids, or
/// checksum failure; the driver is then partially restored and must
/// be discarded.
template <typename SwarmT>
void restore_churn_driver(std::istream& in, ChurnDriver<SwarmT>& driver) {
  snapshot_detail::Reader r(in);
  r.header(kChurnMagic, "churn snapshot");
  try {
    r.io(driver);
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(std::string("churn snapshot: ") + e.what());
  }
  r.verify_checksum();
}

/// One resumed run: owns the structural Rng (at a stable heap address
/// — Swarm keeps a reference to it) together with the Swarm resumed
/// against it. Move-only; moving keeps the reference valid.
class ResumedSwarm {
 public:
  explicit ResumedSwarm(std::istream& in)
      : rng_(std::make_unique<graph::Rng>()), swarm_(Swarm::resume(in, *rng_)) {}
  ResumedSwarm(std::istream& in, const SwarmConfig& config)
      : rng_(std::make_unique<graph::Rng>()), swarm_(Swarm::resume(in, *rng_, config)) {}
  /// Resumes from a Reader already positioned at a swarm snapshot (the
  /// in-place string path); `config` is an optional override.
  ResumedSwarm(snapshot_detail::Reader& in, const SwarmConfig* config)
      : rng_(std::make_unique<graph::Rng>()), swarm_(Swarm::resume_impl(in, *rng_, config)) {}

  ResumedSwarm(ResumedSwarm&&) = default;
  ResumedSwarm& operator=(ResumedSwarm&&) = delete;  // Swarm holds a reference member

  [[nodiscard]] Swarm& swarm() noexcept { return *swarm_; }
  [[nodiscard]] const Swarm& swarm() const noexcept { return *swarm_; }
  /// The structural generator the swarm draws from — pass it to any
  /// ChurnDriver that should continue in lockstep.
  [[nodiscard]] graph::Rng& rng() noexcept { return *rng_; }

 private:
  std::unique_ptr<graph::Rng> rng_;
  std::optional<Swarm> swarm_;
};

/// save() into a string buffer — the fork input.
[[nodiscard]] std::string save_to_string(const Swarm& swarm);

/// Resumes one (rng, swarm) pair from an in-memory snapshot, parsed in
/// place: the bytes are read where they are, never copied into a
/// stream first.
[[nodiscard]] ResumedSwarm resume_from_string(const std::string& snapshot);
[[nodiscard]] ResumedSwarm resume_from_string(const std::string& snapshot,
                                              const SwarmConfig& config);

/// Crash recovery: resumes from the newest autosave generation under
/// `dir` that passes the loader's full validation (magic, bounds,
/// checksum) — a corrupt or truncated newest generation falls back to
/// the previous one. Returns nullopt when no generation loads (or the
/// directory doesn't exist). Pairs with Swarm::autosave_every();
/// implemented in autosave.cpp.
[[nodiscard]] std::optional<ResumedSwarm> recover_latest_swarm(const std::filesystem::path& dir);

/// Warm-started what-if sweeps: resumes `copies` fully independent
/// (rng, swarm) pairs from one snapshot. Every fork starts bitwise
/// identical — drive each under a divergent ChurnSpec (or any other
/// schedule) to explore futures of the same equilibrated swarm without
/// re-simulating the ramp-up; drive one under the original schedule
/// and it reproduces the uninterrupted run exactly.
[[nodiscard]] std::vector<ResumedSwarm> fork_snapshot(const std::string& snapshot,
                                                      std::size_t copies);

}  // namespace strat::bt
