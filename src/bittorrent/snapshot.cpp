// Swarm checkpoint serialization: Writer/Reader primitives plus
// Swarm::fields, the one field list behind Swarm::save()/resume()
// (members of Swarm so no friend surface is needed). See snapshot.hpp
// for the format contract.
#include "bittorrent/snapshot.hpp"

#include <cstring>
#include <limits>

#include "bittorrent/peer_table.hpp"
#include "bittorrent/piece_picker.hpp"

namespace strat::bt {

namespace snapshot_detail {

namespace {

constexpr std::uint64_t kHashBasis = 0xCBF29CE484222325ULL;  // FNV-64 offset

}  // namespace

Writer::Writer(std::ostream& out) : out_(&out), hash_(kHashBasis) { buf_.reserve(kIoBuf); }

Writer::Writer(std::string& sink) : sink_(&sink), hash_(kHashBasis) {}

Writer::~Writer() = default;

void Writer::flush() {
  if (out_ != nullptr && !buf_.empty()) {
    out_->write(reinterpret_cast<const char*>(buf_.data()),
                static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
}

void Writer::write_stream(const void* data, std::size_t n) {
  if (n >= kIoBuf) {
    flush();
    out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    return;
  }
  if (buf_.size() + n > kIoBuf) flush();
  const auto* p = static_cast<const unsigned char*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void Writer::finish() {
  if (finished_) return;
  finished_ = true;
  const std::uint64_t checksum = mix64(hash_);  // footer itself is not folded
  if (sink_ != nullptr) {
    sink_->append(reinterpret_cast<const char*>(&checksum), 8);
    return;
  }
  buf_.insert(buf_.end(), reinterpret_cast<const unsigned char*>(&checksum),
              reinterpret_cast<const unsigned char*>(&checksum) + 8);
  flush();
  out_->flush();
}

Reader::Reader(std::istream& in) : in_(&in), hash_(kHashBasis) {
  // On a seekable stream, learn how many bytes remain so span() can
  // reject a lying length prefix before allocating anything.
  const std::istream::pos_type cur = in.tellg();
  if (cur != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(cur);
    if (end != std::istream::pos_type(-1) && end >= cur && in.good()) {
      remaining_ = static_cast<std::uint64_t>(end - cur);
      remaining_known_ = true;
    } else {
      in.clear();
      in.seekg(cur);
    }
  } else {
    in.clear();  // tellg on a pipe sets failbit; reads must still work
  }
}

Reader::Reader(std::string_view bytes)
    : hash_(kHashBasis),
      remaining_(bytes.size()),
      remaining_known_(true),
      pos_(reinterpret_cast<const unsigned char*>(bytes.data())),
      end_(pos_ + bytes.size()) {}

void Reader::raw_read_slow(void* data, std::size_t n) {
  // Caller (the inline raw_read) already accounted `remaining_` and
  // handled the served-entirely-from-window case.
  if (in_ == nullptr) throw SnapshotError("snapshot: truncated stream");
  auto* dst = static_cast<unsigned char*>(data);
  const auto buffered = static_cast<std::size_t>(end_ - pos_);
  if (buffered > 0) {
    std::memcpy(dst, pos_, buffered);
    dst += buffered;
    n -= buffered;
  }
  pos_ = end_ = nullptr;
  // Large reads go straight through; so does everything on a
  // non-seekable stream, where an over-read could not be seeked back
  // for a companion section that follows on the same stream.
  if (n >= kIoBuf || !remaining_known_) {
    in_->read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_->gcount()) != n) {
      throw SnapshotError("snapshot: truncated stream");
    }
    return;
  }
  if (rbuf_.empty()) rbuf_.resize(kIoBuf);
  in_->read(reinterpret_cast<char*>(rbuf_.data()), static_cast<std::streamsize>(rbuf_.size()));
  const auto got = static_cast<std::size_t>(in_->gcount());
  if (got < n) throw SnapshotError("snapshot: truncated stream");
  in_->clear();  // a short final refill sets eofbit; the bytes are still good
  std::memcpy(dst, rbuf_.data(), n);
  pos_ = rbuf_.data() + n;
  end_ = rbuf_.data() + got;
}

void Reader::header(std::uint64_t magic, const char* name) {
  std::uint64_t stored_magic = 0;
  io(stored_magic);
  if (stored_magic != magic) throw SnapshotError(std::string(name) + ": bad magic");
  std::uint32_t version = 0;
  io(version);
  if (version != kSnapshotVersion) {
    throw SnapshotError(std::string(name) + ": unsupported version " + std::to_string(version) +
                        " (this build reads version " + std::to_string(kSnapshotVersion) + ")");
  }
}

void Reader::section(std::uint32_t tag, const char* name) {
  std::uint32_t stored = 0;
  io(stored);
  if (stored != tag) {
    throw SnapshotError(std::string("snapshot: missing section tag '") + name + "'");
  }
}

void Reader::verify_checksum() {
  const std::uint64_t expected = mix64(hash_);  // snapshot hash before the footer
  std::uint64_t stored;
  raw_read(&stored, 8);
  // Return any unconsumed read-ahead so the stream position lands
  // exactly after the footer — a companion section may follow.
  const auto leftover = static_cast<std::size_t>(end_ - pos_);
  if (in_ != nullptr && leftover > 0) {
    in_->seekg(-static_cast<std::istream::off_type>(leftover), std::ios::cur);
    pos_ = end_ = nullptr;
  }
  if (stored != expected) throw SnapshotError("snapshot: checksum mismatch (corrupt stream)");
}

}  // namespace snapshot_detail

namespace {

using snapshot_detail::Reader;
using snapshot_detail::Writer;

constexpr std::uint32_t kNoRetired = std::numeric_limits<std::uint32_t>::max();

/// Section tags, in stream order (the section map is in snapshot.hpp).
/// strat-lint R4 checks that each one appears in Swarm::fields.
constexpr std::uint32_t kTagConfig = 1;
constexpr std::uint32_t kTagRng = 2;
constexpr std::uint32_t kTagTable = 3;
constexpr std::uint32_t kTagCounters = 4;
constexpr std::uint32_t kTagSlots = 5;
constexpr std::uint32_t kTagPeers = 6;
constexpr std::uint32_t kTagRetired = 7;
constexpr std::uint32_t kTagAvail = 8;
constexpr std::uint32_t kTagFaults = 9;

// Allocation guards: generous multiples of any real run, tight enough
// that a corrupt scalar can't size a multi-GB container.
constexpr std::size_t kMaxPeersEver = std::size_t{1} << 32;
constexpr std::size_t kMaxSlots = std::size_t{1} << 33;
// 2^24 pieces x 256 KB is a 4 TB torrent — anything above is a corrupt
// config, and it must be rejected *before* the piece-sized containers
// (picker, per-row bitfields) are allocated.
constexpr std::size_t kMaxPieces = std::size_t{1} << 24;

/// resume() accepts exactly the configs the constructor accepts, and
/// none too large to size the piece containers from.
void check_config(const SwarmConfig& c) {
  try {
    validate(c);
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(std::string("snapshot: invalid config (") + e.what() + ")");
  }
  if (c.num_pieces > kMaxPieces || c.num_peers + c.seeds > kMaxPeersEver) {
    throw SnapshotError("snapshot: invalid config (size beyond the format limits)");
  }
}

/// A config's simulation-semantic bytes: its snapshot field list with
/// `threads` (wall clock only) pinned, so equal bytes mean every other
/// field matches bitwise.
std::string semantic_bytes(SwarmConfig c) {
  c.threads = 0;
  std::string out;
  Writer w(out);
  w.io(c);
  return out;
}

}  // namespace

/// Members that travel in a transformed form: save_impl() derives these
/// from the swarm; resume_impl() validates them after the checksum and
/// rebuilds the members from them.
struct Swarm::Wire {
  graph::Rng::State rng;                    // rng_, the caller's generator
  std::uint64_t id_space = 0;               // table_
  std::vector<core::PeerId> live_ids;       // table_, row order
  std::vector<std::uint32_t> row_gens;      // table_
  std::uint64_t pool = 0;                   // edge-slot pool capacity
  std::vector<core::PeerId> retired_order;  // inverse of retired_ix_
  std::vector<std::uint32_t> avail;         // picker_ availability cross-check
};

template <class Ar, class Self>
void Swarm::fields(Ar& ar, Self& s, Wire& x) {
  constexpr bool kLoad = Ar::kLoading;
  ar.header(kSnapshotMagic, "snapshot");

  ar.section(kTagConfig, "config");
  ar.io(s.config_);
  if constexpr (kLoad) {
    check_config(s.config_);  // before anything is sized from it
    s.picker_ = PiecePicker(s.config_.num_pieces);
    s.reserved_scratch_ = Bitfield(s.config_.num_pieces);
  }
  const std::size_t num_pieces = s.config_.num_pieces;

  ar.section(kTagRng, "rng");
  ar.io(s.choke_key_);
  ar.io(x.rng);

  ar.section(kTagTable, "table");
  ar.io(x.id_space);
  ar.span(x.live_ids);
  ar.span(x.row_gens);
  const std::size_t rows = x.live_ids.size();

  ar.section(kTagCounters, "counters");
  ar.io(s.round_);
  ar.io(s.leechers_);
  ar.io(s.arrivals_);
  ar.io(s.departures_);
  ar.io(s.retired_completed_);

  // Edge-slot pool. now_in_/now_out_ are deliberately absent:
  // fold_rates() zeroes them at every round boundary, the only place
  // save() may be called.
  ar.section(kTagSlots, "slots");
  ar.io(x.pool);
  ar.span(s.edge_peer_);
  ar.span(s.mirror_);
  ar.span(s.slot_gen_);
  ar.span(s.free_slots_);
  ar.span(s.rate_in_);
  ar.span(s.rate_out_);
  ar.span(s.inflight_);
  ar.span(s.mutual_rounds_);

  // Per-row hot state, in the row order of the live ids above, so
  // resume rebuilds the exact iteration order every RNG draw depends on.
  ar.section(kTagPeers, "peers");
  std::uint64_t row_count = rows;
  ar.io(row_count);
  if constexpr (kLoad) {
    if (row_count != rows) throw SnapshotError("snapshot: per-row state size mismatch");
    s.stats_.resize(rows);
    s.have_.reserve(rows);
    s.chokers_.reserve(rows);
    s.unchoked_.resize(rows);
    s.nbr_.resize(rows);
    s.nslot_.resize(rows);
    s.partial_.resize(rows);
  }
  for (auto& stats : s.stats_) ar.io(stats);
  // Bitfields: bare words, their count implied by num_pieces.
  for (std::size_t r = 0; r < rows; ++r) {
    if constexpr (kLoad) {
      std::vector<std::uint64_t> words((num_pieces + 63) / 64);
      ar.raw(words);
      s.have_.push_back(Bitfield::from_words(num_pieces, std::move(words)));
    } else {
      ar.raw(s.have_[r].words());
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    TftChoker::State choker;
    if constexpr (!kLoad) choker = s.chokers_[r].state();
    ar.io(choker);
    if constexpr (kLoad) {
      if (choker.optimistic_rounds == 0) throw SnapshotError("snapshot: zero optimistic rounds");
      s.chokers_.push_back(TftChoker::from_state(choker));
    }
  }
  for (auto& targets : s.unchoked_) ar.span(targets);
  // Adjacency: sorted neighbor ids, then the parallel slots as bare
  // u32s, their count implied by the neighbor count.
  for (std::size_t r = 0; r < rows; ++r) {
    ar.span(s.nbr_[r]);
    if constexpr (kLoad) s.nslot_[r].resize(s.nbr_[r].size());
    ar.raw(s.nslot_[r]);
  }
  for (auto& partial : s.partial_) ar.seq(partial);

  // Retired records, retirement order; retired_ix_ travels as its
  // inverse (one id per record), so the snapshot pays 4 bytes per
  // *departure*, not per id-ever.
  ar.section(kTagRetired, "retired");
  ar.span(x.retired_order);
  if constexpr (kLoad) s.retired_stats_.resize(x.retired_order.size());
  for (auto& stats : s.retired_stats_) ar.io(stats);
  ar.seq(s.retired_mutual_);

  // Piece-availability cross-check, one logical write per piece.
  ar.section(kTagAvail, "availability");
  std::uint64_t pieces = num_pieces;
  ar.io(pieces);
  if constexpr (kLoad) {
    if (pieces != num_pieces) throw SnapshotError("snapshot: availability size mismatch");
    x.avail.resize(num_pieces);
  }
  for (auto& avail : x.avail) ar.io(avail);

  ar.section(kTagFaults, "faults");
  ar.io(s.faults_);
}

void Swarm::save(std::ostream& out) const {
  Writer w(out);
  save_impl(w);
  if (!out) throw SnapshotError("snapshot: stream write failed");
}

void Swarm::save(std::string& out) const {
  out.reserve(out.size() + snapshot_byte_bound());
  Writer w(out);
  save_impl(w);
}

std::size_t Swarm::snapshot_byte_bound() const {
  const std::size_t rows = table_.size();
  const std::size_t pool = edge_peer_.size();
  const std::size_t bitfield_bytes = ((config_.num_pieces + 63) / 64) * 8;
  // Per-element constants round the actual field widths up, never
  // down — the bound must be an upper bound or one mid-save doubling
  // re-copies the whole buffer anyway. Slack covers headers, tags and
  // length prefixes.
  std::size_t b = 1024 + config_.tft_slots_per_peer.size() * 8;
  b += rows * 16;                          // live ids + row generations
  b += pool * 48 + free_slots_.size() * 8; // edge-slot pool arrays
  b += rows * (64 + bitfield_bytes + 28 + 24);  // stats, bitfield, choker, prefixes
  for (std::size_t r = 0; r < rows; ++r) {
    b += unchoked_[r].size() * 4 + nbr_[r].size() * 8 + partial_[r].size() * 12;
  }
  b += retired_stats_.size() * 72 + retired_mutual_.size() * 12 + 64;
  b += static_cast<std::size_t>(config_.num_pieces) * 4 + 32;
  b += rows * 13 + 5 * 8 + 64;  // fault state: 4 per-row arrays + counters
  return b;
}

void Swarm::save_impl(Writer& w) const {
  Wire x;
  x.rng = rng_.state();
  x.id_space = table_.id_space();
  x.live_ids = {table_.ids().begin(), table_.ids().end()};
  x.row_gens = {table_.row_generations().begin(), table_.row_generations().end()};
  x.pool = edge_peer_.size();
  x.retired_order.assign(retired_stats_.size(), core::kNoPeer);
  for (std::size_t id = 0; id < retired_ix_.size(); ++id) {
    if (retired_ix_[id] != kNoRetired) {
      x.retired_order[retired_ix_[id]] = static_cast<core::PeerId>(id);
    }
  }
  x.avail.resize(config_.num_pieces);
  for (PieceId piece = 0; piece < config_.num_pieces; ++piece) {
    x.avail[piece] = picker_.availability(piece);
  }
  fields(w, *this, x);
  w.finish();
}

Swarm Swarm::resume(std::istream& in, graph::Rng& rng) {
  Reader r(in);
  return resume_impl(r, rng, nullptr);
}

Swarm Swarm::resume(std::istream& in, graph::Rng& rng, const SwarmConfig& config) {
  Reader r(in);
  return resume_impl(r, rng, &config);
}

Swarm Swarm::resume_impl(Reader& r, graph::Rng& rng, const SwarmConfig* override_config) {
  try {
    Swarm s(ResumeTag{}, rng);
    Wire x;
    fields(r, s, x);
    r.verify_checksum();

    // --- everything read and checksummed; validate and wire up -------

    // The config-override contract: every simulation-semantic field
    // must match the checkpointed config bitwise; only `threads` (which
    // cannot change results, just wall clock) may differ.
    if (override_config != nullptr) {
      if (semantic_bytes(s.config_) != semantic_bytes(*override_config)) {
        throw SnapshotError(
            "snapshot: config override differs from the checkpointed config "
            "in a simulation-semantic field (only `threads` may change)");
      }
      s.config_.threads = override_config->threads;
    }
    const SwarmConfig& cfg = s.config_;

    if (x.id_space > kMaxPeersEver) throw SnapshotError("snapshot: implausible id space");
    const auto id_space = static_cast<std::size_t>(x.id_space);
    const std::size_t rows = x.live_ids.size();
    if (id_space < cfg.num_peers + cfg.seeds) {
      throw SnapshotError("snapshot: id space smaller than the initial population");
    }
    if (s.arrivals_ != id_space - (cfg.num_peers + cfg.seeds)) {
      throw SnapshotError("snapshot: arrival counter inconsistent with id space");
    }
    if (s.leechers_ != cfg.num_peers + s.arrivals_) {
      throw SnapshotError("snapshot: leecher counter inconsistent with arrivals");
    }
    if (s.departures_ != id_space - rows) {
      throw SnapshotError("snapshot: departure counter inconsistent with live count");
    }

    // Size checks before the zero-filled allocations below: every
    // array length is stream-backed, so a lying `pool` scalar must die
    // *before* it can size a multi-GB assign.
    if (x.pool > kMaxSlots) throw SnapshotError("snapshot: implausible slot-pool size");
    const auto pool = static_cast<std::size_t>(x.pool);
    if (s.edge_peer_.size() != pool || s.mirror_.size() != pool || s.slot_gen_.size() != pool ||
        s.rate_in_.size() != pool || s.rate_out_.size() != pool || s.inflight_.size() != pool ||
        s.mutual_rounds_.size() != pool) {
      throw SnapshotError("snapshot: slot-pool array size mismatch");
    }
    s.now_in_.assign(pool, 0.0);
    s.now_out_.assign(pool, 0.0);

    const FaultState& fs = s.faults_;
    if (fs.nat_.size() != rows || fs.retry_round_.size() != rows ||
        fs.retry_count_.size() != rows || fs.announce_seq_.size() != rows) {
      throw SnapshotError("snapshot: fault-state array size mismatch");
    }
    for (const std::uint8_t flag : fs.nat_) {
      if (flag > 1) throw SnapshotError("snapshot: invalid NAT flag");
    }

    s.table_ = PeerTable::restore(std::move(x.live_ids), std::move(x.row_gens), id_space);

    if (cfg.retain_departed) {
      if (x.retired_order.size() != s.departures_) {
        throw SnapshotError("snapshot: retired archive inconsistent with departures");
      }
      if (!x.retired_order.empty()) s.retired_ix_.assign(id_space, kNoRetired);
      for (std::size_t i = 0; i < x.retired_order.size(); ++i) {
        const core::PeerId id = x.retired_order[i];
        if (id >= id_space || s.table_.contains(id)) {
          throw SnapshotError("snapshot: retired id is live or out of range");
        }
        if (s.retired_ix_[id] != kNoRetired) throw SnapshotError("snapshot: duplicate retired id");
        s.retired_ix_[id] = static_cast<std::uint32_t>(i);
        if (!(s.retired_stats_[i].upload_kbps > 0.0)) {
          throw SnapshotError("snapshot: retired upload capacity not positive");
        }
      }
    } else if (!x.retired_order.empty() || !s.retired_mutual_.empty()) {
      throw SnapshotError("snapshot: retired records present with retain_departed off");
    }
    // Slot pool: free list sane, then adjacency rows sorted, live, and
    // mutually consistent with the pool (slot -> neighbor id, mirror
    // round-trips). After these checks no stale index can survive into
    // the data plane.
    std::vector<bool> is_free(pool, false);
    for (const std::size_t slot : s.free_slots_) {
      if (slot >= pool || is_free[slot]) {
        throw SnapshotError("snapshot: free list slot invalid or duplicated");
      }
      is_free[slot] = true;
    }
    std::size_t adjacency_slots = 0;
    for (std::size_t row = 0; row < rows; ++row) {
      const core::PeerId owner = s.table_.id_at(static_cast<PeerTable::Row>(row));
      const auto& nbrs = s.nbr_[row];
      const auto& slots = s.nslot_[row];
      if (slots.size() != nbrs.size()) {
        throw SnapshotError("snapshot: adjacency slot row size mismatch");
      }
      adjacency_slots += slots.size();
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (i > 0 && nbrs[i] <= nbrs[i - 1]) {
          throw SnapshotError("snapshot: adjacency row not strictly sorted");
        }
        if (nbrs[i] == owner || !s.table_.contains(nbrs[i])) {
          throw SnapshotError("snapshot: adjacency names a departed or self peer");
        }
        const std::size_t slot = slots[i];
        if (slot >= pool || is_free[slot]) {
          throw SnapshotError("snapshot: adjacency uses a freed or out-of-range slot");
        }
        if (s.edge_peer_[slot] != nbrs[i]) {
          throw SnapshotError("snapshot: slot neighbor id mismatch");
        }
        const std::size_t mirror = s.mirror_[slot];
        if (mirror >= pool || s.mirror_[mirror] != slot || s.edge_peer_[mirror] != owner) {
          throw SnapshotError("snapshot: mirror slot does not round-trip");
        }
      }
    }
    if (adjacency_slots + s.free_slots_.size() != pool) {
      throw SnapshotError("snapshot: slot pool leaks (live + free != capacity)");
    }
    for (const PieceId piece : s.inflight_) {
      if (piece != kNoPiece && piece >= cfg.num_pieces) {
        throw SnapshotError("snapshot: in-flight piece out of range");
      }
    }
    for (std::size_t row = 0; row < rows; ++row) {
      if (s.partial_[row].size() > cfg.num_pieces) {
        throw SnapshotError("snapshot: implausible partial count");
      }
      if (s.stats_[row].pieces != s.have_[row].count()) {
        throw SnapshotError("snapshot: piece counter disagrees with bitfield");
      }
      if (!(s.stats_[row].upload_kbps > 0.0)) {
        throw SnapshotError("snapshot: live upload capacity not positive");
      }
      for (const core::PeerId q : s.unchoked_[row]) {
        if (q >= id_space) throw SnapshotError("snapshot: unchoke target out of range");
      }
      for (const auto& [piece, kb] : s.partial_[row]) {
        if (piece >= cfg.num_pieces || s.have_[row].test(piece)) {
          throw SnapshotError("snapshot: partial piece invalid or already held");
        }
        if (!(kb >= 0.0) || kb >= cfg.piece_kb) {
          throw SnapshotError("snapshot: partial piece progress out of range");
        }
      }
      const core::PeerId opt = s.chokers_[row].optimistic();
      if (opt != core::kNoPeer && opt >= id_space) {
        throw SnapshotError("snapshot: optimistic target out of range");
      }
    }

    // Availability: recompute from the live bitfields and prove the
    // stored words match — the derived-state consistency gate.
    s.picker_.add_bitfields(s.have_);
    for (PieceId piece = 0; piece < cfg.num_pieces; ++piece) {
      if (s.picker_.availability(piece) != x.avail[piece]) {
        throw SnapshotError("snapshot: availability disagrees with live bitfields");
      }
    }

    // The structural generator resumes the checkpointed sequence; the
    // rank cache starts dirty and rebuilds (no RNG) on its first read.
    rng.restore(x.rng);
    return s;
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::bad_alloc&) {
    throw SnapshotError("snapshot: allocation failed (corrupt length field?)");
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("snapshot: invalid state: ") + e.what());
  }
}

std::string save_to_string(const Swarm& swarm) {
  std::string out;
  swarm.save(out);  // reserves its snapshot_byte_bound() up front
  return out;
}

ResumedSwarm resume_from_string(const std::string& snapshot) {
  Reader r(snapshot);
  return ResumedSwarm(r, nullptr);
}

ResumedSwarm resume_from_string(const std::string& snapshot, const SwarmConfig& config) {
  Reader r(snapshot);
  return ResumedSwarm(r, &config);
}

std::vector<ResumedSwarm> fork_snapshot(const std::string& snapshot, std::size_t copies) {
  std::vector<ResumedSwarm> forks;
  forks.reserve(copies);
  for (std::size_t i = 0; i < copies; ++i) forks.push_back(resume_from_string(snapshot));
  return forks;
}

}  // namespace strat::bt
