// Fixture: R4 snapshot-contract class. Member coverage in its field
// list (r4_snapshot.cpp) is deliberately incomplete: dropped_ is not
// listed and carries no waiver.
#pragma once
#include <cstdint>
#include <vector>

namespace fixture {

class MiniState {
 public:
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& s);

 private:
  std::uint64_t round_counter_ = 0;
  std::vector<double> rates_ = {};
  double dropped_ = 0.0;  // SEEDED R4 VIOLATION: missing from the field list
  // strat-lint: not-serialized -- rebuilt from rates_ on first access
  double cached_mean_ = 0.0;
  // strat-lint: serialized-via(encode_flags, decode_flags)
  std::uint32_t flags_ = 0;
};

}  // namespace fixture
