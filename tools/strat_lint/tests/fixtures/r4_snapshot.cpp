// Fixture: field list for the R4 contract class in r4_state.hpp.
// Covers round_counter_, rates_, and flags_ (via its encode/decode
// transform); dropped_ is intentionally absent.
#include "r4_state.hpp"

namespace fixture {

std::uint32_t encode_flags(const MiniState&);
void decode_flags(MiniState&, std::uint32_t);

template <class Ar, class Self>
void MiniState::fields(Ar& ar, Self& s) {
  ar.io(s.round_counter_);
  ar.span(s.rates_);
  std::uint32_t flags = 0;
  if constexpr (!Ar::kLoading) flags = encode_flags(s);
  ar.io(flags);
  if constexpr (Ar::kLoading) decode_flags(s, flags);
}

}  // namespace fixture
