#ifndef XMLUP_AUTOMATA_NFA_H_
#define XMLUP_AUTOMATA_NFA_H_

#include <cstdint>
#include <vector>

#include "automata/regex.h"

namespace xmlup {

using StateId = uint32_t;

/// A nondeterministic finite automaton with symbolic transition classes
/// (concrete label or any-label) and epsilon moves. Built by the Thompson
/// construction from the Regex IR; single start state, single accept state.
class Nfa {
 public:
  struct Transition {
    StateId from;
    LabelClass on;
    StateId to;
  };
  struct EpsilonTransition {
    StateId from;
    StateId to;
  };

  /// Thompson construction.
  static Nfa FromRegex(const Regex& regex);

  size_t num_states() const { return num_states_; }
  StateId start() const { return start_; }
  StateId accept() const { return accept_; }

  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Symbol transitions leaving `s` (indexed adjacency).
  const std::vector<uint32_t>& TransitionsFrom(StateId s) const {
    return by_state_[s];
  }

  /// Epsilon closure of a state set (sorted, deduplicated).
  std::vector<StateId> EpsilonClosure(std::vector<StateId> states) const;

  /// Precomputed epsilon closure of the single state `s` (sorted,
  /// deduplicated, includes `s`). Same contents as EpsilonClosure({s}),
  /// built once at construction — the product search calls this per
  /// enqueued pair, so it must not allocate.
  const std::vector<StateId>& ClosureFrom(StateId s) const {
    return closure_by_state_[s];
  }

 private:
  Nfa() = default;

  void BuildIndex();

  size_t num_states_ = 0;
  StateId start_ = 0;
  StateId accept_ = 0;
  std::vector<Transition> transitions_;
  std::vector<EpsilonTransition> epsilon_transitions_;
  std::vector<std::vector<uint32_t>> by_state_;
  std::vector<std::vector<StateId>> epsilon_by_state_;
  std::vector<std::vector<StateId>> closure_by_state_;
};

}  // namespace xmlup

#endif  // XMLUP_AUTOMATA_NFA_H_
