// Looped schedules (Sec. 3 of the paper).
//
// A looped schedule is a sequence of terms; each term is either an actor
// firing with a repeat count ("3B" = fire B three times) or a schedule loop
// "(n T1 T2 ...)" whose body runs n times. A *single appearance schedule*
// (SAS) mentions each actor in exactly one leaf, giving code-size-optimal
// inline synthesis.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sdf/graph.h"
#include "sdf/repetitions.h"

namespace sdf {

/// One node of a looped schedule. Leaf iff `body` is empty, in which case
/// `actor` is the fired actor and `count` its residual repeat factor.
/// Internal nodes iterate their body `count` times in sequence.
class Schedule {
 public:
  Schedule() = default;

  /// Leaf: `count` consecutive firings of `actor`.
  static Schedule leaf(ActorId actor, std::int64_t count = 1);
  /// Loop: body executed `count` times.
  static Schedule loop(std::int64_t count, std::vector<Schedule> body);
  /// Sequence: loop with count 1 (printed without a leading count).
  static Schedule sequence(std::vector<Schedule> body);

  [[nodiscard]] bool is_leaf() const { return body_.empty(); }
  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] ActorId actor() const { return actor_; }
  [[nodiscard]] const std::vector<Schedule>& body() const { return body_; }
  [[nodiscard]] std::vector<Schedule>& body() { return body_; }

  void set_count(std::int64_t c) { count_ = c; }

  /// Total number of firings of `a` in one execution of this schedule.
  [[nodiscard]] std::int64_t firings(ActorId a) const;
  /// Firing counts for all actors at once.
  [[nodiscard]] Repetitions firing_vector(std::size_t num_actors) const;

  /// True when every actor that appears does so exactly once.
  [[nodiscard]] bool is_single_appearance(std::size_t num_actors) const;

  /// Left-to-right order of distinct actors as they first appear
  /// (lexorder(S) in the paper). For an SAS this lists each actor once.
  [[nodiscard]] std::vector<ActorId> lexorder() const;

  /// The explicit firing sequence. Throws std::length_error if it would
  /// exceed `limit` firings (loops make this exponential in general).
  [[nodiscard]] std::vector<ActorId> flatten(
      std::size_t limit = 1u << 22) const;

  /// Total number of firings in one execution.
  [[nodiscard]] std::int64_t total_firings() const;

  /// Number of leaves (used as the schedule-tree "time step" count basis).
  [[nodiscard]] std::int64_t num_leaves() const;

  /// Splices out count-1 internal nodes with a single child, merges nested
  /// counts of single-child loops, and drops empty bodies. Never changes
  /// the firing sequence.
  [[nodiscard]] Schedule normalized() const;

  /// Renders in the paper's notation, e.g. "(2 (3B)(5C))(7A)".
  [[nodiscard]] std::string to_string(const Graph& g) const;

  friend bool operator==(const Schedule& a, const Schedule& b);

 private:
  std::int64_t count_ = 1;
  ActorId actor_ = kInvalidActor;
  std::vector<Schedule> body_;
};

/// Parses the printed notation back into a Schedule; actor tokens are looked
/// up by name in `g`. Grammar (whitespace-insensitive):
///   seq    := term+
///   term   := [count] NAME | '(' count seq ')'
/// Examples: "(3A)(6B)(2C)", "(2 (3 B) (5 C)) (7 A)", "A B B".
/// Throws std::invalid_argument on malformed input or unknown names.
[[nodiscard]] Schedule parse_schedule(const Graph& g, std::string_view text);

std::ostream& operator<<(std::ostream& os, const Schedule& s);

}  // namespace sdf
