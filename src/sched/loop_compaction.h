// Optimal loop compaction of firing sequences (Sec. 12, after the dynamic
// programming algorithm of [2] — CDPPO).
//
// Given an arbitrary firing sequence (e.g. from the demand-driven
// scheduler, or the threading of a fine-grained FIR as in Fig. 28), find a
// looped schedule with the minimum number of actor appearances that
// flattens back to exactly that sequence. This is the paper's "regularity
// extraction": G0 A0 G1 A1 ... compacts to (n (G)(A)) when instances share
// a label.
//
// DP over subranges: a range is either split into two optimal halves or,
// when it is m >= 2 exact repetitions of a period p, the loop (m S(p)).
// Cost = number of leaves (appearances), the paper's inline code-size
// proxy; ties prefer fewer loops.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/schedule.h"
#include "sdf/graph.h"

namespace sdf {

struct CompactionResult {
  Schedule schedule;
  std::int64_t appearances = 0;  ///< leaves of the compacted schedule
  std::int64_t input_length = 0;
};

/// Optimal compaction; O(n^3) time over the sequence length, O(n^2) space.
/// Guard: throws std::length_error when `seq.size()` exceeds `max_length`
/// (the cubic DP is meant for code-size work on sequences of a few
/// thousand firings).
[[nodiscard]] CompactionResult compact_firing_sequence(
    const std::vector<ActorId>& seq, std::size_t max_length = 1024);

}  // namespace sdf
