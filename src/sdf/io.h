// Plain-text SDF graph format, for interchange with external tools.
//
//   # comment
//   graph cd_dat
//   actor A
//   actor B
//   edge A B 2 3       # prod 2, cns 3, no delay
//   edge A B 2 3 1     # trailing field = initial tokens
//
// Actors are declared before use; names are whitespace-free tokens.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "sdf/graph.h"

namespace sdf {

/// Parses the text format. Throws ParseError (a std::invalid_argument
/// carrying a Diagnostic with 1-based line/column and the offending
/// actor/edge — see util/status.h) on malformed input.
[[nodiscard]] Graph parse_graph_text(std::string_view text);

/// Serializes a graph; parse_graph_text(write_graph_text(g)) reproduces
/// the same actors/edges in order.
[[nodiscard]] std::string write_graph_text(const Graph& g);

/// Reads and parses a graph file (throws IoError, a std::runtime_error,
/// when it cannot be opened).
[[nodiscard]] Graph load_graph(const std::string& path);

}  // namespace sdf
