#include "sdf/io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/fault.h"
#include "util/status.h"

namespace sdf {
namespace {

/// One whitespace-delimited token with its 1-based column.
struct Token {
  std::string_view text;
  int column = 0;
};

std::vector<Token> tokenize(std::string_view line) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '\r') {
      ++i;
    }
    tokens.push_back(Token{line.substr(start, i - start),
                           static_cast<int>(start) + 1});
  }
  return tokens;
}

[[noreturn]] void fail(int line, int column, const std::string& what,
                       std::string actor = {}, std::string edge = {}) {
  Diagnostic diag;
  diag.message = "parse_graph_text: line " + std::to_string(line) +
                 (column > 0 ? ", column " + std::to_string(column) : "") +
                 ": " + what;
  diag.actor = std::move(actor);
  diag.edge = std::move(edge);
  diag.loc = SourceLoc{line, column};
  throw ParseError(std::move(diag));
}

std::int64_t parse_int(const Token& tok, int line, const char* field) {
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(
      tok.text.data(), tok.text.data() + tok.text.size(), value);
  if (ec != std::errc{} || ptr != tok.text.data() + tok.text.size()) {
    fail(line, tok.column,
         std::string(field) + " must be an integer, got '" +
             std::string(tok.text) + "'");
  }
  return value;
}

}  // namespace

Graph parse_graph_text(std::string_view text) {
  // Strip a UTF-8 byte-order mark (Windows editors prepend one) before
  // tokenizing, so line 1 column 1 is the first real character and the
  // leading keyword is not reported as unknown.
  if (text.size() >= 3 && text.substr(0, 3) == "\xEF\xBB\xBF") {
    text.remove_prefix(3);
  }
  Graph g;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::vector<Token> tokens = tokenize(line);
    if (tokens.empty()) continue;  // blank/comment line
    if (fault::enabled() && fault::should_fail("parse_oom")) {
      Diagnostic diag;
      diag.message = "parse_graph_text: line " + std::to_string(line_no) +
                     ": injected allocation failure";
      diag.loc = SourceLoc{line_no, tokens[0].column};
      throw ResourceExhaustedError(std::move(diag));
    }

    const std::string_view keyword = tokens[0].text;
    if (keyword == "graph") {
      if (tokens.size() < 2) {
        fail(line_no, tokens[0].column, "graph needs a name");
      }
      g.set_name(std::string(tokens[1].text));
    } else if (keyword == "actor") {
      if (tokens.size() < 2) {
        fail(line_no, tokens[0].column, "actor needs a name");
      }
      const std::string name(tokens[1].text);
      if (g.find_actor(name)) {
        fail(line_no, tokens[1].column, "duplicate actor '" + name + "'",
             name);
      }
      g.add_actor(name);
    } else if (keyword == "edge") {
      if (tokens.size() < 5) {
        fail(line_no, tokens[0].column,
             "edge needs: src snk prod cns [delay]");
      }
      if (tokens.size() > 6) {
        fail(line_no, tokens[6].column, "edge has trailing tokens");
      }
      const std::string src(tokens[1].text);
      const std::string snk(tokens[2].text);
      const std::int64_t prod = parse_int(tokens[3], line_no, "prod");
      const std::int64_t cns = parse_int(tokens[4], line_no, "cns");
      const std::int64_t delay =
          tokens.size() > 5 ? parse_int(tokens[5], line_no, "delay") : 0;
      const auto s = g.find_actor(src);
      const auto t = g.find_actor(snk);
      if (!s) {
        fail(line_no, tokens[1].column, "unknown actor '" + src + "'", src);
      }
      if (!t) {
        fail(line_no, tokens[2].column, "unknown actor '" + snk + "'", snk);
      }
      try {
        g.add_edge(*s, *t, prod, cns, delay);
      } catch (const std::invalid_argument& e) {
        fail(line_no, tokens[3].column, e.what(), {}, src + "->" + snk);
      }
    } else {
      fail(line_no, tokens[0].column,
           "unknown keyword '" + std::string(keyword) + "'");
    }
  }
  return g;
}

std::string write_graph_text(const Graph& g) {
  std::ostringstream os;
  os << "graph " << (g.name().empty() ? "unnamed" : g.name()) << "\n";
  for (const Actor& a : g.actors()) os << "actor " << a.name << "\n";
  for (const Edge& e : g.edges()) {
    os << "edge " << g.actor(e.src).name << " " << g.actor(e.snk).name << " "
       << e.prod << " " << e.cns;
    if (e.delay != 0) os << " " << e.delay;
    os << "\n";
  }
  return os.str();
}

Graph load_graph(const std::string& path) {
  if (fault::enabled() && fault::should_fail("io_open")) {
    throw IoError("load_graph: injected I/O failure opening " + path);
  }
  std::ifstream in(path);
  if (!in) throw IoError("load_graph: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_graph_text(buffer.str());
}

}  // namespace sdf
