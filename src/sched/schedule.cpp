#include "sched/schedule.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sdf {

Schedule Schedule::leaf(ActorId actor, std::int64_t count) {
  if (count <= 0) throw std::invalid_argument("Schedule::leaf: count <= 0");
  Schedule s;
  s.count_ = count;
  s.actor_ = actor;
  return s;
}

Schedule Schedule::loop(std::int64_t count, std::vector<Schedule> body) {
  if (count <= 0) throw std::invalid_argument("Schedule::loop: count <= 0");
  if (body.empty()) throw std::invalid_argument("Schedule::loop: empty body");
  Schedule s;
  s.count_ = count;
  s.body_ = std::move(body);
  return s;
}

Schedule Schedule::sequence(std::vector<Schedule> body) {
  return loop(1, std::move(body));
}

std::int64_t Schedule::firings(ActorId a) const {
  if (is_leaf()) return actor_ == a ? count_ : 0;
  std::int64_t sum = 0;
  for (const Schedule& child : body_) sum += child.firings(a);
  return sum * count_;
}

Repetitions Schedule::firing_vector(std::size_t num_actors) const {
  Repetitions v(num_actors, 0);
  // Recursive lambda accumulating multiplier * leaf counts.
  auto walk = [&](auto&& self, const Schedule& s,
                  std::int64_t multiplier) -> void {
    if (s.is_leaf()) {
      if (s.actor_ >= 0 &&
          static_cast<std::size_t>(s.actor_) < num_actors) {
        v[static_cast<std::size_t>(s.actor_)] += multiplier * s.count_;
      }
      return;
    }
    for (const Schedule& child : s.body_) {
      self(self, child, multiplier * s.count_);
    }
  };
  walk(walk, *this, 1);
  return v;
}

bool Schedule::is_single_appearance(std::size_t num_actors) const {
  std::vector<std::int64_t> seen(num_actors, 0);
  bool ok = true;
  auto walk = [&](auto&& self, const Schedule& s) -> void {
    if (!ok) return;
    if (s.is_leaf()) {
      if (s.actor_ < 0 || static_cast<std::size_t>(s.actor_) >= num_actors ||
          ++seen[static_cast<std::size_t>(s.actor_)] > 1) {
        ok = false;
      }
      return;
    }
    for (const Schedule& child : s.body_) self(self, child);
  };
  walk(walk, *this);
  return ok;
}

std::vector<ActorId> Schedule::lexorder() const {
  std::vector<ActorId> order;
  auto walk = [&](auto&& self, const Schedule& s) -> void {
    if (s.is_leaf()) {
      if (std::find(order.begin(), order.end(), s.actor_) == order.end()) {
        order.push_back(s.actor_);
      }
      return;
    }
    for (const Schedule& child : s.body_) self(self, child);
  };
  walk(walk, *this);
  return order;
}

std::vector<ActorId> Schedule::flatten(std::size_t limit) const {
  std::vector<ActorId> firing_seq;
  auto walk = [&](auto&& self, const Schedule& s) -> void {
    if (s.is_leaf()) {
      if (firing_seq.size() + static_cast<std::size_t>(s.count_) > limit) {
        throw std::length_error("Schedule::flatten: firing limit exceeded");
      }
      firing_seq.insert(firing_seq.end(),
                        static_cast<std::size_t>(s.count_), s.actor_);
      return;
    }
    for (std::int64_t i = 0; i < s.count_; ++i) {
      for (const Schedule& child : s.body_) self(self, child);
    }
  };
  walk(walk, *this);
  return firing_seq;
}

std::int64_t Schedule::total_firings() const {
  if (is_leaf()) return count_;
  std::int64_t sum = 0;
  for (const Schedule& child : body_) sum += child.total_firings();
  return sum * count_;
}

std::int64_t Schedule::num_leaves() const {
  if (is_leaf()) return 1;
  std::int64_t sum = 0;
  for (const Schedule& child : body_) sum += child.num_leaves();
  return sum;
}

Schedule Schedule::normalized() const {
  if (is_leaf()) return *this;
  std::vector<Schedule> flat;
  for (const Schedule& child : body_) {
    Schedule c = child.normalized();
    // Splice count-1 loops into the parent sequence.
    if (!c.is_leaf() && c.count_ == 1) {
      for (Schedule& grand : c.body_) flat.push_back(std::move(grand));
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.size() == 1) {
    // Merge counts of a single-child loop.
    Schedule only = std::move(flat.front());
    only.count_ *= count_;
    return only;
  }
  Schedule s;
  s.count_ = count_;
  s.body_ = std::move(flat);
  return s;
}

std::string Schedule::to_string(const Graph& g) const {
  std::ostringstream os;
  auto walk = [&](auto&& self, const Schedule& s, bool top) -> void {
    if (s.is_leaf()) {
      os << '(';
      if (s.count_ != 1) os << s.count_;
      os << g.actor(s.actor_).name << ')';
      return;
    }
    const bool parens = !top || s.count_ != 1;
    if (parens) {
      os << '(';
      if (s.count_ != 1) os << s.count_ << ' ';
    }
    for (const Schedule& child : s.body_) self(self, child, false);
    if (parens) os << ')';
  };
  walk(walk, *this, true);
  return os.str();
}

bool operator==(const Schedule& a, const Schedule& b) {
  return a.count_ == b.count_ && a.actor_ == b.actor_ && a.body_ == b.body_;
}

namespace {

class Parser {
 public:
  Parser(const Graph& g, std::string_view text) : g_(g), text_(text) {}

  Schedule parse() {
    std::vector<Schedule> seq = parse_sequence();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing input");
    if (seq.empty()) fail("empty schedule");
    if (seq.size() == 1) return std::move(seq.front());
    return Schedule::sequence(std::move(seq)).normalized();
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("parse_schedule: " + what + " at position " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool peek_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  std::int64_t parse_count() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (start == pos_) return 1;
    return std::stoll(std::string(text_.substr(start, pos_ - start)));
  }

  std::string parse_name() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        ++pos_;
      } else {
        break;
      }
    }
    if (start == pos_) fail("expected actor name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::vector<Schedule> parse_sequence() {
    std::vector<Schedule> seq;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] == ')') break;
      seq.push_back(parse_term());
    }
    return seq;
  }

  Schedule parse_term() {
    skip_ws();
    if (text_[pos_] == '(') {
      ++pos_;
      const std::int64_t count = parse_count();
      std::vector<Schedule> seq = parse_sequence();
      if (!peek_is(')')) fail("expected ')'");
      ++pos_;
      if (seq.empty()) fail("empty loop body");
      if (seq.size() == 1 && seq.front().is_leaf()) {
        Schedule leaf = std::move(seq.front());
        // "(3 B)" and "(3B)" both mean three firings of B.
        if (leaf.count() == 1) return Schedule::leaf(leaf.actor(), count);
      }
      return Schedule::loop(count, std::move(seq));
    }
    const std::int64_t count =
        std::isdigit(static_cast<unsigned char>(text_[pos_])) ? parse_count()
                                                              : 1;
    const std::string name = parse_name();
    const auto actor = g_.find_actor(name);
    if (!actor) fail("unknown actor '" + name + "'");
    return Schedule::leaf(*actor, count);
  }

  const Graph& g_;
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Schedule parse_schedule(const Graph& g, std::string_view text) {
  return Parser(g, text).parse();
}

std::ostream& operator<<(std::ostream& os, const Schedule& s) {
  // Nameless rendering used by debuggers; prefer Schedule::to_string.
  auto walk = [&](auto&& self, const Schedule& node) -> void {
    if (node.is_leaf()) {
      os << '(' << node.count() << "a" << node.actor() << ')';
      return;
    }
    os << '(' << node.count() << ' ';
    for (const Schedule& child : node.body()) self(self, child);
    os << ')';
  };
  walk(walk, s);
  return os;
}

}  // namespace sdf
